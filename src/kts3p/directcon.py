"""Direct difference-family constructions over product groups G x V_n.

Each constructor expands a fixed set of initial blocks by the multiplier
endomorphisms mu_s over a carefully chosen set S of ring elements, then
re-checks the advertised predicate from scratch before returning.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import groups as G
from .finring import build_ring, coprime_part, halving, semiregular_system
# is_df is unused here but stays importable as directcon.is_df: the
# benchmark's tracer wraps it as one of this module's predicates.
from .designkit import (FamilyWitness, is_df, is_doubly_disjoint,  # noqa: F401
                        is_j_resolvable)


class MultiplierGroup:
    """A group of mu_s automorphisms, given by the ring units s acting on the
    trailing V atom of the witness group.  They are strong: they fix the
    relative subgroup pointwise (s acts only on ring coordinates that vanish
    on H)."""

    def __init__(self, ring, generators):
        self.ring = ring
        self.generators = tuple(generators)
        members = {ring.one}
        frontier = [ring.one]
        while frontier:
            nxt = []
            for m in frontier:
                for g in self.generators:
                    p = ring.mul(m, g)
                    if p not in members:
                        members.add(p)
                        nxt.append(p)
            frontier = nxt
        self.members = frozenset(members)

    @property
    def order(self):
        return len(self.members)


def _attach_ring_atom(g_atoms, ring):
    if ring.n == 1:
        return G.GroupDescriptor(g_atoms)
    return G.GroupDescriptor(list(g_atoms) + [G.VAtom(ring)])


def _mu(group, ring, s):
    """mu_s on the trailing V atom (identity when the ring is trivial)."""
    if ring.n == 1:
        return lambda x: x
    units = group.unit_vector(len(group.atoms) - 1, s)
    return lambda x: group.mu(x, units)


def verify_multiplier_action(witness, mult: MultiplierGroup):
    """Each μ_s of `mult` maps the set of blocks onto itself and fixes the
    excluded elements.  μ_s acts on the trailing atom alone (see `_mu`), so
    it is computed once as a permutation of element ids: the trailing local
    id is permuted and the rest of each id kept."""
    group, ring = witness.group, mult.ring
    if ring.n == 1:
        return True
    index = group.element_index
    try:
        ids = np.array([[index[x] for x in b] for b in witness.blocks],
                       dtype=np.int64).reshape(-1, 3)
        fixed = np.array([index[h] for h in witness.excluded()],
                         dtype=np.int64)
    except KeyError:
        return False
    tail = group.atoms[-1]
    pad = group.zero[:group.width - tail.width]
    tail_elements = list(itertools.product(*tail.coord_lists()))
    head = np.arange(group.order) // tail.order * tail.order

    want = G.distinct_codes(G.block_codes(ids, group.order))
    for s in mult.members:
        f = _mu(group, ring, s)
        moved = [G.local_id(tail, f(pad + y)[len(pad):])
                 for y in tail_elements]
        perm = head + np.tile(moved, group.order // tail.order)
        if not (np.array_equal(
                G.distinct_codes(G.block_codes(perm[ids], group.order)), want)
                and np.array_equal(perm[fixed], fixed)):
            return False
    return True


def _check(witness, label):
    d = is_j_resolvable(witness)
    if not d:
        raise AssertionError(f"{label}: output fails resolvability: {d}")
    expect = (witness.group.order - len(witness.relative.carrier)) // 6
    if len(witness.blocks) != expect:
        raise AssertionError(
            f"{label}: {len(witness.blocks)} blocks, expected {expect}")
    if witness.multipliers and not verify_multiplier_action(witness, witness.multipliers):
        raise AssertionError(f"{label}: declared multipliers do not fix the family")
    return witness


def construct_9mod24(n):
    """A resolvable DF over D x V_{4n+1} relative to D x V_1."""
    m = 4 * n + 1
    ring = build_ring(m)
    if any(f.q % 4 != 1 for f in ring.fields):
        raise ValueError(f"all components of {m} must be 1 mod 4")
    sr = semiregular_system(ring, 4)
    u, nu = sr.u, ring.neg(sr.u)
    one, none = ring.one, ring.neg(ring.one)
    initial = [
        [(0, 0) + u, (0, 0) + nu, (0, 2) + none],
        [(0, 0) + one, (0, 1) + u, (1, 2) + nu],
        [(0, 0) + none, (0, 2) + u, (1, 1) + one],
        [(0, 1) + one, (0, 1) + none, (1, 1) + nu],
    ]
    group = _attach_ring_atom([G.DAtom()], ring)
    blocks = []
    for s in sorted(sr.S):
        f = _mu(group, ring, s)
        blocks.extend([f(x) for x in b] for b in initial)
    H = G.SubgroupView(group, [(a, b) + ring.zero for a in range(2) for b in range(3)])
    mult = MultiplierGroup(ring, sr.T_generators)
    assert mult.order == coprime_part(ring.psi, 2)
    w = FamilyWitness(group, blocks, "RDF", H, j=(1, 0) + ring.zero,
                      multipliers=mult)
    return _check(w, f"9mod24(n={n})")


def construct_15mod24(n):
    """A resolvable DF over G_1 x V_n relative to G_1 x V_1 (components 1 mod 4)."""
    ring = build_ring(n)
    if any(f.q % 4 != 1 for f in ring.fields):
        raise ValueError(f"all components of {n} must be 1 mod 4")
    sr = semiregular_system(ring, 4)
    u, nu = sr.u, ring.neg(sr.u)
    one, none = ring.one, ring.neg(ring.one)
    initial = [
        [(0, 0, 0) + none, (0, 0, 0) + one, (2, 1, 0) + nu],
        [(0, 0, 0) + nu, (0, 0, 0) + u, (2, 1, 1) + one],
        [(0, 0, 1) + one, (0, 1, 0) + none, (1, 1, 0) + nu],
        [(0, 0, 1) + u, (0, 1, 0) + nu, (1, 1, 0) + one],
        [(1, 0, 0) + none, (1, 1, 1) + one, (2, 0, 1) + u],
        [(1, 0, 0) + u, (1, 1, 1) + nu, (2, 1, 1) + none],
        [(1, 0, 1) + none, (2, 0, 0) + nu, (2, 1, 1) + u],
        [(1, 0, 1) + u, (2, 0, 1) + none, (2, 1, 0) + one],
    ]
    group = _attach_ring_atom([G.GAtom(1)], ring)
    blocks = []
    for s in sorted(sr.S):
        f = _mu(group, ring, s)
        blocks.extend([f(x) for x in b] for b in initial)
    H = G.SubgroupView(group, [(a, b, c) + ring.zero
                               for a in range(3) for b in range(2) for c in range(2)])
    mult = MultiplierGroup(ring, sr.T_generators)
    w = FamilyWitness(group, blocks, "RDF", H, j=(0, 1, 1) + ring.zero,
                      multipliers=mult)
    return _check(w, f"15mod24(n={n})")


def construct_15mod24bis(n):
    """A resolvable DF over G_1 x V_n relative to G_1 x V_1 (components 1 mod 6)."""
    ring = build_ring(n)
    if any(f.q % 6 != 1 for f in ring.fields):
        raise ValueError(f"all components of {n} must be 1 mod 6")
    sr = semiregular_system(ring, 6)
    u = sr.u
    u2 = ring.mul(u, u)
    # the order-6 unit satisfies u^2 - u + 1 = 0
    assert ring.add(ring.sub(u2, u), ring.one) == ring.zero
    one = ring.one
    neg = ring.neg
    initial = [
        [(0, 0, 0) + one, (0, 0, 0) + neg(u), (0, 0, 0) + u2],
        [(0, 0, 0) + u, (0, 1, 0) + neg(u2), (1, 1, 0) + neg(one)],
        [(0, 0, 1) + neg(u), (1, 0, 0) + u2, (2, 0, 1) + one],
        [(0, 0, 1) + u2, (1, 0, 1) + one, (1, 1, 1) + neg(u)],
        [(0, 0, 1) + one, (1, 1, 0) + u2, (2, 0, 0) + neg(u)],
        [(0, 1, 0) + u, (0, 1, 1) + neg(u2), (2, 0, 1) + neg(one)],
        [(0, 1, 0) + neg(one), (1, 1, 1) + u, (2, 0, 0) + neg(u2)],
        [(0, 1, 1) + neg(one), (1, 0, 0) + neg(u2), (2, 0, 1) + u],
        [(1, 0, 0) + one, (1, 0, 1) + neg(u), (2, 0, 1) + u2],
        [(1, 0, 1) + neg(u2), (1, 1, 1) + neg(one), (2, 1, 1) + u],
        [(1, 0, 1) + u, (2, 0, 1) + neg(u2), (2, 1, 1) + neg(one)],
        [(2, 0, 0) + u2, (2, 0, 1) + neg(u), (2, 1, 1) + one],
    ]
    group = _attach_ring_atom([G.GAtom(1)], ring)
    blocks = []
    for s in sorted(sr.S):
        f = _mu(group, ring, s)
        blocks.extend([f(x) for x in b] for b in initial)
    H = G.SubgroupView(group, [(a, b, c) + ring.zero
                               for a in range(3) for b in range(2) for c in range(2)])
    mult = MultiplierGroup(ring, sr.T_generators)
    assert mult.order == coprime_part(ring.psi, 6)
    w = FamilyWitness(group, blocks, "RDF", H, j=(0, 1, 1) + ring.zero,
                      multipliers=mult)
    return _check(w, f"15mod24bis(n={n})")


def lift_prdf(prdf, n):
    """Lift a pseudo-resolvable family over a doubly even pertinent group G to
    a resolvable DF over G x V_n, components of n all 3 mod 4 and > 3."""
    ring = build_ring(n)
    if any(f.q % 4 != 3 or f.q == 3 for f in ring.fields):
        raise ValueError(f"components of {n} must be 3 mod 4 and exceed 3")
    base = prdf.group
    if base.order % 4 != 0:
        raise ValueError("base group must have doubly even order")
    if prdf.prdf_pair is None:
        raise ValueError("PRDF witness must carry its resolving pair")
    ja, j1 = prdf.prdf_pair  # j1 is the coset subgroup's involution
    j2, j3 = sorted(j for j in base.involutions if j != j1)
    x = prdf.spread().x

    # y_i = (sigma_i + 1)/(sigma_i - 1) with sigma_i the least square != 1
    y = []
    for f in ring.fields:
        sigma = min(s for s in f.squares if s != 1)
        y.append(f.mul(f.add(sigma, 1), f.inv(f.sub(sigma, 1))))
    y = tuple(y)
    ny = ring.neg(y)
    one, none = ring.one, ring.neg(ring.one)

    group = _attach_ring_atom(list(base.atoms), ring)
    lift = lambda g, r: g + r  # concatenate base element with ring element

    a1 = [lift(base.zero, one), lift(x, y), lift(x, ny)]
    a2 = [lift(base.zero, none), lift(j2, y), lift(j3, ny)]
    blocks = []
    for s in sorted(halving(ring)):
        f = _mu(group, ring, s)
        blocks.append([f(e) for e in a1])
        blocks.append([f(e) for e in a2])
    triple = (one, none, y)
    for b in prdf.blocks:
        lifted = [lift(g, t) for g, t in zip(b, triple)]
        for z in sorted(z for z in ring.elements() if ring.is_unit(z)):
            f = _mu(group, ring, z)
            blocks.append([f(e) for e in lifted])

    H = G.SubgroupView(group, [g + ring.zero for g in base.element_list])
    gens = []
    for i, f in enumerate(ring.fields):
        sq = sorted(f.squares)
        gen = next(s for s in sq if mult_order_in(f, s) == (f.q - 1) // 2)
        gens.append(tuple(gen if k == i else 1 for k in range(len(ring.fields))))
    mult = MultiplierGroup(ring, gens)
    assert mult.order == coprime_part(ring.psi, 2)
    w = FamilyWitness(group, blocks, "RDF", H, j=j1 + ring.zero,
                      multipliers=mult)
    return _check(w, f"lift_prdf({base!r}, n={n})")


def mult_order_in(f, s):
    k, acc = 1, s
    while acc != 1:
        acc = f.mul(acc, s)
        k += 1
    return k


def find_dddf_x(f):
    """The least non-square x of the field with x - 2 a nonzero square.  For
    q ≡ 1 (mod 4) exactly (q - 1)/4 non-squares qualify (a Jacobi-sum
    count), so the scan always finds one."""
    sq = f.squares
    two = f.add(1, 1)
    for x in range(1, f.q):
        if x not in sq and f.sub(x, two) in sq:
            return x
    raise AssertionError(f"no admissible x in field of order {f.q}")


def construct_dddf(n):
    """A doubly disjoint DF over Z_3 x V_n relative to Z_3 x V_1."""
    ring = build_ring(n)
    if any(f.q % 4 != 1 for f in ring.fields):
        raise ValueError(f"all components of {n} must be 1 mod 4")
    x = tuple(find_dddf_x(f) for f in ring.fields)
    two = ring.scalar(2)
    x2 = ring.mul(x, x)
    A = [(0,) + ring.one, (1,) + x, (1,) + ring.sub(two, x)]
    B = [(0,) + x, (2,) + x2, (2,) + ring.sub(ring.mul(two, x), x2)]
    group = _attach_ring_atom([G.ZAtom(3)], ring)

    S = halving(ring)
    assert S == {ring.neg(s) for s in S}, "halving must be symmetric here"
    T = sorted({min(s, ring.neg(s)) for s in S})
    blocks, translates = [], []
    for t in T:
        f = _mu(group, ring, t)
        blocks.append([f(e) for e in A])
        translates.append((0,) + ring.neg(ring.mul(two, t)))
        blocks.append([f(e) for e in B])
        translates.append((0,) + ring.neg(ring.mul(ring.mul(two, x), t)))
    H = G.SubgroupView(group, [(h,) + ring.zero for h in range(3)])
    w = FamilyWitness(group, blocks, "DDDF", H, translates=translates)
    d = is_doubly_disjoint(w)
    if not d:
        raise AssertionError(f"dddf(n={n}) fails: {d}")
    return w

"""Direct difference-family constructions over product groups G x V_n.

Each constructor expands a fixed set of initial blocks by the multiplier
endomorphisms mu_s over a carefully chosen set S of ring elements, then
re-checks the advertised predicate from scratch before returning.
"""

from __future__ import annotations

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


def mu_local(ring, s):
    """μ_s, x -> s·x, on the ring's local ids: the ids of the trailing V
    atom, read as mixed-radix digits with one field slot each, so the map
    is built digit by digit.  The trivial ring gives the one-entry map."""
    moved = np.zeros(1, dtype=np.int64)
    for f, u in zip(ring.fields, s):
        moved = (moved[:, None] * f.q
                 + np.array([f.mul(x, u) for x in range(f.q)])).ravel()
    return moved


def mu_ids(group, ring, s):
    """μ_s as a permutation of element ids (indices into `element_list`):
    it acts on the trailing atom alone, so `mu_local` is tiled over the
    rest of each id."""
    return (np.arange(group.order) // ring.n * ring.n
            + np.tile(mu_local(ring, s), group.order // ring.n))


def develop(ring, initial, units, block_major=False):
    """The blocks μ_s(B), entries in B's order, for s in `units` and B in
    `initial` (ids of a group whose trailing atom is V_n), ordered by unit
    and then block, or block and then unit: id -> head·n + μ_s[id mod n]."""
    n = ring.n
    head, local = np.divmod(np.asarray(initial, dtype=np.int64), n)
    ids = np.array([head * n + mu_local(ring, s)[local] for s in units],
                   dtype=np.int64).reshape(len(units), *head.shape)
    if block_major:
        ids = ids.swapaxes(0, 1)
    return ids.reshape(-1, 3)


def verify_multiplier_action(witness, mult: MultiplierGroup):
    """Each μ_s of `mult` maps the set of blocks onto itself and fixes the
    excluded elements.  Only the generators are compared: μ_st = μ_s ∘ μ_t,
    and a composition of two maps that each take the block set onto itself
    and fix the excluded elements does the same, so the s that pass form a
    set closed under products.  It holds the generators, hence every
    member.  Each μ_s is computed once as a permutation of element ids
    (`mu_ids`)."""
    group, ring = witness.group, mult.ring
    if ring.n == 1:
        return True
    ids, fixed = witness.blocks, witness.excluded()
    want = G.distinct_codes(G.block_codes(ids, group.order))
    for s in mult.generators:
        perm = mu_ids(group, ring, s)
        if not (np.array_equal(
                G.distinct_codes(G.block_codes(perm[ids], group.order)), want)
                and np.array_equal(perm[fixed], fixed)):
            return False
    return True


def _check(witness, label):
    d = is_j_resolvable(witness)
    if not d:
        raise AssertionError(f"{label}: output fails resolvability: {d}")
    expect = (witness.group.order - len(witness.relative)) // 6
    if len(witness.blocks) != expect:
        raise AssertionError(
            f"{label}: {len(witness.blocks)} blocks, expected {expect}")
    if witness.multipliers and not verify_multiplier_action(witness, witness.multipliers):
        raise AssertionError(f"{label}: declared multipliers do not fix the family")
    return witness


def _semiregular_family(head, n, lam, initial, label):
    """A resolvable DF over head x V_n relative to head x V_1, for n whose
    components are all 1 mod lam: the blocks `initial(ring, u)`, u the
    order-lam unit of the semiregular system, developed by μ_s over its
    transversal S."""
    ring = build_ring(n)
    if any(f.q % lam != 1 for f in ring.fields):
        raise ValueError(f"all components of {n} must be 1 mod {lam}")
    sr = semiregular_system(ring, lam)
    group = G.GroupDescriptor([head, G.VAtom(ring)])
    blocks = develop(ring, G.triple_ids(group, initial(ring, sr.u)),
                     sorted(sr.S))
    H = G.SubgroupView(group, np.arange(head.order) * n)  # head x {0}
    mult = MultiplierGroup(ring, sr.T_generators)
    assert mult.order == coprime_part(ring.psi, lam)
    w = FamilyWitness(group, blocks, "RDF", H, j=group.canonical_involution,
                      multipliers=mult)
    return _check(w, label)


def construct_9mod24(n):
    """A resolvable DF over D x V_{4n+1} relative to D x V_1."""
    def initial(ring, u):
        nu, one, none = ring.neg(u), ring.one, ring.neg(ring.one)
        return [
            [(0, 0) + u, (0, 0) + nu, (0, 2) + none],
            [(0, 0) + one, (0, 1) + u, (1, 2) + nu],
            [(0, 0) + none, (0, 2) + u, (1, 1) + one],
            [(0, 1) + one, (0, 1) + none, (1, 1) + nu],
        ]
    return _semiregular_family(G.DAtom(), 4 * n + 1, 4, initial,
                               f"9mod24(n={n})")


def construct_15mod24(n):
    """A resolvable DF over G_1 x V_n relative to G_1 x V_1 (components 1 mod 4)."""
    def initial(ring, u):
        nu, one, none = ring.neg(u), ring.one, ring.neg(ring.one)
        return [
            [(0, 0, 0) + none, (0, 0, 0) + one, (2, 1, 0) + nu],
            [(0, 0, 0) + nu, (0, 0, 0) + u, (2, 1, 1) + one],
            [(0, 0, 1) + one, (0, 1, 0) + none, (1, 1, 0) + nu],
            [(0, 0, 1) + u, (0, 1, 0) + nu, (1, 1, 0) + one],
            [(1, 0, 0) + none, (1, 1, 1) + one, (2, 0, 1) + u],
            [(1, 0, 0) + u, (1, 1, 1) + nu, (2, 1, 1) + none],
            [(1, 0, 1) + none, (2, 0, 0) + nu, (2, 1, 1) + u],
            [(1, 0, 1) + u, (2, 0, 1) + none, (2, 1, 0) + one],
        ]
    return _semiregular_family(G.GAtom(1), n, 4, initial, f"15mod24(n={n})")


def construct_15mod24bis(n):
    """A resolvable DF over G_1 x V_n relative to G_1 x V_1 (components 1 mod 6)."""
    def initial(ring, u):
        u2 = ring.mul(u, u)
        # the order-6 unit satisfies u^2 - u + 1 = 0
        assert ring.add(ring.sub(u2, u), ring.one) == ring.zero
        one = ring.one
        neg = ring.neg
        return [
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
    return _semiregular_family(G.GAtom(1), n, 6, initial,
                               f"15mod24bis(n={n})")


def lift_prdf(prdf, n):
    """Lift a pseudo-resolvable family over a doubly even pertinent group G to
    a resolvable DF over G x V_n, components of n all 3 mod 4 and > 3."""
    if n <= 1:
        raise ValueError("lifting a PRDF needs n > 1")
    ring = build_ring(n)
    if any(f.q % 4 != 3 or f.q == 3 for f in ring.fields):
        raise ValueError(f"components of {n} must be 3 mod 4 and exceed 3")
    base = prdf.group
    if base.order % 4 != 0:
        raise ValueError("base group must have doubly even order")
    if prdf.prdf_pair is None:
        raise ValueError("PRDF witness must carry its resolving pair")
    j1 = prdf.prdf_pair[1]  # the coset subgroup's involution
    # the initial blocks below are element tuples
    el = base.element_list
    j2, j3 = (el[j] for j in base.involutions if j != j1)
    x = el[prdf.spread().x]

    # y_i = (sigma_i + 1)/(sigma_i - 1) with sigma_i the least square != 1
    y = []
    for f in ring.fields:
        sigma = min(s for s in f.squares if s != 1)
        y.append(f.mul(f.add(sigma, 1), f.inv(f.sub(sigma, 1))))
    y = tuple(y)
    ny = ring.neg(y)
    one, none = ring.one, ring.neg(ring.one)

    group = G.GroupDescriptor([*base.atoms, G.VAtom(ring)])
    # (g, r) in G x V_n is the tuple g + r, with id id(g)·n + id(r)
    a1 = [base.zero + one, x + y, x + ny]
    a2 = [base.zero + none, j2 + y, j3 + ny]
    shift = [G.local_id(group.atoms[-1], t) for t in (one, none, y)]
    blocks = np.concatenate((
        develop(ring, G.triple_ids(group, [a1, a2]), sorted(halving(ring))),
        develop(ring, prdf.blocks * n + shift, sorted(ring.units()),
                block_major=True)))

    H = G.SubgroupView(group, np.arange(base.order) * n)  # base x {0}
    gens = []
    for i, f in enumerate(ring.fields):
        gen = f.least_generator((f.q - 1) // 2)  # generates the squares
        gens.append(tuple(gen if k == i else 1 for k in range(len(ring.fields))))
    mult = MultiplierGroup(ring, gens)
    assert mult.order == coprime_part(ring.psi, 2)
    w = FamilyWitness(group, blocks, "RDF", H, j=j1 * n, multipliers=mult)
    return _check(w, f"lift_prdf({base!r}, n={n})")


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
    if n <= 1:
        raise ValueError("a doubly disjoint family needs n > 1")
    ring = build_ring(n)
    if any(f.q % 4 != 1 for f in ring.fields):
        raise ValueError(f"all components of {n} must be 1 mod 4")
    x = tuple(find_dddf_x(f) for f in ring.fields)
    two = ring.scalar(2)
    x2 = ring.mul(x, x)
    A = [(0,) + ring.one, (1,) + x, (1,) + ring.sub(two, x)]
    B = [(0,) + x, (2,) + x2, (2,) + ring.sub(ring.mul(two, x), x2)]
    group = G.GroupDescriptor([G.ZAtom(3), G.VAtom(ring)])

    S = halving(ring)
    assert S == {ring.neg(s) for s in S}, "halving must be symmetric here"
    T = sorted({min(s, ring.neg(s)) for s in S})
    blocks = develop(ring, G.triple_ids(group, [A, B]), T)
    # -2t and -2xt for each t; a translate (0, r) has the id of r in V_n
    translates = [G.local_id(group.atoms[-1], ring.neg(ring.mul(c, t)))
                  for t in T for c in (two, ring.mul(two, x))]
    H = G.SubgroupView(group, np.arange(3) * n)  # Z_3 x {0}
    w = FamilyWitness(group, blocks, "DDDF", H, translates=translates)
    d = is_doubly_disjoint(w)
    if not d:
        raise AssertionError(f"dddf(n={n}) fails: {d}")
    return w

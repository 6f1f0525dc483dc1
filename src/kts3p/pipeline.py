"""Order classification and the full recursive routes: from an order v down
to a finished Kirkman system carried by a sharply transitive group action
fixing the three extra points.

Each congruence class of orders gets its own ambient group shaped as
head x V(3-part) x V(Q-part) x V(P-part); keeping the odd parts as separate
atoms makes every quotient and embedding a plain coordinate map, and keeps
the multiplier-carrying part in the trailing slot.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import catalog, compose, verify
from . import groups as G
from .designkit import FamilyWitness, Spread, is_j_resolvable
from .directcon import (construct_9mod24, construct_15mod24,
                        construct_15mod24bis, construct_dddf, lift_prdf,
                        mu_ids, verify_multiplier_action)
from .finring import build_ring, factorize

# translates build_kts develops per GroupIndex.translation call; larger
# chunks raise the peak RSS and gain little
CHUNK = 32


class UnsupportedOrder(Exception):
    """Typed outcome for orders without a construction route."""

    def __init__(self, classification):
        self.classification = classification
        super().__init__(f"order {classification.v}: {classification.reason}")


@dataclass(frozen=True)
class Classification:
    v: int
    case: str      # "24n+9" | "24n+15" | "24n+21" | "48n+3" | "not-3-pyramidal"
    params: tuple
    admissible: bool   # a sharply transitive pertinent action can exist at all
    covered: bool      # the route can build every matrix it needs
    reason: str


def sum_of_two_squares(k):
    """True iff every prime ≡ 3 (mod 4) divides k to an even power."""
    return all(e % 2 == 0 for p, e in factorize(k).items() if p % 4 == 3)


def classify_order(v):
    if v < 9 or v % 6 != 3:
        raise ValueError(f"triple systems need v ≡ 3 (mod 6) and v >= 9, got {v}")
    if v % 24 == 9:
        n = (v - 9) // 24
        ok = sum_of_two_squares(4 * n + 1)
        return Classification(v, "24n+9", (n,), True, ok,
                              "" if ok else f"{4*n+1} is not a sum of two squares")
    if v % 24 == 15:
        n = (v - 15) // 24
        N = 2 * n + 1
        if N % 3 == 0:
            gap = _lift_gap(_sub1_shape(N)[2])
            return Classification(v, "24n+15", (n,), True, not gap, gap)
        if N == 1:
            return Classification(v, "24n+15", (n,), True, True, "")
        bad = [q for q in build_ring(N).components if q % 12 == 11]
        return Classification(v, "24n+15", (n,), True, not bad,
                              "" if not bad else
                              f"component {bad[0]} of {N} is 11 (mod 12)")
    if v % 24 == 21:
        return Classification(v, "24n+21", ((v - 21) // 24,), True, False,
                              "admissible order with no known route "
                              "(v ≡ 21 mod 24)")
    # v ≡ 3 (mod 24): needs v-3 = 4^(e+2) * 3 * n with n odd
    m = v - 3
    t = 0
    odd = m
    while odd % 2 == 0:
        odd //= 2
        t += 1
    if t % 2 == 0 and odd % 3 == 0:
        e = t // 2 - 2
        n = odd // 3
        if n % 3:
            gap = _lift_gap(_split_3mod4(n)[1])
        else:
            gap = ((compose.missing_pair(_odd_part(n)) if n != 3 else "")
                   or _lift_gap(_sub1_shape(n)[2]))
        return Classification(v, "48n+3", (e, n), True, not gap, gap)
    return Classification(v, "not-3-pyramidal", (), False, False,
                          f"{m} = 2^{t}·{odd} admits no group with exactly "
                          "three pairwise conjugate involutions")


def _lift_gap(P):
    """Why the route's lift over V_P cannot be built, or "": `lift_prdf`
    fails its resolvability check whenever P has two or more components
    (77, 133, 209, ... for every seed family), so such orders are not
    covered until the lift is mended."""
    k = len(build_ring(P).components)
    return (f"the PRDF lift over V{P} fails: {P} has {k} components"
            if k > 1 else "")


# ---------------------------------------------------------------------------
# coordinate plumbing between the ambient group, quotient models and matrices

def _head_atom(group):
    heads = [a for a in group.atoms if isinstance(a, (G.DAtom, G.GAtom))]
    assert len(heads) <= 1
    if heads:
        assert group.atoms[0] is heads[0], "head atoms sit first"
        return heads[0]
    return None


def _odd_slots(group):
    """(coordinate, component order) pairs for the odd abelian coordinates."""
    out = []
    for a, off in zip(group.atoms, group.offsets):
        if isinstance(a, G.VAtom):
            out.extend((off + i, f.q) for i, f in enumerate(a.ring.fields))
        elif isinstance(a, G.ZAtom):
            out.append((off, a.m))
    return out


def _slot_table(group):
    table = {}
    for off, q in _odd_slots(group):
        assert q not in table, "component orders are pairwise distinct"
        table[q] = off
    return table


def _place_fn(src, dst):
    """The canonical monomorphism src -> dst: heads matched up front (with the
    standard chain injection between G atoms), odd coordinates matched by
    component order, everything else zero."""
    sh, dh = _head_atom(src), _head_atom(dst)
    head_fn = None
    moves = []
    if sh is not None:
        if sh == dh:
            moves += [(i, i) for i in range(sh.width)]
        elif isinstance(sh, G.GAtom) and isinstance(dh, G.GAtom):
            head_fn = G.g_chain_embedding(sh.alpha, dh.alpha)
        else:
            raise ValueError(f"no embedding of {sh!r} into {dh!r}")
    table = _slot_table(dst)
    for off, q in _odd_slots(src):
        moves.append((off, table[q]))

    def fn(x):
        out = list(dst.zero)
        if head_fn is not None:
            out[0], out[1], out[2] = head_fn(x[:3])
        for so, do in moves:
            out[do] = x[so]
        return tuple(out)

    return fn


def align(w, dst):
    """Transport a witness along the canonical monomorphism into dst.
    Multipliers survive only when their ring is the trailing atom of dst."""
    fn = _place_fn(w.group, dst)
    ids = G.map_ids(fn, w.group, dst)
    if isinstance(w.relative, Spread):
        rel = Spread(dst, ids[w.relative.x])
    else:
        rel = G.SubgroupView(dst, ids[w.relative.ids])
    mult = w.multipliers
    if mult is not None:
        tail = dst.atoms[-1]
        if not (isinstance(tail, G.VAtom) and tail.ring.n == mult.ring.n):
            mult = None
    j, a, b = (None if x is None else ids[x] for x in (w.j, w.a, w.b))
    return FamilyWitness(
        dst, ids[w.blocks], w.kind, rel, j=j, a=a, b=b,
        translates=None if w.translates is None else ids[w.translates],
        multipliers=mult)


def _quotient(amb, model):
    """The zero-filled section model -> amb of the canonical epimorphism
    amb -> model on coordinates, and that epimorphism's kernel as a
    subgroup of amb."""
    ah, mh = _head_atom(amb), _head_atom(model)
    reduce_mod = None
    moves = []
    if mh is not None:
        if mh == ah:
            moves += [(i, i) for i in range(ah.width)]
        elif (isinstance(mh, G.GAtom) and isinstance(ah, G.GAtom)
              and mh.alpha < ah.alpha):
            reduce_mod = mh.m
        else:
            raise ValueError(f"no projection of {ah!r} onto {mh!r}")
    table = _slot_table(amb)
    for off, q in _odd_slots(model):
        moves.append((table[q], off))

    def section(mel):
        out = list(amb.zero)
        if reduce_mod is not None:
            out[0], out[1], out[2] = mel[0], mel[1], mel[2]
        for ao, mo in moves:
            out[ao] = mel[mo]
        return tuple(out)

    # the kernel: each coordinate the epimorphism reads is 0, or a multiple
    # of m in the two Z_{2^alpha} slots of a head reduced to level m
    cols = G.coord_columns(amb)
    kernel = np.ones(amb.order, dtype=bool)
    for ao, _ in moves:
        kernel &= cols[ao] == 0
    if reduce_mod is not None:
        kernel &= (cols[0] == 0) & (cols[1] % reduce_mod == 0) & (
            cols[2] % reduce_mod == 0)
    return section, G.SubgroupView(amb, np.flatnonzero(kernel))


def _embed_z4z4(alpha):
    """Z4 x Z4 onto the subgroup {0} x 2^(a-2)Z x 2^(a-2)Z of the head group."""
    m = 2 ** (alpha - 2)

    def fn(x):
        s, t = x
        return (0, (m * s) % (4 * m), (m * t) % (4 * m))

    return fn


def _embed_klein_v3(beta):
    """Z2 x Z6 onto K x V_3 where K is the Klein subgroup of the head; sends
    the splitting involution (1,0) to the canonical involution."""
    m = 2 ** (beta - 1)

    def fn(x):
        a, b = x
        return (0, ((a + b) % 2) * m, (a % 2) * m, b % 3)

    return fn


def _wstep(op, w=None, **extra):
    step = {"op": op, **extra}
    if w is not None:
        # the digest reads element tuples, three to a block
        it = map(w.group.element_list.__getitem__, w.blocks.ravel().tolist())
        blocks = tuple(zip(it, it, it))
        blob = repr((repr(w.group), blocks)).encode()
        step["group"] = repr(w.group)
        step["blocks"] = len(w.blocks)
        step["digest"] = hashlib.sha1(blob).hexdigest()[:12]
    return step


def _compose(amb, fam, steps=None, homogeneous=None, splittable=None,
             embed=None, **extra):
    """Compose fam, a resolvable family over a quotient model of amb, with a
    difference matrix over the kernel, resolved by amb's canonical
    involution.  The matrix is either built homogeneous over the group
    `homogeneous` (mode i) or the catalog's splittable matrix `splittable`
    (mode ii); it enters amb through `embed`, by default the canonical
    monomorphism.  The step is recorded in `steps` when given."""
    section, hv = _quotient(amb, fam.group)
    if homogeneous is not None:
        dm = compose.homogeneous_dm(homogeneous)
        mode, op = "i", "compose-homogeneous"
        extra["h"] = f"V{homogeneous.order}"
    else:
        dm = catalog.get(splittable)
        mode, op = "ii", "compose-splittable"
        extra["dm"] = splittable
    out = compose.df_compose_dm(
        amb, hv, section, fam, dm, embed or _place_fn(dm.group, amb),
        mode=mode, j=amb.canonical_involution, multipliers=fam.multipliers)
    if steps is not None:
        steps.append(_wstep(op, out, **extra))
    return out


def _close(pieces, inner_id, amb, steps):
    """Chain the subgroup-relative pieces and glue the small spread family."""
    entry = catalog.get(inner_id)
    inner = align(entry, amb)
    steps.append(_wstep("catalog", inner, id=inner_id))
    if pieces:
        chained = compose.chain_union(pieces)
        final = compose.pertinent_union(chained, inner)
        steps.append(_wstep("union", final))
    else:
        if amb.order != entry.group.order:
            raise AssertionError("degenerate closure needs the spread family "
                                 "to span the whole group")
        final = inner
        d = is_j_resolvable(final)
        if not d:
            raise AssertionError(f"closure predicate failed: {d}")
    if final.multipliers and not verify_multiplier_action(final, final.multipliers):
        raise AssertionError("claimed multipliers do not act on the family")
    return final


# ---------------------------------------------------------------------------
# the three congruence-class routes

def construct_case_i(n):
    steps = []
    if n == 0:
        final = _close([], "rdf:D:empty", catalog.get("rdf:D:empty").group, steps)
    else:
        if not sum_of_two_squares(4 * n + 1):
            raise ValueError(f"{4*n+1} is not a sum of two squares")
        outer = construct_9mod24(n)
        steps.append(_wstep("9mod24", outer, n=n))
        inner = align(catalog.get("rdf:D:empty"), outer.group)
        steps.append(_wstep("catalog", inner, id="rdf:D:empty"))
        final = compose.pertinent_union(outer, inner)
        if not verify_multiplier_action(final, final.multipliers):
            raise AssertionError("multipliers lost in the final glue")
    final.trace = {"case": "24n+9", "steps": steps}
    return final


def _sub1_shape(N):
    """For 3 | N: e (2 when 9 exactly divides N, else 1), the split
    N / 3^e = Q·P with P the product of the components that are 3 (mod 4),
    and the odd atoms V(3^e), V(Q), V(P) of the chain's ambient group."""
    t = 0
    M = N
    while M % 3 == 0:
        M //= 3
        t += 1
    e = 2 if t == 2 else 1
    Q, P = _split_3mod4(N // 3 ** e)
    return e, Q, P, [G.VAtom(3 ** e), G.VAtom(Q), G.VAtom(P)]


def _split_3mod4(n):
    """n = Q·P, with P the product of n's components that are 3 (mod 4):
    the ring the route lifts a PRDF over, and the rest."""
    P = math.prod(q for q in build_ring(n).components if q % 4 == 3)
    return n // P, P


def _odd_part(n):
    """The odd part that construct_case_iii composes the head tower with
    when 3 | n and n != 3: the odd atoms of _sub1_pieces(n)'s ambient group."""
    return G.GroupDescriptor(_sub1_shape(n)[3])


def _sub1_pieces(N, steps):
    """The (G_1 x V_N, G_1 x V_i) chain for 3 | N: returns the ambient group,
    its subgroup-relative pieces and the id of the closing spread family."""
    e, Q, P, odd_atoms = _sub1_shape(N)
    amb = G.GroupDescriptor([G.GAtom(1)] + odd_atoms)
    pieces = []
    if P > 1:
        prdf_id = "prdf:G1xV9" if e == 2 else "prdf:G1xV3"
        lifted = lift_prdf(catalog.get(prdf_id), P)
        steps.append(_wstep("lift", lifted, base=prdf_id, n=P))
        if Q > 1:
            piece = _compose(amb, lifted, steps,
                             homogeneous=G.GroupDescriptor([G.VAtom(Q)]))
        else:
            piece = align(lifted, amb)
        pieces.append(piece)
    if e == 2:
        mid = construct_15mod24(9 * Q)
        steps.append(_wstep("15mod24", mid, n=9 * Q))
        pieces.append(align(mid, amb))
        inner_id = "rdf:G1"
    else:
        if Q > 1:
            local = G.GroupDescriptor([G.GAtom(1), G.VAtom(3), G.VAtom(Q)])
            F = construct_dddf(Q)
            steps.append(_wstep("doubly-disjoint", F, n=Q))
            piece = _compose(local, F, steps, splittable="dm:G1")
            pieces.append(align(piece, amb))
        inner_id = "rdf:G1xV3"
    return amb, pieces, inner_id


def construct_case_ii(n):
    steps = []
    N = 2 * n + 1
    if N == 1:
        final = _close([], "rdf:G1", catalog.get("rdf:G1").group, steps)
    elif N % 3 == 0:
        amb, pieces, inner_id = _sub1_pieces(N, steps)
        final = _close(pieces, inner_id, amb, steps)
    else:
        comps = build_ring(N).components
        if any(q % 12 == 11 for q in comps):
            bad = next(q for q in comps if q % 12 == 11)
            raise ValueError(f"component {bad} of {N} is 11 (mod 12)")
        P = math.prod([q for q in comps if q % 12 == 7])
        Q = N // P
        if P == 1:
            piece = construct_15mod24(N)
            steps.append(_wstep("15mod24", piece, n=N))
            pieces, amb = [piece], piece.group
        elif Q == 1:
            piece = construct_15mod24bis(N)
            steps.append(_wstep("15mod24bis", piece, n=N))
            pieces, amb = [piece], piece.group
        else:
            amb = G.GroupDescriptor([G.GAtom(1), G.VAtom(P), G.VAtom(Q)])
            outer = construct_15mod24(Q)
            steps.append(_wstep("15mod24", outer, n=Q))
            top = _compose(amb, outer, steps,
                           homogeneous=G.GroupDescriptor([G.VAtom(P)]))
            bis = construct_15mod24bis(P)
            steps.append(_wstep("15mod24bis", bis, n=P))
            pieces = [top, align(bis, amb)]
        final = _close(pieces, "rdf:G1", amb, steps)
    final.trace = {"case": "24n+15", "steps": steps}
    return final


@lru_cache(maxsize=None)
def _g_step_rdf(alpha):
    """A resolvable DF over the head group of level alpha relative to the
    level alpha-1 subgroup; fixed tables for levels 2 and 3, then induction
    through the splittable 16-element matrix."""
    if alpha == 2:
        return catalog.get("rdf:G2:rel-G1")
    if alpha == 3:
        return catalog.get("rdf:G3:rel-G2")
    amb = G.GroupDescriptor([G.GAtom(alpha)])
    F = compose.as_doubly_disjoint(_g_step_rdf(alpha - 2))
    return _compose(amb, F, splittable="dm:Z4xZ4", embed=_embed_z4z4(alpha))


def _g_tower(alpha, amb):
    return [align(_g_step_rdf(b), amb) for b in range(2, alpha + 1)]


@lru_cache(maxsize=None)
def _g_full_rdf(alpha):
    """The full (level alpha, level 1) resolvable DF over the bare head."""
    amb = G.GroupDescriptor([G.GAtom(alpha)])
    return compose.chain_union(_g_tower(alpha, amb))


def _fourth_case_pieces(n, steps):
    """alpha = 2, 3 does not divide n: the P·Q split through the lifted
    pseudo-resolvable family over the 48-element head."""
    Q, P = _split_3mod4(n)
    amb = G.GroupDescriptor([G.GAtom(2), G.VAtom(Q), G.VAtom(P)])
    pieces = []
    if Q == 1:
        lifted = lift_prdf(catalog.get("prdf:G2"), n)
        steps.append(_wstep("lift", lifted, base="prdf:G2", n=n))
        pieces.append(align(lifted, amb))
        pieces.append(align(_g_step_rdf(2), amb))
        steps.append(_wstep("catalog", _g_step_rdf(2), id="rdf:G2:rel-G1"))
    else:
        if P > 1:
            lifted = lift_prdf(catalog.get("prdf:G2"), P)
            steps.append(_wstep("lift", lifted, base="prdf:G2", n=P))
            pieces.append(_compose(
                amb, lifted, steps, homogeneous=G.GroupDescriptor([G.VAtom(Q)])))
        local = G.GroupDescriptor([G.GAtom(2), G.VAtom(Q)])
        p48 = _compose(local, _g_step_rdf(2), steps,
                       homogeneous=G.GroupDescriptor([G.VAtom(Q)]))
        pieces.append(align(p48, amb))
        mid = construct_15mod24(Q)
        steps.append(_wstep("15mod24", mid, n=Q))
        pieces.append(align(mid, amb))
    return amb, pieces


def construct_case_iii(e, n):
    if e < 0 or n < 1 or n % 2 == 0:
        raise ValueError("needs e >= 0 and n odd")
    alpha = e + 2
    steps = []
    if n == 1:
        amb = G.GroupDescriptor([G.GAtom(alpha)])
        pieces = _g_tower(alpha, amb)
        steps.append(_wstep("head-tower", pieces[-1], alpha=alpha))
        final = _close(pieces, "rdf:G1", amb, steps)
    elif n == 3:
        amb = G.GroupDescriptor([G.GAtom(alpha), G.VAtom(3)])
        base = catalog.get("rdf:G2xV3:rel-G1xV3")
        steps.append(_wstep("catalog", base, id="rdf:G2xV3:rel-G1xV3"))
        pieces = [align(base, amb)]
        for beta in range(3, alpha + 1):
            local = G.GroupDescriptor([G.GAtom(beta), G.VAtom(3)])
            F = compose.as_doubly_disjoint(_g_step_rdf(beta - 1))
            piece = _compose(local, F, steps, splittable="dm:Z2xZ6",
                             embed=_embed_klein_v3(beta), beta=beta)
            pieces.append(align(piece, amb))
        final = _close(pieces, "rdf:G1xV3", amb, steps)
    elif n % 3 == 0:
        sub_amb, sub_pieces, inner_id = _sub1_pieces(n, steps)
        odd_atoms = list(sub_amb.atoms[1:])
        amb = G.GroupDescriptor([G.GAtom(alpha)] + odd_atoms)
        top = _compose(amb, _g_full_rdf(alpha), steps,
                       homogeneous=G.GroupDescriptor(odd_atoms))
        pieces = [top] + [align(p, amb) for p in sub_pieces]
        final = _close(pieces, inner_id, amb, steps)
    elif alpha == 2:
        amb, pieces = _fourth_case_pieces(n, steps)
        final = _close(pieces, "rdf:G1", amb, steps)
    else:
        amb2, pieces4 = _fourth_case_pieces(n, steps)
        odd_atoms = list(amb2.atoms[1:])
        amb = G.GroupDescriptor([G.GAtom(alpha)] + odd_atoms)
        pieces = []
        for beta in range(3, alpha + 1):
            local = G.GroupDescriptor([G.GAtom(beta)] + odd_atoms)
            piece = _compose(local, _g_step_rdf(beta), steps,
                             homogeneous=G.GroupDescriptor(odd_atoms),
                             beta=beta)
            pieces.append(align(piece, amb))
        pieces += [align(p, amb) for p in pieces4]
        final = _close(pieces, "rdf:G1", amb, steps)
    final.trace = {"case": "48n+3", "steps": steps}
    return final


# ---------------------------------------------------------------------------
# assembling and describing the finished system

@dataclass
class KirkmanSystem:
    """A resolved system: `points` is an int32 (v,) array holding each
    point's element id, or −3, −2, −1 for ∞1, ∞2, ∞3, so that `points + 3`
    indexes `groups.point_labels`; `blocks` is an int32 (b, 3) array of
    indices into `points` (point ids), and `resolution` is a list of int32
    (k, 3) arrays, one per parallel class."""
    order: int
    group: G.GroupDescriptor
    points: np.ndarray
    blocks: np.ndarray
    resolution: list
    witness: FamilyWitness | None = None
    trace: dict | None = None


def _class_rows(classes, v, codes, rows):
    """Each class of a (c, v / 3, 3) id array as one row of its blocks,
    sorted within and by code: the codes go into `codes`, a (c, v / 3)
    array of `groups.int_dtype(v ** 3)`, and the blocks they code into `rows`,
    (c, v) int32; a class that repeats a block raises."""
    G.block_codes(classes.reshape(-1, 3), v, out=codes.reshape(-1))
    codes.sort(axis=1)
    if np.any(np.diff(codes, axis=1) <= 0):
        raise AssertionError("a developed class repeats a block")
    G.code_rows(codes, v, out=rows)


def build_kts(rdf, trace=None):
    """Develop a spread-resolvable family into the full resolved system:
    one fixed class through the three extra points, and the half-orbit of
    the class pairing each extra point with a conjugating element."""
    d = is_j_resolvable(rdf)
    if not d:
        raise AssertionError(f"family is not resolvable: {d}")
    g = rdf.group
    j = rdf.j
    points = np.arange(-3, g.order, dtype=np.int32)
    v = len(points)
    # Q0 as point ids, 3 + element id: {∞k, x, x + j} for x = 0, a, b (the
    # zero's id is 0), then each block and its j-translate
    heads = np.array([0, rdf.a, rdf.b])
    q0_ids = np.empty((3 + 2 * len(rdf.blocks), 3), dtype=np.int64)
    q0_ids[:3] = np.stack([np.arange(3), 3 + heads,
                           3 + G.id_sum(g, heads, j)], axis=1)
    q0_ids[3::2] = 3 + rdf.blocks
    q0_ids[4::2] = 3 + G.id_sum(g, rdf.blocks, j)

    # develop the spread and the moving class by right translation through
    # an index view, CHUNK translates at a time; each class becomes one row
    # of its blocks, sorted within and by code, and one row of `codes`, the
    # codes of all b blocks.  Q0 + j = Q0, so t and j + t give the same
    # class: develop the one of each pair with the lower id, and the spread
    # from both S + t and (S + j) + t.
    gi = G.GroupIndex(g)
    spread = np.array(rdf.spread().order3)
    spread_ids = 3 + np.concatenate([spread, G.id_sum(g, spread, j)])
    by_j = G.translation_ids(g, [j], left=True)[0]
    reps = np.flatnonzero(by_j > np.arange(g.order))
    rows = np.empty((len(reps) + 1, v), dtype=np.int32)
    codes = np.empty((len(reps) + 1, v // 3), dtype=G.int_dtype(v ** 3))
    cosets = np.empty((len(reps), 6), dtype=np.int32)
    for start in range(0, len(reps), CHUNK):
        ts = reps[start:start + CHUNK]
        pperm = np.empty((len(ts), v), dtype=np.int32)
        pperm[:, :3] = np.arange(3)
        np.add(gi.translation(ts), 3, out=pperm[:, 3:])
        cosets[start:start + len(ts)] = pperm[:, spread_ids]
        at = slice(start + 1, start + 1 + len(ts))
        _class_rows(pperm[:, q0_ids], v, codes[at], rows[at])
    codes[0, :1] = G.block_codes(np.arange(3)[None], v)
    codes[0, 1:] = G.distinct_codes(G.block_codes(cosets.reshape(-1, 3), v))
    G.code_rows(codes[0], v, out=rows[0])

    # every row starts with its block through point 0: {0, 1, 2} for the
    # spread, then {0, t, j + t} with t before j + t in element_list.  So the
    # rows come out in increasing order of that block's code, which is the
    # sorted order of distinct rows; check it instead of sorting
    if not G.increasing(codes[:, 0]):
        raise AssertionError("classes are not in increasing order of their "
                             "block through point 0")
    classes = rows.reshape(len(rows), v // 3, 3)

    # the blocks are the classes' codes, sorted in place and decoded; a
    # block in two classes shows as a repeat
    codes = codes.reshape(-1)
    codes.sort()
    if len(codes) != v * (v - 1) // 6 or not G.increasing(codes):
        raise AssertionError("developed design has the wrong block count")
    blocks = G.code_rows(codes, v)
    return KirkmanSystem(order=v, group=g, points=points, blocks=blocks,
                         resolution=list(classes), witness=rdf, trace=trace)


def construct(v):
    """Classify v, run its route, assemble and self-verify the system."""
    cls = classify_order(v)
    if not cls.covered:
        raise UnsupportedOrder(cls)
    if cls.case == "24n+9":
        w = construct_case_i(*cls.params)
    elif cls.case == "24n+15":
        w = construct_case_ii(*cls.params)
    else:
        w = construct_case_iii(*cls.params)
    if w.group.order != v - 3:
        raise AssertionError("route produced a group of the wrong order")
    system = build_kts(w, trace={"classification": cls.case,
                                 "params": list(cls.params), **w.trace})
    report = verify.verify_full(system)
    if not report["ok"]:
        raise AssertionError(f"self-verification failed: {report}")
    return system


def automorphism_lower_bound(system):
    """m·|G| symmetries: translations plus the strong multiplier action,
    returned with explicit point permutations as witnesses.  They are maps
    of element ids (`groups.translation_ids`, `directcon.mu_ids`) lifted to
    point ids as `verify` lifts its translations (`verify.point_perms`), so
    the extra points stay fixed wherever they sit in `points`."""
    g = system.group
    w = system.witness
    mult = w.multipliers if w is not None else None
    m = mult.order if mult else 1
    gens = g.generators()
    names = [f"translate {G.encode_element(g, g.element_list[x])}"
             for x in gens]
    maps = [*G.translation_ids(g, gens)]
    if mult:
        names += [f"multiplier {s}" for s in mult.generators]
        maps += [mu_ids(g, mult.ring, s) for s in mult.generators]
    perms = verify.point_perms(system, np.reshape(maps, (-1, g.order)))
    return m * g.order, [(name, perm.tolist())
                         for name, perm in zip(names, perms)]

"""Recursive machinery: unions along subgroup chains, homogeneous
difference-matrix construction, and the DF x DM composition in its plain,
homogeneous and splittable variants.

Compositions re-verify their outputs from scratch; they never trust the
kind flags of their inputs.
"""

from __future__ import annotations

import numpy as np

from . import groups as G
from .designkit import (DifferenceMatrix, FamilyWitness, dm_check,
                        is_df, is_doubly_disjoint, is_j_resolvable)
from .directcon import develop


def chain_union(families):
    """Union of J-resolvable relative DFs along a subgroup chain, all already
    embedded in a common ambient group.  Sorted innermost-first; the result is
    resolvable relative to the innermost subgroup and inherits the outermost
    family's multipliers."""
    families = sorted(families, key=lambda w: len(w.excluded()))
    g = families[0].group
    j = families[0].j
    for w in families:
        if w.group != g:
            raise ValueError("chain members must share one ambient group")
        if w.j != j:
            raise ValueError("chain members must share the resolving involution")
    for inner, outer in zip(families, families[1:]):
        # inner is a DF inside outer's relative subgroup; isin by table,
        # since its sorting kind imports numpy.ma at first use
        if not np.isin(inner.blocks, outer.excluded(), kind="table").all():
            raise ValueError("chain mismatch: inner blocks leave the next subgroup")
        if not np.isin(inner.excluded(), outer.excluded(), kind="table").all():
            raise ValueError("chain mismatch: subgroups are not nested")
    blocks = np.concatenate([w.blocks for w in families])
    out = FamilyWitness(g, blocks, "RDF", families[0].relative, j=j,
                        multipliers=families[-1].multipliers)
    d = is_j_resolvable(out)
    if not d:
        raise AssertionError(f"chain: union is not resolvable: {d}")
    return out


def pertinent_union(outer, inner):
    """Glue a (G, H)-RDF with an (H, {2^3,3})-RDF already embedded in G."""
    g = outer.group
    if inner.group != g:
        raise ValueError("inner family must be embedded in the ambient group first")
    if inner.j != outer.j:
        raise ValueError("resolving involutions disagree")
    if not np.isin(inner.blocks, outer.excluded(), kind="table").all():
        raise ValueError("inner blocks must lie in the outer relative subgroup")
    out = FamilyWitness(g, np.concatenate((outer.blocks, inner.blocks)), "RDF",
                        inner.spread(), j=inner.j, a=inner.a, b=inner.b,
                        multipliers=outer.multipliers)
    d = is_j_resolvable(out)
    if not d:
        raise AssertionError(f"union: glued family is not resolvable: {d}")
    return out


def as_doubly_disjoint(w):
    """Re-read a {0,j}-resolvable family as doubly disjoint: translating every
    block by j produces a twin that tiles the complement alongside it."""
    out = FamilyWitness(w.group, w.blocks, "DDDF", w.relative, j=w.j,
                        translates=np.full(len(w.blocks), w.j),
                        multipliers=w.multipliers)
    d = is_doubly_disjoint(out)
    if not d:
        raise AssertionError(f"resolvable family is not doubly disjoint: {d}")
    return out


# ---------------------------------------------------------------------------
# homogeneous difference matrices over V-rings

# Pinned orthomorphism pairs over Z3 x GF(q), keyed by the cell count 3q;
# values are permutations of the cells (x, y) in sorted order, x in Z3 and y
# in GF(q), so cell (x, y) has index q·x + y.  A pair
# (sigma, rho) is a normalized (Z3 x GF(q), 4, 1) difference matrix with rows
# 0, g, sigma(g), rho(g).  No algebraic formula can replace these: every
# "affine per coordinate" ansatz dies on a counting obstruction when one
# coordinate has order 3, so the tables are search products, found offline
# and re-verified on use.  A cell count missing here has no matrix, and the
# orders that need it are not covered until its pair is added.
_PAIR_TABLE = {
    15: ([1, 3, 13, 12, 6, 2, 11, 5, 7, 10, 4, 9, 0, 8, 14],
         [11, 2, 1, 13, 9, 8, 0, 10, 14, 6, 4, 3, 12, 5, 7]),
    21: ([20, 19, 9, 5, 14, 7, 2, 11, 6, 4, 8, 15, 17, 13, 3, 16, 1, 10,
          12, 18, 0],
         [16, 1, 7, 9, 8, 2, 20, 4, 13, 10, 6, 14, 19, 5, 12, 3, 18, 11,
          17, 15, 0]),
    27: ([6, 13, 1, 24, 12, 23, 16, 20, 0, 17, 10, 9, 21, 19, 4, 5, 18, 3,
          14, 8, 7, 26, 25, 11, 22, 2, 15],
         [2, 10, 6, 9, 14, 5, 17, 24, 26, 21, 3, 7, 4, 16, 8, 23, 18, 15,
          22, 25, 12, 20, 11, 0, 1, 13, 19]),
    33: ([2, 25, 28, 1, 20, 18, 3, 21, 22, 29, 6, 30, 0, 23, 19, 32, 11, 26,
          17, 9, 13, 5, 4, 8, 24, 14, 27, 12, 31, 7, 16, 10, 15],
         [21, 12, 9, 24, 27, 13, 32, 7, 5, 8, 28, 31, 25, 10, 18, 20, 22,
          19, 1, 6, 23, 11, 4, 2, 15, 17, 29, 16, 0, 3, 14, 26, 30]),
    39: ([17, 30, 35, 38, 5, 29, 0, 12, 6, 8, 1, 26, 20, 32, 23, 25, 3,
          19, 13, 28, 36, 34, 10, 33, 24, 27, 7, 18, 31, 4, 2, 37, 11,
          15, 14, 21, 9, 16, 22],
         [6, 9, 28, 32, 2, 24, 20, 8, 18, 33, 17, 34, 37, 16, 23, 15, 4,
          29, 7, 27, 12, 26, 19, 5, 13, 38, 11, 31, 22, 36, 21, 14, 25,
          3, 10, 0, 35, 1, 30]),
}


def _slots(group):
    """The (coordinate, field) component slots of a pure V group of order
    > 3, split into the slots that take multiplier rows and the order-3 slot
    with the mate it is glued to (None when no component has order 3)."""
    slots = []
    for a, off in zip(group.atoms, group.offsets):
        if not isinstance(a, G.VAtom):
            raise ValueError("homogeneous_dm expects a pure V group")
        slots.extend((off + i, f) for i, f in enumerate(a.ring.fields))
    if group.order <= 3:
        raise ValueError("no homogeneous difference matrix over orders <= 3")
    three = [s for s in slots if s[1].q == 3]
    assert len(three) <= 1, "components are coprime, so at most one has order 3"
    plain = [s for s in slots if s[1].q != 3]
    if not three:
        return plain, None
    # glue the order-3 slot to the smallest other component
    mate = min(plain, key=lambda s: s[1].q)
    return [s for s in plain if s is not mate], (three[0], mate)


def missing_pair(group):
    """Why homogeneous_dm(group) cannot be built for want of a pinned
    orthomorphism pair, or "" when it can."""
    _, glued = _slots(group)
    q = glued[1][1].q if glued else 0
    if q and 3 * q not in _PAIR_TABLE:
        return (f"homogeneous difference matrix over {3 * q} cells "
                f"(Z3 x GF({q})) is not pinned")
    return ""


def homogeneous_dm(group):
    """A homogeneous difference matrix over a product of V atoms of odd order
    > 3.  Components of order > 3 get multiplier rows (g, 2g, 3g); an order-3
    component (there can be at most one) is glued to another component and
    takes its rows from a pinned orthomorphism pair, so the matrix exists
    here only when `missing_pair(group)` is empty.  Each row is one map of
    element ids (`groups.map_ids`)."""
    gap = missing_pair(group)
    if gap:
        raise ValueError(gap)
    plain, glued = _slots(group)

    def row(k):
        # g -> k·g on each plain slot, and the cell q·x + y of the glued
        # slots through the pair's permutation k - 2.  In a field of odd
        # order q > 3 the encodings 2 and 3 are distinct elements other than
        # 0 and 1, so the multipliers 2, 3, 2 - 1, 3 - 1 and 3 - 2 are all
        # nonzero
        def fn(cols):
            out = list(cols)
            for off, f in plain:
                times_k = np.array([f.mul(x, k) for x in range(f.q)])
                out[off] = times_k[cols[off]]
            if glued:
                (o3, _), (om, fm) = glued
                pair = np.array(_PAIR_TABLE[3 * fm.q][k - 2])
                out[o3], out[om] = np.divmod(
                    pair[fm.q * cols[o3] + cols[om]], fm.q)
            return out
        return G.map_ids(fn, group, group)

    dm = DifferenceMatrix(group, [np.arange(group.order), row(2), row(3)])
    rep = dm_check(dm)
    if not (rep["valid"] and rep["homogeneous"]):
        raise AssertionError(f"homogeneous_dm over {group!r} failed: {rep['problems']}")
    return dm


# ---------------------------------------------------------------------------
# DF x DM composition

def _mult_orbit_blocks(fam, mult):
    """Reorder the family blocks coherently along the multiplier orbits, so
    that each mu maps every ordered block onto another one position by
    position.  Any per-block ordering gives a valid composition (the matrix
    property is symmetric in its rows); this one is the ordering under which
    the multipliers survive the composition."""
    m = len(mult.members)
    images = develop(mult.ring, fam.blocks, sorted(mult.members),
                     block_major=True).tolist()
    seen = {}  # each block, sorted, to its first image in sweep order
    for i, b in enumerate(fam.blocks.tolist()):
        if tuple(b) not in seen:
            for img in map(tuple, images[i * m:(i + 1) * m]):
                if seen.setdefault(tuple(sorted(img)), img) != img:
                    raise AssertionError(
                        "multiplier action permutes a block internally; "
                        "orbit-coherent ordering is impossible")
    if len(seen) != len(fam.blocks):
        raise AssertionError("multiplier orbit sweep lost blocks")
    return list(seen.values())


def df_compose_dm(group, h_view, section, fam, dm, embed_h,
                  mode="plain", j=None, multipliers=None):
    """Compose a relative DF over the quotient model with a DM over H.

    group: ambient G; h_view: H as a (normal) subgroup of G, the kernel of
    an epimorphism from G onto the model group that fam lives over;
    section: model -> G, a right inverse of that epimorphism choosing coset
    reps.  The relative subgroup of the result is the preimage of fam's,
    the cosets section(r) + H.
    embed_h: DM-home-group -> G, an isomorphism onto H.
    mode "plain": any DF, any DM; mode "i": fam {H, j+H}-resolvable, dm
    homogeneous; mode "ii": fam doubly disjoint with recorded translates, dm
    splittable by the preimage of j.  j, the involution that resolves the
    result, is an element id of G.

    section and embed_h are each called once, on the source group's whole
    coordinate columns (`groups.map_ids`): given a tuple of equal-length
    int arrays, one per coordinate, they return the image's coordinate
    arrays.  So they must be written with indexing and integer arithmetic
    alone, as `Atom.add` is for `groups.atom_table`; a dict lookup or a
    branch on a coordinate fails there.
    """
    h = len(h_view)
    if not h_view.is_normal():
        raise ValueError("H must be normal in G")
    if dm.group.order != h:
        raise ValueError("difference matrix order must match |H|")
    rep = dm_check(dm)
    if not rep["valid"]:
        raise ValueError(f"difference matrix is broken: {rep['problems']}")
    embed = G.map_ids(embed_h, dm.group, group)
    lift = G.map_ids(section, fam.group, group)
    cols = embed[dm.rows].T
    if not np.isin(cols, h_view.ids, kind="table").all():
        raise ValueError("embed_h does not land in H")

    t_for = np.zeros(len(fam.blocks), dtype=np.int64)  # the zero's id
    if mode == "ii":
        if fam.translates is None:
            raise ValueError("mode ii needs a doubly disjoint family with translates")
        if j is None or j not in h_view.ids:
            raise ValueError("mode ii needs j inside H")
        if np.flatnonzero(embed == j)[0] not in rep["splittable"]:
            raise ValueError("matrix is not splittable by the involution")
        # t_for[i] = hh + section(tau_i) for the least hh in H such that
        # conjugating j by it gives j back
        t = G.id_sum(group, h_view.ids[:, None], lift[fam.translates])
        fixes = G.id_sum(group, G.id_sum(group, t, j), t, negate=True) == j
        if not fixes.any(axis=0).all():
            raise AssertionError(
                "no conjugating element in H: H is not pertinent?")
        t_for = t[fixes.argmax(axis=0), np.arange(t.shape[1])]
    elif mode == "i":
        if j is None or j in h_view.ids:
            raise ValueError("mode i needs an involution outside H")
        if not rep["homogeneous"]:
            raise ValueError("mode i needs a homogeneous matrix")

    half = h // 2
    base_blocks = fam.blocks
    if multipliers is not None and mode == "i":
        base_blocks = _mult_orbit_blocks(fam, multipliers)
    # cell (i, c, r) of the composition is section(block i)[r] + column c[r],
    # and in mode ii the second half of the columns is then translated by
    # t_for[i]; the sums run over element ids
    cells = G.id_sum(group, lift[np.reshape(base_blocks, (-1, 1, 3))], cols)
    if mode == "ii":
        cells[:, half:] = G.id_sum(group, cells[:, half:],
                                   t_for[:, None, None])
    rel = G.SubgroupView(group, G.id_sum(
        group, lift[fam.relative.ids][:, None], h_view.ids).ravel())
    out = FamilyWitness(group, cells.reshape(-1, 3),
                        "RDF" if mode != "plain" else "DF",
                        rel, j=j, multipliers=multipliers)
    if len(out.blocks) != len(fam.blocks) * h:
        raise AssertionError("compose: size bookkeeping failed")

    if mode == "plain":
        d = is_df(out)
    else:
        d = is_j_resolvable(out)
    if not d:
        raise AssertionError(f"compose: composition fails its predicate: {d}")
    return out

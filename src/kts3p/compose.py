"""Recursive machinery: unions along subgroup chains, homogeneous
difference-matrix construction, and the DF x DM composition in its plain,
homogeneous and splittable variants.

Compositions re-verify their outputs from scratch; they never trust the
kind flags of their inputs.
"""

from __future__ import annotations

from . import groups as G
from .designkit import (DifferenceMatrix, FamilyWitness, dm_check,
                        is_df, is_doubly_disjoint, is_j_resolvable)


def chain_union(families):
    """Union of J-resolvable relative DFs along a subgroup chain, all already
    embedded in a common ambient group.  Sorted innermost-first; the result is
    resolvable relative to the innermost subgroup and inherits the outermost
    family's multipliers."""
    def _rel_size(w):
        r = w.relative
        return len(r.carrier) if hasattr(r, "carrier") else len(r.union)

    families = sorted(families, key=_rel_size)
    g = families[0].group
    j = families[0].j
    for w in families:
        if w.group != g:
            raise ValueError("chain members must share one ambient group")
        if w.j != j:
            raise ValueError("chain members must share the resolving involution")
    for inner, outer in zip(families, families[1:]):
        gap = inner.relative.carrier - outer.relative.carrier
        # inner is a DF inside outer's relative subgroup
        if not all(x in outer.relative.carrier
                   for b in inner.blocks for x in b):
            raise ValueError("chain mismatch: inner blocks leave the next subgroup")
        if gap:
            raise ValueError("chain mismatch: subgroups are not nested")
    blocks = [b for w in families for b in w.blocks]
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
    H = outer.relative.carrier
    if not all(x in H for b in inner.blocks for x in b):
        raise ValueError("inner blocks must lie in the outer relative subgroup")
    out = FamilyWitness(g, list(outer.blocks) + list(inner.blocks), "RDF",
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
                        translates=[w.j] * len(w.blocks),
                        multipliers=w.multipliers)
    d = is_doubly_disjoint(out)
    if not d:
        raise AssertionError(f"resolvable family is not doubly disjoint: {d}")
    return out


# ---------------------------------------------------------------------------
# homogeneous difference matrices over V-rings

def _field_mult_pair(f):
    """Least (a, b) with a, b, a-1, b-1, b-a all nonzero in the field."""
    for a in sorted(range(2, f.q)):
        if f.sub(a, 1) == 0:
            continue
        for b in sorted(range(2, f.q)):
            if b == a or f.sub(b, 1) == 0 or f.sub(b, a) == 0:
                continue
            return a, b
    raise ValueError(f"field of order {f.q} admits no multiplier pair")


# Pinned solutions of the pair search below, found offline and re-verified on
# load.  Keyed by cell count; values are permutations of the sorted cell list
# given by index.  No algebraic formula can replace these: every "affine per
# coordinate" ansatz dies on a counting obstruction when one coordinate has
# order 3, so the tables are genuinely search products.
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


def _pinned_pair(order, sub):
    entry = _PAIR_TABLE.get(len(order))
    if entry is None:
        return None
    sidx, ridx = entry
    sigma = {g: order[sidx[i]] for i, g in enumerate(order)}
    rho = {g: order[ridx[i]] for i, g in enumerate(order)}
    ident = {g: g for g in order}
    for a, b in ((sigma, ident), (rho, ident), (rho, sigma)):
        if len({sub(a[g], b[g]) for g in order}) != len(order):
            return None
    return sigma, rho


def _orthomorphism_pair(cells, add, sub):
    """Permutations sigma, rho of `cells` with sigma, rho, sigma-id, rho-id,
    rho-sigma all bijective.  No multiplier pair exists when 3 divides the
    order, so this is a genuine search; the common cell counts come from the
    pinned table, everything else falls back to a seeded randomized search
    with restarts (deterministic, but slow beyond ~30 cells)."""
    import random
    n = len(cells)
    order = sorted(cells)

    pinned = _pinned_pair(order, sub)
    if pinned is not None:
        return pinned

    def attempt(seed, budget):
        rnd = random.Random(seed)
        sigma, rho = {}, {}
        used = {k: set() for k in ("s", "r", "sd", "rd", "rs")}
        nodes = 0

        def place(i):
            nonlocal nodes
            if i == n:
                return True
            nodes += 1
            if nodes > budget:
                raise TimeoutError
            g = order[i]
            svals = list(order)
            rnd.shuffle(svals)
            for sv in svals:
                if sv in used["s"]:
                    continue
                sd = sub(sv, g)
                if sd in used["sd"]:
                    continue
                rvals = list(order)
                rnd.shuffle(rvals)
                for rv in rvals:
                    if rv in used["r"]:
                        continue
                    rd = sub(rv, g)
                    rs = sub(rv, sv)
                    if rd in used["rd"] or rs in used["rs"]:
                        continue
                    sigma[g], rho[g] = sv, rv
                    for k, v in (("s", sv), ("r", rv), ("sd", sd),
                                 ("rd", rd), ("rs", rs)):
                        used[k].add(v)
                    if place(i + 1):
                        return True
                    for k, v in (("s", sv), ("r", rv), ("sd", sd),
                                 ("rd", rd), ("rs", rs)):
                        used[k].remove(v)
            return False

        try:
            return (sigma, rho) if place(0) else None
        except TimeoutError:
            return None

    for seed in range(200):
        found = attempt(seed, budget=50_000)
        if found is not None:
            return found
    raise ValueError("no orthomorphism pair found")


def homogeneous_dm(group):
    """A homogeneous difference matrix over a product of V atoms of odd order
    > 3.  Components of order > 3 get multiplier rows (g, a g, b g); an order-3
    component (there can be at most one) is paired with another component and
    handled by an explicit orthomorphism search."""
    slots = []  # (atom_index_offset, field)
    for a, off in zip(group.atoms, group.offsets):
        if not isinstance(a, G.VAtom):
            raise ValueError("homogeneous_dm expects a pure V group")
        for i, f in enumerate(a.ring.fields):
            slots.append((off + i, f))
    if group.order <= 3:
        raise ValueError("no homogeneous difference matrix over orders <= 3")

    three = [s for s in slots if s[1].q == 3]
    assert len(three) <= 1, "components are coprime, so at most one has order 3"
    plain = [s for s in slots if s[1].q != 3]

    per_slot = {}
    paired = None
    if three:
        # glue the order-3 slot to the smallest other component
        mate = min(plain, key=lambda s: s[1].q)
        plain = [s for s in plain if s is not mate]
        f3, fm = three[0][1], mate[1]
        cells = [(x, y) for x in range(3) for y in range(fm.q)]
        add = lambda u, v: (f3.add(u[0], v[0]), fm.add(u[1], v[1]))
        sub = lambda u, v: (f3.sub(u[0], v[0]), fm.sub(u[1], v[1]))
        sigma, rho = _orthomorphism_pair(cells, add, sub)
        paired = (three[0][0], mate[0], sigma, rho)
    for off, f in plain:
        per_slot[off] = _field_mult_pair(f)

    rows = [[], [], []]
    for g in group.element_list:
        e1, e2, e3 = list(g), list(g), list(g)
        for off, f in plain:
            a, b = per_slot[off]
            e2[off] = f.mul(g[off], a)
            e3[off] = f.mul(g[off], b)
        if paired:
            o3, om, sigma, rho = paired
            s = sigma[(g[o3], g[om])]
            r = rho[(g[o3], g[om])]
            e2[o3], e2[om] = s
            e3[o3], e3[om] = r
        rows[0].append(tuple(e1))
        rows[1].append(tuple(e2))
        rows[2].append(tuple(e3))
    dm = DifferenceMatrix(group, rows)
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
    from .directcon import _mu
    g = fam.group
    ordered = []
    seen = {}
    for b in fam.blocks:
        if tuple(sorted(b)) in seen:
            continue
        for s in sorted(mult.members):
            f = _mu(g, mult.ring, s)
            img = tuple(f(x) for x in b)
            key = tuple(sorted(img))
            if key in seen:
                if seen[key] != img:
                    raise AssertionError(
                        "multiplier action permutes a block internally; "
                        "orbit-coherent ordering is impossible")
                continue
            seen[key] = img
            ordered.append(img)
    if len(ordered) != len(fam.blocks):
        raise AssertionError("multiplier orbit sweep lost blocks")
    return ordered


def df_compose_dm(group, h_view, proj, section, fam, dm, embed_h,
                  mode="plain", j=None, multipliers=None):
    """Compose a relative DF over the quotient model with a DM over H.

    group: ambient G; h_view: H as a (normal) subgroup of G.
    proj: G -> quotient model group (the model fam lives over);
    section: model -> G, a right inverse of proj choosing coset reps.
    embed_h: DM-home-group -> G, an isomorphism onto H.
    mode "plain": any DF, any DM; mode "i": fam {H, j+H}-resolvable, dm
    homogeneous; mode "ii": fam doubly disjoint with recorded translates, dm
    splittable by the preimage of j.
    """
    h = len(h_view)
    if h == 1:
        # degenerate composition: the model group IS the ambient group
        mapped = [[section(x) for x in b] for b in fam.blocks]
        rel = G.SubgroupView(group, [gg for gg in group.element_list
                                     if proj(gg) in fam.relative.carrier],
                             check=False)
        out = FamilyWitness(group, mapped, "RDF" if j is not None else "DF",
                            rel, j=j, multipliers=multipliers)
    else:
        if not h_view.is_normal():
            raise ValueError("H must be normal in G")
        if dm.group.order != h:
            raise ValueError("difference matrix order must match |H|")
        cols = [[embed_h(x) for x in col] for col in dm.columns]
        for col in cols:
            for x in col:
                if x not in h_view.carrier:
                    raise ValueError("embed_h does not land in H")

        t_for = [group.zero] * len(fam.blocks)
        rep = dm_check(dm)
        if not rep["valid"]:
            raise ValueError(f"difference matrix is broken: {rep['problems']}")
        if mode == "ii":
            if fam.translates is None:
                raise ValueError("mode ii needs a doubly disjoint family with translates")
            if j not in h_view.carrier:
                raise ValueError("mode ii needs j inside H")
            j_dm = next(x for x in dm.group.element_list if embed_h(x) == j)
            if j_dm not in rep["splittable"]:
                raise ValueError("matrix is not splittable by the involution")
            for i, tau in enumerate(fam.translates):
                tau_hat = section(tau)
                ji = group.conj(tau_hat, j)
                for hh in sorted(h_view.carrier):
                    if group.conj(hh, ji) == j:
                        t_for[i] = group.add(hh, tau_hat)
                        break
                else:
                    raise AssertionError(
                        "no conjugating element in H: H is not pertinent?")
        elif mode == "i":
            if j is None or j in h_view.carrier:
                raise ValueError("mode i needs an involution outside H")
            if not rep["homogeneous"]:
                raise ValueError("mode i needs a homogeneous matrix")

        half = h // 2
        base_blocks = fam.blocks
        if multipliers is not None and mode == "i":
            base_blocks = _mult_orbit_blocks(fam, multipliers)
        blocks = []
        for i, b in enumerate(base_blocks):
            lifted = [section(x) for x in b]
            for c, col in enumerate(cols):
                blk = [group.add(x, m) for x, m in zip(lifted, col)]
                if mode == "ii" and c >= half:
                    plain_blk = list(blk)
                    blk = [group.add(x, t_for[i]) for x in blk]
                    # strong equivalence: the split composition is a blockwise
                    # translate of the plain one
                    assert blk == [group.add(x, t_for[i]) for x in plain_blk]
                blocks.append(blk)
        rel_carrier = [gg for gg in group.element_list
                       if proj(gg) in fam.relative.carrier]
        rel = G.SubgroupView(group, rel_carrier)
        out = FamilyWitness(group, blocks, "RDF" if mode != "plain" else "DF",
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

"""Independent checks on finished systems.

Everything here works from the point/block/class data alone: pair coverage,
partitioning of the resolution, the group action through its generators, and
(for systems that still carry their witness) re-derivation of the base blocks
from the orbit structure.  Nothing trusts the construction bookkeeping.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import groups as G
from .designkit import delta_family

MAX_PROBLEMS = 10
# verify_full re-derives base blocks only for groups up to this order
BASE_BLOCK_CAP = 360
# verify_automorphisms stops enumerating the generated group past this size
CLOSURE_CAP = 200_000
INF = (("inf", 1), ("inf", 2), ("inf", 3))


def _report(problems, **counts):
    return {"ok": not problems, **counts, "problems": problems[:MAX_PROBLEMS]}


def _labels(system, row):
    return tuple(system.points[i] for i in row)


def _sorted_ids(rows):
    """The three ids of each block in increasing order, as columns of the
    input's dtype (int32 min/max run several times faster than int64)."""
    a, b, c = rows.T
    a, b = np.minimum(a, b), np.maximum(a, b)
    b, c = np.minimum(b, c), np.maximum(b, c)
    a, b = np.minimum(a, b), np.maximum(a, b)
    return a, b, c


def _codes(rows, v):
    """One int64 code per block: sorted ids (a, b, c) give (a·v + b)·v + c,
    so equal codes mean equal blocks (for v below 2^21)."""
    a, b, c = _sorted_ids(rows)
    code = a.astype(np.int64)
    code *= v
    code += b
    code *= v
    code += c
    return code


def _sorted_codes(rows, v):
    codes = _codes(rows, v)
    codes.sort()
    return codes


def _pair_problems(system, pairs):
    """Messages for sorted pair codes that are not each unordered pair
    i < j of points exactly once."""
    v = len(system.points)
    codes, counts = np.unique(pairs, return_counts=True)
    first, second = np.divmod(codes, v)
    off = first < second
    problems = []
    missing = v * (v - 1) // 2 - int(off.sum())
    if missing:
        problems.append(f"{missing} pairs uncovered")
    for k in np.flatnonzero(off & (counts != 1))[:MAX_PROBLEMS]:
        problems.append(
            f"pair ({system.points[first[k]]}, {system.points[second[k]]}) "
            f"covered {counts[k]} times")
    return problems


def verify_sts(system):
    """Every unordered pair of distinct points lies in exactly one block:
    the pair codes i·v + j (i < j) of all blocks, sorted, are exactly
    v(v-1)/2 strictly increasing values."""
    v = len(system.points)
    problems = []
    if v != system.order:
        problems.append(f"order says {system.order} but there are {v} points")
    if len(set(system.points)) != v:
        problems.append("points are not distinct")
    arr = system.blocks
    stray = sorted(set(arr[(arr < 0) | (arr >= v)].tolist()))
    if stray:
        problems.append(f"blocks mention unknown point ids: {stray[:3]}")
        return _report(problems, v=v, blocks=len(arr))
    a, b, c = _sorted_ids(arr)
    for row in arr[(a == b) | (b == c)][:MAX_PROBLEMS]:
        problems.append(f"degenerate block {_labels(system, row)}")
    # the codes of pairs ab, ac and bc, built in place in one int64 array
    pairs = np.empty((3, len(arr)), dtype=np.int64)
    pairs[0] = a
    pairs[0] *= v
    pairs[1] = pairs[0]
    pairs[0] += b
    pairs[1] += c
    pairs[2] = b
    pairs[2] *= v
    pairs[2] += c
    pairs = pairs.ravel()
    pairs.sort()
    if len(pairs) != v * (v - 1) // 2 or np.any(pairs[1:] <= pairs[:-1]):
        problems += _pair_problems(system, pairs)
    return _report(problems, v=v, blocks=len(arr))


def verify_resolution(system):
    """The classes partition the blocks; each class partitions the points."""
    v = len(system.points)
    problems = []
    want = (v - 1) // 2
    if len(system.resolution) != want:
        problems.append(
            f"{len(system.resolution)} classes, expected {want}")
    if not system.resolution:
        return _report(problems, classes=0)
    flat = np.concatenate(system.resolution)
    if not np.array_equal(_sorted_codes(flat, v),
                          _sorted_codes(system.blocks, v)):
        problems.append("classes do not partition the block set")
    # class k partitions the points when it has v entries whose keys
    # k·v + id are distinct; an unknown id marks its class and becomes -1
    sizes = np.array([len(rows) for rows in system.resolution])
    bad = 3 * sizes != v
    keys = np.repeat(np.arange(len(sizes)) * v, 3 * sizes)
    ids = flat.ravel()
    stray = (ids < 0) | (ids >= v)
    bad[keys[stray] // v] = True
    keys += ids
    keys[stray] = -1
    keys.sort()
    repeated = keys[1:][keys[1:] == keys[:-1]]
    bad[repeated[repeated >= 0] // v] = True
    for k in np.flatnonzero(bad)[:MAX_PROBLEMS]:
        problems.append(f"class {k} is not a partition of the points")
    return _report(problems, classes=len(system.resolution))


def _class_keys(classes, v, perm=None):
    """The set of classes (after `perm`, if given), each as the bytes of its
    sorted block codes: one sort of all blocks keyed by class index·v³ +
    code, split by class sizes.  The caller keeps len(classes)·v³ < 2^63."""
    if not classes:
        return set()
    flat = np.concatenate(classes)
    if perm is not None:
        flat = perm[flat]
    sizes = [len(rows) for rows in classes]
    band = np.repeat(np.arange(len(sizes), dtype=np.int64) * v ** 3, sizes)
    keys = _codes(flat, v)
    keys += band
    keys.sort()
    keys -= band
    ends = np.cumsum(sizes).tolist()
    return {keys[i:j].tobytes() for i, j in zip([0] + ends, ends)}


def _translations(system, shifts, left=False):
    """For each shift s, the permutation of point ids that the right
    translation x -> x + s (or the left one, x -> s + x) induces through
    the point labels; the extra points stay fixed.  Each atom's part of the
    map is tabulated with that atom's own `add`, and a group label is read
    as its mixed-radix code over the group's coordinate ranges."""
    g = system.group
    ids = [i for i, p in enumerate(system.points) if p not in INF]
    coords = np.array([system.points[i] for i in ids],
                      dtype=np.int64).reshape(len(ids), g.width)
    radices = [len(r) for a in g.atoms for r in a.coord_lists()]
    codes = coords @ np.cumprod([1] + radices[::-1])[-2::-1]
    id_of = np.empty(g.order, dtype=np.int64)
    id_of[codes] = ids
    elements = [list(itertools.product(*a.coord_lists())) for a in g.atoms]
    where = [{x: i for i, x in enumerate(loc)} for loc in elements]
    perms = []
    for s in shifts:
        image = np.zeros((), dtype=np.int64)
        for a, off, loc, pos in zip(g.atoms, g.offsets, elements, where):
            t = s[off:off + a.width]
            table = [pos[a.add(t, x) if left else a.add(x, t)] for x in loc]
            image = image[..., None] * len(loc) + table
        perm = np.arange(len(system.points), dtype=np.int32)
        perm[ids] = id_of[image.ravel()[codes]]
        perms.append(perm)
    return perms


def _closure(seed, key, moves):
    """Everything reachable from seed by applying moves (`move[x]`), one
    item per key."""
    found = {key(seed): seed}
    frontier = [seed]
    while frontier:
        x = frontier.pop()
        for move in moves:
            y = move[x]
            if key(y) not in found:
                found[key(y)] = y
                frontier.append(y)
    return found


def _regularity_problems(right, left, start, size):
    """Problems unless the group generated by the permutations `right` acts
    regularly on the `size` points of the orbit of `start`.  Both `right`
    and `left` must move `start` onto `size` points and every left
    permutation must commute with every right one: a transitive group
    whose centralizer is transitive is regular (Dixon & Mortimer,
    Permutation Groups, Thm 4.2A).  Costs O(len(left)·len(right)·n)."""
    n = len(right[0]) if right else 0
    if any(not np.array_equal(np.sort(p), np.arange(n))
           for p in right + left):
        return ["a translation is not a permutation"]
    problems = []
    for name, perms in (("generator", right), ("left generator", left)):
        orbit = _closure(start, int, perms)
        if len(orbit) != size:
            problems.append(
                f"{name} orbit has size {len(orbit)}, expected {size}")
    if not all(np.array_equal(lp[rp], rp[lp]) for lp in left for rp in right):
        problems.append("left and right translations do not commute, so "
                        "the action is not sharply transitive")
    return problems


def verify_3pyramidal(system):
    """The recorded group acts sharply transitively on the non-extra points,
    fixes the three extra ones, and preserves blocks and classes.  Checked on
    generators: preservation by generators extends to the whole group, and
    the generated group is regular when it and the left translations are
    transitive and commute.  The action goes through the point labels,
    wherever they sit in `points`."""
    g = system.group
    v = len(system.points)
    if v != g.order + 3:
        return _report([f"expected {g.order} + 3 points"], group=repr(g))
    if set(system.points) != set(INF) | set(g.element_list):
        return _report(["points are not the three extra points and the "
                        "group elements"], group=repr(g))
    if len(system.resolution) * v ** 3 >= 2 ** 63:
        return _report([f"{len(system.resolution)} classes are too many to "
                        f"encode at v = {v}"], group=repr(g))
    problems = []
    inf_ids = sorted(system.points.index(p) for p in INF)
    base_sorted = _sorted_codes(system.blocks, v)
    base_classes = _class_keys(system.resolution, v)

    gens = list(g.generators())
    right = _translations(system, gens)
    for gen, perm in zip(gens, right):
        name = G.encode_element(g, gen)
        if not np.array_equal(_sorted_codes(perm[system.blocks], v),
                              base_sorted):
            problems.append(f"translation by {name} does not preserve blocks")
        if _class_keys(system.resolution, v, perm) != base_classes:
            problems.append(f"translation by {name} does not preserve classes")
        fixed = np.flatnonzero(perm == np.arange(v))
        if gen != g.zero and fixed.tolist() != inf_ids:
            problems.append(f"translation by {name} fixes {len(fixed)} points")
    problems += _regularity_problems(
        right, _translations(system, gens, left=True),
        system.points.index(g.zero), g.order)
    return _report(problems, group=repr(g), generators=len(gens))


def verify_automorphisms(system, generators):
    """Check explicit permutation witnesses and measure the group they
    generate (up to CLOSURE_CAP elements)."""
    problems = []
    v = len(system.points)
    base_sorted = _sorted_codes(system.blocks, v)
    base_classes = _class_keys(system.resolution, v)
    perms = []
    for name, perm in generators:
        perm = np.asarray(perm, dtype=np.int32)
        if sorted(perm.tolist()) != list(range(v)):
            problems.append(f"{name}: not a permutation")
            continue
        if not np.array_equal(_sorted_codes(perm[system.blocks], v),
                              base_sorted):
            problems.append(f"{name}: does not preserve blocks")
        if _class_keys(system.resolution, v, perm) != base_classes:
            problems.append(f"{name}: does not preserve classes")
        perms.append(tuple(perm.tolist()))

    order = None
    capped = False
    if not problems:
        members = {tuple(range(v))}
        frontier = list(members)
        while frontier and len(members) <= CLOSURE_CAP:
            p = frontier.pop()
            for q in perms:
                r = tuple(q[i] for i in p)
                if r not in members:
                    members.add(r)
                    frontier.append(r)
        if frontier:
            capped = True
        else:
            order = len(members)
    return _report(problems, generators=len(generators),
                   closure_order=order, capped=capped)


def extract_base_blocks(system):
    """Re-derive base blocks by orbit decomposition of the blocks avoiding the
    extra points.  Full-length orbits (size |G|) come from the difference
    family; the single short orbit (size |G|/3) is the developed spread.
    Representatives come back as label triples."""
    g = system.group
    v = len(system.points)
    is_inf = np.array([isinstance(p[0], str) for p in system.points])
    rows = np.sort(system.blocks, axis=1)
    rows = rows[~is_inf[rows].any(axis=1)]
    noinf, first = np.unique(_codes(rows, v), return_index=True)
    rows = rows[first]
    # every right translation, closed from the generators' permutations
    zero = system.points.index(g.zero)
    shifts = np.stack(list(_closure(
        np.arange(v, dtype=np.int32), lambda p: int(p[zero]),
        _translations(system, g.generators())).values()))
    seen = np.zeros(len(noinf), dtype=bool)
    reps, short = [], []
    while not seen.all():
        k = int(np.argmin(seen))
        rep = _labels(system, rows[k])
        orbit = np.unique(_codes(shifts[:, rows[k]], v))
        pos = np.searchsorted(noinf, orbit).clip(max=len(noinf) - 1)
        if not np.array_equal(noinf[pos], orbit):
            raise AssertionError(f"orbit of {rep} leaves the block set")
        seen[pos] = True
        if len(orbit) == g.order:
            reps.append(rep)
        elif 3 * len(orbit) == g.order:
            short.append(rep)
        else:
            raise AssertionError(
                f"orbit of {rep} has impossible length {len(orbit)}")
    if len(short) != 1:
        raise AssertionError(f"expected one short orbit, found {len(short)}")
    return reps, short[0]


def check_base_blocks(system):
    """The re-derived representatives generate the same difference multiset
    as the witness the system was built from."""
    w = system.witness
    problems = []
    if w is None:
        return _report(["no witness attached"])
    reps, short = extract_base_blocks(system)
    g = system.group
    if len(reps) != len(w.blocks):
        problems.append(
            f"{len(reps)} full orbits vs {len(w.blocks)} witness blocks")
    if delta_family(g, reps) != delta_family(g, w.blocks):
        problems.append("difference multisets disagree")
    # the spread holds 0, so a coset spread + t equal to the short orbit
    # has its t in the short orbit
    spread = w.spread().order3
    if not any({g.add(x, t) for x in spread} == set(short) for t in short):
        problems.append("short orbit is not the developed spread")
    return _report(problems, orbits=len(reps))


def verify_full(system):
    """Aggregate report; the base-block re-derivation runs when the group is
    small enough for the orbit sweep to stay cheap."""
    parts = {
        "sts": verify_sts(system),
        "resolution": verify_resolution(system),
        "pyramidal": verify_3pyramidal(system),
    }
    if system.witness is not None and system.group.order <= BASE_BLOCK_CAP:
        parts["base_blocks"] = check_base_blocks(system)
    return {"ok": all(p["ok"] for p in parts.values()), **parts}

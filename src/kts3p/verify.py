"""Independent checks on finished systems.

Everything here works from the point/block/class data alone: pair coverage,
partitioning of the resolution, the group action through its generators, and
(for systems that still carry their witness) re-derivation of the base blocks
from the orbit structure.  Nothing trusts the construction bookkeeping.
"""

from __future__ import annotations

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


def verify_sts(system):
    """Every unordered pair of distinct points lies in exactly one block."""
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
    repeats = (arr[:, [0, 0, 1]] == arr[:, [1, 2, 2]]).any(axis=1)
    for row in arr[repeats][:MAX_PROBLEMS]:
        problems.append(f"degenerate block {_labels(system, row)}")
    pair = np.zeros((v, v), dtype=np.int32)
    for i, jj in ((0, 1), (0, 2), (1, 2)):
        np.add.at(pair, (arr[:, i], arr[:, jj]), 1)
        np.add.at(pair, (arr[:, jj], arr[:, i]), 1)
    off = pair[~np.eye(v, dtype=bool)]
    if not np.all(off == 1):
        bad = np.argwhere((pair != 1) & ~np.eye(v, dtype=bool))
        for r, c in bad[:MAX_PROBLEMS]:
            problems.append(
                f"pair ({system.points[r]}, {system.points[c]}) "
                f"covered {pair[r, c]} times")
    if np.any(np.diag(pair)):
        problems.append("some block repeats a point")
    return _report(problems, v=v, blocks=len(arr))


def verify_resolution(system):
    """The classes partition the blocks; each class partitions the points."""
    v = len(system.points)
    problems = []
    want = (v - 1) // 2
    if len(system.resolution) != want:
        problems.append(
            f"{len(system.resolution)} classes, expected {want}")
    pool = _sorted_rows(system.blocks)
    if system.resolution:
        used = _sorted_rows(np.concatenate(system.resolution))
        if used.shape != pool.shape or not np.array_equal(used, pool):
            problems.append("classes do not partition the block set")
    for k, rows in enumerate(system.resolution):
        hit = np.bincount(rows.ravel(), minlength=v)
        if rows.size != v or not np.all(hit == 1):
            problems.append(f"class {k} is not a partition of the points")
            if len(problems) >= MAX_PROBLEMS:
                break
    return _report(problems, classes=len(system.resolution))


def _sorted_rows(arr):
    arr = np.sort(arr, axis=1)
    return arr[np.lexsort(arr.T[::-1])]


def _class_keys(class_arrays, perm=None):
    return {_sorted_rows(rows if perm is None else perm[rows]).tobytes()
            for rows in class_arrays}


def _translations(system, idx, shifts):
    """For each shift s, the permutation of point ids that the right
    translation x -> x + s induces through the point labels; the extra
    points stay fixed."""
    g = system.group
    perms = []
    for s in shifts:
        perm = np.arange(len(system.points), dtype=np.int32)
        for x in g.element_list:
            perm[idx[x]] = idx[g.add(x, s)]
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


def verify_3pyramidal(system):
    """The recorded group acts sharply transitively on the non-extra points,
    fixes the three extra ones, and preserves blocks and classes.  Checked on
    generators; preservation by generators extends to the whole group.  The
    action goes through the point labels, wherever they sit in `points`."""
    g = system.group
    problems = []
    if len(system.points) != g.order + 3:
        return _report([f"expected {g.order} + 3 points"], group=repr(g))
    if set(system.points) != set(INF) | set(g.element_list):
        return _report(["points are not the three extra points and the "
                        "group elements"], group=repr(g))
    idx = {p: i for i, p in enumerate(system.points)}
    inf_ids = {idx[p] for p in INF}
    base_sorted = _sorted_rows(system.blocks)
    base_classes = _class_keys(system.resolution)

    gens = list(g.generators())
    perms = _translations(system, idx, gens)
    for gen, perm in zip(gens, perms):
        name = G.encode_element(g, gen)
        if not np.array_equal(_sorted_rows(perm[system.blocks]), base_sorted):
            problems.append(f"translation by {name} does not preserve blocks")
        if _class_keys(system.resolution, perm) != base_classes:
            problems.append(f"translation by {name} does not preserve classes")
        fixed = set(np.flatnonzero(perm == np.arange(len(perm))).tolist())
        if gen != g.zero and fixed != inf_ids:
            problems.append(f"translation by {name} fixes {len(fixed)} points")

    # transitivity: the generator orbit of the zero element is everything
    orbit = _closure(idx[g.zero], int, perms)
    if len(orbit) != g.order:
        problems.append(
            f"generator orbit has size {len(orbit)}, expected {g.order}")
    # sharpness: only the identity translation fixes the base point
    stab = [x for x in g.element_list if g.add(g.zero, x) == g.zero]
    if stab != [g.zero]:
        problems.append("the action is not sharply transitive")
    return _report(problems, group=repr(g), generators=len(gens))


def verify_automorphisms(system, generators):
    """Check explicit permutation witnesses and measure the group they
    generate (up to CLOSURE_CAP elements)."""
    problems = []
    base_sorted = _sorted_rows(system.blocks)
    base_classes = _class_keys(system.resolution)
    v = len(system.points)
    perms = []
    for name, perm in generators:
        perm = np.asarray(perm, dtype=np.int32)
        if sorted(perm.tolist()) != list(range(v)):
            problems.append(f"{name}: not a permutation")
            continue
        if not np.array_equal(_sorted_rows(perm[system.blocks]), base_sorted):
            problems.append(f"{name}: does not preserve blocks")
        if _class_keys(system.resolution, perm) != base_classes:
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
    idx = {p: i for i, p in enumerate(system.points)}
    is_inf = np.array([isinstance(p[0], str) for p in system.points])
    rows = np.sort(system.blocks, axis=1)
    rows = rows[~is_inf[rows].any(axis=1)]

    def keys(r):
        return (r[:, 0].astype(np.int64) * v + r[:, 1]) * v + r[:, 2]

    noinf, first = np.unique(keys(rows), return_index=True)
    rows = rows[first]
    # every right translation, closed from the generators' permutations
    zero = idx[g.zero]
    shifts = np.stack(list(_closure(
        np.arange(v, dtype=np.int32), lambda p: int(p[zero]),
        _translations(system, idx, g.generators())).values()))
    seen = np.zeros(len(noinf), dtype=bool)
    reps, short = [], []
    while not seen.all():
        k = int(np.argmin(seen))
        rep = _labels(system, rows[k])
        orbit = np.unique(keys(np.sort(shifts[:, rows[k]], axis=1)))
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
    spread = list(w.spread().order3)
    cosets = {frozenset(g.add(x, t) for x in spread) for t in g.element_list}
    if frozenset(short) not in cosets:
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

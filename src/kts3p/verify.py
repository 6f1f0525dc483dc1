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


def _index(system):
    return {p: i for i, p in enumerate(system.points)}


def _block_array(system, idx):
    return np.array([[idx[p] for p in b] for b in system.blocks],
                    dtype=np.int32)


def _class_arrays(system, idx):
    return [np.array([[idx[p] for p in b] for b in cls], dtype=np.int32)
            for cls in system.resolution]


def _report(problems, **counts):
    return {"ok": not problems, **counts, "problems": problems[:MAX_PROBLEMS]}


def verify_sts(system):
    """Every unordered pair of distinct points lies in exactly one block."""
    v = len(system.points)
    problems = []
    if v != system.order:
        problems.append(f"order says {system.order} but there are {v} points")
    if len(set(system.points)) != v:
        problems.append("points are not distinct")
    idx = _index(system)
    stray = {p for b in system.blocks for p in b if p not in idx}
    if stray:
        problems.append(f"blocks mention unknown points: {sorted(stray)[:3]}")
        return _report(problems, v=v, blocks=len(system.blocks))
    arr = _block_array(system, idx)
    for b in system.blocks:
        if len(set(b)) != 3:
            problems.append(f"degenerate block {b}")
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
    return _report(problems, v=v, blocks=len(system.blocks))


def verify_resolution(system):
    """The classes partition the blocks; each class partitions the points."""
    v = len(system.points)
    problems = []
    want = (v - 1) // 2
    if len(system.resolution) != want:
        problems.append(
            f"{len(system.resolution)} classes, expected {want}")
    idx = _index(system)
    pool = _sorted_rows(_block_array(system, idx))
    used_rows = _class_arrays(system, idx)
    if used_rows:
        used = _sorted_rows(np.concatenate(used_rows))
        if used.shape != pool.shape or not np.array_equal(used, pool):
            problems.append("classes do not partition the block set")
    for k, rows in enumerate(used_rows):
        hit = np.bincount(rows.ravel(), minlength=v)
        if rows.size != v or not np.all(hit == 1):
            problems.append(f"class {k} is not a partition of the points")
            if len(problems) >= MAX_PROBLEMS:
                break
    return _report(problems, classes=len(system.resolution))


def _sorted_rows(arr):
    arr = np.sort(arr, axis=1)
    return arr[np.lexsort(arr.T[::-1])]


def _perm_preserves(perm, arr, base_sorted):
    mapped = _sorted_rows(perm[arr])
    return np.array_equal(mapped, base_sorted)


def _class_keys(class_arrays, perm=None):
    keys = set()
    for rows in class_arrays:
        if perm is not None:
            rows = perm[rows]
        keys.add(_sorted_rows(rows).tobytes())
    return keys


def verify_3pyramidal(system):
    """The recorded group acts sharply transitively on the non-extra points,
    fixes the three extra ones, and preserves blocks and classes.  Checked on
    generators; preservation by generators extends to the whole group."""
    g = system.group
    problems = []
    if len(system.points) != g.order + 3:
        return _report([f"expected {g.order} + 3 points"], group=repr(g))
    if set(system.points[:3]) != {("inf", 1), ("inf", 2), ("inf", 3)}:
        problems.append("the three extra points are missing or misplaced")
    idx = _index(system)
    arr = _block_array(system, idx)
    base_sorted = _sorted_rows(arr)
    class_arrays = _class_arrays(system, idx)
    base_classes = _class_keys(class_arrays)

    elements = list(g.element_list)
    pos = {x: k for k, x in enumerate(elements)}
    gens = list(g.generators())
    perms = []
    for gen in gens:
        perm = np.arange(len(system.points), dtype=np.int32)
        for x in elements:
            perm[3 + pos[x]] = 3 + pos[g.add(x, gen)]
        perms.append(perm)
        name = G.encode_element(g, gen)
        if not _perm_preserves(perm, arr, base_sorted):
            problems.append(f"translation by {name} does not preserve blocks")
        if _class_keys(class_arrays, perm) != base_classes:
            problems.append(f"translation by {name} does not preserve classes")
        fixed = int(np.sum(perm == np.arange(len(perm), dtype=np.int32)))
        if gen != g.zero and fixed != 3:
            problems.append(f"translation by {name} fixes {fixed} points")

    # transitivity: the generator orbit of the first group point is everything
    seen = {3}
    frontier = [3]
    while frontier:
        p = frontier.pop()
        for perm in perms:
            q = int(perm[p])
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    if len(seen) != g.order:
        problems.append(
            f"generator orbit has size {len(seen)}, expected {g.order}")
    # sharpness: only the identity translation fixes the base point
    stab = [x for x in elements if g.add(g.zero, x) == g.zero]
    if stab != [g.zero]:
        problems.append("the action is not sharply transitive")
    return _report(problems, group=repr(g), generators=len(gens))


def verify_automorphisms(system, generators):
    """Check explicit permutation witnesses and measure the group they
    generate (up to CLOSURE_CAP elements)."""
    problems = []
    idx = _index(system)
    arr = _block_array(system, idx)
    base_sorted = _sorted_rows(arr)
    class_arrays = _class_arrays(system, idx)
    base_classes = _class_keys(class_arrays)
    v = len(system.points)
    perms = []
    for name, perm in generators:
        perm = np.asarray(perm, dtype=np.int32)
        if sorted(perm.tolist()) != list(range(v)):
            problems.append(f"{name}: not a permutation")
            continue
        if not _perm_preserves(perm, arr, base_sorted):
            problems.append(f"{name}: does not preserve blocks")
        if _class_keys(class_arrays, perm) != base_classes:
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
    family; the single short orbit (size |G|/3) is the developed spread."""
    g = system.group
    noinf = {tuple(sorted(b)) for b in system.blocks
             if not any(isinstance(p[0], str) for p in b)}
    reps, short = [], []
    seen = set()
    for b in sorted(noinf):
        if b in seen:
            continue
        orbit = {tuple(sorted(g.add(x, t) for x in b)) for t in g.element_list}
        if not orbit <= noinf:
            raise AssertionError(f"orbit of {b} leaves the block set")
        seen |= orbit
        if len(orbit) == g.order:
            reps.append(b)
        elif 3 * len(orbit) == g.order:
            short.append(b)
        else:
            raise AssertionError(f"orbit of {b} has impossible length {len(orbit)}")
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

"""Independent checks on finished systems.

Everything here works from the point/block/class data alone: pair coverage,
partitioning of the resolution, the group action through its generators, and
(for systems that still carry their witness) re-derivation of the base blocks
from the orbit structure.  Nothing trusts the construction bookkeeping.
"""

from __future__ import annotations

import numpy as np

from . import groups as G
from .designkit import difference_counts

MAX_PROBLEMS = 10
# verify_full re-derives base blocks only for groups up to this order
BASE_BLOCK_CAP = 360
# verify_automorphisms stops enumerating the generated group past this size
CLOSURE_CAP = 200_000
# classes per gather when coding a resolution, and group elements per gather
# when verify_3pyramidal develops the class through the first extra point
CLASS_CHUNK = 32
DEVELOP_CHUNK = 128
INF = (("inf", 1), ("inf", 2), ("inf", 3))


def _report(problems, **counts):
    return {"ok": not problems, **counts, "problems": problems[:MAX_PROBLEMS]}


def _labels(system, row):
    return tuple(system.points[i] for i in row)


def _sorted_codes(rows, v):
    codes = G.block_codes(rows, v)
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
    a, b, c = G.sorted_ids(arr)
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
    if not np.array_equal(_sorted_codes(np.concatenate(system.resolution), v),
                          _sorted_codes(system.blocks, v)):
        problems.append("classes do not partition the block set")
    # a class of v / 3 blocks partitions the points when its ids, sorted,
    # are 0, 1, ..., v - 1
    sizes = np.array([len(rows) for rows in system.resolution])
    bad = 3 * sizes != v
    full = np.flatnonzero(~bad)
    if len(full):
        ids = np.stack([system.resolution[k].ravel() for k in full])
        ids.sort(axis=1)
        bad[full] = np.any(ids != np.arange(v), axis=1)
    for k in np.flatnonzero(bad)[:MAX_PROBLEMS]:
        problems.append(f"class {k} is not a partition of the points")
    return _report(problems, classes=len(system.resolution))


def _class_set(codes, sizes):
    """The set of classes, given the codes of their blocks class after class,
    as one canonical table: each class is a row of its sorted codes, padded
    to the largest class with int64's maximum.  The rows come in order of
    their lowest code when no two share it (disjoint classes never do);
    otherwise they are sorted and deduped as raw bytes.  Either form lists
    each distinct class once, so equal tables mean equal sets.  A
    permutation of the points that maps the classes onto the same set maps
    repeated classes to repeated ones, so the resolution and its image share
    their ties, take the same form and give equal tables."""
    width = max(sizes.max(initial=0), 1)
    if np.all(sizes == width):
        table = codes.reshape(len(sizes), width)
    else:
        cls = np.repeat(np.arange(len(sizes)), sizes)
        col = np.arange(len(codes)) - (sizes.cumsum() - sizes)[cls]
        table = np.full((len(sizes), width), np.iinfo(np.int64).max)
        table[cls, col] = codes
    table.sort(axis=1)
    lowest = np.sort(table[:, 0])
    if np.all(lowest[1:] != lowest[:-1]):
        return table[np.argsort(table[:, 0])]
    rows = table.view(f"V{8 * width}").ravel()
    rows.sort()
    return rows[G.run_starts(rows)].view(np.int64).reshape(-1, width)


def _class_table(classes, v):
    """`_class_set` of a list of classes, coded CLASS_CHUNK classes at a
    time."""
    sizes = np.array([len(rows) for rows in classes], dtype=np.int64)
    codes = np.empty(sizes.sum(), dtype=np.int64)
    at = 0
    for lo in range(0, len(classes), CLASS_CHUNK):
        part = G.block_codes(np.concatenate(classes[lo:lo + CLASS_CHUNK]), v)
        codes[at:at + len(part)] = part
        at += len(part)
    return _class_set(codes, sizes)


def _preservation(system):
    """A function telling, for a permutation of the point ids, whether it
    preserves the blocks (compared as sorted code arrays) and whether it
    preserves the classes (compared by `_class_set`)."""
    v = len(system.points)
    classes = [np.empty((0, 3), np.int32), *system.resolution]
    sizes = np.array([len(rows) for rows in system.resolution], dtype=np.int64)
    base_blocks = _sorted_codes(system.blocks, v)
    base_classes = _class_table(system.resolution, v)

    def preserves(perm):
        return (np.array_equal(_sorted_codes(perm[system.blocks], v),
                               base_blocks),
                np.array_equal(_class_set(G.block_codes(
                    perm[np.concatenate(classes)], v), sizes), base_classes))
    return preserves


def _point_codes(system):
    """The ids of the group points and each one's element id (its index in
    `element_list`): the label read as a mixed-radix code over the group's
    coordinate ranges."""
    g = system.group
    ids = [i for i, p in enumerate(system.points) if p not in INF]
    coords = np.array([system.points[i] for i in ids],
                      dtype=np.int64).reshape(len(ids), g.width)
    radices = [len(r) for a in g.atoms for r in a.coord_lists()]
    return np.array(ids), coords @ np.cumprod([1] + radices[::-1])[-2::-1]


def _translations(system, points, shifts, left=False):
    """For each shift s, the permutation of point ids that the right
    translation x -> x + s (or the left one, x -> s + x) induces through
    the point labels, given as `points = _point_codes(system)`; the extra
    points stay fixed.  The map of element ids comes from the shared
    per-atom tables (`groups.translation_ids`)."""
    ids, codes = points
    id_of = np.empty(system.group.order, dtype=np.int32)
    id_of[codes] = ids
    perms = []
    for s in shifts:
        perm = np.arange(len(system.points), dtype=np.int32)
        perm[ids] = id_of[G.translation_ids(system.group, s, left)[codes]]
        perms.append(perm)
    return perms


def _frontiers(seed, moves, key, chunk):
    """The rows of `seed`, then every row the moves reach from them (move m
    takes row r to m[r]), each kept once per entry in column `key`: yielded
    a frontier at a time, in pieces of at most `chunk` rows, so only two
    frontiers are ever held.  Seeded with one point this is the point's
    orbit; seeded with the identity it is the group the moves generate,
    when that group is semiregular (its elements then differ at every
    point).  Only the rows kept are ever gathered."""
    found = np.zeros(moves.shape[1], dtype=bool)
    found[seed[:, key]] = True
    level = [seed]
    while level:
        reached = []
        for rows in level:
            for lo in range(0, len(rows), chunk):
                part = rows[lo:lo + chunk]
                yield part
                hits = moves[:, part[:, key]]
                m, r = np.nonzero(~found[hits])
                hit = hits[m, r]
                by_hit = np.argsort(hit)
                first = by_hit[G.run_starts(hit[by_hit])]
                found[hit[first]] = True
                if len(first):
                    # one flat take: row r[i] through move m[i]
                    reached.append(moves.ravel().take(
                        part[r[first]] + (m[first] * moves.shape[1])[:, None]))
        level = reached


def _batched(parts, n):
    """The row arrays `parts` regrouped into arrays of at least n rows (the
    last may hold fewer), so that small frontiers share one pass."""
    held = []
    for part in parts:
        held.append(part)
        if sum(map(len, held)) >= n:
            yield np.concatenate(held)
            held = []
    if held:
        yield np.concatenate(held)


def _grow(seed, moves, key):
    """All rows of `_frontiers` at once.  The moves' powers m^2, m^4, ...
    join them, so a cycle of length L takes about log2(L) frontiers instead
    of L."""
    if not moves:
        return seed
    power = np.stack(moves)
    powers = [power]
    for _ in range(power.shape[1].bit_length()):
        power = power[np.arange(len(power))[:, None], power]
        powers.append(power)
    moves = np.concatenate(powers)
    return np.concatenate(list(_frontiers(seed, moves, key, moves.shape[1])))


def _regularity_problems(right, left, start, size):
    """Problems unless the group generated by the permutations `right` acts
    regularly on the `size` points of the orbit of `start`.  Both `right`
    and `left` must move `start` onto `size` points and every left
    permutation must commute with every right one: a transitive group
    whose centralizer is transitive is regular (Dixon & Mortimer,
    Permutation Groups, Thm 4.2A).  Costs O(len(left)·len(right)·n)."""
    n = len(right[0]) if right else 0
    right, left = (np.stack(p) if p else np.empty((0, n), np.int32)
                   for p in (right, left))
    if not np.array_equal(np.sort(np.concatenate((right, left)), axis=1),
                          np.broadcast_to(np.arange(n),
                                          (len(right) + len(left), n))):
        return ["a translation is not a permutation"]
    problems = []
    for name, perms in (("generator", right), ("left generator", left)):
        orbit = len(_grow(np.array([[start]]), list(perms), 0))
        if orbit != size:
            problems.append(
                f"{name} orbit has size {orbit}, expected {size}")
    # lp[rp] == rp[lp] for every left permutation lp and right one rp
    if not np.array_equal(left[:, right], right[:, left].swapaxes(0, 1)):
        problems.append("left and right translations do not commute, so "
                        "the action is not sharply transitive")
    return problems


def _point_problems(system):
    """Why the points cannot carry the group action: they must be the three
    extra points and the group elements, and every block and class entry
    must be a point id."""
    g = system.group
    v = len(system.points)
    if v != g.order + 3:
        return [f"expected {g.order} + 3 points"]
    if set(system.points) != set(INF) | set(g.element_list):
        return ["points are not the three extra points and the group "
                "elements"]
    for ids in (system.blocks, np.concatenate(system.resolution or [[]])):
        if ids.size and (ids.min() < 0 or ids.max() >= v):
            return ["blocks or classes mention unknown point ids"]
    return []


def _increasing(codes):
    return bool(np.all(codes[1:] > codes[:-1]))


def _develops(system, right, zero):
    """Whether one development of the class through the first extra point
    proves that the group H generated by the permutations `right`
    preserves the blocks and the classes.  Sound only when H acts
    regularly on the points other than the extra three, which the caller
    checks; False is no verdict, only a call for the per-generator
    comparison.

    Let C∞ be the class holding the extra points' block, C1 the class
    holding a block {∞1, 0, y}, and τ the element of H taking 0 to y.  A
    breadth-first search on the image of point 0 finds each h in H from
    the generators, as the row h[C1].  If τ(y) = 0 and τ[C1] = C1, then
    τ∘τ fixes 0 and so is 1, and h and h∘τ develop the same class, with
    (h∘τ)(0) = h(y): the classes h[C1] with h(0) < h(y) are the orbit
    C1·H once each.  If H fixes the extra points, each generator fixes C∞
    and the class set is {C∞} ∪ C1·H, H preserves the class set; it then
    preserves the blocks when they are distinct and are the blocks of the
    classes.  Each developed class is looked up in the class set as it
    comes, so a class outside it ends the search."""
    v = len(system.points)
    inf_ids = [system.points.index(p) for p in INF]
    sizes = {len(rows) for rows in system.resolution}
    k = max(sizes, default=0)
    if not right or sizes != {k} or not k:
        return False
    moves = np.stack(right)
    if np.any(moves[:, inf_ids] != inf_ids):
        return False
    blocks = G.block_codes(system.blocks, v)
    if not _increasing(blocks):
        blocks.sort()
    # classes of equal size give a table without padding, whose rows come
    # in order of their lowest code when no two share it
    table = _class_table(system.resolution, v)
    lowest = table[:, 0].copy()
    if not (len(blocks) and _increasing(blocks) and _increasing(lowest)
            and np.array_equal(np.sort(table, axis=None), blocks)):
        return False

    # y, C1 and C∞; every block code is in some row of the table
    through = G.block_codes(np.stack(np.broadcast_arrays(
        inf_ids[0], zero, np.arange(v, dtype=np.int32)), axis=1), v)
    present = blocks[np.minimum(np.searchsorted(blocks, through),
                                len(blocks) - 1)] == through
    present[[inf_ids[0], zero]] = False
    inf_code = G.block_codes(np.array([inf_ids]), v)[0]
    if not (present.any() and inf_code in blocks):
        return False
    y = int(np.argmax(present))
    del blocks
    at1, at_inf = (int(np.argmax(table == code)) // k
                   for code in (through[y], inf_code))
    c_inf = G.code_rows(table[at_inf], v)
    images = np.sort(G.block_codes(moves[:, c_inf].reshape(-1, 3), v).reshape(
        len(moves), k), axis=1)
    if np.any(images != table[at_inf]):
        return False

    # the rows h[C1], entries grouped by their place in a block, so that
    # each place is a contiguous run of k ids
    seed = np.ascontiguousarray(G.code_rows(table[at1], v).T).ravel()
    pos0, posy = (int(np.flatnonzero(seed == p)[0]) for p in (zero, y))
    hit = np.zeros(len(table), dtype=bool)
    hit[at_inf] = True
    tau_ok = False
    for part in _batched(_frontiers(seed[None], moves, pos0, DEVELOP_CHUNK),
                         DEVELOP_CHUNK):
        tau = part[part[:, pos0] == y]
        if len(tau):
            tau_ok = bool(tau[0, posy] == zero) and np.array_equal(
                np.sort(G.block_codes(tau[0].reshape(3, k), v, axis=0)),
                table[at1])
        low = part[part[:, pos0] < part[:, posy]]
        codes = G.block_codes(low.reshape(len(low), 3, k), v, axis=1)
        codes.sort(axis=1)
        at = np.minimum(np.searchsorted(lowest, codes[:, 0]), len(table) - 1)
        if not np.array_equal(table[at], codes):
            return False
        hit[at] = True
    return tau_ok and bool(hit.all())


def verify_3pyramidal(system):
    """The recorded group acts sharply transitively on the non-extra points,
    fixes the three extra ones, and preserves blocks and classes.  Checked on
    generators: the generated group is regular when it and the left
    translations are transitive and commute, and then one development of a
    class (`_develops`) proves preservation by the whole group.  When that
    proof fails, each generator's images of the blocks and classes are
    compared with them, to name the generators at fault.  The action goes
    through the point labels, wherever they sit in `points`."""
    g = system.group
    v = len(system.points)
    problems = _point_problems(system)
    if problems:
        return _report(problems, group=repr(g))
    inf_ids = sorted(system.points.index(p) for p in INF)
    zero = system.points.index(g.zero)

    gens = list(g.generators())
    points = _point_codes(system)
    right = _translations(system, points, gens)
    fixed = [np.flatnonzero(perm == np.arange(v)) for perm in right]
    moved = [gen != g.zero and f.tolist() != inf_ids
             for gen, f in zip(gens, fixed)]
    regular = _regularity_problems(
        right, _translations(system, points, gens, left=True), zero, g.order)
    if any(moved) or regular or not _develops(system, right, zero):
        preserves = _preservation(system)
        kept = [preserves(perm) for perm in right]
    else:
        kept = [(True, True)] * len(right)
    for gen, (blocks_kept, classes_kept), f, bad in zip(gens, kept, fixed,
                                                        moved):
        name = G.encode_element(g, gen)
        if not blocks_kept:
            problems.append(f"translation by {name} does not preserve blocks")
        if not classes_kept:
            problems.append(f"translation by {name} does not preserve classes")
        if bad:
            problems.append(f"translation by {name} fixes {len(f)} points")
    problems += regular
    return _report(problems, group=repr(g), generators=len(gens))


def verify_automorphisms(system, generators):
    """Check explicit permutation witnesses and measure the group they
    generate (up to CLOSURE_CAP elements)."""
    problems = []
    v = len(system.points)
    preserves = _preservation(system)
    perms = []
    for name, perm in generators:
        perm = np.asarray(perm, dtype=np.int32)
        if sorted(perm.tolist()) != list(range(v)):
            problems.append(f"{name}: not a permutation")
            continue
        blocks_kept, classes_kept = preserves(perm)
        if not blocks_kept:
            problems.append(f"{name}: does not preserve blocks")
        if not classes_kept:
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


# blocks per pass when extract_base_blocks translates blocks to point 0
ORBIT_CHUNK = 4096


def _orbits(system):
    """The orbits of the blocks avoiding the extra points under the right
    translations (the closure of the generators' permutations), as label
    triples of the full-orbit and the short-orbit representatives, and the
    problems that keep the blocks from being a union of such orbits.

    The translations act regularly, so the orbit of a block B meets the
    blocks through point 0 exactly in the translates B − b (b in B), and the
    lowest code among them names the orbit.  There are d distinct ones when
    the stabilizer of B has order 3/d, so the orbit holds |G|·d/3 blocks: it
    lies in the block set when that many blocks carry its name.  Each
    orbit's representative is its lowest-code block, and they come in code
    order."""
    g = system.group
    v = len(system.points)
    problems = _point_problems(system)
    if problems:
        return [], [], problems
    is_inf = np.array([p in INF for p in system.points])
    a, b, c = G.sorted_ids(system.blocks)
    keep = ~(is_inf[a] | is_inf[b] | is_inf[c])
    for k in np.flatnonzero(keep & ((a == b) | (b == c)))[:MAX_PROBLEMS]:
        problems.append(
            f"degenerate block {_labels(system, system.blocks[k])}")
    if problems:
        return [], [], problems
    rows = G.code_rows(
        G.distinct_codes(G.block_codes(system.blocks[keep], v)), v)

    zero = system.points.index(g.zero)
    shifts = _grow(np.arange(v, dtype=np.int32)[None],
                   _translations(system, _point_codes(system), g.generators()),
                   zero)
    if len(shifts) != g.order:
        return [], [], [f"the generators give {len(shifts)} translations, "
                        f"expected {g.order}"]
    # shifts.flat[to_zero[x] + y] is the image of point y under the
    # translation that takes point x to point 0
    hit, point = np.nonzero(shifts == zero)
    to_zero = np.zeros(v, dtype=np.int64)
    to_zero[point] = hit * v
    name = np.empty(len(rows), dtype=np.int64)
    distinct = np.empty(len(rows), dtype=np.int8)
    for lo in range(0, len(rows), ORBIT_CHUNK):
        part = rows[lo:lo + ORBIT_CHUNK]
        c0, c1, c2 = (
            G.block_codes(shifts.take(to_zero[x][:, None] + part), v)
            for x in part.T)
        name[lo:lo + len(part)] = np.minimum(np.minimum(c0, c1), c2)
        distinct[lo:lo + len(part)] = (
            3 - (c0 == c1) - ((c2 == c0) | (c2 == c1)))
    # each orbit's lowest-code block, in code order, and its block count
    by_name = np.argsort(name)
    starts = np.flatnonzero(G.run_starts(name[by_name]))
    first = np.minimum.reduceat(by_name, starts)
    size = np.diff(starts, append=len(name))
    order = np.argsort(first)
    first, size = first[order], size[order]
    whole = 3 * size == g.order * distinct[first].astype(np.int64)

    reps, shorts = [], []
    for row, n, ok in zip(rows[first], size.tolist(), whole.tolist()):
        rep = _labels(system, row)
        if not ok:
            problems.append(f"orbit of {rep} leaves the block set")
        elif n == g.order:
            reps.append(rep)
        elif 3 * n == g.order:
            shorts.append(rep)
        else:
            problems.append(f"orbit of {rep} has impossible length {n}")
    if len(shorts) != 1:
        problems.append(f"expected one short orbit, found {len(shorts)}")
    return reps, shorts, problems[:MAX_PROBLEMS]


def extract_base_blocks(system):
    """Re-derive base blocks by orbit decomposition of the blocks avoiding the
    extra points.  Full-length orbits (size |G|) come from the difference
    family; the single short orbit (size |G|/3) is the developed spread.
    Representatives come back as label triples.  Raises ValueError when the
    blocks are not such a union of orbits."""
    reps, shorts, problems = _orbits(system)
    if problems:
        raise ValueError("; ".join(problems))
    return reps, shorts[0]


def check_base_blocks(system):
    """The re-derived representatives generate the same difference multiset
    as the witness the system was built from."""
    w = system.witness
    if w is None:
        return _report(["no witness attached"])
    reps, shorts, problems = _orbits(system)
    if problems:
        return _report(problems, orbits=len(reps))
    g = system.group
    if len(reps) != len(w.blocks):
        problems.append(
            f"{len(reps)} full orbits vs {len(w.blocks)} witness blocks")
    index = g.element_index
    if not all(len(b) == 3 and all(x in index for x in b) for b in w.blocks):
        problems.append("witness blocks are not triples of group elements")
    elif not np.array_equal(
            difference_counts(g, [[index[x] for x in b] for b in reps]),
            difference_counts(g, [[index[x] for x in b] for b in w.blocks])):
        problems.append("difference multisets disagree")
    # the spread holds 0, so a coset spread + t equal to the short orbit
    # has its t in the short orbit
    short = shorts[0]
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

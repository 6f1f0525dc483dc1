"""Independent checks on finished systems.

Everything here works from the point/block/class data alone: pair coverage,
partitioning of the resolution, the group action through its generators, and
(for systems that still carry their witness) re-derivation of the base blocks
from the blocks through one point.  Nothing trusts the construction
bookkeeping.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import chain

import numpy as np

from . import groups as G
from .designkit import difference_counts

MAX_PROBLEMS = 10
# classes per gather when checking a resolution's ids, and group elements
# per gather when verify_automorphisms sifts Schreier generators
CLASS_CHUNK = 32
DEVELOP_CHUNK = 128


def _report(problems, **counts):
    return {"ok": not problems, **counts, "problems": problems[:MAX_PROBLEMS]}


def _named(view, row):
    """The points of the id row `row` by their file labels, as
    "(a, b, c)"."""
    return "(" + ", ".join(view.labels[i] for i in row) + ")"


class SystemView:
    """The id-level data that the checks of one system share, each piece
    computed at its first use and kept for the next check.  The blocks and
    the classes are coded a chunk at a time (`groups.chunks`), so beside
    the system a view holds the sorted block codes, the class table, the
    point data, the verdict of `verify_3pyramidal` and one chunk at most.
    A system's `points` hold element ids, and −3 to −1 at the extra points.
    `verify_full` and `kts3p verify` pass one view to every check they
    run; a check called without one makes its own."""

    def __init__(self, system):
        self.system = system
        self.v = len(system.points)
        # the verdict of `verify_3pyramidal` on this view, once it has run
        self.invariant = None

    def sorted_ids(self):
        """`groups.sorted_ids` of the blocks a chunk at a time, as (slice,
        a, b, c).  A pass over all of them while `blocks` is not yet held
        also codes them into it, so `verify_sts` reads them once."""
        arr = self.system.blocks
        codes = None if "blocks" in vars(self) else np.empty(
            len(arr), dtype=G.int_dtype(self.v ** 3))
        for part in G.chunks(len(arr)):
            a, b, c = G.sorted_ids(arr[part], self.v)
            if codes is not None:
                G.ordered_codes(a, b, c, self.v, out=codes[part])
            yield part, a, b, c
        if codes is not None:
            if not G.increasing(codes):
                codes.sort()
            self.blocks = codes

    @cached_property
    def blocks(self):
        """The block codes, sorted."""
        for _ in self.sorted_ids():
            pass
        return self.blocks

    @cached_property
    def class_sizes(self):
        return np.array([len(rows) for rows in self.system.resolution],
                        dtype=np.int64)

    def class_codes(self, perm=None, out=None):
        """The codes of the classes' blocks, class after class, or of their
        images under the permutation `perm` of the point ids, coded a chunk
        of classes at a time: (first class, last class + 1, codes), the
        codes in their place in `out` when it is given."""
        classes = self.system.resolution
        # a quarter chunk of blocks: coding takes a few copies of their ids
        step = max(1, 3 * G.BLOCK_CHUNK // (4 * self.v))
        at = 0
        for lo in range(0, len(classes), step):
            ids = np.concatenate(classes[lo:lo + step])
            if perm is not None:
                ids = perm[ids]
            into = None if out is None else out[at:at + len(ids)]
            yield lo, min(lo + step, len(classes)), G.block_codes(
                ids, self.v, out=into)
            at += len(ids)

    def class_array(self, out=None, perm=None):
        """All of `class_codes` in one array, `out` when it is given."""
        if out is None:
            out = np.empty(self.class_sizes.sum(),
                           dtype=G.int_dtype(self.v ** 3))
        for _ in self.class_codes(perm, out):
            pass
        return out

    @cached_property
    def partitioned(self):
        """Whether the blocks of the classes are the blocks, as multisets.
        When the blocks are distinct and the class table lists every class
        once, its entries are compared with the block codes a chunk of
        blocks at a time (`_same_entries`); otherwise a sorted copy of the
        class codes is."""
        blocks, table, sizes = self.blocks, self.class_table, self.class_sizes
        if not (len(table) == len(sizes) and np.all(sizes == table.shape[1])
                and G.increasing(blocks)):
            return np.array_equal(np.sort(self.class_array()), blocks)
        return table.size == len(blocks) and _same_entries(table, blocks)

    @cached_property
    def class_table(self):
        """`_class_set` of the classes."""
        return _class_set(self.class_array(), self.class_sizes)

    @cached_property
    def point_problems(self):
        """`_point_problems`; a reader copies the list before adding to
        it."""
        return _point_problems(self.system)

    @cached_property
    def point_codes(self):
        return _point_codes(self.system)

    @cached_property
    def labels(self):
        """The file label of each point id, `groups.point_labels` at
        `points + 3`; a value that names no point is shown as it is, so
        that a system failing `_point_problems` can be named too."""
        table = G.point_labels(self.system.group)
        return [table[p + 3] if -3 <= p < len(table) - 3 else str(p)
                for p in self.system.points.tolist()]

    @cached_property
    def right(self):
        """The permutations of the right translations by the group's
        generators (`_translations`), in `generators()` order."""
        return _translations(self.system, self.point_codes,
                             self.system.group.generators())


def _row_bounds(table, xs, lo):
    """For each row of `table`, sorted, and each of the increasing values
    `xs`, the number of the row's entries below it, given that `lo` of
    each row's are below the first: one binary search over all at once."""
    rows = np.arange(len(table))[:, None]
    lo = np.repeat(lo[:, None], len(xs), axis=1)
    hi = np.full_like(lo, table.shape[1])
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        less = table[rows, np.minimum(mid, table.shape[1] - 1)] < xs
        lo, hi = np.where(less & (lo < hi), mid + 1, lo), np.where(less, hi,
                                                                     mid)
    return lo


def _same_entries(table, codes):
    """Whether the entries of `table`, each row sorted, are the strictly
    increasing `codes` as multisets.  The codes are cut into chunks; each
    row's entries that fall between the first codes of two chunks are one
    run of it, found by `_row_bounds` for as many chunks at once as keep
    its arrays within a chunk, and the runs of all rows are gathered,
    sorted and compared with the chunk.  The entries below the first code
    or above the last count in the first or last chunk."""
    flat, width = table.reshape(-1), table.shape[1]
    parts = G.chunks(len(codes))
    if len(parts) == 1:
        return np.array_equal(np.sort(flat), codes)
    group = max(1, G.BLOCK_CHUNK // (2 * max(len(table), 1)))
    below = np.zeros(len(table), dtype=np.int64)
    for g in range(0, len(parts), group):
        stops = [p.stop for p in parts[g:g + group] if p.stop < len(codes)]
        bounds = _row_bounds(table, codes[stops], below)
        for j, part in enumerate(parts[g:g + group]):
            upto = bounds[:, j] if j < len(stops) else np.full(len(table),
                                                               width)
            counts = upto - below
            n = int(counts.sum())
            if n != len(codes[part]):
                return False
            # the flat index of each entry of the runs, as a running sum of
            # steps: 1 within a run, and from the last entry of one run to
            # the first of the next
            full = counts > 0
            firsts, sizes = (np.arange(0, table.size, width) + below)[full], \
                counts[full]
            at = np.ones(n, dtype=G.int_dtype(table.size))
            at[(np.cumsum(counts) - counts)[full]] = firsts - np.append(
                0, firsts[:-1] + sizes[:-1] - 1)
            entries = flat[np.cumsum(at, out=at)]
            entries.sort()
            if not np.array_equal(entries, codes[part]):
                return False
            below = upto
    return True


def _rows_sorted(table):
    """Whether no row of `table` decreases, compared a chunk at a time."""
    step = max(1, G.BLOCK_CHUNK // max(table.shape[1], 1))
    return all(np.all(rows[:, 1:] >= rows[:, :-1]) for rows in (
        table[lo:lo + step] for lo in range(0, len(table), step)))


def _pair_problems(view, pairs):
    """Messages for sorted pair codes that are not each unordered pair
    i < j of points exactly once."""
    v = view.v
    starts = np.flatnonzero(G.run_starts(pairs))
    counts = np.diff(starts, append=len(pairs))
    first, second = np.divmod(pairs[starts], v)
    off = first < second
    problems = []
    missing = v * (v - 1) // 2 - int(off.sum())
    if missing:
        problems.append(f"{missing} pairs uncovered")
    for k in np.flatnonzero(off & (counts != 1))[:MAX_PROBLEMS]:
        problems.append(f"pair {_named(view, (first[k], second[k]))} "
                        f"covered {counts[k]} times")
    return problems


def _pair_code(first, second, v, out):
    """The codes i·v + j of the pairs (first[i], second[i]), into `out`."""
    np.multiply(first, v, out=out, dtype=out.dtype)
    out += second
    return out


def verify_sts(system, view=None):
    """Every unordered pair of distinct points lies in exactly one block:
    the blocks give v(v-1)/2 pair codes i·v + j (i < j), and they mark as
    many cells of a v×v bitmap, a chunk of blocks at a time while the
    view codes them.  The codes are sorted only to name the pairs at
    fault."""
    view = view or SystemView(system)
    v = view.v
    problems = []
    if v != system.order:
        problems.append(f"order says {system.order} but there are {v} points")
    if not G.run_starts(np.sort(system.points)).all():
        problems.append("points are not distinct")
    arr = system.blocks
    if arr.size and (arr.min() < 0 or arr.max() >= v):
        stray = sorted(set(arr[(arr < 0) | (arr >= v)].tolist()))
        problems.append(f"blocks mention unknown point ids: {stray[:3]}")
        return _report(problems, v=v, blocks=len(arr))
    # the bitmap only when there are as many pair codes as pairs of points
    # (it is then smaller than the blocks); all of them, sorted, only to
    # name the pairs at fault
    want = v * (v - 1) // 2
    seen = np.zeros(v * v, dtype=bool) if 3 * len(arr) == want else None
    degenerate = []
    if seen is not None:
        code = np.empty(min(len(arr), G.BLOCK_CHUNK), dtype=G.int_dtype(v * v))
    for part, a, b, c in view.sorted_ids():
        degenerate += arr[part][(a == b) | (b == c)][:MAX_PROBLEMS].tolist()
        if seen is not None:
            for first, second in ((a, b), (a, c), (b, c)):
                seen[_pair_code(first, second, v, code[:len(a)])] = True
    problems += [f"degenerate block {_named(view, row)}"
                 for row in degenerate[:MAX_PROBLEMS]]
    if seen is not None:
        if np.count_nonzero(seen) == want:
            return _report(problems, v=v, blocks=len(arr))
        del seen, code
    pairs = np.empty((3, len(arr)), dtype=G.int_dtype(v * v))
    for part, a, b, c in view.sorted_ids():
        for row, (first, second) in zip(pairs, ((a, b), (a, c), (b, c))):
            _pair_code(first, second, v, row[part])
    pairs = pairs.ravel()
    pairs.sort()
    problems += _pair_problems(view, pairs)
    return _report(problems, v=v, blocks=len(arr))


def verify_resolution(system, view=None):
    """The classes partition the blocks; each class partitions the points."""
    view = view or SystemView(system)
    v = view.v
    problems = []
    want = (v - 1) // 2
    if len(system.resolution) != want:
        problems.append(
            f"{len(system.resolution)} classes, expected {want}")
    if not system.resolution:
        return _report(problems, classes=0)
    if not view.partitioned:
        problems.append("classes do not partition the block set")
    # a class of v / 3 blocks partitions the points when its ids, sorted,
    # are 0, 1, ..., v - 1
    bad = 3 * view.class_sizes != v
    full = np.flatnonzero(~bad)
    for lo in range(0, len(full), CLASS_CHUNK):
        part = full[lo:lo + CLASS_CHUNK]
        ids = np.stack([system.resolution[k].ravel() for k in part])
        ids.sort(axis=1)
        bad[part] = np.any(ids != np.arange(v), axis=1)
    for k in np.flatnonzero(bad)[:MAX_PROBLEMS]:
        problems.append(f"class {k} is not a partition of the points")
    return _report(problems, classes=len(system.resolution))


def _class_set(codes, sizes):
    """The set of classes, given the codes of their blocks class after class,
    as one canonical table: each class is a row of its sorted codes, padded
    to the largest class with the largest value of the codes' dtype.  The
    rows come in order of their lowest code when no two share it (disjoint
    classes never do); otherwise they are sorted and deduped as raw bytes.
    Rows already sorted and in order, as a built system's are, are kept
    where they lie.  Either form lists
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
        table = np.full((len(sizes), width), np.iinfo(codes.dtype).max,
                        dtype=codes.dtype)
        table[cls, col] = codes
    if not _rows_sorted(table):
        table.sort(axis=1)
    if G.increasing(table[:, 0]):
        return table
    lowest = np.sort(table[:, 0])
    if np.all(lowest[1:] != lowest[:-1]):
        return table[np.argsort(table[:, 0])]
    rows = table.view(f"V{table.itemsize * width}").ravel()
    rows.sort()
    return rows[G.run_starts(rows)].view(table.dtype).reshape(-1, width)


def _preservation(view):
    """A function telling, for a permutation of the point ids, whether it
    preserves the blocks and whether it preserves the classes, given the
    system's `SystemView`.  The images of the blocks are coded into one
    array, reused for every permutation, sorted and compared with the
    block codes.  The images of the classes are coded a chunk at a time
    and looked up in the class table by their lowest code, when the table
    lists every class once in that order (disjoint classes always do):
    the images are then the classes when each is a row of the table and
    every row is met.  Otherwise they are coded into the same array and
    compared by `_class_set`."""
    system, v = view.system, view.v
    sizes = view.class_sizes
    base_blocks, table = view.blocks, view.class_table
    lowest = table[:, 0]
    by_lowest = (len(table) == len(sizes) and np.all(sizes == table.shape[1])
                 and G.increasing(lowest))
    codes = np.empty(max(len(system.blocks), sizes.sum()),
                     dtype=G.int_dtype(v ** 3))

    def preserves(perm):
        images = codes[:len(system.blocks)]
        for part in G.chunks(len(images)):
            G.block_codes(perm[system.blocks[part]], v, out=images[part])
        images.sort()
        blocks_kept = np.array_equal(images, base_blocks)
        if not by_lowest:
            return blocks_kept, np.array_equal(_class_set(view.class_array(
                codes[:sizes.sum()], perm), sizes), table)
        met = np.zeros(len(table), dtype=bool)
        for lo, hi, part in view.class_codes(perm):
            rows = part.reshape(hi - lo, -1)
            rows.sort(axis=1)
            at = np.minimum(np.searchsorted(lowest, rows[:, 0]),
                            len(table) - 1)
            if not np.array_equal(table[at], rows):
                return blocks_kept, False
            met[at] = True
        return blocks_kept, bool(met.all())
    return preserves


def _point_codes(system):
    """The ids of the group points and each one's element id, its value in
    `points`."""
    ids = np.flatnonzero(system.points >= 0)
    return ids, system.points[ids]


def point_perms(system, maps, points=None):
    """The permutations of point ids that the rows of `maps`, maps of
    element ids (indices into `element_list`), induce through `points`,
    given as `points = _point_codes(system)` or read here; the extra points
    stay fixed."""
    ids, codes = _point_codes(system) if points is None else points
    id_of = np.empty(system.group.order, dtype=np.int32)
    id_of[codes] = ids
    perms = np.empty((len(maps), len(system.points)), dtype=np.int32)
    perms[:] = np.arange(len(system.points), dtype=np.int32)
    perms[:, ids] = id_of[maps[:, codes]]
    return list(perms)


def _translations(system, points, shifts, left=False):
    """For each element id s of `shifts`, the permutation of point ids that
    the right translation x -> x + s (or the left one, x -> s + x) induces
    (`point_perms`).  The maps of element ids come from the shared per-atom
    tables (`groups.translation_ids`)."""
    return point_perms(system, G.translation_ids(system.group, shifts, left),
                       points)


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
        orbit = np.count_nonzero(G.orbit(np.arange(n) == start,
                                         G.map_powers(perms))) if n else 1
        if orbit != size:
            problems.append(
                f"{name} orbit has size {orbit}, expected {size}")
    # lp[rp] == rp[lp] for every left permutation lp and right one rp
    if not np.array_equal(left[:, right], right[:, left].swapaxes(0, 1)):
        problems.append("left and right translations do not commute, so "
                        "the action is not sharply transitive")
    return problems


def _point_problems(system):
    """Why the points cannot carry the group action: sorted, they must be
    −3, −2, −1 and the element ids, and every block and class entry must
    be a point id."""
    g = system.group
    v = len(system.points)
    if v != g.order + 3:
        return [f"expected {g.order} + 3 points"]
    if not np.array_equal(np.sort(system.points), np.arange(-3, g.order)):
        return ["points are not the three extra points and the group "
                "elements"]
    classes = system.resolution
    for ids in chain([system.blocks], (
            np.concatenate(classes[lo:lo + CLASS_CHUNK])
            for lo in range(0, len(classes), CLASS_CHUNK))):
        if ids.size and (ids.min() < 0 or ids.max() >= v):
            return ["blocks or classes mention unknown point ids"]
    return []


def _in_sorted(codes, keys):
    """Whether each of `keys` is in the sorted array `codes`."""
    return codes[np.minimum(np.searchsorted(codes, keys), len(codes) - 1)] \
        == keys


def _develops(view, right, inf_ids, zero):
    """Whether one development of the class through ∞1 proves that the
    group H generated by the permutations `right` preserves the blocks and
    the classes, given the point ids `inf_ids` of ∞1 to ∞3 and `zero` of
    the zero element.  Sound only when H acts regularly on the points
    other than the extra three, which the caller checks; False is no
    verdict, only a call for the per-generator comparison.

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
    system, v = view.system, view.v
    sizes = {len(rows) for rows in system.resolution}
    k = max(sizes, default=0)
    if not right or sizes != {k} or not k:
        return False
    moves = np.stack(right)
    if np.any(moves[:, inf_ids] != inf_ids):
        return False
    blocks = view.blocks
    if not (len(blocks) and G.increasing(blocks) and view.partitioned):
        return False
    # classes of equal size give a table without padding, whose rows come
    # in order of their lowest code when no two share it
    table = view.class_table
    lowest = table[:, 0].copy()
    if not G.increasing(lowest):
        return False

    # y, C1 and C∞; every block code is in some row of the table
    through = G.block_codes(np.stack(np.broadcast_arrays(
        inf_ids[0], zero, np.arange(v, dtype=np.int32)), axis=1), v)
    present = _in_sorted(blocks, through)
    present[[inf_ids[0], zero]] = False
    inf_code = G.block_codes(np.array([inf_ids]), v)
    if not (present.any() and _in_sorted(blocks, inf_code)[0]):
        return False
    y = int(np.argmax(present))
    # the first row holding each code: one search of every row at once
    sought = np.concatenate((through[y:y + 1], inf_code))
    at = _row_bounds(table, sought, np.zeros(len(table), dtype=np.int64))
    at1, at_inf = np.argmax(np.take_along_axis(
        table, np.minimum(at, k - 1), axis=1) == sought, axis=0).tolist()
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
    # pieces of about a third of a chunk of blocks, and at least 16 rows, so
    # that large orders do not pay numpy's per-call cost on a few rows
    for part in G.coset_rows(seed, moves, pos0, max(16, G.BLOCK_CHUNK // v)):
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


def verify_3pyramidal(system, view=None):
    """The recorded group acts sharply transitively on the non-extra points,
    fixes the three extra ones, and preserves blocks and classes.  Checked on
    generators: the generated group is regular when it and the left
    translations are transitive and commute, and then one development of a
    class (`_develops`) proves preservation by the whole group.  When that
    proof fails, each generator's images of the blocks and classes are
    compared with them, to name the generators at fault.  The action goes
    through the element ids in `points`, wherever they sit."""
    view = view or SystemView(system)
    g = system.group
    v = view.v
    problems = list(view.point_problems)
    if problems:
        view.invariant = False
        return _report(problems, group=repr(g))
    # sorted by value, the points are ∞1, ∞2, ∞3, the zero, ...
    by_value = np.argsort(system.points)
    inf_ids, zero = by_value[:3], int(by_value[3])

    gens = g.generators()
    right = view.right
    fixed = [np.flatnonzero(perm == np.arange(v)) for perm in right]
    moved = [gen != 0 and f.tolist() != sorted(inf_ids)  # the zero's id is 0
             for gen, f in zip(gens, fixed)]
    regular = _regularity_problems(
        right, _translations(system, view.point_codes, gens, left=True), zero,
        g.order)
    if any(moved) or regular or not _develops(view, right, inf_ids, zero):
        preserves = _preservation(view)
        kept = [preserves(perm) for perm in right]
    else:
        kept = [(True, True)] * len(right)
    for gen, (blocks_kept, classes_kept), f, bad in zip(gens, kept, fixed,
                                                        moved):
        name = G.encode_element(g, g.element_list[gen])
        if not blocks_kept:
            problems.append(f"translation by {name} does not preserve blocks")
        if not classes_kept:
            problems.append(f"translation by {name} does not preserve classes")
        if bad:
            problems.append(f"translation by {name} fixes {len(f)} points")
    problems += regular
    view.invariant = not problems
    return _report(problems, group=repr(g), generators=len(gens))


def _group_order(perms, v):
    """The order of the group the permutations `perms` of range(v) generate,
    by deterministic Schreier–Sims (Seress, Permutation Group Algorithms,
    2003, ch. 4).  A level's base point b is the first point its first
    strong generator moves; its transversal u comes from `groups.frontiers`
    and only its inverse is kept, one row per point of b's orbit.  Sifting
    takes a row r to u_y⁻¹∘r, y = r(b), level by level (u_y is 1 for y
    outside the orbit), so a level's rows s∘u_x, with u_x inverted a chunk
    at a time, sift to its Schreier generators u_{s(x)}⁻¹∘s∘u_x and on.
    The first, from the bottom level up, that ends other than 1 joins the
    strong generators; once none does, the order is the product of the
    orbit lengths."""
    identity = np.arange(v, dtype=np.int32)
    strong = [p for p in perms if np.any(p != identity)]

    def invert(rows):
        out = np.empty_like(rows)
        out.ravel()[rows + np.arange(0, rows.size, v)[:, None]] = identity
        return out

    def residues(i):
        _, gens, inverse, _ = levels[i]
        for lo in range(0, len(inverse), DEVELOP_CHUNK):
            u = invert(inverse[lo:lo + DEVELOP_CHUNK])
            for s in gens:
                rows = s[u]
                for b, _, inverse_b, row_of in levels[i:]:
                    y = row_of[rows[:, b]]
                    rows = inverse_b.ravel().take(rows + y[:, None] * v)
                yield from rows[np.any(rows != identity, axis=1)]

    while True:
        levels, gens = [], strong
        while gens:
            b = int(np.argmax(gens[0] != identity))
            moves = np.stack(gens)
            inverse = np.empty((np.count_nonzero(G.orbit(
                identity == b, G.map_powers(moves))), v), dtype=np.int32)
            row_of = np.zeros(v, dtype=np.int64)  # row 0 is the identity
            lo = 0
            for part in G.frontiers(identity[None], moves, b, v):
                inverse[lo:lo + len(part)] = invert(part)
                row_of[part[:, b]] = np.arange(lo, lo + len(part))
                lo += len(part)
            levels.append((b, gens, inverse, row_of))
            gens = [s for s in gens if s[b] == b]
        residue = next((r for i in reversed(range(len(levels)))
                        for r in residues(i)), None)
        if residue is None:
            return math.prod(len(level[2]) for level in levels)
        strong.append(residue)


def verify_automorphisms(system, generators):
    """Check explicit permutation witnesses and compute the order of the
    group they generate (`_group_order`)."""
    problems = []
    v = len(system.points)
    preserves = _preservation(SystemView(system))
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
        perms.append(perm)
    return _report(problems, generators=len(generators),
                   closure_order=None if problems else _group_order(perms, v))


def _names(view, rows):
    """For sorted id rows of blocks of group points: the code of each
    block's lowest translate through p (the lowest id of a group point),
    and the number of its distinct translates through p.  These are
    B − b + p for the points b of B, computed as x −^ b + p from the atom
    tables (`groups.id_sum`)."""
    g, v = view.system.group, view.v
    ids, elements = view.point_codes
    point_of = np.empty(g.order, dtype=np.int32)
    point_of[elements] = ids
    e = view.system.points[rows]
    codes = np.empty((len(rows), 3), dtype=np.int64)
    for k in range(3):
        moved = G.id_sum(g, G.id_sum(g, e, e[:, k:k + 1], negate=True),
                         elements[0])
        codes[:, k] = G.block_codes(point_of[moved], v)
    codes.sort(axis=1)
    distinct = 1 + (codes[:, 1] != codes[:, 0]) + (codes[:, 2] != codes[:, 1])
    return codes[:, 0], distinct


def _orbits(view):
    """The orbits of the blocks avoiding the extra points under the right
    translations, as sorted id rows of the full-orbit and the short-orbit
    representatives, and the problems that keep the blocks from being a
    union of such orbits.

    Let p be the lowest id of a group point.  The translations act
    regularly, so the orbit of a block B meets the blocks through p exactly
    in the translates B − b + p (b in B), and the lowest code among them
    names the orbit.  There are d distinct ones when the stabilizer of B
    has order 3/d, so the orbit holds |G|·d/3 blocks.  Each orbit's
    representative is its lowest-code block, which goes through p: a block
    of group points that misses p has all its ids above p.  The
    representatives come in code order.

    When `verify_3pyramidal` has proved the blocks invariant, each orbit
    lies in the block set, and its blocks through p are one slice of the
    sorted codes: only they are named, d of them per orbit.  Otherwise
    every block avoiding the extra points is named, and an orbit lies in
    the block set when |G|·d/3 blocks carry its name."""
    system, v = view.system, view.v
    g = system.group
    problems = list(view.point_problems)
    if problems:
        return [], [], problems
    if view.invariant is None:
        verify_3pyramidal(system, view)
    ids = view.point_codes[0]
    p = int(ids[0])
    blocks = view.blocks
    lo, hi = np.searchsorted(blocks, np.array([p, p + 1], dtype=blocks.dtype)
                             * v * v)
    through = blocks[lo:hi][G.run_starts(blocks[lo:hi])]
    if len(through) > (v - 1) // 2:
        return [], [], [f"{len(through)} distinct blocks through "
                        f"{view.labels[p]}, expected at most {(v - 1) // 2}"]
    if view.invariant:
        rows = G.code_rows(through, v)
    else:
        rows = G.code_rows(blocks[G.run_starts(blocks)], v)
    rows = rows[np.all(system.points[rows] >= 0, axis=1)]
    for row in rows[(rows[:, 0] == rows[:, 1]) | (rows[:, 1] == rows[:, 2])][
            :MAX_PROBLEMS]:
        problems.append(f"degenerate block {_named(view, row)}")
    if problems:
        return [], [], problems

    name, distinct = _names(view, rows)
    # each orbit's lowest-code block, in code order, and its block count
    by_name = np.argsort(name, kind="stable")
    starts = np.flatnonzero(G.run_starts(name[by_name]))
    first = by_name[starts]
    size = np.diff(starts, append=len(name))
    order = np.argsort(first)
    first, size = first[order], size[order]
    d = distinct[first].astype(np.int64)
    whole = size == d if view.invariant else 3 * size == g.order * d

    length = g.order * d // 3
    for k in np.flatnonzero(~whole | (d == 2)):
        rep = _named(view, rows[first[k]])
        problems.append(
            f"orbit of {rep} has impossible length {length[k]}" if whole[k]
            else f"orbit of {rep} leaves the block set")
    shorts = rows[first[whole & (d == 1)]]
    if len(shorts) != 1:
        problems.append(f"expected one short orbit, found {len(shorts)}")
    return rows[first[whole & (d == 3)]], shorts, problems[:MAX_PROBLEMS]


def check_base_blocks(system, view=None):
    """The re-derived representatives generate the same difference multiset
    as the witness the system was built from, and the short orbit is a
    translate of its spread.  Compared as element ids."""
    w = system.witness
    if w is None:
        return _report(["no witness attached"])
    view = view or SystemView(system)
    reps, shorts, problems = _orbits(view)
    if problems:
        return _report(problems, orbits=len(reps))
    g = system.group
    if w.group != g:
        return _report([f"witness is over {w.group!r}, not {g!r}"],
                       orbits=len(reps))
    if len(reps) != len(w.blocks):
        problems.append(
            f"{len(reps)} full orbits vs {len(w.blocks)} witness blocks")
    if not np.array_equal(difference_counts(g, system.points[reps]),
                          difference_counts(g, w.blocks)):
        problems.append("difference multisets disagree")
    # the spread holds 0, so a coset spread + t equal to the short orbit
    # has its t in the short orbit
    short = np.sort(system.points[shorts[0]])
    cosets = np.sort(G.id_sum(g, w.spread().order3, short[:, None]), axis=1)
    if not (cosets == short).all(axis=1).any():
        problems.append("short orbit is not the developed spread")
    return _report(problems, orbits=len(reps))


def verify_full(system):
    """Aggregate report: pair coverage, resolution, the group action and,
    when the system carries its witness, the base blocks re-derived from
    the blocks through one point.  The checks share one `SystemView`, so
    the base-block check reads the verdict of `verify_3pyramidal` off it."""
    view = SystemView(system)
    parts = {
        "sts": verify_sts(system, view),
        "resolution": verify_resolution(system, view),
        "pyramidal": verify_3pyramidal(system, view),
    }
    if system.witness is not None:
        parts["base_blocks"] = check_base_blocks(system, view)
    return {"ok": all(p["ok"] for p in parts.values()), **parts}

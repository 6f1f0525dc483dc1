import copy
import dataclasses
import itertools
import random
import tracemalloc
import types

import numpy as np
import pytest
from conftest import (_oracle_preservation, base_blocks, file_labels,
                      naive_pair_cover,
                      oracle_automorphism_lower_bound, oracle_closure_order,
                      oracle_verify_3pyramidal, point_view)

from kts3p import groups as G
from kts3p import pipeline as P
from kts3p import verify as V
from kts3p.designkit import Spread, difference_counts


@pytest.fixture(scope="module")
def sys15():
    return P.construct(15)


@pytest.fixture(scope="module")
def sys33():
    return P.construct(33)


@pytest.fixture(scope="module")
def sys39():
    return P.construct(39)


@pytest.fixture(scope="module")
def sys147():
    return P.construct(147)


@pytest.fixture(scope="module")
def sys369():
    # |G| = 366, the first covered order above the base-block check's old
    # cap of |G| = 360
    return P.construct(369)


def test_good_systems_pass_full(sys15, sys33):
    for s in (sys15, sys33):
        report = V.verify_full(s)
        assert report["ok"], report


def _with(system, **kw):
    return dataclasses.replace(system, **kw)


def test_sts_catches_removed_block(sys15):
    bad = _with(sys15, blocks=sys15.blocks[1:])
    rep = V.verify_sts(bad)
    assert not rep["ok"]
    assert any("pair" in p or "block" in p for p in rep["problems"])


def test_sts_catches_swapped_point(sys15):
    blocks = sys15.blocks.tolist()
    # swap one point between two disjoint blocks: pair coverage breaks
    donor = next(i for i, b in enumerate(blocks)
                 if not set(b) & set(blocks[0]))
    blocks[0][0], blocks[donor][0] = blocks[donor][0], blocks[0][0]
    bad = _with(sys15, blocks=np.array(blocks, dtype=np.int32))
    assert not V.verify_sts(bad)["ok"]


def test_sts_catches_degenerate_block(sys15):
    blocks = sys15.blocks.copy()
    blocks[4, 2] = blocks[4, 0]
    rep = V.verify_sts(_with(sys15, blocks=blocks))
    assert not rep["ok"]
    assert any(p.startswith("degenerate block") for p in rep["problems"])


def test_sts_catches_unknown_point_id(sys15):
    for stray in (-1, len(sys15.points)):
        blocks = sys15.blocks.copy()
        blocks[7, 1] = stray
        rep = V.verify_sts(_with(sys15, blocks=blocks))
        assert not rep["ok"]
        assert any("unknown point ids" in p for p in rep["problems"])


def test_sts_catches_duplicate_point():
    # the last point made a repeat of ∞1, or a value that is no point
    # (below −3, or |G|): every check fails or reports, and a degenerate
    # block through that point names it by its label or, if it has none,
    # by its value
    s = P.construct(15)
    labels = file_labels(s)
    last = len(s.points) - 1
    for stray, name in ((s.points[0], "inf1"), (-4, "-4"),
                        (s.group.order, str(s.group.order))):
        points = s.points.copy()
        points[last] = stray
        bad = _with(s, points=points)
        if name == "inf1":
            assert V.verify_sts(bad)["problems"] == ["points are not distinct"]
        rep = V.verify_full(bad)
        assert not rep["ok"]
        assert rep["pyramidal"]["problems"] == [
            "points are not the three extra points and the group elements"]
        blocks = s.blocks.copy()
        k = int(np.flatnonzero((blocks == last).any(axis=1))[0])
        x = next(p for p in blocks[k].tolist() if p != last)
        blocks[k] = [x, last, last]
        rep = V.verify_full(_with(bad, blocks=blocks))
        assert not rep["ok"]
        assert (f"degenerate block ({labels[x]}, {name}, {name})"
                in rep["sts"]["problems"])


def test_resolution_catches_merged_classes(sys15):
    merged = [np.concatenate(sys15.resolution[:2])] + \
        list(sys15.resolution[2:])
    bad = _with(sys15, resolution=merged)
    assert not V.verify_resolution(bad)["ok"]


def test_resolution_catches_doubled_block(sys15):
    cls = sys15.resolution[0].copy()
    cls[0] = cls[1]
    bad = _with(sys15, resolution=[cls] + list(sys15.resolution[1:]))
    assert not V.verify_resolution(bad)["ok"]


def test_resolution_catches_unknown_point_id(sys15):
    for stray in (-1, len(sys15.points)):
        res = [c.copy() for c in sys15.resolution]
        res[2][0, 0] = stray
        rep = V.verify_resolution(_with(sys15, resolution=res))
        assert rep["problems"] == ["classes do not partition the block set",
                                   "class 2 is not a partition of the points"]


def test_pyramidal_catches_shuffled_group(sys15):
    # develop over the right group but hand verification the wrong one
    from kts3p import groups as G
    wrong = G.GroupDescriptor([G.ZAtom(12)])
    assert wrong.order == sys15.group.order
    bad = _with(sys15, group=wrong)
    assert not V.verify_3pyramidal(bad)["ok"]


def test_pyramidal_catches_broken_class(sys15):
    res = list(sys15.resolution)
    res[1], res[2] = (np.concatenate((res[1][:1], res[2][1:])),
                      np.concatenate((res[2][:1], res[1][1:])))
    bad = _with(sys15, resolution=res)
    rep = V.verify_3pyramidal(bad)
    assert not rep["ok"]


def test_pyramidal_compares_classes_as_a_set(sys15):
    # a repeated class leaves the set of classes, and so its preservation
    # under translations, as it was; the classes then share blocks
    bad = _with(sys15, resolution=list(sys15.resolution)
                + [sys15.resolution[4]])
    assert V.verify_3pyramidal(bad)["ok"]
    assert not V.verify_resolution(bad)["ok"]


def test_extract_base_blocks_roundtrip(sys33):
    reps, short = base_blocks(sys33)
    w = sys33.witness
    assert len(reps) == len(w.blocks)
    # the short orbit representative is one triple inside the group
    assert len(short) == 3
    assert all(p in set(sys33.group.element_list) for p in short)
    rep = V.check_base_blocks(sys33)
    assert rep["ok"], rep


def _base_blocks_oracle(system):
    """`base_blocks` by brute force: the blocks avoiding the extra points
    in code order, each not yet seen developing its orbit B + t with the
    group law."""
    g, points = system.group, point_view(system)
    index = {p: i for i, p in enumerate(points)}

    def key(labels):
        return tuple(sorted(index[p] for p in labels))

    seen, reps, short = set(), [], []
    for b in sorted({tuple(sorted(row)) for row in system.blocks.tolist()}):
        labels = [points[i] for i in b]
        if b in seen or any(isinstance(p, str) for p in labels):
            continue
        orbit = {key([g.add(x, t) for x in labels]) for t in g.element_list}
        seen |= orbit
        (reps if len(orbit) == g.order else short).append(tuple(labels))
    return reps, short


# D heads over a prime and a non-prime field, G1, G2 and G3 heads, and
# the first covered order above |G| = 360
@pytest.mark.parametrize("v", [39, 57, 183, 195, 327, 369])
def test_extract_base_blocks_matches_oracle(v):
    s = P.construct(v)
    reps, short = base_blocks(s)
    want_reps, want_short = _base_blocks_oracle(s)
    assert reps == want_reps
    assert [short] == want_short
    # a repeated block is one block of the orbit decomposition
    doubled = _with(s, blocks=np.vstack([s.blocks, s.blocks[::-1]]))
    assert base_blocks(doubled) == (reps, short)


@pytest.mark.parametrize("v", [39, 183, 327, 369])
def test_orbits_through_one_point_match_all_blocks(v):
    # once the blocks are proved invariant only those through the lowest
    # group point are named; naming every block must give the same orbits
    s = P.construct(v)
    fast, slow = V.SystemView(s), V.SystemView(s)
    assert V.verify_3pyramidal(s, fast)["ok"] and fast.invariant
    slow.invariant = False
    reps, shorts, problems = V._orbits(fast)
    assert not problems
    want_reps, want_shorts, _ = V._orbits(slow)
    assert np.array_equal(reps, want_reps)
    assert np.array_equal(shorts, want_shorts)


def test_check_base_blocks_reports_many_blocks_through_a_point(sys15):
    # more blocks through the lowest group point than (v - 1)/2 is reported
    # before any orbit is named
    v = len(sys15.points)
    extra = np.array([[3, i, j] for i in range(4, v) for j in range(i + 1, v)],
                     dtype=np.int32)
    bad = _with(sys15, blocks=np.vstack([sys15.blocks, extra]))
    through = len({tuple(sorted(b)) for b in bad.blocks.tolist()
                   if min(b) == 3})
    assert through > (v - 1) // 2
    rep = V.check_base_blocks(bad)
    assert rep["problems"] == [
        f"{through} distinct blocks through {file_labels(sys15)[3]}, "
        f"expected at most {(v - 1) // 2}"]


def test_check_base_blocks_reports_orbit_leaving_block_set(sys33):
    # one block fewer: its orbit is no longer inside the block set, which
    # is a problem in the report, not an exception
    bad = _with(sys33, blocks=sys33.blocks[:-1])
    rep = V.check_base_blocks(bad)
    assert not rep["ok"]
    assert any(p.endswith("leaves the block set") for p in rep["problems"])
    with pytest.raises(ValueError, match="leaves the block set"):
        base_blocks(bad)


@pytest.mark.parametrize("atoms", [(G.DAtom(), G.VAtom(5)), (G.GAtom(2),),
                                   (G.GAtom(1), G.VAtom(3), G.VAtom(5))])
def test_differences_match_delta_family(atoms):
    # r −^ c in a non-abelian head depends on the orientation
    g = G.GroupDescriptor(atoms)
    triples = np.random.default_rng(7).integers(g.order, size=(60, 3))
    want = np.zeros(g.order, dtype=np.int64)
    for t in triples:
        # by position, as a repeated entry contributes a 0
        for r, c in itertools.permutations([g.element_list[i] for i in t], 2):
            want[g.element_index[g.sub(r, c)]] += 1
    assert np.array_equal(difference_counts(g, triples), want)


@pytest.mark.parametrize("atoms", [(G.DAtom(), G.ZAtom(4)),
                                   (G.GAtom(1), G.VAtom(9)),
                                   (G.GAtom(2), G.VAtom(25))])
def test_translations_agree_with_group_law(atoms):
    g = G.GroupDescriptor(atoms)
    rng = np.random.default_rng(11)
    system = types.SimpleNamespace(group=g, points=rng.permutation(
        np.arange(-3, g.order, dtype=np.int32)))
    index = {p: i for i, p in enumerate(point_view(system))}
    shift_ids = rng.integers(g.order, size=5)
    shifts = [g.element_list[i] for i in shift_ids]
    gi = G.GroupIndex(g)
    points = V._point_codes(system)
    right = V._translations(system, points, shift_ids)
    left = V._translations(system, points, shift_ids, left=True)
    perms = gi.translation(shift_ids)
    for t, rp, lp, perm in zip(shifts, right, left, perms):
        for i in rng.integers(g.order, size=20):
            x = g.element_list[i]
            assert g.element_list[perm[i]] == g.add(x, t)
            assert rp[index[x]] == index[g.add(x, t)]
            assert lp[index[x]] == index[g.add(t, x)]
        for p in ("inf1", "inf2", "inf3"):
            assert rp[index[p]] == lp[index[p]] == index[p]


def test_check_base_blocks_detects_foreign_witness(sys15, sys33):
    bad = _with(sys33, witness=sys15.witness)
    assert not V.check_base_blocks(bad)["ok"]


def test_check_base_blocks_above_old_cap(sys369, sys39):
    assert V.verify_full(sys369)["base_blocks"]["ok"]
    bad = _with(sys369, witness=sys39.witness)
    rep = V.check_base_blocks(bad)
    assert not rep["ok"]
    assert not V.verify_full(bad)["ok"]


def test_verify_full_checks_base_blocks_at_819():
    rep = V.verify_full(P.construct(819))
    assert rep["base_blocks"]["ok"], rep["base_blocks"]
    assert rep["ok"]


def test_check_base_blocks_memory_after_pyramidal():
    # after verify_3pyramidal on the same view the check reads the blocks
    # through one point: no table of all translations
    system = P.construct(1971)
    view = V.SystemView(system)
    assert V.verify_3pyramidal(system, view)["ok"]
    tracemalloc.start()
    try:
        rep = V.check_base_blocks(system, view)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["ok"], rep
    assert peak <= 1 << 20, peak


def test_check_base_blocks_detects_wrong_spread():
    # right blocks, but the witness names another order-3 subgroup of
    # G1 x V3 as its spread, and no translate of it is the short orbit
    s = P.construct(39)
    g, w = s.group, s.witness
    x = next(i for i, y in enumerate(g.element_list)
             if y != g.zero and i not in w.spread().order3
             and g.add(y, g.add(y, y)) == g.zero)
    other = copy.copy(w)
    other.relative = Spread(g, x)
    rep = V.check_base_blocks(_with(s, witness=other))
    assert rep["problems"] == ["short orbit is not the developed spread"]


def test_automorphisms_translations(sys15):
    bound, gens = P.automorphism_lower_bound(sys15)
    rep = V.verify_automorphisms(sys15, gens)
    assert rep["ok"], rep
    assert rep["closure_order"] == bound


def _reordered(system, seed):
    """The same system with its points listed in a shuffled order."""
    order = np.random.default_rng(seed).permutation(len(system.points))
    new_id = np.empty_like(order)
    new_id[order] = np.arange(len(order))
    return _with(system, points=system.points[order],
                 blocks=new_id[system.blocks].astype(np.int32),
                 resolution=[new_id[c].astype(np.int32)
                             for c in system.resolution])


def test_automorphisms_translations_reordered_points(sys15):
    moved = _reordered(sys15, 3)
    assert point_view(moved)[:3] != ["inf1", "inf2", "inf3"]
    assert V.verify_full(moved)["ok"]
    bound, gens = P.automorphism_lower_bound(moved)
    rep = V.verify_automorphisms(moved, gens)
    assert rep["ok"], rep
    assert rep["closure_order"] == bound


@pytest.mark.parametrize("reordered", (False, True))
@pytest.mark.parametrize("v", (15, 33, 153))
def test_automorphism_witnesses_match_tuple_oracle(v, reordered):
    system = P.construct(v)
    if reordered:
        system = _reordered(system, v)
    bound, gens = P.automorphism_lower_bound(system)
    assert (bound, gens) == oracle_automorphism_lower_bound(system)
    assert V.verify_automorphisms(system, gens)["closure_order"] == bound


# [DERIVED] the covered orders v <= 400 whose witness carries multipliers
# of order m > 1, with the bound m·|G|
MULTIPLIER_BOUNDS = {
    81: 234, 153: 450, 159: 468, 177: 1218, 225: 1998, 249: 1230, 255: 756,
    297: 882, 303: 900, 321: 4134, 339: 1008, 351: 2436, 369: 5490,
    375: 1860, 393: 1170, 399: 1980}


def test_closure_order_is_the_bound_with_multipliers():
    carrying = {}
    for v in range(9, 401, 6):
        if not P.classify_order(v).covered:
            continue
        system = P.construct(v)
        mult = system.witness.multipliers
        if mult and mult.order > 1:
            bound, gens = P.automorphism_lower_bound(system)
            rep = V.verify_automorphisms(system, gens)
            assert rep["ok"], (v, rep)
            carrying[v] = rep["closure_order"]
            assert carrying[v] == bound, v
    assert carrying == MULTIPLIER_BOUNDS


def _complete(v):
    """Every triple of range(v) as a block and no classes, so that every
    permutation preserves both."""
    blocks = np.array(list(itertools.combinations(range(v), 3)),
                      dtype=np.int32).reshape(-1, 3)
    return P.KirkmanSystem(order=v, group=None,
                           points=np.arange(v, dtype=np.int32),
                           blocks=blocks, resolution=[])


def _random_generator(rng, v):
    """A permutation of range(v): the identity, a transposition, a cycle
    through some of the points, a shuffle within each side of a cut (the
    group they generate is then intransitive), or a shuffle of all."""
    p = list(range(v))
    kind = rng.randrange(5)
    if kind == 1:
        i, j = rng.sample(p, 2) if v > 1 else (0, 0)
        p[i], p[j] = p[j], p[i]
    elif kind == 2:
        cycle = rng.sample(p, rng.randint(1, v))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            p[a] = b
    elif kind == 3:
        cut = rng.randint(0, v)
        low, high = p[:cut], p[cut:]
        rng.shuffle(low)
        rng.shuffle(high)
        p = low + high
    elif kind == 4:
        rng.shuffle(p)
    return p


def test_closure_order_matches_tuple_closure_on_random_groups():
    rng = random.Random(19)
    seen, intransitive, not_semiregular = set(), 0, 0
    for _ in range(300):
        v = rng.randint(1, 8)
        gens = [_random_generator(rng, v) for _ in range(rng.randint(0, 3))]
        if v == 8 and sum(sorted(g) != g for g in gens) > 1:
            gens = gens[:1]  # keep the tuple closure small
        rep = V.verify_automorphisms(
            _complete(v), [(f"g{i}", g) for i, g in enumerate(gens)])
        assert rep["ok"], rep
        assert rep["closure_order"] == oracle_closure_order(gens, v), gens
        seen.add(rep["closure_order"])
        moves = np.array(gens, dtype=np.int64).reshape(-1, v)
        start = np.arange(v) == 0
        intransitive += np.count_nonzero(G.orbit(start, moves)) < v
        # a generator other than the identity that fixes a point
        not_semiregular += any(0 < sum(p[i] == i for i in range(v)) < v
                               for p in gens)
    assert len(seen) >= 15 and intransitive > 50 and not_semiregular > 50


@pytest.mark.parametrize("gens, order", [
    ([], 1),
    ([list(range(6)), list(range(6))], 1),
    # a 4-cycle fixing two points: not semiregular
    ([[1, 2, 3, 0, 4, 5]], 4),
    # two 3-cycles on disjoint supports: intransitive, order 9
    ([[1, 2, 0, 3, 4, 5], [0, 1, 2, 4, 5, 3]], 9),
    # S4 on the first four points, fixing the rest
    ([[1, 0, 2, 3, 4, 5], [1, 2, 3, 0, 4, 5]], 24),
    # S6 from a transposition and a 6-cycle
    ([[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]], 720)])
def test_closure_order_edge_cases(gens, order):
    rep = V.verify_automorphisms(
        _complete(6), [(f"g{i}", g) for i, g in enumerate(gens)])
    assert rep == {"ok": True, "generators": len(gens),
                   "closure_order": order, "problems": []}


def test_regularity_check_on_hand_made_permutations():
    # Z6 acting on itself by x -> x + 1 is regular
    z6 = [np.roll(np.arange(6), -1)]
    assert V._regularity_problems(z6, z6, 0, 6) == []
    # S3 on 3 points is transitive, but of order 6, not the claimed 3: no
    # transitive group of left maps commutes with it
    s3 = [np.array([1, 0, 2]), np.array([1, 2, 0])]
    assert V._regularity_problems(s3, s3, 0, 3)
    assert V._regularity_problems(s3, s3[1:], 0, 3)


def _swap(res, rng):
    i, j = rng.choice(len(res), 2, replace=False)
    p, q = rng.integers(len(res[i])), rng.integers(len(res[j]))
    res[i][p], res[j][q] = res[j][q].copy(), res[i][p].copy()


def _double(res, rng):
    i, j = rng.choice(len(res), 2, replace=False)
    res[i][rng.integers(len(res[i]))] = res[j][rng.integers(len(res[j]))]


def _remove(res, rng):
    i = rng.integers(len(res))
    res[i] = np.delete(res[i], rng.integers(len(res[i])), axis=0)


def _move(res, rng):
    i, j = rng.choice(len(res), 2, replace=False)
    p = rng.integers(len(res[i]))
    res[j] = np.concatenate((res[j], res[i][p:p + 1]))
    res[i] = np.delete(res[i], p, axis=0)


def _merge(res, rng):
    i, j = sorted(rng.choice(len(res), 2, replace=False))
    res[i] = np.concatenate((res[i], res.pop(j)))


UNEVEN = (_remove, _move, _merge)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("corrupt", (_swap, _double) + UNEVEN)
@pytest.mark.parametrize("v", (15, 33, 39))
def test_checks_agree_with_oracle_on_corruptions(request, v, corrupt, seed):
    system = request.getfixturevalue(f"sys{v}")
    res = [c.copy() for c in system.resolution]
    corrupt(res, np.random.default_rng(seed))
    bad = _with(system, resolution=res, blocks=np.concatenate(res))
    points = point_view(bad)
    cover = naive_pair_cover(points, [[points[i] for i in b]
                                      for b in bad.blocks])
    exact = len(cover) == v * (v - 1) // 2 and set(cover.values()) == {1}
    assert V.verify_sts(bad)["ok"] == exact
    assert not V.verify_resolution(bad)["ok"]
    if corrupt in UNEVEN:
        assert not V.verify_3pyramidal(bad)["ok"]
    assert V.verify_3pyramidal(bad) == oracle_verify_3pyramidal(bad)
    # the witness is still attached, so this runs the base-block check too
    assert bad.witness is not None
    assert not V.verify_full(bad)["ok"]


def _stray(res, rng):
    i = rng.integers(len(res))
    res[i][rng.integers(len(res[i])), rng.integers(3)] = rng.choice(
        (-1, 3 * len(res[i])))


def _partition_oracle(system):
    """The classes whose ids are not each point id exactly once."""
    v = len(system.points)
    return [k for k, cls in enumerate(system.resolution)
            if sorted(cls.ravel().tolist()) != list(range(v))]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("corrupt", (_swap, _double, _stray) + UNEVEN)
@pytest.mark.parametrize("v", (15, 33, 39))
def test_resolution_flags_the_classes_of_the_oracle(request, v, corrupt,
                                                    seed):
    system = request.getfixturevalue(f"sys{v}")
    res = [c.copy() for c in system.resolution]
    corrupt(res, np.random.default_rng(seed))
    bad = _with(system, resolution=res)
    want = _partition_oracle(bad)
    assert want
    problems = V.verify_resolution(bad)["problems"]
    flagged = [p for p in problems if p.startswith("class ")]
    assert problems == (problems[:len(problems) - len(flagged)] + [
        f"class {k} is not a partition of the points" for k in want
    ])[:V.MAX_PROBLEMS]


def test_automorphisms_reject_bad_permutation(sys15):
    n = len(sys15.points)
    perm = list(range(n))
    perm[3], perm[4] = perm[4], perm[3]
    rep = V.verify_automorphisms(sys15, [("swap", perm)])
    assert not rep["ok"]


def test_full_report_shape(sys15):
    rep = V.verify_full(sys15)
    assert set(rep) >= {"ok", "sts", "resolution", "pyramidal", "base_blocks"}


# ---------------------------------------------------------------------------
# verify_3pyramidal against the per-generator oracle in conftest.py

def _all_translations(system):
    """The permutation of point ids of every right translation."""
    return V._translations(system, V._point_codes(system),
                           np.arange(system.group.order))


def _rewired(cls, skip=()):
    """The class with one point swapped between two of its blocks that
    avoid the ids in `skip`: a partition of the points again, but with two
    blocks that are in no Steiner system holding the class's others."""
    cls = cls.copy()
    apart = [k for k, row in enumerate(cls.tolist())
             if not set(row) & set(skip)]
    p, q = apart[:2]
    cls[p, 2], cls[q, 0] = cls[q, 0], cls[p, 2]
    return cls


def _block_with(system, *ids):
    """The index of the first class with a block holding all of `ids`, and
    that block."""
    for k, cls in enumerate(system.resolution):
        for row in cls.tolist():
            if set(ids) <= set(row):
                return k, row


def _spy(monkeypatch, name):
    """The calls of `verify`'s function `name`, recorded as it runs."""
    calls = []
    real = getattr(V, name)

    def spy(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(V, name, spy)
    return calls


@pytest.mark.parametrize("v", [15, 33, 39, 147, 183, 819])
def test_pyramidal_matches_oracle_on_built_systems(v, monkeypatch):
    s = P.construct(v)
    calls = _spy(monkeypatch, "_preservation")
    for system in (s, _reordered(s, v)):
        rep = V.verify_3pyramidal(system)
        assert rep["ok"]
        assert rep == oracle_verify_3pyramidal(system)
    # a valid system is proved by the development alone
    assert not calls


def test_pyramidal_matches_oracle_on_fixtures(sys15):
    res = list(sys15.resolution)
    res[1], res[2] = (np.concatenate((res[1][:1], res[2][1:])),
                      np.concatenate((res[2][:1], res[1][1:])))
    for bad in (_with(sys15, group=G.GroupDescriptor([G.ZAtom(12)])),
                _with(sys15, resolution=res),
                _with(sys15, resolution=list(sys15.resolution)
                      + [sys15.resolution[4]]),
                _with(sys15, resolution=[])):
        assert V.verify_3pyramidal(bad) == oracle_verify_3pyramidal(bad)


def test_pyramidal_invariant_extra_orbit_takes_diagnosis(sys33, monkeypatch):
    # the whole orbit of a rewired class is H-invariant, but the class set
    # is no longer C∞ and the orbit of C1, so the development proves nothing
    extra = _rewired(sys33.resolution[1])
    res = list(sys33.resolution) + [perm[extra]
                                    for perm in _all_translations(sys33)]
    bad = _with(sys33, resolution=res)
    calls = _spy(monkeypatch, "_preservation")
    rep = V.verify_3pyramidal(bad)
    assert calls
    assert rep["ok"]
    assert rep == oracle_verify_3pyramidal(bad)


@pytest.mark.parametrize("v", [33, 39, 147])
def test_pyramidal_catches_rewired_infinity_class(request, v):
    # every other class and the blocks agree with the development of C1,
    # but C∞ is no longer fixed by the translations
    s = request.getfixturevalue(f"sys{v}")
    points = point_view(s)
    inf_ids = [points.index(p) for p in ("inf1", "inf2", "inf3")]
    k, _ = _block_with(s, *inf_ids)
    res = list(s.resolution)
    res[k] = _rewired(res[k], inf_ids)
    bad = _with(s, resolution=res, blocks=np.concatenate(res))
    rep = V.verify_3pyramidal(bad)
    assert not rep["ok"]
    assert rep == oracle_verify_3pyramidal(bad)


@pytest.mark.parametrize("v", [33, 39, 147])
def test_pyramidal_catches_half_orbit_of_a_class_not_fixed_by_tau(request, v):
    # C∞ and the half-orbit of C1 rewired: the classes C1·h with
    # h(0) < h(y) are all there, but τ no longer maps C1 onto itself, so
    # the other half of the orbit is missing
    s = request.getfixturevalue(f"sys{v}")
    points = point_view(s)
    inf_ids = [points.index(p) for p in ("inf1", "inf2", "inf3")]
    zero = points.index(s.group.zero)
    k, through = _block_with(s, inf_ids[0], zero)
    y = next(p for p in through if p not in (inf_ids[0], zero))
    c1 = _rewired(s.resolution[k], through)
    res = [s.resolution[_block_with(s, *inf_ids)[0]]] + [
        perm[c1] for perm in _all_translations(s) if perm[zero] < perm[y]]
    bad = _with(s, resolution=res, blocks=np.concatenate(res))
    rep = V.verify_3pyramidal(bad)
    assert not rep["ok"]
    assert rep == oracle_verify_3pyramidal(bad)


# ---------------------------------------------------------------------------
# verify_full shares one SystemView among its checks; each part of its
# report must be what the check gives when it makes its own view

def _swap_point(res, rng):
    """One point swapped between two disjoint blocks of the classes."""
    rows = [(i, p) for i, cls in enumerate(res) for p in range(len(cls))]
    i, p = rows[rng.integers(len(rows))]
    j, q = next((j, q) for j, q in (rows[k] for k in rng.permutation(
        len(rows))) if not set(res[i][p].tolist()) & set(res[j][q].tolist()))
    res[i][p, 0], res[j][q, 0] = res[j][q, 0], res[i][p, 0]


def _tau_edited(system, rewire):
    """The classes C∞ and h[C1'] with h(0) < h(y), the half-orbit that
    `build_kts` develops, where C1' is C1 with two τ-pairs of its blocks
    B, τB and B2, τB2 edited so that τ[C1'] = C1' still: the first point
    of B swapped with that of B2 (`rewire`, a partition again), or
    replaced by it (a point twice, so no partition)."""
    points = point_view(system)
    inf_ids = [points.index(p) for p in ("inf1", "inf2", "inf3")]
    zero = points.index(system.group.zero)
    k, through = _block_with(system, inf_ids[0], zero)
    y = next(p for p in through if p not in (inf_ids[0], zero))
    perms = _all_translations(system)
    tau = next(perm for perm in perms if perm[zero] == y)
    c1 = system.resolution[k].copy()
    rows = [sorted(row) for row in c1.tolist()]
    partner = [rows.index(sorted(tau[row].tolist())) for row in c1]
    apart = [r for r, row in enumerate(rows) if not set(row) & set(inf_ids)]
    i = apart[0]
    i2 = next(r for r in apart if r not in (i, partner[i]))
    if rewire:
        c1[i, 0], c1[i2, 0] = c1[i2, 0], c1[i, 0]
    else:
        c1[i, 0] = c1[i2, 0]
    c1[partner[i]], c1[partner[i2]] = tau[c1[i]], tau[c1[i2]]
    return [system.resolution[_block_with(system, *inf_ids)[0]].copy()] + [
        perm[c1] for perm in perms if perm[zero] < perm[y]]


def _c1_off_partition(system):
    return _tau_edited(system, rewire=False)


def _c1_rewired(system):
    return _tau_edited(system, rewire=True)


# corruptions that keep the classes C∞ and the orbit of C1, so that with
# their blocks the group action is proved and the reduced checks run
ON_ORBIT = (_c1_off_partition, _c1_rewired)


@pytest.mark.parametrize("with_blocks", (False, True))
@pytest.mark.parametrize("v, corrupt", [
    *itertools.product((15, 33, 39),
                       (_swap, _double, _stray, _swap_point) + UNEVEN),
    *itertools.product((33, 39), ON_ORBIT)])
def test_shared_view_changes_no_report(request, v, corrupt, with_blocks):
    system = request.getfixturevalue(f"sys{v}")
    if corrupt in ON_ORBIT:
        res = corrupt(system)
    else:
        res = [c.copy() for c in system.resolution]
        corrupt(res, np.random.default_rng(v))
    bad = _with(system, resolution=res,
                **({"blocks": np.concatenate(res)} if with_blocks else {}))
    full = V.verify_full(bad)
    assert not full["ok"]
    assert full["sts"] == V.verify_sts(bad)
    assert full["resolution"] == V.verify_resolution(bad)
    assert full["pyramidal"] == V.verify_3pyramidal(bad)
    assert full["base_blocks"] == V.check_base_blocks(bad)
    if corrupt in ON_ORBIT and with_blocks:
        # the action is proved by development, and C1 and C∞ recorded
        view = V.SystemView(bad)
        assert V.verify_3pyramidal(bad, view)["ok"]
        assert view.development is not None
        assert V._developed(view) == (corrupt is _c1_rewired)
        assert full["resolution"]["ok"] == (corrupt is _c1_rewired)
        assert not full["sts"]["ok"]


@pytest.mark.parametrize("v, shuffled", [
    *((v, False) for v in (51, 87, 159, 195, 243, 255, 327, 369, 399, 819)),
    (183, True)])
def test_orbit_shortcut_changes_no_report(v, shuffled, monkeypatch):
    # on a built system the pair and partition checks of verify_full read
    # the proof of verify_3pyramidal: no pair bitmap and no class sorted
    system = P.construct(v)
    if shuffled:
        system = _reordered(system, v)
    want = {"sts": V.verify_sts(system),
            "resolution": V.verify_resolution(system),
            "pyramidal": V.verify_3pyramidal(system),
            "base_blocks": V.check_base_blocks(system)}
    bitmap = _spy(monkeypatch, "_pair_code")
    sort = _spy(monkeypatch, "_flag_non_partitions")
    full = V.verify_full(system)
    assert full == {"ok": True, **want}
    assert list(full) == ["ok", "sts", "resolution", "pyramidal",
                          "base_blocks"]
    assert not bitmap and not sort


def test_resolution_rejects_ids_that_alias_a_block(sys15):
    # (a·v + b)·v + c codes [0, 0, 17] as [0, 1, 2] at v = 15
    blocks = sys15.blocks.copy()
    at = blocks.tolist().index([0, 1, 2])
    blocks[at] = [0, 0, 17]
    rep = V.verify_resolution(_with(sys15, blocks=blocks))
    assert rep == {"ok": False, "classes": 7, "problems": [
        "blocks or classes mention unknown point ids"]}


@pytest.mark.parametrize("v", (15, 33, 39))
def test_sts_names_the_pairs_of_a_swapped_point(request, v):
    system = request.getfixturevalue(f"sys{v}")
    blocks = system.blocks.copy()
    rows = blocks.tolist()
    donor = next(i for i, b in enumerate(rows) if not set(b) & set(rows[0]))
    blocks[0, 0], blocks[donor, 0] = blocks[donor, 0], blocks[0, 0]
    bad = _with(system, blocks=blocks)
    points = file_labels(bad)
    cover = naive_pair_cover(points, [[points[i] for i in b] for b in blocks])
    index = {p: i for i, p in enumerate(points)}
    want = [f"{v * (v - 1) // 2 - len(cover)} pairs uncovered"] + [
        f"pair ({x}, {y}) covered {k} times" for x, y, k in sorted(
            ((x, y, k) for (x, y), k in cover.items() if k != 1),
            key=lambda t: (index[t[0]], index[t[1]]))]
    assert want[0] == "4 pairs uncovered" and len(want) == 5
    rep = V.verify_sts(bad)
    assert not rep["ok"]
    assert rep["problems"] == want


def test_verify_full_memory_per_block():
    # the traced peak of verify_full on a built system, in bytes per block;
    # the pair check marks a v×v bitmap instead of sorting 3b pair codes
    system = P.construct(1971)
    tracemalloc.start()
    try:
        assert V.verify_full(system)["ok"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * len(system.blocks), peak / len(system.blocks)


def test_group_order_holds_one_table_per_level():
    # at 1095 the first level's orbit holds the 1092 group points; a level
    # keeps only its inverse rows, so the traced peak of the Schreier–Sims
    # order stays below two (orbit × v) int32 tables
    system = P.construct(1095)
    bound, gens = P.automorphism_lower_bound(system)
    perms = [np.asarray(p, dtype=np.int32) for _, p in gens]
    v = len(system.points)
    tracemalloc.start()
    try:
        order = V._group_order(perms, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert order == bound == 3276
    assert peak < 2 * (v - 3) * v * 4, peak


def test_sts_bitmap_needs_the_full_block_count():
    # the v×v bitmap is built only when the blocks give v(v-1)/2 pairs, so
    # a file with many points and few blocks allocates no v² array
    v = 30_000
    system = types.SimpleNamespace(order=v,
                                   points=np.arange(v, dtype=np.int32),
                                   blocks=np.array([[0, 1, 2], [0, 3, 4]],
                                                   dtype=np.int32))
    tracemalloc.start()
    try:
        rep = V.verify_sts(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["problems"] == [f"{v * (v - 1) // 2 - 6} pairs uncovered"]
    # the sorted points are most of it; a bitmap would be v² = 900 MB
    assert peak < v * v // 100


# ---------------------------------------------------------------------------
# memory: the build and the checks hold the system, its codes and one chunk

def _system_bytes(system):
    return (system.points.nbytes + system.blocks.nbytes
            + sum(rows.nbytes for rows in system.resolution))


@pytest.fixture(scope="module")
def sys1971():
    return P.construct(1971)


def test_build_kts_peak_within_half_again_the_system(sys1971):
    # the class codes are sorted in place and decoded a chunk at a time into
    # the blocks: no deduped copy of them and no full-length temporaries
    tracemalloc.start()
    try:
        system = P.build_kts(sys1971.witness)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(system.blocks, sys1971.blocks)
    assert peak <= 1.5 * _system_bytes(system), peak / _system_bytes(system)


def test_verify_full_peak_within_three_quarters_of_the_system(sys1971):
    # the view holds the block codes and the class table, a third of the
    # system each, and the checks one chunk beside them
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert V.verify_full(sys1971)["ok"]
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * _system_bytes(sys1971), \
        peak / _system_bytes(sys1971)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("corrupt", (_swap, _double))
@pytest.mark.parametrize("v", (15, 33, 39))
def test_pair_problems_count_runs_as_unique_did(request, v, corrupt, seed):
    system = request.getfixturevalue(f"sys{v}")
    res = [c.copy() for c in system.resolution]
    corrupt(res, np.random.default_rng(seed))
    bad = _with(system, resolution=res, blocks=np.concatenate(res))
    rows = np.sort(bad.blocks, axis=1).astype(np.int64)
    pairs = np.sort(np.concatenate([rows[:, i] * v + rows[:, j]
                                    for i, j in ((0, 1), (0, 2), (1, 2))]))
    codes, counts = np.unique(pairs, return_counts=True)
    first, second = np.divmod(codes, v)
    off = first < second
    view = V.SystemView(bad)
    want = [f"{v * (v - 1) // 2 - int(off.sum())} pairs uncovered"] * (
        v * (v - 1) // 2 != int(off.sum())) + [
        f"pair {V._named(view, (first[k], second[k]))} covered {counts[k]} "
        f"times" for k in np.flatnonzero(off & (counts != 1))[
            :V.MAX_PROBLEMS]]
    # a swap between classes keeps the blocks; a doubled block breaks them
    assert bool(want) == (corrupt is _double)
    assert V._pair_problems(view, pairs) == want
    assert V.verify_sts(bad)["problems"] == want


@pytest.mark.parametrize("corrupt", (None, _swap, _double, _stray,
                                     _swap_point) + UNEVEN)
def test_small_chunks_change_no_report(sys39, monkeypatch, corrupt):
    # every pass over the blocks and the classes cut at odd places
    res = [c.copy() for c in sys39.resolution]
    if corrupt:
        corrupt(res, np.random.default_rng(39))
    bad = _with(sys39, resolution=res, blocks=np.concatenate(res))
    want = V.verify_full(bad)
    monkeypatch.setattr(G, "BLOCK_CHUNK", 11)
    assert V.verify_full(bad) == want
    assert want["ok"] == (corrupt is None)
    if corrupt is None:
        built = P.build_kts(sys39.witness)
        assert np.array_equal(built.blocks, sys39.blocks)
        assert all(np.array_equal(x, y) for x, y in zip(built.resolution,
                                                         sys39.resolution))


@pytest.mark.parametrize("chunk", (5, 64, 1 << 15))
def test_same_entries_is_a_multiset_comparison(chunk, monkeypatch):
    monkeypatch.setattr(G, "BLOCK_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    codes = np.unique(rng.integers(1 << 30, size=300))
    for trial in range(20):
        table = rng.permutation(codes)[:len(codes) // 6 * 6].reshape(-1, 6)
        want = codes[:len(codes) // 6 * 6]
        if trial % 4 == 1:
            table[rng.integers(len(table)), rng.integers(6)] = \
                table[rng.integers(len(table)), rng.integers(6)]
        elif trial % 4 == 2:
            table[rng.integers(len(table)), rng.integers(6)] = rng.integers(
                1 << 30)
        elif trial % 4 == 3:
            want = np.sort(rng.permutation(codes)[:len(want)])
        table.sort(axis=1)
        assert V._same_entries(table, want) == np.array_equal(
            np.sort(table.ravel()), want)


def test_preservation_matches_oracle_on_any_permutation(sys33):
    # the class lookup by lowest code, and the `_class_set` comparison it
    # falls back to when a class is listed twice
    rng = np.random.default_rng(33)
    twice = _with(sys33, resolution=list(sys33.resolution)
                  + [sys33.resolution[3]])
    perms = [*V.SystemView(sys33).right, np.arange(33, dtype=np.int32)]
    perms += [rng.permutation(33).astype(np.int32) for _ in range(4)]
    swap = np.arange(33, dtype=np.int32)
    swap[[5, 9]] = swap[[9, 5]]
    perms.append(swap)
    for system in (sys33, twice):
        preserves = V._preservation(V.SystemView(system))
        oracle = _oracle_preservation(system)
        got = [preserves(perm) for perm in perms]
        assert got == [oracle(perm) for perm in perms]
        assert (True, True) in got and (False, False) in got

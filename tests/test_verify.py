import copy
import dataclasses

import numpy as np
import pytest
from conftest import naive_pair_cover

from kts3p import pipeline as P
from kts3p import verify as V
from kts3p.designkit import Spread


@pytest.fixture(scope="module")
def sys15():
    return P.construct(15)


@pytest.fixture(scope="module")
def sys33():
    return P.construct(33)


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
    s = P.construct(15)
    bad = _with(s, points=s.points[:-1] + [s.points[0]])
    assert not V.verify_sts(bad)["ok"]


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


def test_extract_base_blocks_roundtrip(sys33):
    reps, short = V.extract_base_blocks(sys33)
    w = sys33.witness
    assert len(reps) == len(w.blocks)
    # the short orbit representative is one triple inside the group
    assert len(short) == 3
    assert all(p in set(sys33.group.element_list) for p in short)
    rep = V.check_base_blocks(sys33)
    assert rep["ok"], rep


def _base_blocks_oracle(system):
    """extract_base_blocks by brute force: the blocks avoiding the extra
    points in code order, each not yet seen developing its orbit B + t
    with the group law."""
    g, points = system.group, system.points
    index = {p: i for i, p in enumerate(points)}

    def key(labels):
        return tuple(sorted(index[p] for p in labels))

    seen, reps, short = set(), [], []
    for b in sorted({tuple(sorted(row)) for row in system.blocks.tolist()}):
        labels = [points[i] for i in b]
        if b in seen or any(isinstance(p[0], str) for p in labels):
            continue
        orbit = {key([g.add(x, t) for x in labels]) for t in g.element_list}
        seen |= orbit
        (reps if len(orbit) == g.order else short).append(tuple(labels))
    return reps, short


@pytest.mark.parametrize("v", [39, 183, 327])
def test_extract_base_blocks_matches_oracle(v):
    s = P.construct(v)
    reps, short = V.extract_base_blocks(s)
    want_reps, want_short = _base_blocks_oracle(s)
    assert reps == want_reps
    assert [short] == want_short
    # a repeated block is one block of the orbit decomposition
    doubled = _with(s, blocks=np.vstack([s.blocks, s.blocks[::-1]]))
    assert V.extract_base_blocks(doubled) == (reps, short)


def test_check_base_blocks_detects_foreign_witness(sys15, sys33):
    bad = _with(sys33, witness=sys15.witness)
    assert not V.check_base_blocks(bad)["ok"]


def test_check_base_blocks_detects_wrong_spread():
    # right blocks, but the witness names another order-3 subgroup of
    # G1 x V3 as its spread, and no translate of it is the short orbit
    s = P.construct(39)
    g, w = s.group, s.witness
    x = next(y for y in g.element_list
             if y != g.zero and y not in w.spread().order3
             and g.add(y, g.add(y, y)) == g.zero)
    other = copy.copy(w)
    other.relative = Spread(g, x)
    rep = V.check_base_blocks(_with(s, witness=other))
    assert rep["problems"] == ["short orbit is not the developed spread"]


def test_automorphisms_translations(sys15):
    bound, gens = P.automorphism_lower_bound(sys15)
    rep = V.verify_automorphisms(sys15, gens)
    assert rep["ok"], rep
    assert rep["closure_order"] >= bound
    assert not rep["capped"]


def _reordered(system, seed):
    """The same system with its points listed in a shuffled order."""
    order = np.random.default_rng(seed).permutation(len(system.points))
    new_id = np.empty_like(order)
    new_id[order] = np.arange(len(order))
    return _with(system, points=[system.points[i] for i in order],
                 blocks=new_id[system.blocks].astype(np.int32),
                 resolution=[new_id[c].astype(np.int32)
                             for c in system.resolution])


def test_automorphisms_translations_reordered_points(sys15):
    moved = _reordered(sys15, 3)
    assert moved.points[:3] != list(P.INF)
    assert V.verify_full(moved)["ok"]
    bound, gens = P.automorphism_lower_bound(moved)
    rep = V.verify_automorphisms(moved, gens)
    assert rep["ok"], rep
    assert rep["closure_order"] >= bound


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
@pytest.mark.parametrize("v", (15, 33))
def test_checks_agree_with_oracle_on_corruptions(request, v, corrupt, seed):
    system = request.getfixturevalue(f"sys{v}")
    res = [c.copy() for c in system.resolution]
    corrupt(res, np.random.default_rng(seed))
    bad = _with(system, resolution=res, blocks=np.concatenate(res))
    cover = naive_pair_cover(bad.points,
                             [[bad.points[i] for i in b] for b in bad.blocks])
    exact = len(cover) == v * (v - 1) // 2 and set(cover.values()) == {1}
    assert V.verify_sts(bad)["ok"] == exact
    assert not V.verify_resolution(bad)["ok"]
    if corrupt in UNEVEN:
        assert not V.verify_3pyramidal(bad)["ok"]


def test_automorphisms_reject_bad_permutation(sys15):
    n = len(sys15.points)
    perm = list(range(n))
    perm[3], perm[4] = perm[4], perm[3]
    rep = V.verify_automorphisms(sys15, [("swap", perm)])
    assert not rep["ok"]


def test_full_report_shape(sys15):
    rep = V.verify_full(sys15)
    assert set(rep) >= {"ok", "sts", "resolution", "pyramidal", "base_blocks"}

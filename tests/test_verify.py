import copy
import dataclasses
import itertools
import types

import numpy as np
import pytest
from conftest import naive_pair_cover, oracle_verify_3pyramidal

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


def test_pyramidal_compares_classes_as_a_set(sys15):
    # a repeated class leaves the set of classes, and so its preservation
    # under translations, as it was; the classes then share blocks
    bad = _with(sys15, resolution=list(sys15.resolution)
                + [sys15.resolution[4]])
    assert V.verify_3pyramidal(bad)["ok"]
    assert not V.verify_resolution(bad)["ok"]


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


# D heads over a prime and a non-prime field, G1, G2 and G3 heads
@pytest.mark.parametrize("v", [39, 57, 183, 195, 327])
def test_extract_base_blocks_matches_oracle(v):
    s = P.construct(v)
    reps, short = V.extract_base_blocks(s)
    want_reps, want_short = _base_blocks_oracle(s)
    assert reps == want_reps
    assert [short] == want_short
    # a repeated block is one block of the orbit decomposition
    doubled = _with(s, blocks=np.vstack([s.blocks, s.blocks[::-1]]))
    assert V.extract_base_blocks(doubled) == (reps, short)


def test_check_base_blocks_reports_orbit_leaving_block_set(sys33):
    # one block fewer: its orbit is no longer inside the block set, which
    # is a problem in the report, not an exception
    bad = _with(sys33, blocks=sys33.blocks[:-1])
    rep = V.check_base_blocks(bad)
    assert not rep["ok"]
    assert any(p.endswith("leaves the block set") for p in rep["problems"])
    with pytest.raises(ValueError, match="leaves the block set"):
        V.extract_base_blocks(bad)


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
    points = list(V.INF) + g.element_list
    points = [points[i] for i in rng.permutation(len(points))]
    index = {p: i for i, p in enumerate(points)}
    system = types.SimpleNamespace(group=g, points=points)
    shifts = [g.element_list[i] for i in rng.integers(g.order, size=5)]
    gi = G.GroupIndex(g)
    points = V._point_codes(system)
    right = V._translations(system, points, shifts)
    left = V._translations(system, points, shifts, left=True)
    perms = gi.translation(shifts)
    for t, rp, lp, perm in zip(shifts, right, left, perms):
        for i in rng.integers(g.order, size=20):
            x = g.element_list[i]
            assert g.element_list[perm[i]] == g.add(x, t)
            assert rp[index[x]] == index[g.add(x, t)]
            assert lp[index[x]] == index[g.add(t, x)]
        for p in V.INF:
            assert rp[index[p]] == lp[index[p]] == index[p]


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
@pytest.mark.parametrize("v", (15, 33, 39))
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
                           system.group.element_list)


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


def _spy_preservation(monkeypatch):
    calls = []
    real = V._preservation

    def spy(system):
        calls.append(system)
        return real(system)
    monkeypatch.setattr(V, "_preservation", spy)
    return calls


@pytest.mark.parametrize("v", [15, 33, 39, 147, 183, 819])
def test_pyramidal_matches_oracle_on_built_systems(v, monkeypatch):
    s = P.construct(v)
    calls = _spy_preservation(monkeypatch)
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
    calls = _spy_preservation(monkeypatch)
    rep = V.verify_3pyramidal(bad)
    assert calls
    assert rep["ok"]
    assert rep == oracle_verify_3pyramidal(bad)


@pytest.mark.parametrize("v", [33, 39, 147])
def test_pyramidal_catches_rewired_infinity_class(request, v):
    # every other class and the blocks agree with the development of C1,
    # but C∞ is no longer fixed by the translations
    s = request.getfixturevalue(f"sys{v}")
    inf_ids = [s.points.index(p) for p in V.INF]
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
    inf_ids = [s.points.index(p) for p in V.INF]
    zero = s.points.index(s.group.zero)
    k, through = _block_with(s, inf_ids[0], zero)
    y = next(p for p in through if p not in (inf_ids[0], zero))
    c1 = _rewired(s.resolution[k], through)
    res = [s.resolution[_block_with(s, *inf_ids)[0]]] + [
        perm[c1] for perm in _all_translations(s) if perm[zero] < perm[y]]
    bad = _with(s, resolution=res, blocks=np.concatenate(res))
    rep = V.verify_3pyramidal(bad)
    assert not rep["ok"]
    assert rep == oracle_verify_3pyramidal(bad)

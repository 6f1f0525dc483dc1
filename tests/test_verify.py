import dataclasses

import numpy as np
import pytest

from kts3p import pipeline as P
from kts3p import verify as V


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


def test_check_base_blocks_detects_foreign_witness(sys15, sys33):
    bad = _with(sys33, witness=sys15.witness)
    assert not V.check_base_blocks(bad)["ok"]


def test_automorphisms_translations(sys15):
    bound, gens = P.automorphism_lower_bound(sys15)
    rep = V.verify_automorphisms(sys15, gens)
    assert rep["ok"], rep
    assert rep["closure_order"] >= bound
    assert not rep["capped"]


def test_automorphisms_reject_bad_permutation(sys15):
    n = len(sys15.points)
    perm = list(range(n))
    perm[3], perm[4] = perm[4], perm[3]
    rep = V.verify_automorphisms(sys15, [("swap", perm)])
    assert not rep["ok"]


def test_full_report_shape(sys15):
    rep = V.verify_full(sys15)
    assert set(rep) >= {"ok", "sts", "resolution", "pyramidal", "base_blocks"}

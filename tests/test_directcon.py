import pytest

from conftest import delta_counts, naive_delta
from kts3p import catalog
from kts3p import directcon as D
from kts3p.designkit import (FamilyWitness, is_doubly_disjoint,
                             is_j_resolvable)
from kts3p.finring import build_ring, field_for


def _odd_part_coprime(n, lam):
    import math
    while (g := math.gcd(n, lam)) > 1:
        n //= g
    return n


@pytest.mark.parametrize("n", [1, 3, 4, 6, 9])
def test_9mod24_small(n):
    w = D.construct_9mod24(n)
    m = 4 * n + 1
    assert w.group.order == 6 * m
    assert len(w.blocks) == (6 * m - 6) // 6
    assert is_j_resolvable(w)
    assert w.multipliers.order == _odd_part_coprime(build_ring(m).psi, 2)


def test_9mod24_rejects_bad_order():
    with pytest.raises(ValueError):
        D.construct_9mod24(5)  # 21 = 3 * 7, components not 1 mod 4


@pytest.mark.parametrize("n", [5, 13, 25])
def test_15mod24_small(n):
    w = D.construct_15mod24(n)
    assert w.group.order == 12 * n
    assert len(w.blocks) == (12 * n - 12) // 6
    assert is_j_resolvable(w)
    assert w.multipliers.order == _odd_part_coprime(build_ring(n).psi, 2)


@pytest.mark.parametrize("n", [7, 13, 31])
def test_15mod24bis_small(n):
    w = D.construct_15mod24bis(n)
    assert w.group.order == 12 * n
    assert len(w.blocks) == (12 * n - 12) // 6
    assert is_j_resolvable(w)
    assert w.multipliers.order == _odd_part_coprime(build_ring(n).psi, 6)


def test_15mod24_delta_matches_naive_oracle():
    w = D.construct_15mod24(5)
    assert delta_counts(w.group, w.blocks) == naive_delta(w.group, w.blocks)


@pytest.mark.parametrize("eid,n", [("prdf:G1xV3", 7), ("prdf:G2", 7),
                                   ("prdf:G1xV3", 11)])
def test_lift_prdf(eid, n):
    prdf = catalog.get(eid)
    w = D.lift_prdf(prdf, n)
    assert w.group.order == prdf.group.order * n
    assert is_j_resolvable(w)
    # the relative subgroup is the embedded base group
    assert len(w.relative.carrier) == prdf.group.order


def test_lift_prdf_rejects_bad_ring():
    prdf = catalog.get("prdf:G2")
    with pytest.raises(ValueError):
        D.lift_prdf(prdf, 5)  # 5 is 1 mod 4
    with pytest.raises(ValueError):
        D.lift_prdf(prdf, 3)  # component equal to 3


@pytest.mark.parametrize("n", [5, 13, 25])
def test_dddf_small(n):
    w = D.construct_dddf(n)
    assert w.kind == "DDDF"
    assert len(w.translates) == len(w.blocks)
    assert is_doubly_disjoint(w)
    # every translate sits in the relative subgroup's ring-zero coset shape
    for t in w.translates:
        assert t[0] == 0


def test_dddf_dual_route_x_choice():
    # the direct scan and the constructive fallback both yield admissible x
    for q in (5, 13, 17, 25):
        f = field_for(q)
        for skip in (False, True):
            x = D.find_dddf_x(f, skip_direct=skip)
            two = f.add(1, 1)
            assert x not in f.squares
            assert f.sub(x, two) in f.squares


def test_dddf_fallback_whole_family():
    a = D.construct_dddf(13)
    b = D.construct_dddf(13, skip_direct=True)
    assert is_doubly_disjoint(b)
    assert len(a.blocks) == len(b.blocks)


def test_multiplier_action_detects_tampering():
    w = D.construct_15mod24(13)
    assert D.verify_multiplier_action(w, w.multipliers)
    blocks = [list(b) for b in w.blocks]
    blocks[0], blocks[1] = blocks[0][:2] + [blocks[1][2]], blocks[1][:2] + [blocks[0][2]]
    bad = FamilyWitness(w.group, blocks, "RDF", w.relative, j=w.j,
                        a=w.a, b=w.b, multipliers=w.multipliers)
    assert not D.verify_multiplier_action(bad, w.multipliers)


def test_multiplier_group_closure():
    ring = build_ring(13)
    m = D.MultiplierGroup(ring, [(3,)])
    # 3 has multiplicative order 3 mod 13
    assert m.order == 3
    assert ring.one in m.members

import numpy as np
import pytest

from conftest import (delta_counts, naive_delta, oracle_mu,
                      oracle_multiplier_action, tuple_view)
from kts3p import catalog
from kts3p import directcon as D
from kts3p.designkit import (FamilyWitness, is_doubly_disjoint,
                             is_j_resolvable)
from kts3p.finring import build_ring, factorize, field_for


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
    blocks = tuple_view(w.group, w.blocks)
    assert delta_counts(w.group, blocks) == naive_delta(w.group, blocks)


@pytest.mark.parametrize("eid,n", [("prdf:G1xV3", 7), ("prdf:G2", 7),
                                   ("prdf:G1xV3", 11)])
def test_lift_prdf(eid, n):
    prdf = catalog.get(eid)
    w = D.lift_prdf(prdf, n)
    assert w.group.order == prdf.group.order * n
    assert is_j_resolvable(w)
    # the relative subgroup is the embedded base group
    assert len(w.relative) == prdf.group.order


def test_lift_prdf_rejects_bad_ring():
    prdf = catalog.get("prdf:G2")
    with pytest.raises(ValueError):
        D.lift_prdf(prdf, 5)  # 5 is 1 mod 4
    with pytest.raises(ValueError):
        D.lift_prdf(prdf, 3)  # component equal to 3


@pytest.mark.parametrize("build", [
    lambda: D.lift_prdf(catalog.get("prdf:G2"), 1),
    lambda: D.lift_prdf(catalog.get("prdf:G1xV3"), 1),
    lambda: D.construct_dddf(1)], ids=["lift-G2", "lift-G1xV3", "dddf"])
def test_trivial_ring_raises_before_developing(build, monkeypatch):
    # V_1 has no component to check, so the constructors guard n > 1
    # themselves, as semiregular_system does
    def develop(*args, **kwargs):
        raise AssertionError("developed over the trivial ring")

    monkeypatch.setattr(D, "develop", develop)
    with pytest.raises(ValueError, match="needs n > 1"):
        build()


@pytest.mark.parametrize("n", [5, 13, 25])
def test_dddf_small(n):
    w = D.construct_dddf(n)
    assert w.kind == "DDDF"
    assert len(w.translates) == len(w.blocks)
    assert is_doubly_disjoint(w)
    # every translate sits in the relative subgroup's ring-zero coset shape
    for t in tuple_view(w.group, w.translates):
        assert t[0] == 0


# the prime powers q ≡ 1 (mod 4) below 1400
DDDF_FIELDS = [q for q in range(5, 1400, 4) if len(factorize(q)) == 1]


def test_dddf_x_count_and_choice():
    # a Jacobi-sum count gives exactly (q - 1)/4 non-squares x with x - 2 a
    # nonzero square, so the direct scan always returns the least of them
    assert len(DDDF_FIELDS) == 124
    for q in DDDF_FIELDS:
        f = field_for(q)
        two = f.add(1, 1)
        good = [x for x in range(1, q)
                if x not in f.squares and f.sub(x, two) in f.squares]
        assert len(good) == (q - 1) // 4
        assert D.find_dddf_x(f) == good[0]


@pytest.mark.parametrize("build", [
    lambda: D.construct_9mod24(2), lambda: D.construct_9mod24(11),
    lambda: D.construct_15mod24(25), lambda: D.construct_15mod24(65),
    lambda: D.construct_15mod24bis(49), lambda: D.construct_15mod24bis(91),
    lambda: D.lift_prdf(catalog.get("prdf:G1xV3"), 27),
    lambda: D.lift_prdf(catalog.get("prdf:G2"), 7),
    lambda: D.construct_dddf(9), lambda: D.construct_dddf(65)],
    ids=["9mod24-V9", "9mod24-V45", "15mod24-V25", "15mod24-V65",
         "bis-V49", "bis-V91", "lift-V27", "lift-V7", "dddf-V9", "dddf-V65"])
def test_develop_matches_tuple_oracle(build, monkeypatch):
    # every block a constructor develops equals μ_s applied to element
    # tuples, in the same order, over extension fields and two-component
    # rings alike
    calls = []
    develop = D.develop

    def recorded(ring, initial, units, block_major=False):
        out = develop(ring, initial, units, block_major)
        calls.append((ring, initial, units, block_major, out))
        return out

    monkeypatch.setattr(D, "develop", recorded)
    w = build()
    g = w.group
    assert calls
    for ring, initial, units, block_major, out in calls:
        initial = tuple_view(g, initial)
        pairs = ([(b, s) for b in initial for s in units] if block_major
                 else [(b, s) for s in units for b in initial])
        assert tuple_view(g, out) == tuple(
            tuple(oracle_mu(ring, s)(x) for x in b) for b, s in pairs)
    assert np.array_equal(w.blocks, np.sort(np.concatenate(
        [out for *_, out in calls]), axis=1))


def test_multiplier_action_detects_tampering():
    w = D.construct_15mod24(13)
    assert D.verify_multiplier_action(w, w.multipliers)
    blocks = w.blocks.tolist()
    blocks[0], blocks[1] = blocks[0][:2] + [blocks[1][2]], blocks[1][:2] + [blocks[0][2]]
    bad = FamilyWitness(w.group, blocks, "RDF", w.relative, j=w.j,
                        a=w.a, b=w.b, multipliers=w.multipliers)
    assert not D.verify_multiplier_action(bad, w.multipliers)


def _tampered(w):
    blocks = w.blocks.tolist()
    blocks[0], blocks[1] = (blocks[0][:2] + [blocks[1][2]],
                            blocks[1][:2] + [blocks[0][2]])
    return FamilyWitness(w.group, blocks, "RDF", w.relative, j=w.j,
                         a=w.a, b=w.b, multipliers=w.multipliers)


@pytest.mark.parametrize("build", [
    lambda: D.construct_9mod24(1), lambda: D.construct_9mod24(9),
    lambda: D.construct_9mod24(16), lambda: D.construct_15mod24(13),
    lambda: D.construct_15mod24(65), lambda: D.construct_15mod24bis(31),
    lambda: D.construct_15mod24bis(91),
    lambda: D.lift_prdf(catalog.get("prdf:G1xV3"), 7),
    lambda: D.lift_prdf(catalog.get("prdf:G2"), 11),
    lambda: D.lift_prdf(catalog.get("prdf:G1xV9"), 19)],
    ids=["9mod24-1", "9mod24-9", "9mod24-16", "15mod24-13", "15mod24-65",
         "bis-31", "bis-91", "lift-G1xV3-7", "lift-G2-11", "lift-G1xV9-19"])
def test_multiplier_generators_agree_with_member_oracle(build):
    # checking the generators decides as checking every member does, on
    # each construction and on a copy with two blocks' last points swapped
    w = build()
    ring = w.multipliers.ring
    groups = [w.multipliers]
    if w.multipliers.order > 1:
        # the same group, by all its members, and one that holds a unit
        # that does not fix the family
        groups.append(D.MultiplierGroup(ring, sorted(w.multipliers.members)))
        stray = next(s for s in sorted(ring.elements()) if ring.is_unit(s)
                     and s not in w.multipliers.members)
        groups.append(D.MultiplierGroup(
            ring, sorted(w.multipliers.members)[:1] + [stray]))
    for fam in (w, _tampered(w)):
        for mult in groups:
            assert (D.verify_multiplier_action(fam, mult)
                    == oracle_multiplier_action(fam, mult))
    assert D.verify_multiplier_action(w, w.multipliers)
    assert (D.verify_multiplier_action(_tampered(w), w.multipliers)
            == (w.multipliers.order == 1))


def test_multiplier_group_closure():
    ring = build_ring(13)
    m = D.MultiplierGroup(ring, [(3,)])
    # 3 has multiplicative order 3 mod 13
    assert m.order == 3
    assert ring.one in m.members

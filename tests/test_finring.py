import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kts3p.finring import (build_ring, components, factorize, field_for,
                           halving, semiregular_system)

# frozen [DERIVED]: recomputed with an independent sieve before freezing
SQUARES = {
    5: [1, 4],
    7: [1, 2, 4],
    11: [1, 3, 4, 5, 9],
    13: [1, 3, 4, 9, 10, 12],
}


def test_factorize_and_components():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert sorted(components(45)) == [5, 9]
    assert sorted(components(105)) == [3, 5, 7]


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_prime_field_squares_frozen(p):
    f = field_for(p)
    assert sorted(f.squares) == SQUARES[p]


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27])
def test_extension_field_axioms_exhaustive(q):
    f = field_for(q)
    els = list(range(q))
    for a in els:
        assert f.add(a, 0) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    # sampled associativity/distributivity (full triple loop for tiny q)
    triples = (itertools.product(els, repeat=3) if q <= 9
               else itertools.islice(itertools.product(els, repeat=3), 2000))
    for a, b, c in triples:
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_extension_field_char_and_units():
    f9 = field_for(9)
    # characteristic 3: x + x + x = 0
    for a in range(9):
        assert f9.add(a, f9.add(a, a)) == 0
    # multiplicative group is cyclic of order 8
    orders = set()
    for a in range(1, 9):
        y, k = a, 1
        while y != 1:
            y = f9.mul(y, a)
            k += 1
        orders.add(k)
    assert max(orders) == 8


def test_ring_psi_frozen():
    # [DERIVED] psi = product of (q-1) over components
    for n, want in ((5, 4), (9, 8), (25, 24), (45, 32), (105, 48)):
        assert build_ring(n).psi == want


def test_ring_componentwise_ops():
    r = build_ring(45)  # components ascending: GF(5) x GF(9)
    assert r.omega == 2
    assert [f.q for f in r.fields] == [5, 9]
    x, y = (4, 3), (2, 7)
    assert r.add(x, y) == (r.fields[0].add(4, 2), r.fields[1].add(3, 7))
    assert r.mul(r.one, x) == x
    assert r.sub(x, x) == r.zero
    units = list(r.units())
    assert len(units) == r.psi
    for u in units[:10]:
        assert r.mul(u, r.inv(u)) == r.one


@pytest.mark.parametrize("n", [5, 13, 15, 21, 33])
def test_halving_property_exhaustive(n):
    r = build_ring(n)
    S = halving(r)
    assert len(S) == (n - 1) // 2
    full = {x for x in r.elements() if x != r.zero}
    assert S <= full
    nonsquares = [
        [x for x in range(1, f.q) if x not in f.squares] for f in r.fields
    ]
    units = list(r.units())
    checked = 0
    for x in units:
        for y in units:
            prod = r.mul(x, y)
            if not all(prod[i] in nonsquares[i] for i in range(r.omega)):
                continue
            cover = {r.mul(x, s) for s in S} | {r.mul(y, s) for s in S}
            assert cover == full, (n, x, y)
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("n,lam", [(5, 4), (9, 4), (13, 4), (25, 4), (65, 4)])
def test_semiregular_cover(n, lam):
    r = build_ring(n)
    sr = semiregular_system(r, lam)
    assert r.mult_order(sr.u) == lam
    # U.S tiles the nonzero elements exactly once
    seen = {}
    for v in sr.U:
        for s in sr.S:
            x = r.mul(v, s)
            assert x not in seen, f"{x} hit twice"
            seen[x] = True
    assert len(seen) == n - 1
    # T stabilizes S
    for t in sr.T:
        assert {r.mul(t, s) for s in sr.S} == set(sr.S)


def test_semiregular_rejects_bad_component():
    with pytest.raises(ValueError):
        semiregular_system(build_ring(7), 4)  # 6 is not divisible by 4


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([5, 13, 15, 21, 45]), st.data())
def test_ring_axioms_random(n, data):
    r = build_ring(n)
    els = list(r.elements())
    x = data.draw(st.sampled_from(els))
    y = data.draw(st.sampled_from(els))
    z = data.draw(st.sampled_from(els))
    assert r.add(r.add(x, y), z) == r.add(x, r.add(y, z))
    assert r.sub(x, y) == r.add(x, r.neg(y))
    assert r.mul(x, r.add(y, z)) == r.add(r.mul(x, y), r.mul(x, z))

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kts3p.finring import (ExtensionField, _poly_mulmod, build_ring,
                           components, factorize, field_for, halving,
                           semiregular_system)

EXTENSION_QS = [9, 25, 27, 49, 81, 121, 125]
PRIMES = [p for p in range(5, 98) if factorize(p) == {p: 1}]

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


@pytest.mark.parametrize("q", [4, 8] + EXTENSION_QS)
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


def _naive_mul(f):
    """Products without the field's exp/log tables."""
    if f.k == 1:
        return lambda a, b: a * b % f.p
    return lambda a, b: f.encode(
        _poly_mulmod(f.decode(a), f.decode(b), f.modulus, f.p))


def _naive_order(mul, a, one=1):
    y, k = a, 1
    while y != one:
        y = mul(y, a)
        k += 1
    return k


@pytest.mark.parametrize("q", [4, 8] + EXTENSION_QS + PRIMES)
def test_multiplicative_structure_brute_force(q):
    f = field_for(q)
    mul = _naive_mul(f)
    for a in range(q):
        for b in range(q):
            assert f.mul(a, b) == mul(a, b), (a, b)
    units = range(1, q)
    # pow, with negative exponents and the cases of 0
    assert [f.pow(0, e) for e in range(3)] == [1, 0, 0]
    for bad in (lambda: f.inv(0), lambda: f.pow(0, -1)):
        with pytest.raises(ZeroDivisionError):
            bad()
    for a in units:
        inv = [b for b in units if mul(a, b) == 1]
        assert inv == [f.inv(a)]
        r, s = 1, 1
        for e in range(2 * q):
            assert f.pow(a, e) == r and f.pow(a, -e) == s, (a, e)
            r, s = mul(r, a), mul(s, inv[0])
    orders = {a: _naive_order(mul, a) for a in units}
    assert all(f.order(a) == orders[a] for a in units)
    for d in range(1, q):
        if (q - 1) % d:
            with pytest.raises(ValueError):
                f.subgroup(d)
            continue
        # the subgroup and least-generator loops finring used to run
        e = (q - 1) // d
        assert f.subgroup(d) == sorted({f.pow(x, e) for x in units})
        assert f.subgroup(d) == [a for a in units if d % orders[a] == 0]
        assert f.least_generator(d) == min(a for a in units if orders[a] == d)
    assert f.squares == {mul(x, x) for x in units}


@pytest.mark.parametrize("p,k", [(3, 6), (37, 2)])
def test_first_mul_and_inv_are_fast(p, k):
    for first in (lambda f: f.mul(2, f.q - 1), lambda f: f.inv(f.q - 1)):
        f = ExtensionField(p, k)  # not field_for's, whose tables may exist
        t0 = time.perf_counter()
        first(f)
        assert time.perf_counter() - t0 < 1.0


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
    for u in units:
        assert r.mult_order(u) == _naive_order(r.mul, u, r.one)


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

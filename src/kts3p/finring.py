"""Arithmetic in F_n, the product of the prime-power fields attached to n.

For an odd integer n with maximal prime-power divisors ("components")
q_1 < ... < q_w, the ring F_n is GF(q_1) x ... x GF(q_w).  Elements are
tuples of ints, one slot per component; extension-field elements are
encoded as integers whose base-p digits are the polynomial coefficients,
lowest degree first.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, cached_property


def factorize(n):
    """Return the prime factorization of n as a dict {p: exponent}."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def components(n):
    """The maximal prime-power divisors of n, in increasing order."""
    return tuple(sorted(p ** k for p, k in factorize(n).items()))


class PrimeField:
    """GF(p) with elements 0..p-1."""

    def __init__(self, p):
        self.p = p
        self.q = p
        self.k = 1

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 is not invertible")
        return pow(a, self.p - 2, self.p)

    def pow(self, a, e):
        return pow(a, e, self.p) if e >= 0 else self.inv(pow(a, -e, self.p))

    @cached_property
    def squares(self):
        return frozenset((x * x) % self.p for x in range(1, self.p))

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, (PrimeField, ExtensionField)) and self.signature == other.signature

    def __hash__(self):
        return hash(self.signature)

    @property
    def signature(self):
        return (self.p, 1, ())


class ExtensionField:
    """GF(p^k), k > 1, modulo the lexicographically least monic irreducible.

    An element sum(c_i x^i) is encoded as the integer sum(c_i p^i), so the
    natural integer order on encodings is the low-degree-first lexicographic
    order on coefficient vectors.
    """

    def __init__(self, p, k):
        self.p = p
        self.k = k
        self.q = p ** k
        self.modulus = _least_irreducible(p, k)  # coeffs of degree < k, low first

    @property
    def signature(self):
        return (self.p, self.k, self.modulus)

    def __eq__(self, other):
        return isinstance(other, (PrimeField, ExtensionField)) and self.signature == other.signature

    def __hash__(self):
        return hash(self.signature)

    def encode(self, coeffs):
        v = 0
        for c in reversed(coeffs):
            v = v * self.p + (c % self.p)
        return v

    def decode(self, a):
        p = self.p
        out = []
        for _ in range(self.k):
            out.append(a % p)
            a //= p
        return tuple(out)

    def add(self, a, b):
        p = self.p
        v, mult = 0, 1
        for _ in range(self.k):
            v += ((a % p + b % p) % p) * mult
            a //= p
            b //= p
            mult *= p
        return v

    def neg(self, a):
        p = self.p
        v, mult = 0, 1
        for _ in range(self.k):
            v += ((-(a % p)) % p) * mult
            a //= p
            mult *= p
        return v

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    @cached_property
    def _mul_table(self):
        q = self.q
        table = [[0] * q for _ in range(q)]
        for a in range(q):
            ca = self.decode(a)
            for b in range(a, q):
                v = self.encode(_poly_mulmod(ca, self.decode(b), self.modulus, self.p))
                table[a][b] = v
                table[b][a] = v
        return table

    def mul(self, a, b):
        return self._mul_table[a][b]

    def pow(self, a, e):
        if e < 0:
            a, e = self.inv(a), -e
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 is not invertible")
        return self.pow(a, self.q - 2)

    @cached_property
    def squares(self):
        # squared one at a time, so that asking for the squares does not
        # build the q x q multiplication table
        return frozenset(
            self.encode(_poly_mulmod(c, c, self.modulus, self.p))
            for c in map(self.decode, range(1, self.q)))

    def __repr__(self):
        return f"GF({self.p}^{self.k})"


def _poly_mulmod(a, b, modulus, p):
    """Multiply coefficient tuples a, b and reduce by x^k = -modulus."""
    k = len(modulus)
    prod = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for d in range(2 * k - 2, k - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for j, mj in enumerate(modulus):
                prod[d - k + j] = (prod[d - k + j] - c * mj) % p
    return tuple(prod[:k])


@lru_cache(maxsize=None)
def _least_irreducible(p, k):
    """Low-degree coefficients of the least monic irreducible of degree k."""
    for m in range(p ** k):
        coeffs = []
        v = m
        for _ in range(k):
            coeffs.append(v % p)
            v //= p
        if _is_irreducible(tuple(coeffs), p):
            return tuple(coeffs)
    raise RuntimeError("no irreducible found")  # unreachable


def _is_irreducible(low_coeffs, p):
    """Test irreducibility of x^k + sum(low_coeffs[i] x^i) by trial division."""
    k = len(low_coeffs)
    if low_coeffs[0] == 0:
        return False  # divisible by x
    full = list(low_coeffs) + [1]
    for d in range(1, k // 2 + 1):
        for m in range(p ** d):
            div = []
            v = m
            for _ in range(d):
                div.append(v % p)
                v //= p
            div.append(1)
            if _poly_divides(div, full, p):
                return False
    return True


def _poly_divides(div, poly, p):
    rem = list(poly)
    d = len(div) - 1
    inv_lead = pow(div[-1], p - 2, p)
    while len(rem) - 1 >= d:
        c = (rem[-1] * inv_lead) % p
        if c:
            for i in range(d + 1):
                rem[len(rem) - 1 - d + i] = (rem[len(rem) - 1 - d + i] - c * div[i]) % p
        rem.pop()
        while len(rem) > 1 and rem[-1] == 0:
            rem.pop()
    return all(c == 0 for c in rem)


@lru_cache(maxsize=None)
def field_for(q):
    fac = factorize(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    (p, k), = fac.items()
    return PrimeField(p) if k == 1 else ExtensionField(p, k)


class RingDescriptor:
    """F_n = product of the component fields of the odd integer n."""

    def __init__(self, n):
        if n < 1 or n % 2 == 0:
            raise ValueError(f"ring order must be odd and positive, got {n}")
        self.n = n
        self.components = components(n) if n > 1 else ()
        self.fields = tuple(field_for(q) for q in self.components)
        self.omega = len(self.fields)
        self.zero = (0,) * self.omega
        self.one = (1,) * self.omega

    def __repr__(self):
        return f"F_{self.n}"

    def __eq__(self, other):
        return isinstance(other, RingDescriptor) and self.n == other.n

    def __hash__(self):
        return hash(("ring", self.n))

    def elements(self):
        return itertools.product(*[range(f.q) for f in self.fields])

    def add(self, x, y):
        return tuple(f.add(a, b) for f, a, b in zip(self.fields, x, y))

    def neg(self, x):
        return tuple(f.neg(a) for f, a in zip(self.fields, x))

    def sub(self, x, y):
        return tuple(f.sub(a, b) for f, a, b in zip(self.fields, x, y))

    def mul(self, x, y):
        return tuple(f.mul(a, b) for f, a, b in zip(self.fields, x, y))

    def inv(self, x):
        return tuple(f.inv(a) for f, a in zip(self.fields, x))

    def pow(self, x, e):
        return tuple(f.pow(a, e) for f, a in zip(self.fields, x))

    def scalar(self, c):
        """The image of the integer c under the prime-subfield embeddings."""
        return tuple(c % f.p for f in self.fields)

    def is_unit(self, x):
        return all(a != 0 for a in x)

    def units(self):
        return itertools.product(*[range(1, f.q) for f in self.fields])

    @property
    def psi(self):
        out = 1
        for f in self.fields:
            out *= f.q - 1
        return out

    def mult_order(self, x):
        if not self.is_unit(x):
            raise ValueError("not a unit")
        e = 1
        y = x
        while y != self.one:
            y = self.mul(y, x)
            e += 1
        return e


@lru_cache(maxsize=None)
def build_ring(n):
    return RingDescriptor(n)


def halving(ring):
    """A halving S of F_n^*: |S| = (n-1)/2 and {x,y}S = F_n^* whenever every
    x_i*y_i is a nonsquare (property used by all the square-based liftings)."""
    return _orbit_union(ring, lambda j: ring.fields[j].squares)


def _orbit_union(ring, center_set):
    w = ring.omega
    out = set()
    idx = range(w)
    for r in range(1, w + 1):
        for I in itertools.combinations(idx, r):
            c = min(I)
            slots = []
            for j in idx:
                if j not in I:
                    slots.append((0,))
                elif j == c:
                    slots.append(sorted(center_set(j)))
                else:
                    slots.append(range(1, ring.fields[j].q))
            out.update(itertools.product(*slots))
    return frozenset(out)


@dataclass(frozen=True)
class UnitOrbitSystem:
    """A unit u of order lam acting semiregularly on V_n^*, with an invariant
    transversal S of the <u>-orbits and the subgroup T stabilizing S."""

    ring: RingDescriptor
    lam: int
    u: tuple
    U: tuple  # the cyclic group <u>, as a tuple of elements
    T: frozenset
    T_generators: tuple  # one generator per component, independent
    S: frozenset


def coprime_part(n, lam):
    """The largest divisor of n coprime to lam."""
    while (g := math.gcd(n, lam)) > 1:
        n //= g
    return n


def _subgroup_of_order(f, order):
    """Elements of the subgroup of F_q^* of the given order (must divide q-1)."""
    if (f.q - 1) % order != 0:
        raise ValueError(f"no subgroup of order {order} in GF({f.q})^*")
    e = (f.q - 1) // order
    return sorted({f.pow(x, e) for x in range(1, f.q)})


def _least_generator(f, subgroup, order):
    for x in subgroup:
        if x == 1 and order > 1:
            continue
        y, k = x, 1
        while y != 1:
            y = f.mul(y, x)
            k += 1
        if k == order:
            return x
    raise ValueError("cyclic subgroup without generator?")


def semiregular_system(ring, lam):
    """Lemma-style semiregular machinery: build u, T, S with U.S = V_n^*.
    u, the least generator of each component's subgroup of order lam, is
    checked to be a unit of order lam with u^j - 1 a unit for 0 < j < lam."""
    if ring.n == 1:
        raise ValueError("semiregular system needs n > 1")
    for f in ring.fields:
        if (f.q - 1) % lam != 0:
            raise ValueError(f"component {f.q} is not 1 mod {lam}")

    per_comp_u = []
    for f in ring.fields:
        sub = _subgroup_of_order(f, lam)
        per_comp_u.append(_least_generator(f, sub, lam))
    u = tuple(per_comp_u)

    if ring.mult_order(u) != lam:
        raise ValueError(f"u={u} does not have order {lam}")
    U = [ring.one]
    for _ in range(lam - 1):
        U.append(ring.mul(U[-1], u))
    for j in range(1, lam):
        if not ring.is_unit(ring.sub(U[j], ring.one)):
            raise ValueError(f"u^{j} - 1 is not a unit")

    T_sets = []
    T_gens = []
    for i, f in enumerate(ring.fields):
        t = coprime_part(f.q - 1, lam)
        sub = _subgroup_of_order(f, t)
        T_sets.append(sub)
        gen = _least_generator(f, sub, t)
        T_gens.append(tuple(gen if j == i else 1 for j in range(ring.omega)))
    T = frozenset(itertools.product(*T_sets))

    # Per component: coset representatives of T_i U_i in F_q^*, then S is glued
    # from the same index-set blocks as a halving, with Sigma_j T_j at the center.
    sigma_T = []
    for i, f in enumerate(ring.fields):
        ui = u[i]
        Ui = {1}
        y = ui
        while y != 1:
            Ui.add(y)
            y = f.mul(y, ui)
        TU = {f.mul(t, v) for t in T_sets[i] for v in Ui}
        reps = []
        seen = set()
        for x in range(1, f.q):
            if x not in seen:
                reps.append(x)
                seen.update(f.mul(x, z) for z in TU)
        sigma_T.append(sorted({f.mul(r, t) for r in reps for t in T_sets[i]}))

    S = _orbit_union(ring, lambda j: sigma_T[j])

    sys = UnitOrbitSystem(ring, lam, u, tuple(U), T, tuple(T_gens), S)
    _check_system(sys)
    return sys


def _check_system(sys):
    ring = sys.ring
    lam = sys.lam
    expect = math.prod(coprime_part(f.q - 1, lam) for f in ring.fields)
    if len(sys.T) != expect:
        raise AssertionError("T has the wrong order")
    for t_elt in sys.T:
        if not all(ring.mul(t_elt, s) in sys.S for s in sys.S):
            raise AssertionError("T does not stabilize S")
    seen = set()
    for v in sys.U:
        for s in sys.S:
            x = ring.mul(v, s)
            if x in seen:
                raise AssertionError("U.S covers an element twice")
            seen.add(x)
    if len(seen) != ring.n - 1:
        raise AssertionError("U.S does not cover V_n^*")

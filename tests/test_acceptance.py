"""Acceptance battery: one test (and one printed pass/fail line) per
criterion.  Each test is self-contained and uses only public surfaces."""

import random
import time

import pytest
from conftest import point_view, tuple_view

from kts3p import catalog, compose, verify
from kts3p import groups as G
from kts3p import pipeline as P
from kts3p.designkit import is_doubly_disjoint
from kts3p.finring import build_ring, semiregular_system

I1, I2, I3 = "inf1", "inf2", "inf3"

# the battery takes minutes; `pytest -m "not slow"` leaves it out
pytestmark = pytest.mark.slow


def _line(num, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {tag}" + (f"  {detail}" if detail else ""))
    assert ok, f"criterion {num}: {detail}"


# -- 1: golden reproduction ---------------------------------------------------

KTS15_ROWS = [
    ["i1 i2 i3", "000 100 200", "001 101 201", "010 110 210", "011 111 211"],
    ["i1 000 011", "i2 111 100", "i3 201 210", "001 110 211", "010 101 200"],
    ["i1 001 010", "i2 110 101", "i3 200 211", "000 111 210", "011 100 201"],
    ["i1 100 110", "i2 210 200", "i3 011 001", "111 201 010", "101 211 000"],
    ["i1 101 111", "i2 211 201", "i3 010 000", "110 200 011", "100 210 001"],
    ["i1 200 201", "i2 001 000", "i3 110 111", "210 011 101", "211 010 100"],
    ["i1 211 210", "i2 010 011", "i3 101 100", "201 000 110", "200 001 111"],
]

KTS9_CLASSES = [
    ["I", "00 01 02", "10 11 12"],
    ["i1 00 10", "i2 01 12", "i3 02 11"],
    ["i1 01 11", "i2 02 10", "i3 00 12"],
    ["i1 02 12", "i2 00 11", "i3 01 10"],
]


def _classes(system):
    points = point_view(system)
    return {frozenset(frozenset(points[i] for i in b)
                      for b in cls.tolist())
            for cls in system.resolution}


def test_criterion_1_golden_reproduction():
    t0 = time.time()
    inf = {"i1": I1, "i2": I2, "i3": I3}

    sys9 = P.construct(9)
    want9 = set()
    for row in KTS9_CLASSES:
        cls = set()
        for blk in row:
            if blk == "I":
                cls.add(frozenset({I1, I2, I3}))
            else:
                cls.add(frozenset(
                    inf[t] if t in inf else tuple(int(c) for c in t)
                    for t in blk.split()))
        want9.add(frozenset(cls))
    ok9 = _classes(sys9) == want9

    sys15 = P.construct(15)
    want15 = set()
    for row in KTS15_ROWS:
        cls = set()
        for blk in row:
            cls.add(frozenset(
                inf[t] if t in inf else tuple(int(c) for c in t)
                for t in blk.split()))
        want15.add(frozenset(cls))
    ok15 = _classes(sys15) == want15

    dt = time.time() - t0
    _line(1, ok9 and ok15 and dt < 1.0,
          f"KTS(9) {'=' if ok9 else '!='} table, "
          f"KTS(15) {'=' if ok15 else '!='} table, {dt:.2f}s")


# -- 2: catalog integrity -----------------------------------------------------

def test_criterion_2_catalog_integrity():
    t0 = time.time()
    report = catalog.verify_all()
    bad = {k: m for k, m in report.items() if m != "ok"}
    dt = time.time() - t0
    _line(2, len(report) >= 13 and not bad and dt < 5.0,
          f"{len(report)} entries verified, {dt:.2f}s"
          + (f", failures: {bad}" if bad else ""))


# -- 3: congruence-class sweep ------------------------------------------------

def _sweep_orders():
    out = [v for v in range(39, 1501, 72)]
    for e in (0, 1, 2):
        step = 4 ** e * 96
        first = 4 ** e * 48 + 3
        out.extend(range(first, 2001, step))
    return sorted(set(out))


def test_criterion_3_congruence_sweep():
    t0 = time.time()
    failures = []
    for v in _sweep_orders():
        try:
            system = P.construct(v)
            rep = verify.verify_full(system)
            if not rep["ok"]:
                failures.append((v, rep))
        except Exception as exc:  # noqa: BLE001 - report, don't abort sweep
            failures.append((v, repr(exc)))
    dt = time.time() - t0
    _line(3, not failures and dt < 600,
          f"{len(_sweep_orders())} orders, {dt:.1f}s"
          + (f", failures: {failures[:3]}" if failures else ""))


# -- 4: 24n+9 family and the automorphism bound -------------------------------

# [DERIVED] n <= 40 with 4n+1 a sum of two squares (independent sieve)
CASE_I_N = [0, 1, 2, 3, 4, 6, 7, 9, 10, 11, 12, 13, 15, 16, 18, 20, 21, 22,
            24, 25, 27, 28, 29, 30, 31, 34, 36, 37, 38, 39]


def test_criterion_4_case_i_sample():
    t0 = time.time()
    failures = []
    got = [n for n in range(41) if P.classify_order(24 * n + 9).covered]
    if got != CASE_I_N:
        failures.append(("coverage list", got))
    for n in CASE_I_N:
        v = 24 * n + 9
        try:
            system = P.construct(v)
            rep = verify.verify_full(system)
            if not rep["ok"]:
                failures.append((v, "verify"))
        except Exception as exc:  # noqa: BLE001
            failures.append((v, repr(exc)))

    # explicit automorphisms of the v=153 system: bound (24*6+6)*3 = 450
    system = P.construct(153)
    bound, gens = P.automorphism_lower_bound(system)
    rep = verify.verify_automorphisms(system, gens)
    if bound != 450:
        failures.append(("bound", bound))
    if not rep["ok"] or rep["closure_order"] != 450:
        failures.append(("automorphisms", rep))
    dt = time.time() - t0
    _line(4, not failures,
          f"{len(CASE_I_N)} orders + v=153 bound 450, {dt:.1f}s"
          + (f", failures: {failures[:3]}" if failures else ""))


# -- 5: 24n+15 family and the strong multiplier witness -----------------------

def test_criterion_5_case_ii_sample():
    t0 = time.time()
    failures = []
    witnessed = []
    for v in range(15, 1501, 24):
        c = P.classify_order(v)
        if not c.covered:
            continue
        try:
            system = P.construct(v)
            rep = verify.verify_full(system)
            if not rep["ok"]:
                failures.append((v, "verify"))
                continue
        except Exception as exc:  # noqa: BLE001
            failures.append((v, repr(exc)))
            continue
        # sub-case 2: N = 2n+1 coprime to 3 with both P and Q parts > 1
        N = (v - 15) // 24 * 2 + 1
        if N > 1 and N % 3 != 0:
            comps = build_ring(N).components
            p_part = [q for q in comps if q % 12 == 7]
            q_part = [q for q in comps if q % 4 == 1]
            if p_part and q_part:
                w = system.witness
                Q = 1
                for q in q_part:
                    Q *= q
                m = _odd_coprime(build_ring(Q).psi, 2)
                if w.multipliers is None or w.multipliers.order != m:
                    failures.append((v, "multiplier order", m,
                                     None if w.multipliers is None
                                     else w.multipliers.order))
                else:
                    witnessed.append(v)
    dt = time.time() - t0
    _line(5, not failures,
          f"case-(ii) sweep to 1500, multiplier witnesses at {witnessed}, "
          f"{dt:.1f}s" + (f", failures: {failures[:3]}" if failures else ""))


def _odd_coprime(n, lam):
    import math
    while (g := math.gcd(n, lam)) > 1:
        n //= g
    return n


# -- 6: base blocks re-derived from developed systems -------------------------

def test_criterion_6_base_block_oracle():
    t0 = time.time()
    failures = []
    checked = 0
    for v in range(9, 400, 6):
        c = P.classify_order(v)
        if not c.covered:
            continue
        system = P.construct(v)
        if system.witness is None:
            continue
        rep = verify.check_base_blocks(system)
        checked += 1
        if not rep["ok"]:
            failures.append((v, rep))
    dt = time.time() - t0
    _line(6, checked > 10 and not failures,
          f"{checked} systems below 400 re-derived, {dt:.1f}s"
          + (f", failures: {failures[:3]}" if failures else ""))


# -- 7: randomized property suite ---------------------------------------------

def test_criterion_7_property_suite():
    t0 = time.time()
    rng = random.Random(0x5EED)
    checks = 0
    failures = []

    def check(ok, what):
        nonlocal checks
        checks += 1
        if not ok:
            failures.append(what)

    # finring: halving cover for random admissible unit pairs
    for n in (5, 13, 15, 21, 25, 33, 45, 65):
        r = build_ring(n)
        from kts3p.finring import halving
        S = halving(r)
        full = {x for x in r.elements() if x != r.zero}
        units = list(r.units())
        nonsq = [
            [x for x in range(1, f.q) if x not in f.squares]
            for f in r.fields
        ]
        tried = 0
        while tried < 120:
            x, y = rng.choice(units), rng.choice(units)
            prod = r.mul(x, y)
            if not all(prod[i] in nonsq[i] for i in range(r.omega)):
                continue
            tried += 1
            cover = {r.mul(x, s) for s in S} | {r.mul(y, s) for s in S}
            check(cover == full, ("halving", n, x, y))

    # finring: semiregular orbit systems tile the nonzero elements
    for n, lam in ((5, 4), (13, 4), (25, 4), (65, 4), (7, 6), (13, 6),
                   (31, 6), (37, 6)):
        r = build_ring(n)
        sr = semiregular_system(r, lam)
        seen = set()
        for u in sr.U:
            for s in sr.S:
                x = r.mul(u, s)
                check(x not in seen, ("semiregular dup", n, x))
                seen.add(x)
        check(len(seen) == n - 1, ("semiregular size", n))

    # groups: axioms on random triples, and the subtraction identity
    gs = [G.GroupDescriptor([G.DAtom()]), G.GroupDescriptor([G.GAtom(1)]),
          G.GroupDescriptor([G.GAtom(2)]),
          G.GroupDescriptor([G.GAtom(1), G.VAtom(5)]),
          G.GroupDescriptor([G.ZAtom(3), G.VAtom(7)])]
    for g in gs:
        els = list(g.element_list)
        for _ in range(220):
            x, y, z = (rng.choice(els) for _ in range(3))
            check(g.add(g.add(x, y), z) == g.add(x, g.add(y, z)),
                  ("assoc", g, x, y, z))
            check(g.sub(x, y) == g.add(x, g.neg(y)), ("sub", g, x, y))

    # groups: subtraction identity exhaustively on the twisted 2-group heads
    for alpha in (1, 2, 3):
        g = G.GroupDescriptor([G.GAtom(alpha)])
        for x in g.element_list:
            for y in g.element_list:
                check(g.sub(x, y) == g.add(x, g.neg(y)), ("sub-ex", alpha))

    # groups: constructive witnesses for every admissible order <= 1000
    for n in range(1, 1001):
        if not G.pertinent_order(n):
            continue
        w = G.pertinent_witness(n)
        check(w.order == n and w.is_pertinent, ("witness", n))

    # designkit: every subgroup-relative resolvable family is doubly
    # disjoint with t_i = j
    for eid in ("rdf:G2:rel-G1", "rdf:G2xV3:rel-G1xV3", "rdf:G3:rel-G2"):
        w = catalog.get(eid)
        dd = compose.as_doubly_disjoint(w)
        check(is_doubly_disjoint(dd), ("dddf", eid))
        check(dd.translates.tolist() == [w.j] * len(w.blocks),
              ("translates", eid))

    # compose: the split composition is blockwise a translate of the plain one
    from kts3p.directcon import construct_dddf
    for n in (5, 13):
        local = G.GroupDescriptor([G.GAtom(1), G.VAtom(3), G.VAtom(n)])
        F = construct_dddf(n)
        section, hv = P._quotient(local, F.group)
        dm = catalog.get("dm:G1")
        embed = P._place_fn(dm.group, local)
        split = compose.df_compose_dm(local, hv, section, F, dm, embed,
                                      mode="ii", j=local.canonical_involution)
        plain = compose.df_compose_dm(local, hv, section, F, dm, embed,
                                      mode="plain")
        for sb, pb in zip(tuple_view(local, split.blocks),
                          tuple_view(local, plain.blocks)):
            shifts = {local.sub(x, y) for x, y in zip(sb, pb)}
            check(len(shifts) == 1, ("strong-equivalence", n))

    dt = time.time() - t0
    _line(7, checks >= 10_000 and not failures,
          f"{checks} checks, {dt:.1f}s"
          + (f", failures: {failures[:3]}" if failures else ""))


# -- 8: negative coverage -----------------------------------------------------

def test_criterion_8_negative_coverage():
    t0 = time.time()
    mism = []
    for v in range(9, 100_001, 6):
        c = P.classify_order(v)
        if c.admissible != G.pertinent_order(v - 3):
            mism.append(v)
            if len(mism) > 5:
                break
    typed = False
    try:
        P.construct(129)
    except P.UnsupportedOrder as exc:
        typed = (exc.classification.case == "24n+9"
                 and exc.classification.admissible
                 and not exc.classification.covered)
    dt = time.time() - t0
    _line(8, not mism and typed,
          f"classification sweep to 100000 clean, v=129 typed, {dt:.1f}s"
          + (f", mismatches: {mism[:5]}" if mism else ""))

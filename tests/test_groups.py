import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_mu, oracle_subgroup_generators, tuple_view
from kts3p import groups as G
from kts3p import pipeline
from kts3p.directcon import mu_ids
from kts3p.finring import build_ring

# frozen [DERIVED]: orders <= 120 whose 2-part/odd-part shape admits a group
# with exactly three pairwise conjugate involutions (independent sieve)
PERTINENT_120 = [6, 12, 18, 30, 36, 42, 48, 54, 60, 66, 78, 84, 90,
                 102, 108, 114]


def _descr(*atoms):
    return G.GroupDescriptor(list(atoms))


SMALL_GROUPS = [
    _descr(G.DAtom()),
    _descr(G.GAtom(1)),
    _descr(G.GAtom(2)),
    _descr(G.DAtom(), G.VAtom(5)),
    _descr(G.GAtom(1), G.VAtom(3)),
    _descr(G.ZAtom(3), G.VAtom(5)),
    _descr(G.GAtom(3)),
    _descr(G.DAtom(), G.VAtom(9)),
]


def test_d_atom_paper_example():
    # [PAPER] (1,1) + (1,0) - (1,1) = (1,2) in the twisted order-6 group
    d = _descr(G.DAtom())
    assert d.sub(d.add((1, 1), (1, 0)), (1, 1)) == (1, 2)


def test_d_atom_involutions():
    d = _descr(G.DAtom())
    assert [d.element_list[i] for i in d.involutions] == [(1, 0), (1, 1),
                                                          (1, 2)]
    assert d.is_pertinent


@pytest.mark.parametrize("g", SMALL_GROUPS, ids=repr)
def test_axioms_exhaustive_small(g):
    els = list(g.element_list)
    if g.order > 200:
        els = els[:40]
    for x in els:
        assert g.add(x, g.zero) == x
        assert g.add(g.zero, x) == x
        assert g.add(x, g.neg(x)) == g.zero
        assert g.add(g.neg(x), x) == g.zero
        assert g.neg(g.neg(x)) == x
        assert all(type(c) is int for c in g.neg(x))
    for x, y in itertools.product(els[::5], els[::3]):
        assert g.sub(x, y) == g.add(x, g.neg(y))
    sample = els if len(els) <= 16 else els[::7]
    for x, y, z in itertools.product(sample, repeat=3):
        assert g.add(g.add(x, y), z) == g.add(x, g.add(y, z))


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_g_atom_sub_is_add_neg_exhaustive(alpha):
    g = _descr(G.GAtom(alpha))
    for x in g.element_list:
        for y in g.element_list:
            assert g.sub(x, y) == g.add(x, g.neg(y))


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_g_atom_pertinent(alpha):
    g = _descr(G.GAtom(alpha))
    assert g.order == 3 * 4 ** alpha
    assert len(g.involutions) == 3
    assert g.is_pertinent
    a = g.atoms[0]
    assert a.canonical_involution in {g.element_list[i][:3]
                                      for i in g.involutions}


def test_d_head_canonical_involution():
    g = _descr(G.DAtom(), G.VAtom(build_ring(5)))
    assert g.element_list[g.canonical_involution] == (1, 0, 0)
    assert g.canonical_involution in g.involutions
    with pytest.raises(ValueError):
        _descr(G.VAtom(build_ring(5))).canonical_involution


def test_pertinent_order_frozen():
    got = [n for n in range(1, 121) if G.pertinent_order(n)]
    assert got == PERTINENT_120


def test_pertinent_witness_constructive():
    for n in range(1, 1001):
        if not G.pertinent_order(n):
            continue
        w = G.pertinent_witness(n)
        assert w.order == n
        assert w.is_pertinent, n


def test_conjugation():
    g = _descr(G.GAtom(1))
    j = g.element_list[g.canonical_involution]
    for t in g.element_list:
        c = g.conj(t, j)
        assert g.add(c, c) == g.zero
        assert g.element_index[c] in g.involutions


def _ids(g, elements):
    """The sorted element ids of the element tuples `elements`."""
    return sorted(g.element_index[x] for x in elements)


def test_subgroup_view():
    g = _descr(G.GAtom(1))
    h = G.SubgroupView(g, _ids(g, [x for x in g.element_list
                                   if x[1] == x[2] == 0]))
    assert len(h) == 3
    assert h.ids.tolist() == [0, 4, 8]
    # the ids are read once each, in any order, and held read-only
    assert G.SubgroupView(g, [8, 0, 4, 4]).ids.tolist() == [0, 4, 8]
    with pytest.raises(ValueError):
        h.ids[0] = 1


def test_subgroup_view_rejects_non_subgroup():
    g = _descr(G.DAtom())
    with pytest.raises(ValueError):
        G.SubgroupView(g, _ids(g, [(0, 0), (0, 1)]))


def _span(g, seeds):
    """Brute-force closure of seeds ∪ {0} under +."""
    span = {g.zero, *seeds}
    while True:
        more = {g.add(x, y) for x in span for y in span} - span
        if not more:
            return span
        span |= more


def _is_subgroup(g, carrier):
    """The |H|² closure definition."""
    return g.zero in carrier and all(g.add(x, y) in carrier
                                     for x in carrier for y in carrier)


def _is_normal(g, carrier):
    """The |G|·|H| conjugation definition."""
    return all(g.conj(x, h) in carrier for x in g.element_list for h in carrier)


@pytest.mark.parametrize("g", SMALL_GROUPS, ids=repr)
def test_generators_generate(g):
    # is_normal conjugates by the ambient generators only
    assert _span(g, tuple_view(g, g.generators())) == set(g.element_list)


@pytest.mark.parametrize("g", SMALL_GROUPS, ids=repr)
@pytest.mark.parametrize("seed", range(4))
def test_subgroup_view_matches_oracles(g, seed):
    r = random.Random(seed)
    els = list(g.element_list)
    for k in (1, 2):
        carrier = _span(g, r.sample(els, k))
        h = G.SubgroupView(g, _ids(g, carrier))
        assert _span(g, tuple_view(g, h.generators)) == carrier
        assert 2 ** len(h.generators) <= len(carrier)
        assert h.is_normal() == _is_normal(g, carrier)
    for size in (2, 3, 4, 6):
        carrier = {g.zero, *r.sample(els, size - 1)}
        if _is_subgroup(g, carrier):
            assert (G.SubgroupView(g, _ids(g, carrier)).is_normal()
                    == _is_normal(g, carrier))
        else:
            with pytest.raises(ValueError):
                G.SubgroupView(g, _ids(g, carrier))


def test_subgroup_view_not_normal():
    d = _descr(G.DAtom())
    h = G.SubgroupView(d, _ids(d, [(0, 0), (1, 0)]))
    assert tuple_view(d, h.generators) == ((1, 0),)
    assert not h.is_normal()
    assert G.SubgroupView(d, _ids(d, [(0, 0), (0, 1), (0, 2)])).is_normal()


def test_subgroup_view_rejects_span_leaving_carrier():
    # <(0,1)> lies inside; adding the second generator (1,0) leaves it
    d = _descr(G.DAtom())
    with pytest.raises(ValueError, match="not closed"):
        G.SubgroupView(d, _ids(d, [(0, 0), (0, 1), (0, 2), (1, 0)]))
    with pytest.raises(ValueError, match="contain 0"):
        G.SubgroupView(d, _ids(d, [(0, 1), (0, 2)]))


def test_subgroup_view_rejects_non_elements():
    # a subgroup is given by element ids of its ambient group alone: no
    # element tuple (not even (3,0,0), which add would reduce), bool,
    # float, set or nested list, and no id outside range(|G|)
    g = _descr(G.GAtom(1))
    shape = r"subgroup ids must be a \(k,\) array of integer element ids"
    for ids, message in [
            ([(0, 0, 0), (3, 0, 0)], shape),
            ([(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 0)], "inhomogeneous"),
            ([True, False], shape), ([False, 4, 8], shape),
            ([np.True_, 4, 8], shape), ([0.0, 4.0, 8.0], shape),
            ({0, 4, 8}, shape), (0, shape), ([[0, 4, 8]], shape),
            ([0, 12], "outside 0 to 11, the element ids of G1"),
            ([0, 4, 8, -4], "outside 0 to 11"),
            ([], "must contain 0")]:
        with pytest.raises(ValueError, match=message):
            G.SubgroupView(g, ids)


def _oracle_verdict(g, carrier):
    try:
        return oracle_subgroup_generators(g, _ids(g, carrier))
    except ValueError as e:
        # every element is spanned or becomes a generator, and the span
        # never leaves the carrier, so the last check cannot fire
        assert "not the span" not in str(e)
        return None


def _view_verdict(g, carrier):
    try:
        return G.SubgroupView(g, _ids(g, carrier)).generators
    except ValueError:
        return None


@pytest.mark.parametrize("g", [_descr(G.GAtom(1), G.VAtom(7)),
                               _descr(G.DAtom(), G.ZAtom(5))], ids=repr)
@pytest.mark.parametrize("seed", range(6))
def test_subgroup_view_agrees_with_tuple_oracle(g, seed):
    # the id-level closure accepts exactly the carriers the tuple closure
    # accepts, and finds the same generators
    r = random.Random(seed)
    els = list(g.element_list)
    carriers = []
    for k in (1, 2, 3):
        span = _span(g, r.sample(els, k))
        outside = [x for x in els if x not in span]
        carriers.append(span)
        carriers.append(span - {r.choice(sorted(span - {g.zero}) or [g.zero])})
        if outside:
            carriers.append(span | {r.choice(outside)})
    carriers += [{g.zero, *r.sample(els, size - 1)}
                 for size in (2, 3, 4, 6, 7, 12)]
    carriers.append(set(r.sample(els[1:], 5)))
    accepted = 0
    for carrier in carriers:
        want = _oracle_verdict(g, carrier)
        assert _view_verdict(g, carrier) == want, sorted(carrier)
        accepted += want is not None
    assert accepted >= 3


@pytest.mark.parametrize("carrier, message", [
    ([0, 12], "outside 0 to 11"),
    ([0, 4, 8, -1], "outside 0 to 11"),
    ([4, 8], "must contain 0"),                # (1,0,0) and (2,0,0)
    ([0, 4, 8, 2], "not closed under +"),      # and (0,1,0)
])
def test_subgroup_view_errors_match_tuple_oracle(carrier, message):
    # the fourth message of the tuple closure, "the carrier is not the span
    # of its elements", cannot fire (see _oracle_verdict)
    g = _descr(G.GAtom(1))
    for check in (G.SubgroupView, oracle_subgroup_generators):
        with pytest.raises(ValueError, match=message):
            check(g, carrier)


def test_involutions_match_brute_force():
    # the pertinent witness of every covered order v <= 400
    assert _descr().involutions == ()
    for v in range(9, 401, 6):
        if not pipeline.classify_order(v).covered:
            continue
        g = G.pertinent_witness(v - 3)
        assert g.involutions == tuple(
            i for i, x in enumerate(g.element_list)
            if x != g.zero and g.add(x, x) == g.zero), v


def _counted(obj, name):
    calls = []
    inner = getattr(obj, name)

    def wrapped(*args):
        calls.append(args)
        return inner(*args)

    setattr(obj, name, wrapped)
    return calls


@pytest.mark.parametrize("model", [
    [G.GAtom(2)], [G.VAtom(17)], [G.GAtom(1)], [G.GAtom(1), G.VAtom(17)]])
def test_subgroup_checks_cost_generators(model, monkeypatch):
    # the route's kernels inside G2 x V17 (v = 819): closure adds no tuples
    # and makes one id_sum call per generator, and normality conjugates
    # every generator pair at once, in two id_sum calls
    amb = _descr(G.GAtom(2), G.VAtom(17))
    adds = _counted(amb, "add")
    sums = []
    id_sum = G.id_sum
    monkeypatch.setattr(G, "id_sum", lambda *a, **k: sums.append(a) or
                        id_sum(*a, **k))
    _, kernel = pipeline._quotient(amb, _descr(*model))
    assert adds == []
    assert 0 < len(sums) <= len(kernel.generators)
    assert 2 ** len(kernel.generators) <= len(kernel)
    conjs = _counted(amb, "conj")
    sums.clear()
    assert kernel.is_normal()
    assert conjs == [] and adds == [] and len(sums) == 2


def test_g_chain_embedding_is_monomorphism():
    src = _descr(G.GAtom(1))
    dst = _descr(G.GAtom(3))
    fn = G.g_chain_embedding(1, 3)
    seen = set()
    for x in src.element_list:
        for y in src.element_list:
            assert fn(src.add(x, y)) == dst.add(fn(x), fn(y))
        seen.add(fn(x))
    assert len(seen) == src.order


def test_encode_parse_roundtrip():
    g = _descr(G.GAtom(1), G.VAtom(build_ring(45)))
    for x in list(g.element_list)[::37]:
        assert G.label_ids(g, [G.encode_element(g, x)]) == [g.element_index[x]]


@pytest.mark.parametrize("atoms", [
    (), (G.DAtom(), G.ZAtom(4)), (G.GAtom(1), G.VAtom(build_ring(45))),
    (G.GAtom(2), G.VAtom(3), G.VAtom(25))])
def test_element_labels_encode_every_element_in_order(atoms):
    g = _descr(*atoms)
    assert G.element_labels(g) == [G.encode_element(g, x)
                                   for x in g.element_list]


@pytest.mark.parametrize("atom, same", [
    (G.DAtom(), G.DAtom()), (G.GAtom(1), G.GAtom(1)),
    (G.ZAtom(6), G.ZAtom(6)), (G.VAtom(9), G.VAtom(build_ring(9)))])
def test_atom_tables_shared_and_read_only(atom, same):
    table = G.atom_table(atom)
    # atoms that compare equal share one table, built once
    assert G.atom_table(same) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1
    loc = list(itertools.product(*atom.coord_lists()))
    rng = random.Random(5)
    for _ in range(30):
        i, j = rng.randrange(len(loc)), rng.randrange(len(loc))
        assert loc[table[i, j]] == atom.add(loc[i], loc[j])
        assert G.local_id(atom, loc[i]) == i


def test_group_index_translation():
    # one row per element: the per-element map, and x + t by the group law
    for g in (_descr(G.DAtom(), G.VAtom(5)), _descr(G.GAtom(2), G.ZAtom(3)),
              _descr(G.ZAtom(4), G.VAtom(9)), _descr(G.GAtom(1), G.VAtom(25))):
        gi = G.GroupIndex(g)
        els = list(g.element_list)
        ts = range(0, g.order, 5)
        rows = gi.translation(ts)
        assert rows.shape == (len(ts), g.order)
        lefts = G.translation_ids(g, ts, left=True)
        for k, perm, left in zip(ts, rows, lefts):
            t = els[k]
            assert np.array_equal(perm, G.translation_ids(g, [k])[0])
            for i, x in enumerate(els[::3]):
                assert els[perm[3 * i]] == g.add(x, t)
                assert els[left[3 * i]] == g.add(t, x)
        assert gi.translation([]).shape == (0, g.order)


def test_id_sum_on_a_column_past_8192_entries():
    # numpy 2.4's unravel_index misreads some (n, 1) arrays this long
    g = _descr(G.GAtom(1), G.VAtom(3), G.VAtom(9))
    els = g.element_list
    x = np.random.default_rng(3).integers(g.order, size=(9000, 1))
    got = G.id_sum(g, x, x[::-1], negate=True)
    assert got.shape == (9000, 1)
    assert all(els[s] == g.sub(els[a], els[b])
               for s, a, b in zip(got[:, 0], x[:, 0], x[::-1, 0]))


def _reference_codes(rows, v):
    """(a·v + b)·v + c of the (n, 3) rows, each sorted by np.sort."""
    a, b, c = np.sort(rows, axis=1).T.astype(np.int64)
    return (a * v + b) * v + c


def test_block_codes_ignore_id_order():
    v = 4803
    rows = np.random.default_rng(3).integers(v, size=(200, 3), dtype=np.int32)
    rows[:20, 1] = rows[:20, 0]
    want = _reference_codes(rows, v)
    for order in itertools.permutations(range(3)):
        assert np.array_equal(G.block_codes(rows[:, list(order)], v), want)


def test_block_codes_layouts():
    # (n, 3) rows, and runs of ids laid out as (3, k) and (n, 3, k)
    v = 1971
    runs = np.random.default_rng(4).integers(v, size=(6, 3, 7),
                                             dtype=np.int32)
    want = _reference_codes(runs.swapaxes(1, 2).reshape(-1, 3), v)
    assert np.array_equal(G.block_codes(runs, v, axis=1).ravel(), want)
    assert np.array_equal(G.block_codes(runs[2], v, axis=0), want[14:21])
    assert np.array_equal(
        G.block_codes(runs.swapaxes(1, 2).reshape(-1, 3), v), want)


def test_code_rows_and_distinct_codes():
    v = 819
    rows = np.random.default_rng(5).integers(v, size=(300, 3), dtype=np.int32)
    rows[150:] = rows[:150]
    codes = G.block_codes(rows, v)
    decoded = G.code_rows(codes, v)
    assert decoded.dtype == np.int32
    assert np.array_equal(decoded, np.sort(rows, axis=1))
    assert G.code_rows(codes.reshape(10, 30), v).shape == (10, 30, 3)
    assert np.array_equal(G.distinct_codes(codes.copy()), np.unique(codes))
    assert len(G.distinct_codes(codes)) <= 150
    assert np.array_equal(G.run_starts(np.array([1, 1, 2, 5, 5, 5, 7])),
                          [True, False, True, True, False, False, True])


def test_mu_ids_endomorphism():
    # μ_s on element ids is a permutation that respects the group law,
    # fixes head x {0} and agrees with μ_s on tuples, over a prime field,
    # over GF(9) x GF(5) and over GF(25)
    for head, n in ((G.GAtom(1), 5), (G.DAtom(), 45), (G.GAtom(2), 25)):
        ring = build_ring(n)
        g = _descr(head, G.VAtom(ring))
        units = sorted(ring.units())
        x, y = np.divmod(np.arange(g.order * g.order), g.order)
        for s in units[1::max(1, len(units) // 2)]:
            mu = mu_ids(g, ring, s)
            assert np.array_equal(np.sort(mu), np.arange(g.order))
            assert np.array_equal(mu[G.id_sum(g, x, y)],
                                  G.id_sum(g, mu[x], mu[y]))
            fixed = np.arange(head.order) * n
            assert np.array_equal(mu[fixed], fixed)
            assert ([g.element_list[i] for i in mu]
                    == list(map(oracle_mu(ring, s), g.element_list)))


def test_trivial_atoms_dropped():
    g = _descr(G.GAtom(1), G.VAtom(1), G.VAtom(build_ring(5)))
    assert len(g.atoms) == 2
    assert g.order == 60


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SMALL_GROUPS), st.data())
def test_axioms_random(g, data):
    els = list(g.element_list)
    x = data.draw(st.sampled_from(els))
    y = data.draw(st.sampled_from(els))
    z = data.draw(st.sampled_from(els))
    assert g.add(g.add(x, y), z) == g.add(x, g.add(y, z))
    assert g.sub(x, y) == g.add(x, g.neg(y))
    assert g.conj(z, g.zero) == g.zero


def test_block_codes_hold_every_code():
    # codes run up to v³ − 1: int32 while that fits, int64 from v = 1291
    assert G.int_dtype(1290 ** 3) == np.int32
    assert G.int_dtype(1291 ** 3) == np.int64
    for v in (1290, 1291):
        top = np.full((1, 3), v - 1, dtype=np.int32)
        code = G.block_codes(top, v)
        assert code.dtype == G.int_dtype(v ** 3) and int(code[0]) == v ** 3 - 1
        assert G.code_rows(code, v).tolist() == top.tolist()


@pytest.mark.parametrize("v", [819, 40_000])
def test_sorted_ids_runs(v):
    # int16 runs up to v = 2^15, int32 above; the input is left as it is
    rows = np.random.default_rng(6).integers(v, size=(500, 3),
                                             dtype=np.int32)
    before = rows.copy()
    a, b, c = G.sorted_ids(rows, v)
    assert a.dtype == (np.int16 if v <= 1 << 15 else np.int32)
    assert np.array_equal(np.stack([a, b, c], axis=1), np.sort(rows, axis=1))
    assert np.array_equal(rows, before)


def test_chunked_code_helpers_match_whole_arrays(monkeypatch):
    # chunks of 7 codes: whole chunks and a partial last one, with every
    # boundary inside the data
    v = 183
    rows = np.random.default_rng(7).integers(v, size=(60, 3), dtype=np.int32)
    codes = np.sort(G.block_codes(rows, v))
    monkeypatch.setattr(G, "BLOCK_CHUNK", 7)
    assert [s.start for s in G.chunks(23)] == [0, 7, 14, 21]
    assert np.array_equal(G.code_rows(codes, v), np.sort(rows, axis=1)[
        np.argsort(G.block_codes(rows, v), kind="stable")])
    out = np.empty((60, 3), dtype=np.int32)
    assert G.code_rows(codes, v, out=out) is out
    into = np.empty(60, dtype=G.int_dtype(v ** 3))
    assert G.block_codes(rows, v, out=into) is into
    assert np.array_equal(np.sort(into), codes)
    distinct = G.distinct_codes(codes.copy())
    assert G.increasing(distinct)
    for at in (0, 6, 7, 13, 14, len(distinct) - 1):
        bad = distinct.copy()
        bad[at] = bad[at - 1] if at else bad[1]
        assert not G.increasing(bad)
    assert G.increasing(distinct[:1]) and G.increasing(distinct[:0])


def _whole_group(moves):
    """Every element of the group the permutations `moves` generate, as
    its permutation, by closing the identity under them."""
    found = {tuple(range(moves.shape[1]))}
    level = list(found)
    while level:
        nxt = {tuple(np.asarray(m)[list(p)]) for p in level for m in moves}
        level = list(nxt - found)
        found |= nxt
    return found


@pytest.mark.parametrize("atoms,size", [
    ([G.GAtom(1)], 5), ([G.GAtom(1), G.VAtom(5)], 7),
    ([G.DAtom(), G.VAtom(7)], 1), ([G.GAtom(1), G.VAtom(3)], 1000)])
def test_coset_rows_give_each_element_once(atoms, size):
    g = G.GroupDescriptor(atoms)
    moves = G.translation_ids(g, g.generators()).astype(np.int32)
    seed = np.random.default_rng(8).permutation(g.order).astype(np.int32)
    key = int(np.flatnonzero(seed == 0)[0])
    pieces = list(G.coset_rows(seed, moves, key, size))
    rows = np.concatenate(pieces)
    assert all(len(p) <= size for p in pieces)
    assert len(rows) == g.order
    assert len(set(rows[:, key].tolist())) == g.order
    want = {tuple(np.asarray(p)[seed]) for p in _whole_group(moves)}
    assert set(map(tuple, rows.tolist())) == want

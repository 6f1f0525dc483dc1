import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kts3p import groups as G
from kts3p import pipeline
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
]


def test_d_atom_paper_example():
    # [PAPER] (1,1) + (1,0) - (1,1) = (1,2) in the twisted order-6 group
    d = _descr(G.DAtom())
    assert d.sub(d.add((1, 1), (1, 0)), (1, 1)) == (1, 2)


def test_d_atom_involutions():
    d = _descr(G.DAtom())
    assert sorted(d.involutions) == [(1, 0), (1, 1), (1, 2)]
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
        assert g.neg(g.neg(x)) == x
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
    assert a.canonical_involution in {i[:3] for i in g.involutions}


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
    j = g.canonical_involution
    for t in g.element_list:
        c = g.conj(t, j)
        assert g.add(c, c) == g.zero
        assert c in g.involutions


def test_subgroup_view():
    g = _descr(G.GAtom(1))
    h = G.SubgroupView(g, [x for x in g.element_list if x[1] == x[2] == 0])
    assert len(h) == 3


def test_subgroup_view_rejects_non_subgroup():
    g = _descr(G.DAtom())
    with pytest.raises(Exception):
        G.SubgroupView(g, [(0, 0), (0, 1)])


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
    assert _span(g, g.generators()) == set(g.element_list)


@pytest.mark.parametrize("g", SMALL_GROUPS, ids=repr)
@pytest.mark.parametrize("seed", range(4))
def test_subgroup_view_matches_oracles(g, seed):
    r = random.Random(seed)
    els = list(g.element_list)
    for k in (1, 2):
        carrier = _span(g, r.sample(els, k))
        h = G.SubgroupView(g, carrier)
        assert _span(g, h.generators) == carrier
        assert 2 ** len(h.generators) <= len(carrier)
        assert h.is_normal() == _is_normal(g, carrier)
    for size in (2, 3, 4, 6):
        carrier = {g.zero, *r.sample(els, size - 1)}
        if _is_subgroup(g, carrier):
            assert G.SubgroupView(g, carrier).is_normal() == _is_normal(g, carrier)
        else:
            with pytest.raises(ValueError):
                G.SubgroupView(g, carrier)


def test_subgroup_view_not_normal():
    d = _descr(G.DAtom())
    h = G.SubgroupView(d, [(0, 0), (1, 0)])
    assert h.generators == [(1, 0)]
    assert not h.is_normal()
    assert G.SubgroupView(d, [(0, 0), (0, 1), (0, 2)]).is_normal()


def test_subgroup_view_rejects_span_leaving_carrier():
    # <(0,1)> lies inside; adding the second generator (1,0) leaves it
    d = _descr(G.DAtom())
    with pytest.raises(ValueError, match="not closed"):
        G.SubgroupView(d, [(0, 0), (0, 1), (0, 2), (1, 0)])
    with pytest.raises(ValueError, match="contain 0"):
        G.SubgroupView(d, [(0, 1), (0, 2)])


def test_subgroup_view_rejects_non_elements():
    # add reduces mod 3, so (3,0,0) + (3,0,0) = 0 keeps the sums inside
    g = _descr(G.GAtom(1))
    with pytest.raises(ValueError, match="non-elements"):
        G.SubgroupView(g, [(0, 0, 0), (3, 0, 0)])
    with pytest.raises(ValueError, match="non-elements"):
        G.SubgroupView(g, [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 0)])


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
def test_subgroup_checks_cost_generators(model):
    # the route's kernels inside G2 x V17 (v = 819): closure costs
    # O(|H| log |H|) add calls and normality one conj per generator pair
    amb = _descr(G.GAtom(2), G.VAtom(17))
    adds = _counted(amb, "add")
    _, _, kernel = pipeline._quotient(amb, _descr(*model))
    h = len(kernel)
    assert 0 < len(adds) <= 2 * h * math.ceil(math.log2(h))
    conjs = _counted(amb, "conj")
    assert kernel.is_normal()
    assert len(conjs) <= len(amb.generators()) * len(kernel.generators)


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
        assert G.parse_element(g, G.encode_element(g, x)) == x


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
        ts = els[::5]
        rows = gi.translation(ts)
        assert rows.shape == (len(ts), g.order)
        for t, perm in zip(ts, rows):
            assert np.array_equal(perm, G.translation_ids(g, t))
            for i, x in enumerate(els[::3]):
                assert els[perm[3 * i]] == g.add(x, t)
        assert gi.translation([]).shape == (0, g.order)


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


def test_mu_endomorphism_and_unit_vector():
    ring = build_ring(5)
    g = _descr(G.GAtom(1), G.VAtom(ring))
    units = g.unit_vector(1, (2,))
    f = lambda x: g.mu(x, units)
    for x in list(g.element_list)[::7]:
        for y in list(g.element_list)[::11]:
            assert f(g.add(x, y)) == g.add(f(x), f(y))


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

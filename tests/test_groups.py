import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kts3p import groups as G
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


def test_group_index_translation():
    g = _descr(G.DAtom(), G.VAtom(5))
    gi = G.GroupIndex(g)
    els = list(g.element_list)
    for t in els[::5]:
        perm = gi.translation(t)
        for i, x in enumerate(els[::3]):
            assert els[perm[3 * i]] == g.add(x, t)


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

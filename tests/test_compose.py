import pytest
from conftest import tuple_view

from kts3p import catalog, compose
from kts3p import groups as G
from kts3p import pipeline as P
from kts3p.designkit import dm_check, is_j_resolvable
from kts3p.directcon import construct_15mod24, construct_dddf


@pytest.mark.parametrize("n", [5, 7, 13, 25, 35, 55])
def test_homogeneous_dm_valid(n):
    dm = compose.homogeneous_dm(G.GroupDescriptor([G.VAtom(n)]))
    rep = dm_check(dm)
    assert rep["valid"] and rep["homogeneous"]


@pytest.mark.parametrize("n", [15, 33, 39])
def test_homogeneous_dm_with_order3_component(n):
    # a 3-component takes its rows from a pinned orthomorphism pair
    dm = compose.homogeneous_dm(G.GroupDescriptor(
        [G.VAtom(3), G.VAtom(n // 3)]))
    rep = dm_check(dm)
    assert rep["valid"] and rep["homogeneous"]


def test_homogeneous_dm_unpinned_pair_raises_at_once():
    g = G.GroupDescriptor([G.VAtom(3), G.VAtom(17)])
    assert "51 cells" in compose.missing_pair(g)
    assert compose.missing_pair(G.GroupDescriptor([G.VAtom(3), G.VAtom(5)])) == ""
    with pytest.raises(ValueError, match="51 cells"):
        compose.homogeneous_dm(g)


def test_pinned_pair_is_reverified(monkeypatch):
    sidx, _ = compose._PAIR_TABLE[15]
    monkeypatch.setitem(compose._PAIR_TABLE, 15, (sidx, list(range(15))))
    with pytest.raises(AssertionError, match="failed"):
        compose.homogeneous_dm(G.GroupDescriptor([G.VAtom(3), G.VAtom(5)]))


def test_homogeneous_dm_rejects_tiny():
    with pytest.raises(ValueError):
        compose.homogeneous_dm(G.GroupDescriptor([G.VAtom(3)]))


def test_homogeneous_dm_row_oracle():
    # independent oracle: all three rows are permutations, row pairs tile V
    g = G.GroupDescriptor([G.VAtom(3), G.VAtom(5)])
    dm = compose.homogeneous_dm(g)
    rows = tuple_view(g, dm.rows)
    for row in rows:
        assert sorted(row) == sorted(g.element_list)
    for i in range(3):
        for j in range(i + 1, 3):
            diffs = [g.sub(a, b) for a, b in zip(rows[i], rows[j])]
            assert sorted(diffs) == sorted(g.element_list)


def test_orthomorphism_pair_nonexistence():
    # Z3 alone, where sigma - id cannot be bijective together with
    # rho - sigma: no permutation pair works, and the table has none
    from itertools import permutations
    from kts3p.finring import field_for
    f = field_for(3)
    cells = list(range(3))

    def bijective(a, b):
        return len({f.sub(a[g], b[g]) for g in cells}) == 3

    perms = list(permutations(cells))
    assert not [(s, r) for s in perms for r in perms
                if bijective(s, cells) and bijective(r, cells)
                and bijective(r, s)]
    assert 3 not in compose._PAIR_TABLE
    with pytest.raises(ValueError):
        compose.homogeneous_dm(G.GroupDescriptor([G.VAtom(3)]))


def test_chain_union_and_pertinent_union_kts51_shape():
    amb = G.GroupDescriptor([G.GAtom(2)])
    step = catalog.get("rdf:G2:rel-G1")
    inner = P.align(catalog.get("rdf:G1"), amb)
    chained = compose.chain_union([step])
    final = compose.pertinent_union(chained, inner)
    assert is_j_resolvable(final)
    assert len(final.blocks) == len(step.blocks) + len(inner.blocks)


def test_chain_union_rejects_mixed_j():
    amb = G.GroupDescriptor([G.GAtom(2)])
    step = catalog.get("rdf:G2:rel-G1")
    inner = P.align(catalog.get("rdf:G1"), amb)
    other_j = [i for i in amb.involutions if i != step.j][0]
    from kts3p.designkit import FamilyWitness
    twisted = FamilyWitness(amb, inner.blocks, "RDF", inner.relative, j=other_j,
                            a=inner.a, b=inner.b)
    with pytest.raises(ValueError):
        compose.chain_union([step, twisted])


def test_as_doubly_disjoint_from_rdf():
    w = catalog.get("rdf:G2:rel-G1")
    dd = compose.as_doubly_disjoint(w)
    assert dd.kind == "DDDF"
    assert dd.translates.tolist() == [w.j] * len(w.blocks)


def test_compose_mode_i_48q():
    # (G_2 x V_5, G_1 x V_5)-RDF out of the fixed head family and a matrix
    local = G.GroupDescriptor([G.GAtom(2), G.VAtom(5)])
    F = catalog.get("rdf:G2:rel-G1")
    section, hv = P._quotient(local, F.group)
    dm = compose.homogeneous_dm(G.GroupDescriptor([G.VAtom(5)]))
    out = compose.df_compose_dm(local, hv, section, F, dm,
                                P._place_fn(dm.group, local),
                                mode="i", j=local.canonical_involution)
    assert is_j_resolvable(out)
    assert len(out.blocks) == len(F.blocks) * 5


def test_compose_mode_ii_36q():
    # the 36Q shape: doubly disjoint family over Z3 x V_13, split matrix over G_1
    local = G.GroupDescriptor([G.GAtom(1), G.VAtom(3), G.VAtom(13)])
    F = construct_dddf(13)
    section, hv = P._quotient(local, F.group)
    dm = catalog.get("dm:G1")
    out = compose.df_compose_dm(local, hv, section, F, dm,
                                P._place_fn(dm.group, local),
                                mode="ii", j=local.canonical_involution)
    assert is_j_resolvable(out)
    assert len(out.blocks) == len(F.blocks) * 12


def test_compose_mode_ii_strong_equivalence_blockwise():
    # F (.) M is blockwise a translate of F o M: recompute the plain
    # composition and compare block by block
    local = G.GroupDescriptor([G.GAtom(1), G.VAtom(3), G.VAtom(5)])
    F = construct_dddf(5)
    section, hv = P._quotient(local, F.group)
    dm = catalog.get("dm:G1")
    embed = P._place_fn(dm.group, local)
    split = compose.df_compose_dm(local, hv, section, F, dm, embed,
                                  mode="ii", j=local.canonical_involution)
    plain = compose.df_compose_dm(local, hv, section, F, dm, embed,
                                  mode="plain")
    g = local
    for sb, pb in zip(tuple_view(g, split.blocks),
                      tuple_view(g, plain.blocks)):
        # within the first half of the columns the blocks agree; in the
        # second half they differ by one right translation
        shifts = {g.sub(x, y) for x, y in zip(sb, pb)}
        assert len(shifts) == 1
    assert len(split.blocks) == len(plain.blocks)


def test_compose_mode_i_rejects_inside_involution():
    local = G.GroupDescriptor([G.GAtom(2), G.VAtom(5)])
    F = catalog.get("rdf:G2:rel-G1")
    section, hv = P._quotient(local, F.group)
    dm = compose.homogeneous_dm(G.GroupDescriptor([G.VAtom(5)]))
    with pytest.raises(ValueError):
        compose.df_compose_dm(local, hv, section, F, dm,
                              P._place_fn(dm.group, local), mode="i", j=None)


def test_mult_orbit_blocks_cover():
    F = construct_15mod24(13)
    ordered = compose._mult_orbit_blocks(F, F.multipliers)
    assert (sorted(tuple(sorted(b)) for b in ordered)
            == sorted(map(tuple, F.blocks.tolist())))

from conftest import naive_delta
from kts3p import catalog
from kts3p import groups as G
from kts3p.designkit import (DifferenceMatrix, FamilyWitness, Spread,
                             delta_family, dm_check, dm_from_json, dm_to_json,
                             is_df, is_doubly_disjoint, is_j_resolvable,
                             witness_from_json, witness_to_json)


def g1():
    return G.GroupDescriptor([G.GAtom(1)])


def test_delta_family_matches_naive_oracle():
    g = g1()
    blocks = [[(0, 0, 1), (1, 1, 0), (2, 1, 1)], [(0, 1, 0), (1, 0, 1), (2, 0, 0)]]
    assert delta_family(g, blocks) == naive_delta(g, blocks)


def test_paper_difference_table():
    # [PAPER] the six differences of B = {(0,0,1),(1,1,0),(2,1,1)} in order
    g = g1()
    B = [(0, 0, 1), (1, 1, 0), (2, 1, 1)]
    diffs = set(delta_family(g, [B]))
    assert diffs == {(2, 0, 1), (1, 0, 1), (1, 1, 1), (2, 1, 1),
                     (2, 1, 0), (1, 1, 0)}


def test_spread_members():
    g = g1()
    s = Spread(g, (1, 0, 0))
    assert sorted(s.order3) == [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
    # identity + two order-3 elements + three involutions
    assert len(set(s.union)) == 6
    assert g.zero in s.union


def test_is_df_catalog_positive_and_perturbed():
    w = catalog.get("rdf:G1xV3")
    assert is_df(w)
    # [TRIVIAL] perturbation breaks the multiset equality
    blocks = [list(b) for b in w.blocks]
    x = blocks[0][0]
    blocks[0][0] = w.group.add(x, (0, 0, 0, 1))
    bad = FamilyWitness(w.group, blocks, "DF", w.relative, j=w.j, a=w.a, b=w.b)
    assert not is_df(bad)


def test_is_j_resolvable_spread_search_finds_ab():
    src = catalog.get("rdf:G1")
    w = FamilyWitness(src.group, src.blocks, "RDF", src.relative, j=src.j)
    d = is_j_resolvable(w)
    assert d
    # the recorded solution of the source is among the found pairs
    assert (src.a, src.b) in d.solutions


def test_is_j_resolvable_subgroup_variant():
    w = catalog.get("rdf:G2:rel-G1")
    assert is_j_resolvable(w)
    # stripping one block must break the coset transversal
    bad = FamilyWitness(w.group, w.blocks[1:], "RDF", w.relative, j=w.j)
    assert not is_j_resolvable(bad)


def test_doubly_disjoint_requires_translates():
    w = catalog.get("rdf:G2:rel-G1")
    probe = FamilyWitness(w.group, w.blocks, "DDDF", w.relative, j=w.j)
    assert not is_doubly_disjoint(probe)
    good = FamilyWitness(w.group, w.blocks, "DDDF", w.relative, j=w.j,
                         translates=[w.j] * len(w.blocks))
    assert is_doubly_disjoint(good)


def test_dm_check_homogeneous_and_splittable():
    dm = catalog.get("dm:G1")
    rep = dm_check(dm)
    assert rep["valid"]
    assert dm.j in rep["splittable"]
    # breaking one entry must invalidate it
    rows = [list(r) for r in dm.rows]
    rows[1][0] = rows[1][1]
    bad = DifferenceMatrix(dm.group, rows)
    assert not dm_check(bad)["valid"]


def test_dm_check_row_differences_oracle():
    # independent oracle: row-pair differences hit each element exactly once
    dm = catalog.get("dm:Z4xZ4")
    g = dm.group
    for r1 in range(3):
        for r2 in range(3):
            if r1 == r2:
                continue
            diffs = [g.sub(a, b) for a, b in zip(dm.rows[r1], dm.rows[r2])]
            assert sorted(diffs) == sorted(g.element_list)


def test_witness_json_roundtrip():
    for eid in ("rdf:G1", "rdf:DxV5", "prdf:G2", "rdf:G2xV3:rel-G1xV3"):
        w = catalog.get(eid)
        back = witness_from_json(witness_to_json(w))
        assert back.group == w.group
        assert back.blocks == w.blocks
        assert back.kind == w.kind
        assert back.j == w.j


def test_dm_json_roundtrip():
    dm = catalog.get("dm:Z2xZ6")
    back = dm_from_json(dm_to_json(dm))
    assert back.group == dm.group
    assert back.rows == dm.rows
    assert back.j == dm.j

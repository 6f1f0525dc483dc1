import numpy as np
import pytest
from conftest import tuple_view

from kts3p import catalog
from kts3p.designkit import is_j_resolvable, is_pseudo_resolvable


def _blockset(w):
    return {frozenset(b) for b in tuple_view(w.group, w.blocks)}


def _stated(w, *names):
    """The elements the witness states under `names`, as tuples."""
    return tuple_view(w.group, [getattr(w, n) for n in names])


def test_entry_ids_frozen():
    assert list(catalog.ENTRY_IDS) == [
        "rdf:D:empty", "rdf:G1", "rdf:DxV5", "rdf:G1xV3",
        "rdf:G2:rel-G1", "rdf:G2", "prdf:G1xV3", "prdf:G1xV9", "prdf:G2",
        "rdf:G2xV3:rel-G1xV3", "rdf:G3:rel-G2",
        "dm:G1", "dm:Z2xZ6", "dm:Z4xZ4",
    ]


def test_verify_all_green():
    report = catalog.verify_all()
    assert set(report) == set(catalog.ENTRY_IDS)
    bad = {k: v for k, v in report.items() if v != "ok"}
    assert not bad, bad


def test_rdf_g1_paper_values():
    # [PAPER] the single base block over the twisted order-12 group, with the
    # resolving subgroup J and coset representatives a, b
    w = catalog.get("rdf:G1")
    assert _blockset(w) == {frozenset({(0, 0, 1), (1, 1, 0), (2, 1, 1)})}
    assert _stated(w, "j", "a", "b") == ((0, 1, 1), (1, 1, 1), (2, 0, 1))


def test_rdf_dxv5_paper_values():
    # [PAPER] the four triples over D x V_5 and their resolving data
    w = catalog.get("rdf:DxV5")
    assert _blockset(w) == {
        frozenset({(0, 0, 3), (0, 0, 2), (0, 2, 4)}),
        frozenset({(0, 0, 1), (0, 1, 3), (1, 2, 2)}),
        frozenset({(0, 0, 4), (0, 2, 3), (1, 1, 1)}),
        frozenset({(0, 1, 1), (0, 1, 4), (1, 1, 2)}),
    }
    assert _stated(w, "j", "a", "b") == ((1, 0, 0), (1, 1, 0), (1, 2, 0))


def test_rdf_g1xv3_paper_values():
    # [PAPER] five triples over the order-36 product, spread generator
    # (0,0,0,1), J generated by (0,1,1,0)
    w = catalog.get("rdf:G1xV3")
    assert _blockset(w) == {
        frozenset({(0, 0, 0, 2), (0, 1, 1, 1), (1, 0, 0, 1)}),
        frozenset({(0, 0, 1, 2), (2, 0, 1, 2), (2, 1, 0, 1)}),
        frozenset({(0, 1, 0, 0), (1, 0, 1, 2), (2, 0, 1, 0)}),
        frozenset({(0, 1, 0, 1), (1, 1, 1, 0), (2, 0, 0, 0)}),
        frozenset({(1, 0, 1, 1), (1, 1, 0, 0), (2, 1, 1, 2)}),
    }
    assert _stated(w, "j", "a", "b") == ((0, 1, 1, 0), (1, 0, 0, 2),
                                         (2, 0, 0, 1))
    assert _stated(w.spread(), "x") == ((0, 0, 0, 1),)


def test_rdf_g2_paper_triples_present():
    # [PAPER] the seven-block family over the order-48 group: six blocks
    # relative to the index-3 subgroup plus one block living inside it
    w = catalog.get("rdf:G2")
    expected = {
        frozenset({(0, 0, 1), (2, 3, 0), (2, 3, 1)}),
        frozenset({(0, 1, 1), (0, 1, 2), (0, 2, 1)}),
        frozenset({(1, 1, 0), (1, 0, 1), (2, 1, 1)}),
        frozenset({(1, 1, 2), (2, 0, 3), (1, 3, 1)}),
        frozenset({(2, 1, 0), (1, 0, 3), (0, 3, 1)}),
        frozenset({(0, 1, 0), (2, 2, 3), (1, 3, 3)}),
        frozenset({(0, 0, 2), (1, 2, 0), (2, 2, 2)}),
    }
    assert _blockset(w) == expected
    assert _stated(w.spread(), "x") == ((1, 0, 0),)


def test_rdf_g2_rel_g1_subgroup_shape():
    # the relative subgroup is Z3 x 2Z4 x 2Z4 inside the order-48 group
    w = catalog.get("rdf:G2:rel-G1")
    assert set(tuple_view(w.group, w.relative.ids)) == {
        (a, b, c) for a in range(3) for b in (0, 2) for c in (0, 2)
    }
    assert len(w.blocks) == (48 - 12) // 6


PRDF_PAIRS = {"prdf:G1xV3": ((0, 0, 1, 0), (0, 1, 1, 0)),
              "prdf:G1xV9": ((0, 0, 1, 0), (0, 1, 1, 0)),
              "prdf:G2": ((0, 0, 2), (0, 2, 2))}


def test_prdf_entries_carry_pairs():
    # the pinned pairs, as ids; each j_beta is the canonical involution the
    # lift resolves by, and the predicate accepts the pair as stated
    for eid, pair in PRDF_PAIRS.items():
        w = catalog.get(eid)
        assert w.kind == "PRDF"
        assert tuple_view(w.group, w.prdf_pair) == pair
        assert set(w.prdf_pair) <= set(w.group.involutions)
        assert w.prdf_pair[1] == w.group.canonical_involution
        assert is_pseudo_resolvable(w)


def test_prdf_pair_off_the_canonical_involution_is_quarantined(monkeypatch):
    # each entry built with its pinned pair reversed ends off the canonical
    # involution, and is refused for that
    for eid, pair in PRDF_PAIRS.items():
        w = catalog.get(eid)
        reversed_pair = catalog._family(
            w.group, tuple_view(w.group, w.blocks), "PRDF",
            tuple_view(w.group, [w.spread().x])[0], prdf_pair=pair[::-1])
        assert reversed_pair.prdf_pair == w.prdf_pair[::-1]
        monkeypatch.setitem(catalog._BUILDERS, eid, lambda: reversed_pair)
        with pytest.raises(catalog.CatalogError,
                           match=f"{eid!r} quarantined: the pseudo-resolving "
                           "pair .* does not end in the canonical involution"):
            catalog._load.__wrapped__(eid)


def test_rdf_entries_resolvable():
    for eid in catalog.ENTRY_IDS:
        if not eid.startswith("rdf:"):
            continue
        w = catalog.get(eid)
        assert is_j_resolvable(w), eid


def test_get_is_cached_and_isolated():
    a = catalog.get("rdf:G1")
    b = catalog.get("rdf:G1")
    assert np.array_equal(a.blocks, b.blocks)
    # the cached witness is shared, so its blocks cannot be written
    assert not a.blocks.flags.writeable


def test_unknown_id():
    with pytest.raises(KeyError):
        catalog.get("rdf:nope")

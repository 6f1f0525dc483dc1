import json
import random
import re

import numpy as np
import pytest
from conftest import (delta_counts, naive_delta, oracle_dm_check, oracle_is_df,
                      oracle_is_doubly_disjoint, oracle_is_j_resolvable,
                      oracle_is_pseudo_resolvable, tuple_view)

from kts3p import catalog, compose
from kts3p import groups as G
from kts3p.designkit import (DifferenceMatrix, FamilyWitness, Spread,
                             dm_check, dm_from_json, dm_to_json,
                             is_df, is_doubly_disjoint, is_j_resolvable,
                             is_pseudo_resolvable, witness_from_json,
                             witness_to_json)
from kts3p.directcon import construct_dddf


def g1():
    return G.GroupDescriptor([G.GAtom(1)])


G1 = g1()


def test_delta_family_matches_naive_oracle():
    g = g1()
    blocks = [[(0, 0, 1), (1, 1, 0), (2, 1, 1)], [(0, 1, 0), (1, 0, 1), (2, 0, 0)]]
    assert delta_counts(g, blocks) == naive_delta(g, blocks)


def test_paper_difference_table():
    # [PAPER] the six differences of B = {(0,0,1),(1,1,0),(2,1,1)} in order
    g = g1()
    B = [(0, 0, 1), (1, 1, 0), (2, 1, 1)]
    diffs = set(delta_counts(g, [B]))
    assert diffs == {(2, 0, 1), (1, 0, 1), (1, 1, 1), (2, 1, 1),
                     (2, 1, 0), (1, 1, 0)}


def test_spread_members():
    g = g1()
    s = Spread(g, g.element_index[(1, 0, 0)])
    assert tuple_view(g, s.order3) == ((0, 0, 0), (1, 0, 0), (2, 0, 0))
    # identity + two order-3 elements + three involutions, as sorted ids
    assert s.ids.tolist() == sorted({*s.order3, *g.involutions})
    assert s.ids[0] == g.element_index[g.zero]


# what a witness states must be an element id: never an element tuple
# (nor one an atom's `add` would reduce, such as (4, 0, 0)), a bool, a
# float or an id outside range(|G|)
NOT_IDS = [(1, 0, 0), (4, 0, 0), (1, 0), True, False, 16.0, -1, 12, 1000,
           None]


def test_spread_rejects_non_element():
    g = g1()
    for x in NOT_IDS:
        with pytest.raises(ValueError, match="spread generator must be an "
                           "element id of G1, 0 to 11"):
            Spread(g, x)
    with pytest.raises(ValueError, match="must have order 3"):
        Spread(g, g.canonical_involution)


@pytest.mark.parametrize("name", ["j", "a", "b", "prdf_pair"])
@pytest.mark.parametrize("x", NOT_IDS[:-1], ids=repr)
def test_witness_rejects_stated_elements_that_are_not_ids(name, x):
    w = catalog.get("rdf:G1")
    g = w.group
    value = (g.involutions[0], x) if name == "prdf_pair" else x
    with pytest.raises(ValueError, match=f"{name} must be an element id of "
                       "G1, 0 to 11"):
        FamilyWitness(g, w.blocks, w.kind, w.relative, **{name: value})
    # a pair is two ids, in a tuple or a list
    if name == "prdf_pair":
        for bad in (g.involutions[0], g.involutions, g.involutions[:2] * 2):
            with pytest.raises(ValueError, match="prdf_pair must be two"):
                FamilyWitness(g, w.blocks, w.kind, w.relative, prdf_pair=bad)


def test_is_df_catalog_positive_and_perturbed():
    w = catalog.get("rdf:G1xV3")
    assert is_df(w)
    # [TRIVIAL] perturbation breaks the multiset equality
    g = w.group
    blocks = [list(b) for b in tuple_view(g, w.blocks)]
    x = blocks[0][0]
    blocks[0][0] = g.add(x, (0, 0, 0, 1))
    bad = FamilyWitness(g, G.triple_ids(g, blocks), "DF", w.relative,
                        j=w.j, a=w.a, b=w.b)
    assert not is_df(bad)


def test_rdf_g2_states_its_ab():
    # the catalog pins (a, b) = ((2,0,2), (1,0,0)) for the order-48 spread
    # family, and the predicate checks that pair as stated
    w = catalog.get("rdf:G2")
    assert (w.a, w.b) == (34, 16)
    assert tuple_view(w.group, [w.a, w.b]) == ((2, 0, 2), (1, 0, 0))
    assert is_j_resolvable(w)
    swapped = FamilyWitness(w.group, w.blocks, "RDF", w.relative, j=w.j,
                            a=w.b, b=w.a)
    assert is_j_resolvable(swapped)
    other = FamilyWitness(w.group, w.blocks, "RDF", w.relative, j=w.j,
                          a=w.a, b=w.a)
    assert not is_j_resolvable(other)


@pytest.mark.parametrize("eid", ["rdf:D:empty", "rdf:G1", "rdf:DxV5",
                                 "rdf:G1xV3", "rdf:G2"])
def test_spread_family_without_ab_is_refused(eid):
    # no search: a spread family that states no (a, b) fails, and the
    # predicate leaves the witness as it was
    src = catalog.get(eid)
    for a, b in ((None, None), (src.a, None), (None, src.b)):
        w = FamilyWitness(src.group, src.blocks, "RDF", src.relative,
                          j=src.j, a=a, b=b)
        d = is_j_resolvable(w)
        assert not d
        assert d.problems == ["a spread family must state its (a, b)"]
        assert (w.a, w.b) == (a, b)


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
    assert rep["splittable"] == [dm.j]
    assert tuple_view(dm.group, [dm.j]) == ((0, 1, 1),)
    # breaking one entry must invalidate it
    rows = dm.rows.copy()
    rows[1][0] = rows[1][1]
    bad = DifferenceMatrix(dm.group, rows)
    assert not dm_check(bad)["valid"]


def test_dm_check_row_differences_oracle():
    # independent oracle: row-pair differences hit each element exactly once
    dm = catalog.get("dm:Z4xZ4")
    g = dm.group
    rows = tuple_view(g, dm.rows)
    for r1 in range(3):
        for r2 in range(3):
            if r1 == r2:
                continue
            diffs = [g.sub(a, b) for a, b in zip(rows[r1], rows[r2])]
            assert sorted(diffs) == sorted(g.element_list)


def _same_ids(x, y):
    return (x is None) == (y is None) and (x is None or np.array_equal(x, y))


def test_witness_json_roundtrip():
    # families with translates; every catalog entry round-trips in
    # test_catalog_entry_json_roundtrip
    for eid in ["dd:rdf:G2:rel-G1", "dddf:5"]:
        w = _witness(eid)
        back = witness_from_json(witness_to_json(w))
        assert back.group == w.group, eid
        assert back.kind == w.kind
        assert np.array_equal(back.blocks, w.blocks)
        assert type(back.relative) is type(w.relative)
        assert np.array_equal(back.excluded(), w.excluded())
        assert (back.j, back.a, back.b) == (w.j, w.a, w.b)
        assert _same_ids(back.translates, w.translates)


def test_dm_json_roundtrip():
    # matrices that declare no j; the catalog's, which do, round-trip in
    # test_catalog_entry_json_roundtrip
    for atoms in ([G.VAtom(5)], [G.VAtom(3), G.VAtom(5)]):
        dm = compose.homogeneous_dm(G.GroupDescriptor(atoms))
        back = dm_from_json(dm_to_json(dm))
        assert back.group == dm.group
        assert np.array_equal(back.rows, dm.rows)
        assert back.j == dm.j


@pytest.mark.parametrize("eid", catalog.ENTRY_IDS)
def test_catalog_entry_json_roundtrip(eid):
    # every entry reads back with equal ids and passes its own check
    obj = catalog.get(eid)
    if isinstance(obj, DifferenceMatrix):
        back = dm_from_json(json.loads(json.dumps(dm_to_json(obj))))
        assert np.array_equal(back.rows, obj.rows) and back.j == obj.j
    else:
        back = witness_from_json(json.loads(json.dumps(witness_to_json(obj))))
        assert (back.kind, type(back.relative)) == (obj.kind,
                                                    type(obj.relative))
        assert np.array_equal(back.blocks, obj.blocks)
        assert np.array_equal(back.excluded(), obj.excluded())
        assert (back.j, back.a, back.b, back.prdf_pair) == (
            obj.j, obj.a, obj.b, obj.prdf_pair)
        assert _same_ids(back.translates, obj.translates)
    assert back.group == obj.group
    assert catalog._verify_entry(back) is None


def _non_canonical(label):
    """Spellings of the element `label` that the encoder never writes, each
    must be refused in every field of a witness or difference-matrix file.
    The last atom is respelled: "G1:(0,1,1)" becomes "G1:(00,1,1)",
    "G1:(0,1,+1)", "G1:(0,1,1 )", "G1:((0,1,1))", "G1:0,1,1",
    "G1:(00,1,+1)" and "G1:(0, 1,1)"; "…|V3:2" becomes "…|V3:02", "…|V3:+2",
    "…|V3:2 " and "…|V3:(2)"."""
    head, _, body = label.rpartition(":")
    inner = body.strip("()")
    wrap = "({})" if body.startswith("(") else "{}"
    signed = re.sub(r"(\d+)$", r"+\1", inner)
    out = [wrap.format(x) for x in ("0" + inner, signed, inner + " ")]
    out.append(f"({body})")
    if body.startswith("("):
        out += [inner, wrap.format("0" + signed),
                wrap.format(inner.replace(",", ", ", 1))]
    out = [f"{head}:{x}" for x in out]
    assert label not in out and len(set(out)) == len(out), out
    return out


@pytest.mark.parametrize("eid, path", [
    ("rdf:G1", ("j",)), ("rdf:G1", ("a",)), ("rdf:G1", ("b",)),
    ("rdf:G1", ("relative", "spread_x")), ("rdf:G1", ("blocks", 0, 2)),
    ("rdf:G1xV3", ("blocks", 1, 0)), ("rdf:G1xV3", ("j",)),
    ("rdf:G2:rel-G1", ("relative", "subgroup", 1)),
    ("dd:rdf:G2:rel-G1", ("translates", 0)),
    ("dm:G1", ("rows", 1, 3)), ("dm:G1", ("j",)),
    ("dm:Z2xZ6", ("rows", 2, 0)),
    ("prdf:G2", ("prdf_pair", 0)), ("prdf:G1xV3", ("prdf_pair", 1))])
def test_json_rejects_non_canonical_element_labels(eid, path):
    obj = _witness(eid)
    to_json, from_json = ((dm_to_json, dm_from_json)
                          if isinstance(obj, DifferenceMatrix)
                          else (witness_to_json, witness_from_json))
    data = json.loads(json.dumps(to_json(obj)))
    from_json(data)
    *head, last = path
    node = data
    for key in head:
        node = node[key]
    for bad in _non_canonical(node[last]):
        node[last] = bad
        with pytest.raises(ValueError, match="is not an element of") as exc:
            from_json(data)
        assert repr(bad) in str(exc.value)


@pytest.mark.parametrize("labels", [
    ["Z0"], ["G0"], ["G01"], ["V05"], ["V4"], ["Q3"], ["G1", "V5 "],
    ["G+1"], ["V1"], [" G1"], ["g1"], ["G1\n"], [1], "D", {"G1": 0}])
def test_json_rejects_non_canonical_group_labels(labels):
    data = witness_to_json(catalog.get("rdf:G1"))
    with pytest.raises(ValueError):
        witness_from_json({**data, "group": labels})
    with pytest.raises(ValueError):
        G.group_from_labels(labels, max_order=60)
    dm = dm_to_json(catalog.get("dm:G1"))
    with pytest.raises(ValueError):
        dm_from_json({**dm, "group": labels})


def test_witness_json_rejects_lambda_other_than_one():
    data = witness_to_json(catalog.get("rdf:G1"))
    assert data["lam"] == 1
    data["lam"] = 2
    with pytest.raises(ValueError, match="lambda"):
        witness_from_json(data)


# ---------------------------------------------------------------------------
# the id-level predicates against the Counter oracle in conftest

def _witness(name):
    """A catalog witness; "dd:<id>" reads a subgroup-relative catalog family
    as doubly disjoint (translates j), "dddf:<n>" is construct_dddf(n)."""
    kind, _, rest = name.partition(":")
    if kind == "dddf":
        return construct_dddf(int(rest))
    if kind == "dd":
        w = catalog.get(rest)
        return FamilyWitness(w.group, w.blocks, "DDDF", w.relative, j=w.j,
                             translates=[w.j] * len(w.blocks))
    return catalog.get(name)


WITNESSES = ([e for e in catalog.ENTRY_IDS if not e.startswith("dm:")]
             + ["dd:rdf:G2:rel-G1", "dd:rdf:G3:rel-G2", "dddf:5", "dddf:13"])


def _variants(w, rng):
    """The witness's own fields, then seeded mutations: a changed entry, a
    dropped and a duplicated block, a wrong j, a wrong, swapped or missing
    (a, b), a changed translate, and a reversed or missing PRDF pair.
    Every field is element ids."""
    ids = range(w.group.order)
    base = {"blocks": w.blocks.tolist(), "j": w.j, "a": w.a,
            "b": w.b, "translates": w.translates, "prdf_pair": w.prdf_pair}
    out = [base]
    if len(w.blocks):
        for _ in range(3):
            blocks = w.blocks.tolist()
            blocks[rng.randrange(len(blocks))][rng.randrange(3)] = \
                rng.choice(ids)
            out.append({**base, "blocks": blocks})
        i = rng.randrange(len(w.blocks))
        out.append({**base, "blocks": base["blocks"][:i]
                    + base["blocks"][i + 1:]})
        out.append({**base, "blocks": base["blocks"] + [base["blocks"][i]]})
    out += [{**base, "j": j} for j in (rng.choice(ids),) + w.group.involutions
            if j != w.j]
    out.append({**base, "a": rng.choice(ids), "b": rng.choice(ids)})
    out.append({**base, "a": w.b, "b": w.a})
    out.append({**base, "a": None, "b": None})
    if w.translates is not None and len(w.translates):
        translates = w.translates.tolist()
        translates[rng.randrange(len(translates))] = rng.choice(ids)
        out.append({**base, "translates": translates})
    if w.prdf_pair is not None:
        out.append({**base, "prdf_pair": w.prdf_pair[::-1]})
        out.append({**base, "prdf_pair": None})
    return out


@pytest.mark.parametrize("name", WITNESSES)
def test_predicates_agree_with_counter_oracle(name):
    w = _witness(name)
    checks = [(is_df, oracle_is_df)]
    if w.j is not None:
        checks.append((is_j_resolvable, oracle_is_j_resolvable))
    if w.kind == "PRDF":
        checks.append((is_pseudo_resolvable, oracle_is_pseudo_resolvable))
    if w.translates is not None:
        checks.append((is_doubly_disjoint, oracle_is_doubly_disjoint))
    seen = set()
    for fields in _variants(w, random.Random(name)):
        for check, oracle in checks:
            mine, ref = (FamilyWitness(w.group, fields["blocks"], w.kind,
                                       w.relative, j=fields["j"],
                                       a=fields["a"], b=fields["b"],
                                       translates=fields["translates"],
                                       prdf_pair=fields["prdf_pair"])
                         for _ in range(2))
            d, e = check(mine), oracle(ref)
            assert (d.ok, d.problems) == (e.ok, e.problems), check.__name__
            # the predicate writes nothing to the witness
            assert (mine.j, mine.a, mine.b, mine.prdf_pair) == (
                fields["j"], fields["a"], fields["b"], fields["prdf_pair"])
            seen.add((check.__name__, d.ok))
    # every check met both verdicts (no block of an empty family can break)
    want = {(c.__name__, ok) for c, _ in checks for ok in (True, False)}
    if not len(w.blocks):
        want.discard(("is_df", False))
    assert seen == want


@pytest.mark.parametrize("dm", [catalog.get(e) for e in catalog.ENTRY_IDS
                                if e.startswith("dm:")]
                         + [compose.homogeneous_dm(G.GroupDescriptor(a))
                            for a in ([G.VAtom(5)], [G.VAtom(3), G.VAtom(5)])],
                         ids=repr)
def test_dm_check_agrees_with_counter_oracle(dm):
    g = dm.group
    rng = random.Random(repr(g))
    variants = [(dm.rows, dm.j), (dm.rows, None)]
    variants += [(dm.rows, j) for j in g.involutions]
    for _ in range(4):
        rows = dm.rows.tolist()
        rows[rng.randrange(3)][rng.randrange(g.order)] = rng.randrange(
            g.order)
        variants.append((rows, dm.j))
    rows = dm.rows.tolist()
    i, k = rng.sample(range(g.order), 2)
    rows[1][i], rows[1][k] = rows[1][k], rows[1][i]
    variants.append((rows, dm.j))
    for rows, j in variants:
        m = DifferenceMatrix(g, rows, j=j)
        assert dm_check(m) == oracle_dm_check(m)


# ---------------------------------------------------------------------------
# the witness boundary: element tuples become ids in `groups.triple_ids` and
# in `witness_from_json`, and a witness holds only (k, 3) ids of its group.
# (3, 0, 0, 2) has G1 head 3, outside Z3.

FOREIGN = (3, 0, 0, 2)
ORACLES = {is_df: oracle_is_df, is_j_resolvable: oracle_is_j_resolvable,
           is_pseudo_resolvable: oracle_is_pseudo_resolvable,
           is_doubly_disjoint: oracle_is_doubly_disjoint}


@pytest.mark.parametrize("check, eid", [
    (is_df, "rdf:G1xV3"), (is_j_resolvable, "rdf:G1xV3"),
    (is_pseudo_resolvable, "prdf:G1xV3"), (is_doubly_disjoint, "rdf:G1xV3")])
def test_predicates_reject_entries_outside_the_group(check, eid):
    """A foreign entry never reaches a predicate: as an element it is refused
    where tuples become ids, as an id where the witness is made.  The
    witness it was put into still gets the oracle's verdict."""
    src = catalog.get(eid)
    g = src.group
    translates = [g.element_index[g.zero]] * len(src.blocks)

    def witness(blocks):
        return FamilyWitness(g, blocks, src.kind, src.relative, j=src.j,
                             a=src.a, b=src.b, translates=translates,
                             prdf_pair=src.prdf_pair)

    d, e = check(witness(src.blocks)), ORACLES[check](witness(src.blocks))
    assert (d.ok, d.problems) == (e.ok, e.problems)
    rows = [list(b) for b in tuple_view(g, src.blocks)]
    rows[0][0] = FOREIGN
    with pytest.raises(ValueError) as exc:
        witness(G.triple_ids(g, rows))
    assert str(exc.value) == (f"block {tuple(rows[0])} holds {FOREIGN}, "
                              f"which is not an element of {g!r}")
    ids = src.blocks.tolist()
    ids[0][0] = g.order
    with pytest.raises(ValueError, match="blocks hold ids outside"):
        witness(ids)


def test_triple_ids_rejects_rows_that_are_not_triples():
    # one-shot iterators too: the rows are read once, checked and mapped
    w = catalog.get("rdf:G1xV3")
    rows = [list(b) for b in tuple_view(w.group, w.blocks)]
    assert np.array_equal(G.triple_ids(w.group, iter(rows)), w.blocks)
    for bad in (rows[0][:2], rows[0] + [rows[1][0]], []):
        for given in ([bad] + rows[1:], iter([bad] + rows[1:])):
            with pytest.raises(ValueError, match="is not a triple"):
                G.triple_ids(w.group, given)


def test_witness_rejects_blocks_that_are_not_id_triples():
    w = catalog.get("rdf:G1xV3")
    g, ids = w.group, w.blocks
    pairs = ids.ravel()[:6].reshape(3, 2)
    for bad in (pairs,                      # three pairs, never two triples
                ids.ravel(),                # a flat run of ids
                ids[:, :2],                 # blocks of two
                [list(b) for b in tuple_view(g, ids)],  # element tuples
                ids.astype(float),          # not integers
                [[True, 6, 11], *ids[1:].tolist()],  # a bool in one place
                [[0, 1, 2], [3, 4]]):       # ragged rows
        with pytest.raises(ValueError):
            FamilyWitness(g, bad, "RDF", w.relative, j=w.j)


@pytest.mark.parametrize("bad", [-1, 36, 1000])
def test_witness_rejects_ids_outside_the_group(bad):
    w = catalog.get("rdf:G1xV3")
    blocks = w.blocks.tolist()
    blocks[0][0] = bad
    with pytest.raises(ValueError, match="blocks hold ids outside 0 to 35, "
                       "the element ids of G1 x V3"):
        FamilyWitness(w.group, blocks, "RDF", w.relative, j=w.j)


def test_doubly_disjoint_rejects_translates_outside_the_group():
    w = _witness("dd:rdf:G2:rel-G1")
    for bad in (w.group.order, -1):
        with pytest.raises(ValueError, match="translates hold ids outside"):
            FamilyWitness(w.group, w.blocks, "DDDF", w.relative, j=w.j,
                          translates=[bad] + w.translates[1:].tolist())
    with pytest.raises(ValueError, match=r"translates must be a \(k,\)"):
        FamilyWitness(w.group, w.blocks, "DDDF", w.relative, j=w.j,
                      translates=[w.translates.tolist()])


def test_witness_from_json_rejects_foreign_labels_and_short_blocks():
    data = witness_to_json(catalog.get("rdf:G1xV3"))
    bad = {**data, "blocks": [["G1:(3,0,0)|V3:2"] + data["blocks"][0][1:]]
           + data["blocks"][1:]}
    with pytest.raises(ValueError, match="is not an element of"):
        witness_from_json(bad)
    bad = {**data, "blocks": [data["blocks"][0][:2]] + data["blocks"][1:]}
    with pytest.raises(ValueError, match="is not a triple"):
        witness_from_json(bad)
    # a block of unhashable or non-label entries, or no list at all, is
    # read by the same decoder and raises the same ValueError
    for block in ([data["blocks"][0][:2] + [["G1:(0,0,0)|V3:0"]]],
                  ["G1:(0,0,0)|V3:0"], [7, 8, 9]):
        bad = {**data, "blocks": block + data["blocks"][1:]}
        with pytest.raises(ValueError, match="is not"):
            witness_from_json(bad)
    dd = witness_to_json(_witness("dd:rdf:G2:rel-G1"))
    dd["translates"][0] = "G2:(0,4,0)"
    with pytest.raises(ValueError, match="is not an element of"):
        witness_from_json(dd)


def test_witness_arrays_are_read_only():
    w = catalog.get("rdf:G1xV3")
    with pytest.raises(ValueError):
        w.blocks[0, 0] = 0
    dd = _witness("dd:rdf:G2:rel-G1")
    with pytest.raises(ValueError):
        dd.translates[0] = 0
    # the witness copies what it is given
    rows = w.blocks.copy()
    again = FamilyWitness(w.group, rows, w.kind, w.relative, j=w.j)
    rows[0, 0] = 0
    assert np.array_equal(again.blocks, w.blocks)


def test_dm_check_rejects_entries_outside_the_group():
    # an entry outside the group never reaches dm_check: the matrix refuses
    # it as an id, and `tuple_view` reads the rows that dm_check counts
    dm = catalog.get("dm:G1")
    for bad in (-1, 12, 1000):
        rows = dm.rows.tolist()
        rows[1][0] = bad
        with pytest.raises(ValueError, match="rows hold ids outside 0 to 11,"
                           " the element ids of G1"):
            DifferenceMatrix(dm.group, rows, j=dm.j)


@pytest.mark.parametrize("rows, message", [
    (lambda r: tuple_view(G1, r), r"rows must be a \(3, 12\) array"),
    (lambda r: r[:2], r"rows must be a \(3, 12\) array"),
    (lambda r: r[:, :11], r"rows must be a \(3, 12\) array"),
    (lambda r: r.ravel(), r"rows must be a \(3, 12\) array"),
    (lambda r: r.astype(bool), r"rows must be a \(3, 12\) array"),
    (lambda r: r.astype(float), r"rows must be a \(3, 12\) array"),
    (lambda r: [r[0].tolist(), r[1].tolist(), r[2, :5].tolist()],
     "inhomogeneous"),
    (lambda r: r + 12, "rows hold ids outside 0 to 11"),
    (lambda r: [[True, *r[0, 1:].tolist()], *r[1:].tolist()],
     r"rows must be a \(3, 12\) array of integer element ids, not bool")])
def test_difference_matrix_rows_are_ids(rows, message):
    # rows are a (3, |H|) array of element ids: never element tuples,
    # bools, floats, another shape or ids outside range(|H|)
    dm = catalog.get("dm:G1")
    with pytest.raises(ValueError, match=message):
        DifferenceMatrix(dm.group, rows(dm.rows), j=dm.j)


def test_difference_matrix_rows_are_read_only_copies():
    dm = catalog.get("dm:G1")
    rows = dm.rows.copy()
    again = DifferenceMatrix(dm.group, rows, j=dm.j)
    rows[0, 0] = 1
    assert np.array_equal(again.rows, dm.rows)
    with pytest.raises(ValueError):
        again.rows[0, 0] = 1
    assert again.rows.dtype == np.int64


@pytest.mark.parametrize("j", NOT_IDS[:-1], ids=repr)
def test_difference_matrix_j_is_an_id(j):
    dm = catalog.get("dm:G1")
    with pytest.raises(ValueError, match="j must be an element id of G1, "
                       "0 to 11"):
        DifferenceMatrix(dm.group, dm.rows, j=j)

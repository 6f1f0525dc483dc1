import hashlib

import numpy as np
import pytest

from conftest import (delta_counts, naive_pair_cover, oracle_excluded,
                      point_view, tuple_view)
from kts3p import catalog, cli, compose
from kts3p import groups as G
from kts3p import pipeline as P
from kts3p.designkit import dm_check, is_j_resolvable
from kts3p.directcon import lift_prdf

I1, I2, I3 = "inf1", "inf2", "inf3"


def test_classify_frozen_small():
    # [DERIVED] case labels and coverage, cross-checked against an
    # independent sieve over the order shapes
    expect = {
        9: ("24n+9", True), 15: ("24n+15", True), 21: ("24n+21", False),
        27: ("not-3-pyramidal", False), 33: ("24n+9", True),
        39: ("24n+15", True), 45: ("24n+21", False),
        51: ("48n+3", True), 57: ("24n+9", True), 63: ("24n+15", True),
        75: ("not-3-pyramidal", False), 87: ("24n+15", True),
        99: ("not-3-pyramidal", False), 123: ("not-3-pyramidal", False),
        129: ("24n+9", False), 195: ("48n+3", True),
    }
    for v, (case, covered) in expect.items():
        c = P.classify_order(v)
        assert (c.case, c.covered) == (case, covered), v


def test_classify_first_uncovered_sum_of_squares():
    # [DERIVED] 129 = 24*5+9 and 4*5+1 = 21 = 3*7 is not a sum of two squares
    c = P.classify_order(129)
    assert c.case == "24n+9" and c.admissible and not c.covered
    with pytest.raises(P.UnsupportedOrder):
        P.construct(129)


@pytest.mark.parametrize("v, cells", [(2451, 51), (2739, 57), (3891, 81),
                                     (9795, 51)])
def test_classify_unpinned_pair_not_covered(v, cells):
    # [DERIVED] 48n+3 with 3 | n composes over Z3 x GF(q) x ...; no pair is
    # pinned for 3q cells, so the order is admissible but not built
    c = P.classify_order(v)
    assert c.case == "48n+3" and c.admissible and not c.covered
    assert f"over {cells} cells" in c.reason
    with pytest.raises(P.UnsupportedOrder):
        P.construct(v)


@pytest.mark.parametrize("v, ring", [(2775, 77), (3699, 77), (4791, 133)])
def test_classify_composite_lift_not_covered(v, ring):
    # [DERIVED] these routes lift a PRDF over V_P with P of two components
    # (77 = 7·11, 133 = 7·19), and `lift_prdf` fails there for every seed
    c = P.classify_order(v)
    assert c.admissible and not c.covered
    assert f"lift over V{ring} fails" in c.reason
    with pytest.raises(P.UnsupportedOrder):
        P.construct(v)


def test_classify_composite_lifts_below_20000():
    # every order the lift keeps from being covered lies in the headline
    # classes v ≡ 39 (mod 72) or 48n+3; the lift fails at the three
    # smallest such P
    hit = {}
    for v in range(9, 20000, 6):
        c = P.classify_order(v)
        if "PRDF lift" in c.reason:
            assert c.case in ("24n+15", "48n+3") and not c.covered
            assert c.case == "48n+3" or v % 72 == 39
            hit.setdefault(int(c.reason.split("V")[1].split()[0]), []).append(v)
    assert sum(map(len, hit.values())) == 37 and len(hit) == 19
    assert min(min(orders) for orders in hit.values()) == 2775
    seed = catalog.get("prdf:G1xV3")
    for ring in sorted(hit)[:3]:
        with pytest.raises(AssertionError, match="resolvability"):
            lift_prdf(seed, ring)


def test_covered_order3_routes_build_their_matrix():
    # every covered order whose route glues an order-3 component takes its
    # homogeneous matrix from the pinned table
    built = 0
    for v in range(51, 20001, 6):
        c = P.classify_order(v)
        if c.case != "48n+3" or not c.covered:
            continue
        n = c.params[1]
        if n % 3 == 0 and n != 3 and G.VAtom(3) in P._odd_part(n).atoms:
            rep = dm_check(compose.homogeneous_dm(P._odd_part(n)))
            assert rep["valid"] and rep["homogeneous"], v
            built += 1
    # 27 such routes, less 11091 and 19155: their lifts over V77 and V133
    # fail, so `classify_order` does not call them covered
    assert built == 25


def test_classify_not_admissible_is_typed():
    c = P.classify_order(27)
    assert not c.admissible
    with pytest.raises(P.UnsupportedOrder) as ei:
        P.construct(27)
    assert ei.value.classification.case == "not-3-pyramidal"


def test_classify_rejects_wrong_residue():
    for v in (8, 11, 12, 25):
        with pytest.raises(ValueError):
            P.classify_order(v)


def _classes(system):
    points = point_view(system)
    return {frozenset(frozenset(points[i] for i in b)
                      for b in cls.tolist())
            for cls in system.resolution}


def test_golden_kts9():
    # [PAPER] the unique KTS(9) as developed from the empty family over the
    # twisted order-6 group
    sys9 = P.build_kts(catalog.get("rdf:D:empty"))
    paper = {
        frozenset({frozenset({I1, I2, I3}),
                   frozenset({(0, 0), (0, 1), (0, 2)}),
                   frozenset({(1, 0), (1, 1), (1, 2)})}),
        frozenset({frozenset({I1, (0, 0), (1, 0)}),
                   frozenset({I2, (0, 1), (1, 2)}),
                   frozenset({I3, (0, 2), (1, 1)})}),
        frozenset({frozenset({I1, (0, 1), (1, 1)}),
                   frozenset({I2, (0, 2), (1, 0)}),
                   frozenset({I3, (0, 0), (1, 2)})}),
        frozenset({frozenset({I1, (0, 2), (1, 2)}),
                   frozenset({I2, (0, 0), (1, 1)}),
                   frozenset({I3, (0, 1), (1, 0)})}),
    }
    assert _classes(sys9) == paper


KTS15_ROWS = [
    ["i1 i2 i3", "000 100 200", "001 101 201", "010 110 210", "011 111 211"],
    ["i1 000 011", "i2 111 100", "i3 201 210", "001 110 211", "010 101 200"],
    ["i1 001 010", "i2 110 101", "i3 200 211", "000 111 210", "011 100 201"],
    ["i1 100 110", "i2 210 200", "i3 011 001", "111 201 010", "101 211 000"],
    ["i1 101 111", "i2 211 201", "i3 010 000", "110 200 011", "100 210 001"],
    ["i1 200 201", "i2 001 000", "i3 110 111", "210 011 101", "211 010 100"],
    ["i1 211 210", "i2 010 011", "i3 101 100", "201 000 110", "200 001 111"],
]


def kts15_paper_classes():
    inf = {"i1": I1, "i2": I2, "i3": I3}
    out = set()
    for row in KTS15_ROWS:
        cls = set()
        for blk in row:
            cls.add(frozenset(inf[t] if t in inf else tuple(int(c) for c in t)
                              for t in blk.split()))
        out.add(frozenset(cls))
    return out


def test_golden_kts15():
    # [PAPER] the seven parallel classes of the schoolgirl solution
    sys15 = P.build_kts(catalog.get("rdf:G1"))
    assert _classes(sys15) == kts15_paper_classes()


@pytest.mark.parametrize("v", [9, 15, 33, 39, 51, 87, 147, 195])
def test_construct_counts(v):
    system = P.construct(v)
    assert system.order == v
    # ∞1 to ∞3 as −3 to −1, then the element ids
    assert system.points.dtype == np.int32
    assert np.array_equal(system.points, np.arange(-3, v - 3))
    points = point_view(system)
    assert system.blocks.dtype == np.int32
    assert system.blocks.shape == (v * (v - 1) // 6, 3)
    assert len(system.resolution) == (v - 1) // 2
    for cls in system.resolution:
        assert cls.dtype == np.int32 and cls.shape == (v // 3, 3)
        covered = [points[i] for i in cls.ravel()]
        assert len(covered) == v and set(covered) == set(points)


def test_construct_pair_cover_small_oracle():
    system = P.construct(15)
    points = point_view(system)
    labelled = [[points[i] for i in b] for b in system.blocks.tolist()]
    cover = naive_pair_cover(points, labelled)
    assert len(cover) == 15 * 14 // 2
    assert set(cover.values()) == {1}


def test_construct_deterministic():
    a = P.construct(51)
    b = P.construct(51)
    assert np.array_equal(a.blocks, b.blocks)
    assert len(a.resolution) == len(b.resolution)
    assert all(np.array_equal(x, y)
               for x, y in zip(a.resolution, b.resolution))


def test_trace_names_route():
    system = P.construct(33)
    assert system.trace is not None
    assert system.trace["case"] == "24n+9"


def _full_development(rdf):
    """Reference development: the moving class through all |G| translates,
    deduped with np.unique(axis=0).  Also checks that translating by 0 and by
    j gives the same class row."""
    g = rdf.group
    j, a, b = tuple_view(g, [rdf.j, rdf.a, rdf.b])
    points = [I1, I2, I3] + list(g.element_list)
    index = {p: i for i, p in enumerate(points)}
    v = len(points)
    q0 = [(I1, g.zero, j), (I2, a, g.add(a, j)), (I3, b, g.add(b, j))]
    for blk in tuple_view(g, rdf.blocks):
        q0.append(blk)
        q0.append(tuple(g.add(x, j) for x in blk))
    q0_ids = np.array([[index[x] for x in blk] for blk in q0])
    spread_ids = [index[x] for x in tuple_view(g, rdf.spread().order3)]
    moving = np.empty((g.order, v), dtype=np.int32)
    cosets = np.empty((g.order, 3), dtype=np.int32)
    for k, t in enumerate(g.element_list):
        perm = np.array([0, 1, 2] + [index[g.add(x, t)] for x in g.element_list])
        rows = np.sort(perm[q0_ids], axis=1)
        moving[k] = rows[np.lexsort(rows.T[::-1])].ravel()
        cosets[k] = perm[spread_ids]
    assert np.array_equal(moving[0], moving[g.element_list.index(j)])
    cosets = np.unique(np.sort(cosets, axis=1), axis=0)
    fixed = np.concatenate((np.arange(3, dtype=np.int32), cosets.ravel()))
    classes = np.unique(np.vstack((fixed, moving)), axis=0)
    classes = classes.reshape(len(classes), v // 3, 3)
    return np.unique(classes.reshape(-1, 3), axis=0), list(classes)


@pytest.mark.parametrize("v", [15, 39, 183, 819])
def test_build_kts_matches_full_development(v):
    system = P.construct(v)
    blocks, resolution = _full_development(system.witness)
    assert np.array_equal(system.blocks, blocks)
    assert len(system.resolution) == len(resolution)
    assert all(np.array_equal(x, y)
               for x, y in zip(system.resolution, resolution))


def test_build_kts_chunks_match_full_development(monkeypatch):
    # 18 translates in chunks of 7: two full chunks and a partial last one
    rdf = P.construct(39).witness
    sizes = []
    translation = G.GroupIndex.translation

    def counted(self, ts):
        sizes.append(len(ts))
        return translation(self, ts)

    monkeypatch.setattr(P, "CHUNK", 7)
    monkeypatch.setattr(G.GroupIndex, "translation", counted)
    system = P.build_kts(rdf)
    assert sizes == [7, 7, 4]
    blocks, resolution = _full_development(rdf)
    assert np.array_equal(system.blocks, blocks)
    assert len(system.resolution) == len(resolution)
    assert all(np.array_equal(x, y)
               for x, y in zip(system.resolution, resolution))


def _producers():
    """One witness from each producer of the route, by name."""
    from kts3p import directcon as D
    from kts3p.designkit import witness_from_json, witness_to_json
    out = {eid: catalog.get(eid) for eid in catalog.ENTRY_IDS
           if not eid.startswith("dm:")}
    out.update({
        "9mod24": D.construct_9mod24(1), "15mod24": D.construct_15mod24(5),
        "15mod24bis": D.construct_15mod24bis(7), "dddf": D.construct_dddf(5),
        "lift": lift_prdf(catalog.get("prdf:G2"), 7)})
    local = G.GroupDescriptor([G.GAtom(2), G.VAtom(5)])
    F = catalog.get("rdf:G2:rel-G1")
    section, hv = P._quotient(local, F.group)
    dm = compose.homogeneous_dm(G.GroupDescriptor([G.VAtom(5)]))
    out["compose-i"] = compose.df_compose_dm(
        local, hv, section, F, dm, P._place_fn(dm.group, local), mode="i",
        j=local.canonical_involution)
    local = G.GroupDescriptor([G.GAtom(1), G.VAtom(3), G.VAtom(5)])
    section, hv = P._quotient(local, out["dddf"].group)
    dm = catalog.get("dm:G1")
    for mode in ("ii", "plain"):
        out[f"compose-{mode}"] = compose.df_compose_dm(
            local, hv, section, out["dddf"], dm, P._place_fn(dm.group, local),
            mode=mode, j=local.canonical_involution if mode == "ii" else None)
    amb = G.GroupDescriptor([G.GAtom(2)])
    out["align"] = P.align(catalog.get("rdf:G1"), amb)
    out["chain_union"] = compose.chain_union([catalog.get("rdf:G2:rel-G1")])
    out["pertinent_union"] = compose.pertinent_union(out["chain_union"],
                                                     out["align"])
    out["as_doubly_disjoint"] = compose.as_doubly_disjoint(F)
    out["witness_from_json"] = witness_from_json(
        witness_to_json(out["as_doubly_disjoint"]))
    out["route"] = P.construct(87).witness
    return out


def test_every_producer_holds_read_only_id_blocks():
    # the catalog and the route cache their witnesses and share them, so
    # every producer must hand out arrays nobody can write
    for name, w in _producers().items():
        for ids, ndim in ((w.blocks, 2), (w.translates, 1)):
            if ids is None:
                continue
            assert ids.dtype == np.int64 and ids.ndim == ndim, name
            assert not ids.flags.writeable and ids.base is None, name
            assert ((0 <= ids) & (ids < w.group.order)).all(), name
        assert w.blocks.shape[1:] == (3,), name
        assert (np.diff(w.blocks, axis=1) > 0).all(), name
        assert (tuple_view(w.group, w.excluded())
                == tuple(sorted(oracle_excluded(w)))), name
        assert not w.excluded().flags.writeable, name


@pytest.mark.parametrize("src, dst", [
    ([G.GAtom(1)], [G.GAtom(1), G.VAtom(5)]),
    ([G.GAtom(1), G.VAtom(3)], [G.GAtom(3), G.VAtom(5), G.VAtom(3)]),
    ([G.DAtom(), G.VAtom(5)], [G.DAtom(), G.VAtom(3), G.VAtom(5)]),
    ([G.VAtom(5)], [G.GAtom(2), G.VAtom(5)])])
def test_map_ids_matches_the_map_on_elements(src, dst):
    # the id map of a coordinate map, from one call on coordinate columns,
    # equals the map applied element by element
    src, dst = G.GroupDescriptor(src), G.GroupDescriptor(dst)
    for fn in (P._place_fn(src, dst), P._quotient(dst, src)[0]):
        want = [dst.element_index[fn(x)] for x in src.element_list]
        assert G.map_ids(fn, src, dst).tolist() == want


def test_map_ids_rejects_images_outside_the_group():
    src = G.GroupDescriptor([G.VAtom(5)])
    dst = G.GroupDescriptor([G.VAtom(3)])
    with pytest.raises(ValueError):
        G.map_ids(lambda x: x, src, dst)


def test_place_fn_is_monomorphism():
    src = G.GroupDescriptor([G.GAtom(1)])
    dst = G.GroupDescriptor([G.GAtom(1), G.VAtom(5)])
    fn = P._place_fn(src, dst)
    seen = set()
    for x in src.element_list:
        for y in src.element_list:
            assert fn(src.add(x, y)) == dst.add(fn(x), fn(y))
        seen.add(fn(x))
    assert len(seen) == src.order


def test_align_transports_witness():
    # placing the order-12 witness inside a larger ambient keeps its shape:
    # blocks go through the monomorphism, j stays an involution
    amb = G.GroupDescriptor([G.GAtom(1), G.VAtom(3)])
    src = catalog.get("rdf:G1")
    moved = P.align(src, amb)
    assert moved.group == amb
    assert moved.j in amb.involutions
    fn = P._place_fn(src.group, amb)
    blocks = tuple_view(src.group, src.blocks)
    assert (tuple(tuple(fn(x) for x in b) for b in blocks)
            == tuple_view(amb, moved.blocks))
    lifted = {fn(d) for d in delta_counts(src.group, blocks)}
    assert set(delta_counts(amb, tuple_view(amb, moved.blocks))) == lifted


def test_quotient_splits_exactly():
    # the cosets section(y) + H partition the ambient group, and
    # y -> section(y) + H respects +: the model is the quotient by the kernel
    for amb, model in [
            ([G.GAtom(1), G.VAtom(5)], [G.VAtom(5)]),
            ([G.GAtom(1), G.VAtom(5)], [G.GAtom(1)]),
            ([G.GAtom(2), G.VAtom(3)], [G.GAtom(1), G.VAtom(3)]),
            ([G.DAtom(), G.VAtom(3), G.VAtom(5)], [G.DAtom(), G.VAtom(5)])]:
        amb, model = G.GroupDescriptor(amb), G.GroupDescriptor(model)
        section, kernel = P._quotient(amb, model)
        carrier = tuple_view(amb, kernel.ids)
        assert len(carrier) * model.order == amb.order
        cosets = {y: {amb.add(section(y), k) for k in carrier}
                  for y in model.element_list}
        assert set().union(*cosets.values()) == set(amb.element_list)
        for x in model.element_list:
            for y in model.element_list:
                assert (amb.add(section(x), section(y))
                        in cosets[model.add(x, y)])


@pytest.mark.parametrize("v", [9, 15, 39, 51, 153])
def test_build_kts_adds_no_tuples(v, monkeypatch):
    # Q0, the spread and their translates are element ids: developing the
    # system makes no `add` call.  Its resolvability check, a designkit
    # predicate with tests of its own, runs before counting starts.
    built = P.construct(v)
    rdf = built.witness
    checked = is_j_resolvable(rdf)
    monkeypatch.setattr(P, "is_j_resolvable", lambda w: checked)
    adds = []
    add = rdf.group.add
    monkeypatch.setattr(rdf.group, "add", lambda *a: adds.append(a) or add(*a))
    system = P.build_kts(rdf)
    assert adds == []
    assert np.array_equal(system.blocks, built.blocks)
    assert all(map(np.array_equal, system.resolution, built.resolution))


def test_automorphism_lower_bound_structure():
    system = P.construct(33)
    bound, gens = P.automorphism_lower_bound(system)
    assert bound % system.group.order == 0
    n = len(system.points)
    for _, perm in gens:
        assert sorted(perm) == list(range(n))
        # the three extra points are preserved setwise
        assert set(perm[:3]) == {0, 1, 2}


# sha256 of `kts3p construct --order v --trace --out f`, frozen from an
# earlier build of the same routes; together these orders reach every trace
# op and six of the nine DF x DM composition sites
GOLDEN_DIGESTS = {
    9: "1cf8dad7fdfffeda19b6ad4ca41a2ddc6edb10435f5a2d926946508610f738b8",
    15: "4b72eddf3305fb31be50f4be893b1adb1c405d095aecfb4709a9e701af2cc26e",
    33: "8d87720dff6db54f0b8f11906f8854cf44ae8346a011c801d8e03500133edf05",
    39: "865151e1bae9e56a21fc1519332179b2c9a4ce0835897347b5794b2d116ef9a1",
    51: "1a747ebced1f558f8b954671e407d349cc2e4fb3952f13f7b5670814d3cb0a78",
    63: "c12a7e756e1e17aef9ee8cf2e5de87e1812be4dea282a016d467d8db84302cde",
    87: "1be899fd89748b1bd24e6a35e69b53a41859243b0877f4fa3035d0008e06d8c6",
    147: "ca9a4f493a55c1ec1d0d2750f75a9104f8180105b3b28f71e0480a2ad64b1903",
    183: "b4ab7429054f22fad2647bce2b06ce356e47e13567451b680c9f13fcbca64e03",
    195: "a8df7d6eb7faaf11be2886a06359f2adb1207e2063c02f21f94e7a4860a243e5",
    243: "8f6c4b2a2b38810ae0aa29a3a9e976b626326cd6f2a3ecaef83d2075c5b2b1d2",
    255: "f51317352abccff56dc62e5f0fba51f8600eaae4d2756ac774370976769b4a0a",
    339: "8cfeaa9b2dcf28f407be0a5363c8ef946cfcac4a86ee0008a5b115d66698aa96",
    423: "35dc6cc383eaa91a022a5e9cd3a70f3a9e37f1536c9f3ebed81d5d44eb20fe2d",
    435: "fa37051f0b2c066483a62c97ba1a11d9d840d5857506bdd1a0829105b7dfb6ca",
    579: "c45e5e679cdc7babb5df8421ff83aec505bcadd4004c6e7abde3bd785d83faf5",
    771: "d19be9d8635547da51e198dbc1a33087695d50925db42bf4c3fbc8b43822e983",
    # μ_s over GF(9) x GF(5), over GF(9), over GF(9) x GF(5), over GF(27),
    # and at 1095 over GF(7) x GF(13) with a composition carrying 3
    # multipliers through `compose._mult_orbit_blocks`
    273: "834698e7733ab11d04846802ccf1ddb0c4f7b7e9ea6daecea099ed465c301e5e",
    327: "90b0a7d87d180dc649c23c0060f8fb39f2a6d011107c4fab59f29cc2a68c00e8",
    543: "7af5d06987a1dd372ba3618931a708e763532b996be1fec62a15142b98192e88",
    975: "65ebfd04b5380df2099aec4725b9ffc4aaa283d63a8f0823a73c4d573f40379d",
    1095: "6dec5d782b1b2a56ff4ea1e7406ddfcf6863c42bd79f5e1dcd20e2ad8820e5cc",
}


@pytest.mark.parametrize("v", sorted(GOLDEN_DIGESTS))
def test_construct_output_digest_frozen(v, tmp_path):
    out = tmp_path / f"kts{v}.json"
    assert cli.main(["construct", "--order", str(v), "--trace",
                     "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_DIGESTS[v]

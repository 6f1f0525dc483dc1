import hashlib

import pytest

from conftest import naive_pair_cover
from kts3p import catalog, cli
from kts3p import groups as G
from kts3p import pipeline as P

I1, I2, I3 = P.INF


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
    return {frozenset(frozenset(b) for b in cls) for cls in system.resolution}


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
    assert len(system.points) == v
    assert len(system.blocks) == v * (v - 1) // 6
    assert len(system.resolution) == (v - 1) // 2
    for cls in system.resolution:
        covered = [x for b in cls for x in b]
        assert len(covered) == v and set(covered) == set(system.points)


def test_construct_pair_cover_small_oracle():
    system = P.construct(15)
    assert naive_pair_cover(system.points, system.blocks)


def test_construct_deterministic():
    a = P.construct(51)
    b = P.construct(51)
    assert a.blocks == b.blocks
    assert a.resolution == b.resolution


def test_trace_names_route():
    system = P.construct(33)
    assert system.trace is not None
    assert system.trace["case"] == "24n+9"


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
    assert [tuple(fn(x) for x in b) for b in src.blocks] == list(moved.blocks)
    from kts3p.designkit import delta_family
    lifted = {fn(d) for d in delta_family(src.group, src.blocks)}
    assert set(delta_family(amb, moved.blocks)) == lifted


def test_quotient_splits_exactly():
    amb = G.GroupDescriptor([G.GAtom(1), G.VAtom(5)])
    model = G.GroupDescriptor([G.VAtom(5)])
    proj, section, kernel = P._quotient(amb, model)
    assert len(kernel.carrier) == 12
    for y in model.element_list:
        assert proj(section(y)) == y
    for k in kernel.carrier:
        assert proj(k) == model.zero


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
}


@pytest.mark.parametrize("v", sorted(GOLDEN_DIGESTS))
def test_construct_output_digest_frozen(v, tmp_path):
    out = tmp_path / f"kts{v}.json"
    assert cli.main(["construct", "--order", str(v), "--trace",
                     "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_DIGESTS[v]

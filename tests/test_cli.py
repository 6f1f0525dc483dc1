import contextlib
import io
import json
import random
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kts3p import cli, pipeline


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_ok_and_deterministic(capsys):
    code1, out1, _ = run(capsys, "construct", "--order", "15")
    code2, out2, _ = run(capsys, "construct", "--order", "15")
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["order"] == 15
    assert len(data["blocks"]) == 35
    assert len(data["resolution"]) == 7
    flat = {p for b in data["blocks"] for p in b}
    assert {"inf1", "inf2", "inf3"} <= flat


def test_construct_trace(capsys):
    code, out, _ = run(capsys, "construct", "--order", "33", "--trace")
    assert code == 0
    data = json.loads(out)
    assert data["trace"]["case"] == "24n+9"


def test_construct_unsupported_order(capsys):
    code, _, err = run(capsys, "construct", "--order", "129")
    assert code == 4
    assert "not covered" in err


def test_construct_unpinned_pair_exits_fast(capsys):
    # 2451 needs an orthomorphism pair over 51 cells, which is not pinned
    t0 = time.perf_counter()
    code, _, err = run(capsys, "construct", "--order", "2451")
    assert code == 4
    assert "51 cells" in err
    assert time.perf_counter() - t0 < 2


def test_construct_wrong_residue(capsys):
    code, _, err = run(capsys, "construct", "--order", "10")
    assert code == 4


def test_verify_roundtrip(tmp_path, capsys):
    path = tmp_path / "s.json"
    code, _, _ = run(capsys, "construct", "--order", "15",
                     "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--input", str(path),
                       "--level", "full")
    assert code == 0
    assert json.loads(out)["ok"]


def test_verify_levels(tmp_path, capsys):
    path = tmp_path / "s.json"
    run(capsys, "construct", "--order", "9", "--out", str(path))
    for level in ("sts", "kts", "pyramidal"):
        code, out, _ = run(capsys, "verify", "--input", str(path),
                           "--level", level)
        assert code == 0, level
        assert json.loads(out)["ok"]


def test_verify_catches_corruption(tmp_path, capsys):
    path = tmp_path / "s.json"
    run(capsys, "construct", "--order", "9", "--out", str(path))
    data = json.loads(path.read_text())
    cls = data["resolution"][0]
    cls[0], cls[1] = cls[1], cls[0]
    data["blocks"] = data["blocks"][:-1] + [data["blocks"][0]]
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--input", str(path))
    assert code == 2
    assert not json.loads(out)["ok"]


def test_verify_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "verify", "--input", str(path))
    assert code == 3
    code, _, err = run(capsys, "verify", "--input", str(tmp_path / "gone"))
    assert code == 3


def test_catalog_list_and_show(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    ids = out.split()
    assert "rdf:G1" in ids and "dm:Z4xZ4" in ids
    code, out, _ = run(capsys, "catalog", "show", "rdf:G1")
    assert code == 0
    assert json.loads(out)["kind"] == "RDF"
    code, _, _ = run(capsys, "catalog", "show", "rdf:nope")
    assert code == 3
    code, _, _ = run(capsys, "catalog", "show")
    assert code == 3


def test_coverage(capsys):
    code, out, _ = run(capsys, "coverage", "--max", "129")
    assert code == 0
    rows = {int(l.split("\t")[0]): l.split("\t") for l in out.strip().splitlines()}
    assert rows[9][2] == "covered"
    assert rows[21][2] == "admissible"
    assert rows[27][2] == "impossible"
    assert rows[129][2] == "admissible"


def _non_string_point(data):
    data["blocks"][5][1] = 7


def _dropped_point(data):
    del data["points"][10]


def _one_point_class_block(data):
    cls = data["resolution"][3]
    cls[2] = cls[2][:1]


def _two_point_block(data):
    data["blocks"][4] = data["blocks"][4][:2]


def _non_string_group_label(data):
    data["group"][0] = 5


@pytest.mark.parametrize("corrupt", [_non_string_point, _dropped_point,
                                     _one_point_class_block, _two_point_block,
                                     _non_string_group_label])
def test_verify_malformed_structure_exits_cleanly(tmp_path, capsys, corrupt):
    path = tmp_path / "s.json"
    run(capsys, "construct", "--order", "39", "--out", str(path))
    data = json.loads(path.read_text())
    corrupt(data)
    path.write_text(json.dumps(data))
    code, _, _ = run(capsys, "verify", "--input", str(path))
    assert code in (2, 3)


def _system15():
    return cli.system_to_json(pipeline.construct(15))


def _verify_data(tmp_path, capsys, data):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--input", str(path))
    return code, (json.loads(out) if out else None)


def test_verify_accepts_reordered_points(tmp_path, capsys):
    # the point list is a label table: its order carries no meaning
    data = _system15()
    random.Random(1).shuffle(data["points"])
    code, report = _verify_data(tmp_path, capsys, data)
    assert code == 0 and report["ok"], report


def test_verify_rejects_relabelled_points(tmp_path, capsys):
    # a consistent relabelling of the group points keeps the design intact
    # but breaks the group action the labels claim
    data = _system15()
    group_points = data["points"][3:]
    shuffled = group_points[:]
    random.Random(2).shuffle(shuffled)
    sigma = dict(zip(group_points, shuffled))

    def relabel(b):
        return [sigma.get(p, p) for p in b]

    data["points"] = relabel(data["points"])
    data["blocks"] = [relabel(b) for b in data["blocks"]]
    data["resolution"] = [[relabel(b) for b in cls]
                          for cls in data["resolution"]]
    code, report = _verify_data(tmp_path, capsys, data)
    assert code == 2
    assert report["sts"]["ok"] and report["resolution"]["ok"]
    assert not report["pyramidal"]["ok"]


def test_verify_rejects_inflated_group_label_fast(tmp_path, capsys):
    # G12 has 5e7 elements; the point count must reject it before any label
    # is parsed against the group
    path = tmp_path / "s.json"
    run(capsys, "construct", "--order", "51", "--out", str(path))
    path.write_text(path.read_text().replace("G2", "G12"))
    t0 = time.perf_counter()
    code, _, err = run(capsys, "verify", "--input", str(path))
    assert code == 3 and "order" in err
    assert time.perf_counter() - t0 < 1.0


def test_verify_rejects_huge_group_label_fast(tmp_path, capsys):
    # building V1000000000000000003 would factorise its order by trial
    # division; the order the labels name is checked before any atom is built
    data = _system15()
    data["group"] = ["V1000000000000000003"]
    t0 = time.perf_counter()
    code, _ = _verify_data(tmp_path, capsys, data)
    assert code == 3
    assert time.perf_counter() - t0 < 1.0


SECTIONS = ("points", "blocks", "resolution")
JUNK = st.one_of(
    st.sampled_from([None, 7, -1, 1.5, True, "", "inf4", "G1:(9,9,9)",
                     "G1:(0,0,0)", "inf1"]),
    st.lists(st.sampled_from(["inf2", "G1:(1,0,1)", 3]), max_size=4),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


def _lists(node):
    """Every list inside a JSON value, the value itself first."""
    if isinstance(node, list):
        yield node
        for x in node:
            yield from _lists(x)


def _mutate(doc, draw):
    """Swap, drop or retype one item of the point, block or class lists, or
    retype a whole section."""
    op = draw(st.sampled_from(("swap", "drop", "retype", "section")))
    if op == "section":
        doc[draw(st.sampled_from(SECTIONS))] = draw(JUNK)
        return
    lists = [lst for key in SECTIONS for lst in _lists(doc[key]) if lst]
    if not lists:
        return
    target = draw(st.sampled_from(lists))
    i = draw(st.integers(0, len(target) - 1))
    if op == "swap":
        j = draw(st.integers(0, len(target) - 1))
        target[i], target[j] = target[j], target[i]
    elif op == "drop":
        del target[i]
    else:
        target[i] = draw(JUNK)


@pytest.fixture(scope="module")
def clean15_text():
    return json.dumps(_system15())


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_verify_fuzzed_file_never_raises(clean15_text, tmp_path, data):
    doc = json.loads(clean15_text)
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(doc, data.draw)
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["verify", "--input", str(path)])
    assert code in (0, 2, 3)


@pytest.mark.parametrize("v", [9, 15, 39, 147, 183])
def test_construct_writes_stock_json_text(v, tmp_path, capsys):
    # construct assembles its text from the id arrays; it must equal the
    # stock encoder's rendering of system_to_json, on stdout and in --out
    system = pipeline.construct(v)
    for trace in (False, True):
        want = json.dumps(cli.system_to_json(system, trace), indent=2,
                          sort_keys=True) + "\n"
        flag = ["--trace"] if trace else []
        code, out, _ = run(capsys, "construct", "--order", str(v), *flag)
        assert code == 0 and out == want, (v, trace)
        path = tmp_path / f"kts{v}-{trace}.json"
        code, _, _ = run(capsys, "construct", "--order", str(v), *flag,
                         "--out", str(path))
        assert code == 0 and path.read_text() == want, (v, trace)


@pytest.mark.parametrize("v", [15, 39, 183])
def test_decode_gives_constructed_arrays(v, tmp_path, capsys):
    path = tmp_path / "s.json"
    run(capsys, "construct", "--order", str(v), "--out", str(path))
    system = pipeline.construct(v)
    back = cli.system_from_json(json.loads(path.read_text()))
    assert back.points == system.points
    assert len(back.resolution) == len(system.resolution)
    for got, want in [(back.blocks, system.blocks),
                      *zip(back.resolution, system.resolution)]:
        assert got.dtype == np.int32 and got.shape == (len(want), 3)
        assert np.array_equal(got, want)


def _decode_error(data):
    with pytest.raises(ValueError, match="malformed system file") as info:
        cli.system_from_json(data)
    return type(info.value.__cause__)


def test_decode_failures_keep_their_cause():
    data = _system15()
    data["blocks"][3] = data["blocks"][3][:1] + ["nowhere"] * 2
    assert _decode_error(data) is KeyError
    data = _system15()
    data["resolution"][2][1] = data["resolution"][2][1] * 2
    assert _decode_error(data) is ValueError
    data = _system15()
    data["blocks"][0] = 7
    assert _decode_error(data) is TypeError


def test_decode_empty_resolution():
    data = _system15()
    data["resolution"] = []
    assert cli.system_from_json(data).resolution == []


def _string_block(data):
    data["blocks"][2] = "abc"


def _list_in_block(data):
    data["resolution"][1][0][2] = [data["resolution"][1][0][2]]


def _resolution_number(data):
    data["resolution"] = 5


def _resolution_empty_mapping(data):
    data["resolution"] = {}


def _empty_class(data):
    data["resolution"][4] = []


@pytest.mark.parametrize("corrupt,want", [
    (_string_block, 3), (_list_in_block, 3), (_resolution_number, 3),
    (_resolution_empty_mapping, 2), (_empty_class, 2)])
def test_verify_malformed_input_exit_code(tmp_path, capsys, corrupt, want):
    data = _system15()
    corrupt(data)
    code, report = _verify_data(tmp_path, capsys, data)
    assert code == want
    assert (report is None) == (want == 3)


@pytest.mark.parametrize("make", [
    lambda clean: "[" * 100_000 + "]" * 100_000,
    lambda clean: clean.replace('"order": 15', '"order": Infinity'),
    lambda clean: clean.replace('"order": 15', '"order": 1e999')],
    ids=["deep-nesting", "order-infinity", "order-1e999"])
def test_verify_unreadable_text_exits_3(clean15_text, tmp_path, capsys, make):
    # nesting past the parser's recursion limit, and an order that is no
    # finite number
    text = make(clean15_text)
    assert text != clean15_text
    path = tmp_path / "s.json"
    path.write_text(text)
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert code == 3 and not out
    assert "cannot read system" in err

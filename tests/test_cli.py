import json

import pytest

from kts3p import cli


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


@pytest.mark.parametrize("corrupt", [_non_string_point, _dropped_point,
                                     _one_point_class_block, _two_point_block])
def test_verify_malformed_structure_exits_cleanly(tmp_path, capsys, corrupt):
    path = tmp_path / "s.json"
    run(capsys, "construct", "--order", "39", "--out", str(path))
    data = json.loads(path.read_text())
    corrupt(data)
    path.write_text(json.dumps(data))
    code, _, _ = run(capsys, "verify", "--input", str(path))
    assert code in (2, 3)

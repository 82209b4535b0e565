"""CLI contract: subcommands, exit codes, and byte-identical reproducibility."""

from __future__ import annotations

import json

import pytest

from graphent.cli import main

from conftest import FIG6_TEXT

C5_TEXT = "5 5\n1 2\n2 3\n3 4\n4 5\n5 1\n"
STAR4_TEXT = "4 3\n1 2\n1 3\n1 4\n"


@pytest.fixture
def fig6_file(tmp_path):
    path = tmp_path / "fig6.txt"
    path.write_text(FIG6_TEXT)
    return str(path)


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.txt"
    path.write_text(C5_TEXT)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_fig6(capsys, fig6_file):
    code, out, _ = run(capsys, ["analyze", fig6_file])
    assert code == 0
    doc = json.loads(out)
    assert doc["measures"] == {"schmidt": 2.0, "ree": 2.0, "geometric": 2.0}
    assert doc["bounds"]["coincide"] is True
    assert [t["sign"] for t in doc["decomposition"]] == [1, 1, 1, -1]
    assert doc["cps"] == "++++00"


def test_analyze_star5(capsys, tmp_path):
    path = tmp_path / "star5.txt"
    path.write_text("5 4\n1 2\n1 3\n1 4\n1 5\n")
    code, out, _ = run(capsys, ["analyze", str(path)])
    assert code == 0
    assert json.loads(out)["measures"]["schmidt"] == 1.0


def test_analyze_non_coinciding_exits_2(capsys, c5_file):
    code, out, _ = run(capsys, ["analyze", c5_file])
    assert code == 2
    doc = json.loads(out)
    assert doc["measures"]["schmidt"] == [2.0, 3.0]
    assert doc["bounds"]["coincide"] is False


def test_analyze_malformed_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\n1 1\n")
    code, out, err = run(capsys, ["analyze", str(path)])
    assert code == 1
    assert "error" in err


def test_analyze_missing_file_exits_1(capsys):
    code, _, err = run(capsys, ["analyze", "/nonexistent/graph.txt"])
    assert code == 1


def test_analyze_disconnected_exits_1(capsys, tmp_path):
    path = tmp_path / "disc.txt"
    path.write_text("4 2\n1 2\n3 4\n")
    code, _, err = run(capsys, ["analyze", str(path)])
    assert code == 1


def test_analyze_oracle_block(capsys, fig6_file):
    code, out, _ = run(capsys, ["analyze", fig6_file, "--oracle"])
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle"]["verified"] is True


def test_analyze_graph6_format(capsys, tmp_path):
    path = tmp_path / "p3.g6"
    path.write_text("Bg\n")
    code, out, _ = run(capsys, ["analyze", str(path), "--format", "graph6"])
    assert code == 0
    assert json.loads(out)["measures"]["schmidt"] == 1.0


def test_analyze_out_file(capsys, fig6_file, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, ["analyze", fig6_file, "--out", str(out_path)])
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["n"] == 6


def test_byte_identical_reruns(capsys, fig6_file):
    _, first, _ = run(capsys, ["analyze", fig6_file, "--oracle"])
    _, second, _ = run(capsys, ["analyze", fig6_file, "--oracle"])
    assert first == second


def test_css_all_fig6(capsys, fig6_file):
    code, out, _ = run(capsys, ["css", fig6_file, "--method", "all"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "equal"
    assert {m["method"] for m in doc["methods"]} == {"stabilizer", "peps", "noise"}


def test_css_single_method(capsys, tmp_path):
    path = tmp_path / "p2.txt"
    path.write_text("2 1\n1 2\n")
    code, out, _ = run(capsys, ["css", str(path), "--method", "peps"])
    assert code == 0
    doc = json.loads(out)
    assert doc["methods"][0]["components"] == ["+0", "-1"]
    assert "verdict" not in doc


def test_css_noise_fig6(capsys, fig6_file):
    code, out, _ = run(capsys, ["css", fig6_file, "--method", "noise"])
    assert code == 0
    comps = json.loads(out)["methods"][0]["components"]
    assert sorted(comps) == sorted(["++++00", "--++01", "++--10", "----11"])


def test_orbit_star4(capsys, tmp_path):
    path = tmp_path / "star4.txt"
    path.write_text(STAR4_TEXT)
    code, out, _ = run(capsys, ["orbit", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["min_matching"] == 1 and doc["min_vertex_cover"] == 1
    assert doc["size"] == 5 and doc["truncated"] is False


def test_orbit_cap_flag(capsys, fig6_file):
    code, out, _ = run(capsys, ["orbit", fig6_file, "--orbit-cap", "3"])
    assert code == 0
    assert json.loads(out)["truncated"] is True


def test_lattice_hexagonal_csv(capsys):
    code, out, _ = run(capsys, ["lattice", "hexagonal", "1..4", "--exact"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,size,n,matching,vertex_cover,gap_exact,gap_formula,difference"
    assert len(lines) == 5
    assert all(line.split(",")[5] == "0" for line in lines[1:])


def test_lattice_triangular_formula_validity(capsys):
    code, _, err = run(capsys, ["lattice", "triangular", "3"])
    assert code == 1
    assert "L > 3" in err


def test_lattice_triangular_exact(capsys):
    code, out, _ = run(capsys, ["lattice", "triangular", "4..5", "--exact"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [r[5] for r in rows] == ["2", "4"]


def test_verify_examples(capsys, tmp_path, fig6_file):
    for name, text in (("p3", "3 2\n1 2\n2 3\n"), ("ring6", "6 6\n1 2\n2 3\n3 4\n4 5\n5 6\n6 1\n")):
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        code, out, _ = run(capsys, ["verify", str(path)])
        assert code == 0, out
        assert json.loads(out)["all_passed"] is True
    code, out, _ = run(capsys, ["verify", fig6_file])
    assert code == 0
    doc = json.loads(out)
    names = {c["name"] for c in doc["checks"]}
    assert "decomposition_reconstructs" in names and "projector_identity" in names

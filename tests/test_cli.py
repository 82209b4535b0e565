"""CLI contract: subcommands, exit codes, and byte-identical reproducibility."""

from __future__ import annotations

import io
import json
import time

import pytest

from graphent.cli import main

from conftest import FIG6_TEXT, complete

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


def test_analyze_truncated_k33_exits_2(capsys, tmp_path):
    # at orbit cap 2 the lower bound is K_{3,3}'s cut rank 2, not the visited matching 3
    path = tmp_path / "k33.txt"
    path.write_text("6 9\n" + "".join(f"{u} {v}\n" for u in (1, 2, 3) for v in (4, 5, 6)))
    code, out, _ = run(capsys, ["analyze", str(path), "--orbit-cap", "2"])
    assert code == 2
    doc = json.loads(out)
    assert doc["bounds"]["truncated"] is True
    assert (doc["bounds"]["lower"], doc["bounds"]["upper"]) == (2, 3)
    assert doc["measures"]["schmidt"] == [2.0, 3.0]


def test_analyze_malformed_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\n1 1\n")
    code, out, err = run(capsys, ["analyze", str(path)])
    assert code == 1
    assert "error" in err


def test_analyze_missing_file_exits_1(capsys):
    code, _, err = run(capsys, ["analyze", "/nonexistent/graph.txt"])
    assert code == 1


def test_analyze_directory_exits_1(capsys, tmp_path):
    code, out, err = run(capsys, ["analyze", str(tmp_path)])
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_usage_error_exits_1(capsys, fig6_file):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", fig6_file, "--orbit-cap", "abc"])
    assert exc.value.code == 1
    assert "invalid int value" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_orbit_cap_below_1_exits_1(capsys, fig6_file, cap):
    for command in ("analyze", "orbit"):
        code, out, err = run(capsys, [command, fig6_file, "--orbit-cap", cap])
        assert code == 1 and out == ""
        assert "orbit cap" in err


def test_css_orbit_cap_is_a_usage_error(capsys, fig6_file):
    # css never enumerates an orbit, so it takes no --orbit-cap
    with pytest.raises(SystemExit) as exc:
        main(["css", fig6_file, "--orbit-cap", "5"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --orbit-cap" in capsys.readouterr().err


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


def test_verify_and_css_k8(capsys, tmp_path):
    # 28 edges: the PEPS assembly builds its 2^|beta| rows, with no edge cap
    edges = complete(8).edges()
    path = tmp_path / "k8.txt"
    path.write_text(f"8 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    code, out, _ = run(capsys, ["verify", str(path)])
    assert code == 0, out
    assert json.loads(out)["all_passed"] is True
    code, out, _ = run(capsys, ["css", str(path), "--method", "all"])
    assert code == 0, out
    assert json.loads(out)["verdict"] == "equal"


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


def test_orbit_truncated_k33_prints_cut_rank(capsys, tmp_path):
    # the visited minimum matching 3 bounds nothing; the cut rank 2 is the sound lower bound
    path = tmp_path / "k33.txt"
    path.write_text("6 9\n" + "".join(f"{u} {v}\n" for u in (1, 2, 3) for v in (4, 5, 6)))
    code, out, _ = run(capsys, ["orbit", str(path), "--orbit-cap", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["truncated"] is True
    assert (doc["cut_rank"], doc["min_matching"]) == (2, 3)


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


def test_lattice_formula_only_past_64_vertices(capsys):
    code, out, _ = run(capsys, ["lattice", "triangular", "4..9"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [r[2] for r in rows] == ["16", "25", "36", "49", "64", "81"]
    assert rows[-1][6] == "14.0" and rows[-1][5] == ""
    code, out, _ = run(capsys, ["lattice", "kagome", "5"])
    assert code == 0 and out.splitlines()[1].startswith("kagome,5,89,")
    # an exact row needs the graph, which is capped at 64 vertices
    code, out, err = run(capsys, ["lattice", "kagome", "5", "--exact"])
    assert code == 1 and out == "" and "89 > 64" in err


def test_lattice_negative_timeout_exits_1(capsys):
    # every patch within the 64-vertex cap solves in milliseconds, so there is no
    # --timeout budget at all: any value is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["lattice", "hexagonal", "1", "--exact", "--timeout", "-1"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --timeout" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["triangular", "kagome", "hexa-triangular", "hexagonal"])
def test_lattice_huge_size_returns_at_once(capsys, kind):
    # the vertex count is a closed form, so no patch is built for a formula row
    start = time.perf_counter()
    code, out, _ = run(capsys, ["lattice", kind, "100000000000"])
    assert code == 0 and out.splitlines()[1].startswith(f"{kind},100000000000,")
    code, out, err = run(capsys, ["lattice", kind, "100000000000", "--exact"])
    assert code == 1 and out == "" and "> 64" in err
    assert time.perf_counter() - start < 1.0


def test_verify_one_vertex(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 0\n"))
    code, out, _ = run(capsys, ["verify", "-"])
    assert code == 0, out
    doc = json.loads(out)
    assert doc["all_passed"] is True
    cut_check = [c for c in doc["checks"] if c["name"] == "cut_rank_equals_entropy"]
    assert cut_check == [{"detail": "0 cuts", "name": "cut_rank_equals_entropy", "passed": True}]
    # the relative entropy of the one-vertex state is 0, not the signed zero -0.0
    ree_check = [c for c in doc["checks"] if c["name"] == "relative_entropy_equals_upper"]
    assert ree_check == [
        {"detail": "ree=0.000000000000 upper=0", "name": "relative_entropy_equals_upper", "passed": True}
    ]


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

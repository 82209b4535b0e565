"""CLI contract: subcommands, exit codes, and byte-identical reproducibility."""

from __future__ import annotations

import dataclasses
import io
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import graphent
from graphent import cli, css_stabilizer_form, dense, max_independent_set, measures, separable
from graphent.cli import _css_errors, main

from conftest import FIG6_TEXT, complete, random_connected, ring, write_graph
from oracles import all_connected_graphs, full_css_errors
from test_graphs import vertex_count_inputs

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
    # fig6 is settled at its own cover, so analyze does no orbit work on it
    for command in ("analyze", "orbit"):
        code, out, err = run(capsys, [command, fig6_file, "--orbit-cap", cap])
        assert code == 1 and out == ""
        assert "orbit cap" in err


def test_css_orbit_cap_is_a_usage_error(capsys, fig6_file):
    # css never enumerates an orbit, and verify takes n <= 10, whose labelled
    # orbits have at most 3^10 = 59,049 members, below the default cap: a cap
    # could only truncate, so neither takes --orbit-cap
    for command in ("css", "verify"):
        with pytest.raises(SystemExit) as exc:
            main([command, fig6_file, "--orbit-cap", "5"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --orbit-cap" in capsys.readouterr().err


def test_dense_commands_refuse_more_than_10_vertices(capsys, tmp_path):
    # verify and the dense CSS routes name the cap in one error line; the
    # stabilizer CSS alone needs no dense matrix and lists its components
    path = write_graph(ring(11), tmp_path / "ring11.txt")
    for argv in (["verify"], ["css", "--method", "all"], ["css", "--method", "peps"], ["css", "--method", "noise"]):
        code, out, err = run(capsys, [argv[0], path, *argv[1:]])
        assert code == 1 and out == "", argv
        assert err.startswith("error:") and err.count("\n") == 1, argv
        assert "limited to n <= 10, got n = 11" in err and "Traceback" not in err, argv
    code, out, _ = run(capsys, ["css", path, "--method", "stabilizer"])
    assert code == 0
    (desc,) = json.loads(out)["methods"]
    assert desc["method"] == "stabilizer" and "group_sum" not in desc


def test_analyze_disconnected_exits_1(capsys, tmp_path):
    path = tmp_path / "disc.txt"
    path.write_text("4 2\n1 2\n3 4\n")
    code, _, err = run(capsys, ["analyze", str(path)])
    assert code == 1


def test_analyze_refuses_a_decomposition_too_large_to_list(capsys, tmp_path):
    # the 64-ring's decomposition would list 2^32 terms
    path = tmp_path / "ring64.txt"
    path.write_text("64 64\n" + "".join(f"{v} {v % 64 + 1}\n" for v in range(1, 65)))
    code, out, err = run(capsys, ["analyze", str(path)])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "2^32" in err
    assert "Traceback" not in err


def test_analyze_oracle_is_a_usage_error(capsys, fig6_file):
    # the dense cross-checks of a report are verify's alone
    with pytest.raises(SystemExit) as exc:
        main(["analyze", fig6_file, "--oracle"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "unrecognized arguments: --oracle" in err and "Traceback" not in err


def test_analyze_graph6_format(capsys, tmp_path):
    path = tmp_path / "p3.g6"
    path.write_text("Bg\n")
    code, out, _ = run(capsys, ["analyze", str(path), "--format", "graph6"])
    assert code == 0
    assert json.loads(out)["measures"]["schmidt"] == 1.0


@pytest.mark.parametrize("n", [0, 65])
def test_analyze_vertex_count_outside_the_cap_exits_1(capsys, tmp_path, n):
    # one error line and no stdout, in both formats; 65 vertices in graph6's
    # long size form with a short body and with the full one
    for i, (text, fmt) in enumerate(vertex_count_inputs(n)):
        path = tmp_path / f"g{i}.txt"
        path.write_text(text + "\n")
        code, out, err = run(capsys, ["analyze", str(path), "--format", fmt])
        assert (code, out, err) == (1, "", f"error: vertex count {n} outside 1..64\n"), text


def test_analyze_out_file(capsys, fig6_file, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, ["analyze", fig6_file, "--out", str(out_path)])
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["n"] == 6


def test_byte_identical_reruns(capsys, fig6_file):
    for command in ("analyze", "verify"):
        _, first, _ = run(capsys, [command, fig6_file])
        _, second, _ = run(capsys, [command, fig6_file])
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


def _corrupt_factor(monkeypatch, construction, corrupt):
    """Make separable's construction ("noise_css" or "peps_css") return its
    factor passed through corrupt."""
    real = getattr(separable, construction)

    def corrupted(*args, **kwargs):
        result = real(*args, **kwargs)
        factor = result.factor.copy()
        corrupt(factor)
        return dataclasses.replace(result, factor=factor)

    monkeypatch.setattr(separable, construction, corrupted)


def test_css_disagreement_exits_3_and_fails_verify(capsys, fig6_file, monkeypatch):
    # a dephasing factor one entry off by 1e-9, so a row and a column of rho
    # are off by 1e-9 / 32: css reports it, verify fails on it alone
    def one_entry_off(factor):
        factor[0, 0] += 1e-9

    _corrupt_factor(monkeypatch, "noise_css", one_entry_off)
    code, out, _ = run(capsys, ["css", fig6_file, "--method", "all"])
    assert code == 3
    doc = json.loads(out)
    assert doc["verdict"] == "unequal"
    assert doc["max_errors"]["noise"] > 1e-12
    code, out, _ = run(capsys, ["verify", fig6_file])
    assert code == 4
    failed = [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]
    assert failed == ["noise_equals_stabilizer"]


def test_nan_in_a_factor_fails_the_css_checks(capsys, tmp_path, monkeypatch):
    # a NaN in the dephasing factor's last column makes rho's last row and
    # column NaN, across the 16 row blocks at n = 10: the error is NaN, and
    # both commands fail on it
    g = random_connected(10, random.Random(31), p=0.3)
    path = write_graph(g, tmp_path / "g10.txt")

    def last_column_nan(factor):
        factor[:, -1] = math.nan

    _corrupt_factor(monkeypatch, "noise_css", last_column_nan)
    code, out, _ = run(capsys, ["css", path, "--method", "all"])
    assert code == 3
    doc = json.loads(out)
    assert doc["verdict"] == "unequal"
    assert math.isnan(doc["max_errors"]["noise"])
    code, out, _ = run(capsys, ["verify", path])
    assert code == 4
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert [name for name, c in checks.items() if not c["passed"]] == ["noise_equals_stabilizer"]
    assert checks["noise_equals_stabilizer"]["detail"] == "max_err=nan"


def test_peps_disagreement_exits_3_and_fails_verify(capsys, fig6_file, monkeypatch):
    # a PEPS factor one entry off by 1e-6: only the PEPS check fails, under
    # its own label, so the checks cannot swap their names unseen
    def one_entry_off(factor):
        factor[0, 0] += 1e-6

    _corrupt_factor(monkeypatch, "peps_css", one_entry_off)
    code, out, _ = run(capsys, ["css", fig6_file, "--method", "all"])
    assert code == 3
    errs = json.loads(out)["max_errors"]
    assert [name for name, err in errs.items() if not err < 1e-12] == ["peps"]
    code, out, _ = run(capsys, ["verify", fig6_file])
    assert code == 4
    failed = [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]
    assert failed == ["peps_equals_stabilizer"]


def _css_inputs(g):
    alpha = max_independent_set(g)
    noise = separable.noise_css(g, alpha)
    return css_stabilizer_form(g, alpha), separable.peps_css(g, alpha), noise


def test_row_block_css_errors_equal_the_full_builds():
    # every connected graph with n <= 5 and seeded graphs with n = 6..10: the
    # row-blocked errors are the errors of the full matrices, bit for bit, and
    # the PEPS divisor is the trace of its full product
    rng = random.Random(31)
    small = [g for n in range(1, 6) for g in all_connected_graphs(n)]
    seeded = [random_connected(n, rng, p) for n in range(6, 11) for p in (0.3, 0.5, 0.8) for _ in range(2)]
    for g in small + seeded:
        group_sum, peps, noise = _css_inputs(g)
        assert peps.divisor == np.trace(peps.factor.T @ peps.factor), g.edges()
        want = full_css_errors(noise.components, group_sum, peps, noise)
        assert _css_errors(group_sum, peps, noise) == want, g.edges()


def test_css_row_blocks_cover_every_row_once(monkeypatch):
    # the mixture, the group sum and both constructions are formed over the
    # same blocks, which tile the rows once, each shorter than 2^n from n = 7
    for g in (ring(7), random_connected(10, random.Random(33))):
        seen = {"gram_rows": [], "pauli_sum_rows": []}
        for name in seen:
            kernel = getattr(dense, name)

            def recording(*args, _kernel=kernel, _seen=seen[name]):
                _seen.append(args[-2:])
                return _kernel(*args)

            monkeypatch.setattr(dense, name, recording)
        _css_errors(*_css_inputs(g))
        monkeypatch.undo()
        blocks = seen["pauli_sum_rows"]
        assert seen["gram_rows"] == [b for b in blocks for _ in range(3)]
        assert [start for start, _ in blocks] == [0] + [stop for _, stop in blocks[:-1]]
        assert blocks[-1][1] == 1 << g.n
        assert all(stop - start < 1 << g.n for start, stop in blocks)


def test_css_and_verify_form_no_full_matrix_from_n_7(tmp_path):
    # at n = 10 one 2^n x 2^n float64 matrix takes 8 MiB; both commands stay
    # below that in all, so none is allocated
    rng = random.Random(32)
    full = 8 << (2 * 10)
    for g in (ring(10), random_connected(10, rng, p=0.3), random_connected(10, rng, p=0.5)):
        path = write_graph(g, tmp_path / "g.txt")
        for argv in (["css", path, "--method", "all"], ["verify", path]):
            tracemalloc.start()
            try:
                assert main(argv + ["--out", str(tmp_path / "out.json")]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < full, (argv[0], g.edges(), peak)


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


@pytest.mark.parametrize("spec", ["4..6,", "1..x"])
def test_lattice_malformed_size_part(capsys, spec):
    # a part that is neither an integer nor a..b is a bad specification, not an int() message
    code, out, err = run(capsys, ["lattice", "hexagonal", spec])
    assert (code, out, err) == (1, "", f"error: bad size specification {spec!r}\n")


def test_lattice_huge_range_checked_unexpanded(capsys):
    # the range is never expanded into a size list and nothing is printed
    # before the first size past the 64-vertex cap, which is reported at once
    # however far the range goes
    code, out, small_err = run(capsys, ["lattice", "triangular", "1..20", "--exact"])
    assert code == 1 and out == "" and "size 9 yields 81 > 64" in small_err
    start = time.perf_counter()
    code, out, err = run(capsys, ["lattice", "triangular", "1..99999999999", "--exact"])
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (1, "", small_err)


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


def test_verify_checks_the_shipped_decomposition(capsys, tmp_path, monkeypatch):
    # K4's decomposition is built on the star at the end of its lc_path (2,)
    path = tmp_path / "k4.txt"
    path.write_text("4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
    code, out, _ = run(capsys, ["verify", str(path)])
    assert code == 0 and json.loads(out)["all_passed"] is True
    real = measures.evaluate

    def one_sign_flipped(*args, **kwargs):
        report = real(*args, **kwargs)
        assert report.lc_path == (2,) and len(report.decomposition.terms) == 2
        (sign, state), *rest = report.decomposition.terms
        decomp = dataclasses.replace(report.decomposition, terms=((-sign, state), *rest))
        return dataclasses.replace(report, decomposition=decomp)

    monkeypatch.setattr(measures, "evaluate", one_sign_flipped)
    code, out, _ = run(capsys, ["verify", str(path)])
    assert code == 4
    failed = [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]
    assert failed == ["decomposition_reconstructs"]


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


def test_verify_checks_the_decomposition_of_g_itself(capsys, fig6_file, monkeypatch):
    # fig6 is settled at its own cover: its decomposition is checked against its own statevector
    real = measures.evaluate

    def one_sign_flipped(*args, **kwargs):
        report = real(*args, **kwargs)
        assert report.lc_path == ()
        (sign, state), *rest = report.decomposition.terms
        decomp = dataclasses.replace(report.decomposition, terms=((-sign, state), *rest))
        return dataclasses.replace(report, decomposition=decomp)

    monkeypatch.setattr(measures, "evaluate", one_sign_flipped)
    code, out, _ = run(capsys, ["verify", fig6_file])
    assert code == 4
    failed = [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]
    assert failed == ["decomposition_reconstructs"]


def _verify_failures(capsys, path):
    """verify's exit code and the (name, detail) of each check that failed."""
    code, out, _ = run(capsys, ["verify", path])
    return code, [(c["name"], c["detail"]) for c in json.loads(out)["checks"] if not c["passed"]]


def _patch_report(monkeypatch, corrupt):
    """Make measures.evaluate return its report passed through corrupt."""
    real = measures.evaluate
    monkeypatch.setattr(measures, "evaluate", lambda *args, **kwargs: corrupt(real(*args, **kwargs)))


def test_verify_checks_the_shipped_css(capsys, fig6_file, monkeypatch):
    # the CSS list repeats its first component: |G> leaves the mixture's
    # support and the relative entropy is infinite
    def repeated(report):
        first, *rest = report.css.components
        css = dataclasses.replace(report.css, components=(first, first, *rest[1:]))
        return dataclasses.replace(report, css=css)

    _patch_report(monkeypatch, repeated)
    assert _verify_failures(capsys, fig6_file) == (4, [("relative_entropy_equals_upper", "ree=inf upper=2")])


def test_verify_checks_the_shipped_cps(capsys, fig6_file, monkeypatch):
    # |<000000|G>|^2 = 2^-6, not 2^-upper = 1/4
    _patch_report(monkeypatch, lambda report: dataclasses.replace(report, cps="0" * report.graph.n))
    assert _verify_failures(capsys, fig6_file) == (4, [("cps_overlap_certificate", "overlap2=0.015625000000")])


def test_verify_checks_the_cut_ranks(capsys, fig6_file, monkeypatch):
    real = cli.cut_rank
    monkeypatch.setattr(cli, "cut_rank", lambda g, cut: real(g, cut) + 1)
    assert _verify_failures(capsys, fig6_file) == (
        4, [("cut_rank_equals_entropy", "cut=[1] rank=2 entropy=1.000000000")]
    )


# analyze, orbit and lattice, then verify, in one fresh interpreter: only
# the dense oracle may load numpy
NO_NUMPY_SCRIPT = """
import sys
from graphent.cli import main

graph, out = sys.argv[1:]
loaded = "numpy" in sys.modules
codes = [main(argv + ["--out", out]) for argv in (["analyze", graph], ["orbit", graph], ["lattice", "hexagonal", "1..3"])]
loaded = loaded or "numpy" in sys.modules
codes.append(main(["verify", graph, "--out", out]))
print(codes, loaded, "numpy" in sys.modules)
"""


def test_analyze_orbit_and_lattice_do_not_import_numpy(fig6_file, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(graphent.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_SCRIPT, fig6_file, str(tmp_path / "out.txt")],
        env=env, capture_output=True, text=True, check=True,
    )
    assert proc.stdout.split("\n")[0] == "[0, 0, 0, 0] False True"


def test_dense_names_are_imported_on_first_use():
    for name in ("dense", "separable", "noise_css", "peps_css"):
        assert name in graphent.__all__
        assert getattr(graphent, name) is not None
    assert graphent.noise_css is separable.noise_css
    assert graphent.dense.statevector
    with pytest.raises(AttributeError, match="no_such_name"):
        graphent.no_such_name


def test_stdout_is_the_same_under_every_hash_seed(fig6_file, tmp_path):
    # identical bytes for identical input, whatever hash seed the interpreter draws
    g9 = write_graph(random_connected(9, random.Random(1)), tmp_path / "g9.txt")  # nonempty lc_path
    ring9 = write_graph(ring(9), tmp_path / "ring9.txt")
    commands = (
        ["analyze", g9],
        ["orbit", ring9],
        ["css", fig6_file, "--method", "all"],
        ["lattice", "kagome", "1..3", "--exact"],
    )
    src = str(Path(graphent.__file__).resolve().parents[1])
    for argv in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "graphent.cli", *argv],
                env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
                capture_output=True, text=True,
            )
            for seed in ("0", "1")
        ]
        assert runs[0].stdout and runs[0].returncode in (0, 2), (argv, runs[0].stderr)
        assert (runs[0].returncode, runs[0].stdout) == (runs[1].returncode, runs[1].stdout), argv

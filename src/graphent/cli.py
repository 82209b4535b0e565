"""Command-line frontend: scriptable JSON/CSV reports over the library.

Exit codes: 0 success; 1 input error (malformed graph, unreadable path, bad
option value or command-line usage); 2 bounds do not coincide (analyze; the
interval report is still emitted); 3 CSS construction disagreement; 4 verify
failures.  Identical arguments yield byte-identical output; --seed (verify
only) picks the random cuts of the cut-rank check.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import dense, measures, separable
from .graphs import (
    DEFAULT_ORBIT_CAP,
    Graph,
    GraphFormatError,
    cut_rank,
    lc_orbit,
    local_complement,
    max_independent_set,
    parse_graph,
)
from .lattices import KINDS, gap_scan
from .pauli import generators_from_graph, group_elements

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BOUNDS_OPEN = 2
EXIT_CSS_MISMATCH = 3
EXIT_VERIFY_FAILED = 4

DENSE_TOL = 1e-12
REE_TOL = 1e-9


def _load_graph(args: argparse.Namespace) -> Graph:
    if args.graph == "-":
        text = sys.stdin.read()
    else:
        with open(args.graph, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_graph(text, fmt=args.fmt)


def _emit(args: argparse.Namespace, payload: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def cmd_analyze(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    report = measures.evaluate(g, orbit_cap=args.orbit_cap)
    doc = report.to_dict()
    if args.oracle:
        doc["oracle"] = _oracle_block(g, report)
    _emit(args, _json(doc))
    return EXIT_OK if report.bounds.coincide else EXIT_BOUNDS_OPEN


def _oracle_block(g: Graph, report) -> dict:
    if g.n > dense.DENSE_OP_CAP:
        return {"skipped": f"dense oracle limited to n <= {dense.DENSE_OP_CAP}"}
    psi = dense.statevector(g)
    ree = dense.mixture_relative_entropy(psi, report.css.components)
    base = g
    for a in report.lc_path:  # the decomposition belongs to the lc_path target
        base = local_complement(base, a)
    rec_err = _reconstruction_error(report.decomposition, dense.statevector(base))
    cps_overlap = dense.overlap2(psi, report.cps)
    upper = report.bounds.upper
    verified = (
        abs(ree - upper) < REE_TOL
        and rec_err < DENSE_TOL
        and abs(cps_overlap - 2.0**-upper) < DENSE_TOL
    )
    return {
        "ree": ree,
        "reconstruction_max_err": rec_err,
        "cps_overlap2": cps_overlap,
        "verified": bool(verified),
    }


def _reconstruction_error(decomp, psi: np.ndarray) -> float:
    """Largest entrywise distance of the signed decomposition sum from psi."""
    vecs = dense._product_vectors([state for _, state in decomp.terms])
    rec = sum(sign * decomp.normalization * vec for (sign, _), vec in zip(decomp.terms, vecs))
    return float(np.abs(rec - psi).max())


def _css_errors(basis, group_sum, peps: np.ndarray, noise: np.ndarray) -> dict[str, float]:
    """Largest entrywise distance of each independent CSS construction (the
    group sum, the PEPS assembly, dephasing) from the uniform mixture over basis."""
    mixture = dense.mixture_density(basis)
    eq6 = sum(dense.pauli_dense(p) for p in group_sum.elements) * group_sum.scale
    return {
        "stabilizer_sum": float(np.abs(eq6 - mixture).max()),
        "peps": float(np.abs(peps - mixture).max()),
        "noise": float(np.abs(noise - mixture).max()),
    }


def cmd_css(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    alpha = max_independent_set(g)
    methods = ("stabilizer", "peps", "noise") if args.method == "all" else (args.method,)
    built = {}
    descriptions = []
    for method in methods:
        if method == "stabilizer":
            res = measures.closest_separable_state(g, alpha)
        elif method == "peps":
            res = separable.peps_css(g, alpha)
        else:
            res = separable.noise_css(g, beta=frozenset(range(1, g.n + 1)) - alpha)
        built[method] = res
        desc = {"method": method, "components": list(res.components), "weight": res.weight}
        if method == "stabilizer" and g.n <= dense.DENSE_OP_CAP:
            built["group_sum"] = form = measures.css_stabilizer_form(g, alpha)
            desc["group_sum"] = {"elements": [p.text() for p in form.elements], "scale": form.scale}
        descriptions.append(desc)
    doc: dict = {"n": g.n, "methods": descriptions}
    exit_code = EXIT_OK
    if args.method == "all":  # peps_css refuses n > DENSE_OP_CAP, so the group sum exists
        errs = _css_errors(
            built["stabilizer"].components, built["group_sum"], built["peps"].dense, built["noise"].dense
        )
        equal = all(v < DENSE_TOL for v in errs.values())
        doc["verdict"] = "equal" if equal else "unequal"
        doc["max_errors"] = errs
        exit_code = EXIT_OK if equal else EXIT_CSS_MISMATCH
    _emit(args, _json(doc))
    return exit_code


def cmd_orbit(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    summary = lc_orbit(g, cap=args.orbit_cap)
    doc = {
        "n": g.n,
        "size": summary.size,
        "min_matching": summary.min_matching,
        "min_vertex_cover": summary.min_vertex_cover,
        "truncated": summary.truncated,
        "cut_rank": summary.cut_rank,
        "representative": {
            "edges": [list(e) for e in summary.representative.edges()],
        },
        "lc_path": list(summary.lc_path),
    }
    _emit(args, _json(doc))
    return EXIT_OK


def cmd_lattice(args: argparse.Namespace) -> int:
    sizes = _parse_sizes(args.sizes)
    if args.kind == "triangular" and not args.exact and any(s <= 3 for s in sizes):
        # formula-only triangular runs need L > 3
        raise GraphFormatError("triangular gap formula is valid for L > 3 only")
    rows = gap_scan(args.kind, sizes, exact=args.exact)
    lines = ["kind,size,n,matching,vertex_cover,gap_exact,gap_formula,difference"]
    for r in rows:
        matching = "" if r.matching is None else str(r.matching)
        cover = "" if r.vertex_cover is None else str(r.vertex_cover)
        exact_gap = "" if r.gap_exact is None else str(r.gap_exact)
        diff = ""
        if r.gap_exact is not None and r.gap_formula is not None:
            diff = repr(r.gap_exact - r.gap_formula)
        formula = "" if r.gap_formula is None else repr(r.gap_formula)
        lines.append(
            f"{r.kind},{r.size},{r.n},{matching},{cover},{exact_gap},{formula},{diff}"
        )
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    if g.n > dense.DENSE_OP_CAP:
        raise GraphFormatError(f"verify needs n <= {dense.DENSE_OP_CAP}")
    report = measures.evaluate(g, orbit_cap=args.orbit_cap)
    checks = run_verification(g, report, seed=args.seed)
    doc = {
        "n": g.n,
        "measures": report.to_dict()["measures"],
        "maximally_entangled": report.maximally_entangled,
        "checks": [
            {"name": name, "passed": passed, "detail": detail}
            for name, passed, detail in checks
        ],
        "all_passed": all(passed for _, passed, _ in checks),
    }
    _emit(args, _json(doc))
    return EXIT_OK if doc["all_passed"] else EXIT_VERIFY_FAILED


def run_verification(g: Graph, report, seed: int = 0):
    """Oracle cross-checks of g's evaluate report; returns (name, passed, detail) triples.

    g's own basis is built once, by minimal_decomposition, and checked against
    the independent constructions: the dense statevector, the group sum, the
    PEPS assembly and dephasing.
    """
    import random

    checks: list[tuple[str, bool, str]] = []
    psi = dense.statevector(g)
    alpha = max_independent_set(g)

    fix_err = 0.0
    for gen in generators_from_graph(g).generators:
        fix_err = max(fix_err, float(np.abs(dense.pauli_dense(gen) @ psi - psi).max()))
    checks.append(("generators_fix_statevector", fix_err < DENSE_TOL, f"max_err={fix_err:.3e}"))

    own = measures.minimal_decomposition(g, alpha)
    rec_err = _reconstruction_error(own, psi)
    checks.append(("decomposition_reconstructs", rec_err < DENSE_TOL, f"max_err={rec_err:.3e}"))

    ree = dense.mixture_relative_entropy(psi, report.css.components)
    ree_err = abs(ree - report.bounds.upper)
    checks.append(
        ("relative_entropy_equals_upper", ree_err < REE_TOL, f"ree={ree:.12f} upper={report.bounds.upper}")
    )

    errs = _css_errors(
        [state for _, state in own.terms],
        measures.css_stabilizer_form(g, alpha),
        separable.peps_css(g, alpha).dense,
        separable.noise_css(g, frozenset(range(1, g.n + 1)) - alpha).dense,
    )
    names = ("group_sum_equals_mixture", "peps_equals_stabilizer", "noise_equals_stabilizer")
    for name, err in zip(names, errs.values()):
        checks.append((name, err < DENSE_TOL, f"max_err={err:.3e}"))

    cps_overlap = dense.overlap2(psi, report.cps)
    cps_err = abs(cps_overlap - 2.0 ** -report.bounds.upper)
    checks.append(("cps_overlap_certificate", cps_err < DENSE_TOL, f"overlap2={cps_overlap:.12f}"))

    rng = random.Random(seed)
    cut_ok = True
    detail = ""
    cuts = []
    if g.n > 1:  # a one-vertex graph has no proper cut
        cuts = [[a] for a in range(1, g.n + 1)]
        for _ in range(3):
            size = rng.randrange(1, g.n)
            cuts.append(sorted(rng.sample(range(1, g.n + 1), size)))
    for cut in cuts:
        want = cut_rank(g, cut)
        got = dense.reduced_entropy(psi, cut, g.n)
        if abs(got - want) > REE_TOL:
            cut_ok = False
            detail = f"cut={cut} rank={want} entropy={got:.9f}"
            break
    checks.append(("cut_rank_equals_entropy", cut_ok, detail or f"{len(cuts)} cuts"))

    if g.n <= 6:
        full = generators_from_graph(g)
        proj = sum(dense.pauli_dense(p) for p in group_elements(full)) / (1 << g.n)
        proj_err = float(np.abs(proj - np.outer(psi, psi.conj())).max())
        checks.append(("projector_identity", proj_err < DENSE_TOL, f"max_err={proj_err:.3e}"))

    return checks


def _parse_sizes(spec: str) -> tuple[int, ...]:
    out: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..", 1)
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    if not out or any(s < 1 for s in out):
        raise ValueError(f"bad size specification {spec!r}")
    return tuple(out)


class _Parser(argparse.ArgumentParser):
    """argparse, with usage errors ending in the input-error exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="graphent",
        description="Direct evaluation of pure graph state entanglement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_opts(p, orbit_cap=True):
        p.add_argument("graph", help="path to a graph file, or '-' for stdin")
        p.add_argument("--format", dest="fmt", choices=["edgelist", "graph6"], default="edgelist")
        if orbit_cap:
            p.add_argument("--orbit-cap", type=int, default=DEFAULT_ORBIT_CAP)
        p.add_argument("--out", default=None)

    p = sub.add_parser("analyze", help="full entanglement report (JSON)")
    add_graph_opts(p)
    p.add_argument("--oracle", action="store_true", help="attach dense oracle checks (n <= 10)")
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("css", help="closest separable state constructions (JSON)")
    add_graph_opts(p, orbit_cap=False)
    p.add_argument("--method", choices=["stabilizer", "peps", "noise", "all"], default="all")
    p.set_defaults(handler=cmd_css)

    p = sub.add_parser("orbit", help="LC orbit summary (JSON)")
    add_graph_opts(p)
    p.set_defaults(handler=cmd_orbit)

    p = sub.add_parser("lattice", help="lattice gap table (CSV)")
    p.add_argument("kind", choices=list(KINDS))
    p.add_argument("sizes", help="e.g. '1..4' or '2,4,6'")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_lattice)

    p = sub.add_parser("verify", help="oracle cross-check suite for one graph")
    add_graph_opts(p)
    p.add_argument("--seed", type=int, default=0, help="seed of the random cuts in the cut-rank check")
    p.set_defaults(handler=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (GraphFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

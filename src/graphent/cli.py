"""Command-line frontend: scriptable JSON/CSV reports over the library.

Exit codes: 0 success; 1 input error (malformed graph, unreadable path, bad
option value or command-line usage); 2 bounds do not coincide (analyze; the
interval report is still emitted); 3 CSS construction disagreement; 4 verify
failures.  Identical arguments yield byte-identical output.

numpy is imported only by the dense oracle: verify and css import it (with
dense and separable) when they run, so analyze, orbit and lattice never
load it.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys

from . import measures
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
    _emit(args, _json(report.to_dict()))
    return EXIT_OK if report.bounds.coincide else EXIT_BOUNDS_OPEN


def _reconstruction_error(g: Graph, report, psi) -> float:
    """Largest entrywise distance of the signed sum that report ships as its
    decomposition from the state it belongs to: that of the graph reached
    from g along lc_path, which is psi, g's statevector, when the path is
    empty."""
    import numpy as np

    from . import dense

    target = psi
    if report.lc_path:
        base = g
        for a in report.lc_path:
            base = local_complement(base, a)
        target = dense.statevector(base)
    decomp = report.decomposition
    vecs = dense._product_vectors([state for _, state in decomp.terms])
    rec = sum(sign * decomp.normalization * vec for (sign, _), vec in zip(decomp.terms, vecs))
    return float(np.abs(rec - target).max())


def _css_errors(basis, group_sum, peps, noise) -> dict[str, float]:
    """Largest entrywise distance of each independent CSS construction (the
    group sum, the PEPS assembly, dephasing) from the uniform mixture over basis.

    Walks dense.ROW_BLOCK rows at a time: for each block it forms the
    mixture's rows, the group sum's rows and each construction's rows from
    the factor rows that are nonzero on the block (dense.gram_rows), and
    their distances, while the block is in cache, so no
    2^n x 2^n array exists from n = 7 on.  Every entry is the one the full
    matrices give (see dense).  The block maxima are reduced with np.max,
    which keeps a NaN.
    """
    import numpy as np

    from . import dense

    mixture = dense.mixture_factor(basis)
    terms = dense.pauli_terms(group_sum.elements)

    def constructions(start, stop):  # one block of rows at a time, formed when asked for
        rows = dense.pauli_sum_rows(terms, start, stop)
        rows *= group_sum.scale
        yield "stabilizer_sum", rows
        for name, construction in (("peps", peps), ("noise", noise)):
            rows = dense.gram_rows(construction.factor, construction.factor, start, stop)
            rows /= construction.divisor
            yield name, rows

    maxima: dict[str, list] = {"stabilizer_sum": [], "peps": [], "noise": []}
    dim = mixture.shape[1]
    for start in range(0, dim, dense.ROW_BLOCK):
        stop = min(start + dense.ROW_BLOCK, dim)
        mix = dense.gram_rows(mixture, mixture, start, stop)
        for name, rows in constructions(start, stop):
            np.subtract(rows, mix, out=rows)
            maxima[name].append(np.abs(rows, out=rows).max())
    return {name: float(np.max(values)) for name, values in maxima.items()}


def cmd_css(args: argparse.Namespace) -> int:
    from . import dense, separable

    g = _load_graph(args)
    alpha = max_independent_set(g)
    methods = ("stabilizer", "peps", "noise") if args.method == "all" else (args.method,)
    built = {}
    if "noise" in methods:  # its components are the stabilizer CSS's: one basis serves both
        built["noise"] = separable.noise_css(g, alpha)
    descriptions = []
    for method in methods:
        if method == "stabilizer":
            res = built.get("noise") or measures.closest_separable_state(g, alpha)
        elif method == "peps":
            res = separable.peps_css(g, alpha)
        else:
            res = built["noise"]
        built[method] = res
        desc = {"method": method, "components": list(res.components), "weight": res.weight}
        if method == "stabilizer" and g.n <= dense.DENSE_OP_CAP:
            built["group_sum"] = form = measures.css_stabilizer_form(g, alpha)
            desc["group_sum"] = {"elements": [p.text() for p in form.elements], "scale": form.scale}
        descriptions.append(desc)
    doc: dict = {"n": g.n, "methods": descriptions}
    exit_code = EXIT_OK
    if args.method == "all":  # peps_css refuses n > DENSE_OP_CAP, so the group sum exists
        errs = _css_errors(built["stabilizer"].components, built["group_sum"], built["peps"], built["noise"])
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
    ranges = _parse_sizes(args.sizes)
    if args.kind == "triangular" and not args.exact and any(r.start <= 3 for r in ranges):
        # formula-only triangular runs need L > 3
        raise GraphFormatError("triangular gap formula is valid for L > 3 only")
    rows = gap_scan(args.kind, itertools.chain.from_iterable(ranges), exact=args.exact)
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
    from . import dense

    g = _load_graph(args)
    if g.n > dense.DENSE_OP_CAP:
        raise GraphFormatError(f"verify needs n <= {dense.DENSE_OP_CAP}")
    report = measures.evaluate(g, orbit_cap=args.orbit_cap)
    checks = run_verification(g, report)
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


def run_verification(g: Graph, report):
    """Oracle cross-checks of g's evaluate report; returns (name, passed, detail) triples.

    The decomposition the report ships is checked against the dense
    statevector of the graph it belongs to (g, or the graph reached along
    lc_path), and g's own CSS basis against the independent constructions:
    the group sum, the PEPS assembly and dephasing.
    """
    import random

    import numpy as np

    from . import dense, separable

    checks: list[tuple[str, bool, str]] = []
    psi = dense.statevector(g)
    alpha = max_independent_set(g)

    fix_err = 0.0
    for gen in generators_from_graph(g):
        fix_err = max(fix_err, float(np.abs(dense.apply_pauli(gen, psi) - psi).max()))
    checks.append(("generators_fix_statevector", fix_err < DENSE_TOL, f"max_err={fix_err:.3e}"))

    rec_err = _reconstruction_error(g, report, psi)
    checks.append(("decomposition_reconstructs", rec_err < DENSE_TOL, f"max_err={rec_err:.3e}"))

    upper = report.bounds.upper
    ree = dense.mixture_relative_entropy(psi, report.css.components)
    checks.append(("relative_entropy_equals_upper", abs(ree - upper) < REE_TOL,
                   f"ree={ree:.12f} upper={upper}"))

    noise = separable.noise_css(g, alpha)
    errs = _css_errors(  # noise's components are g's own stabilizer CSS
        noise.components,
        measures.css_stabilizer_form(g, alpha),
        separable.peps_css(g, alpha),
        noise,
    )
    for name, key in (
        ("group_sum_equals_mixture", "stabilizer_sum"),
        ("peps_equals_stabilizer", "peps"),
        ("noise_equals_stabilizer", "noise"),
    ):
        checks.append((name, errs[key] < DENSE_TOL, f"max_err={errs[key]:.3e}"))

    cps_overlap = dense.overlap2(psi, report.cps)
    checks.append(("cps_overlap_certificate", abs(cps_overlap - 2.0**-upper) < DENSE_TOL,
                   f"overlap2={cps_overlap:.12f}"))

    rng = random.Random(0)
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
        got = dense.reduced_entropy(psi, cut)
        if abs(got - want) > REE_TOL:
            cut_ok = False
            detail = f"cut={cut} rank={want} entropy={got:.9f}"
            break
    checks.append(("cut_rank_equals_entropy", cut_ok, detail or f"{len(cuts)} cuts"))

    if g.n <= 6:
        proj = dense.pauli_sum(group_elements(g.n, generators_from_graph(g))) / (1 << g.n)
        proj_err = float(np.abs(proj - np.outer(psi, psi.conj())).max())
        checks.append(("projector_identity", proj_err < DENSE_TOL, f"max_err={proj_err:.3e}"))

    return checks


def _parse_sizes(spec: str) -> tuple[range, ...]:
    """One unexpanded range per comma-separated part (n or a..b); empty ranges are dropped."""
    ranges = []
    try:
        for part in spec.split(","):
            lo, dots, hi = part.strip().partition("..")
            ranges.append(range(int(lo), int(hi if dots else lo) + 1))
    except ValueError:  # a part that is neither an integer nor a..b
        ranges = []
    ranges = [r for r in ranges if r]
    if not ranges or any(r.start < 1 for r in ranges):
        raise ValueError(f"bad size specification {spec!r}")
    return tuple(ranges)


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

"""The three workloads: seeded rounds of checked ops.

An op is one timed call into the library's public entry points plus a check
of its output, run after the clock stops.  A round is a fixed list of ops;
the structure of its random graphs depends on the round index and the seed
relabels them (see corpus.round_rngs).  A run does a fixed number of rounds,
so every commit does the same work.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

from checks import independence_failures, max_cut_rank
from corpus import (
    complete,
    edgelist_text,
    fig6,
    gnm,
    gnp,
    is_connected,
    k33,
    relabel,
    ring,
    round_rngs,
    star,
)


class Op:
    """`run()` is timed; `check(result)` returns a list of problems, empty if none."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


class Context:
    """What the ops of one run share: the library, a scratch directory, and
    the first output of every CLI input, to show repeated runs are identical."""

    def __init__(self, lib, workdir: Path):
        self.lib = lib
        self.workdir = workdir
        self.first_output: dict = {}
        self.files = 0

    def graph_file(self, graph) -> tuple[str, str]:
        self.files += 1
        path = self.workdir / f"g{self.files}.txt"
        path.write_text(edgelist_text(graph), encoding="utf-8")
        return str(path), str(path) + ".out"

    def read_output(self, key, out_path: str) -> tuple[bytes, list[str]]:
        data = Path(out_path).read_bytes()
        first = self.first_output.setdefault(key, data)
        return data, [] if first == data else ["output differs from an earlier run of the same input"]


def _describe(name: str, graph) -> str:
    n, edges = graph
    return f"{name} n={n} edges={[list(e) for e in edges]}"


# ---------------------------------------------------------------------------
# analyze: `graphent analyze` in-process


ANALYZE_CAP = 5000  # orbit cap of the cap-hitting graphs (see README)


def analyze_round(seed: int, r: int, ctx: Context) -> list[Op]:
    shape, rng = round_rngs("analyze", seed, r)
    # the named families keep their usual labels; the seed relabels the random graphs
    items = [
        ("fig6", fig6(), None), ("star6", star(6), None), ("star9", star(9), None),
        ("K5", complete(5), None), ("K8", complete(8), None), ("K33", k33(), None),
        ("ring8", ring(8), None), ("ring9", ring(9), None), ("ring10", ring(10), None),
    ]
    # Many small graphs, as in a survey of all small graphs: the median op falls
    # among them, in a band of near-equal costs, which keeps the median steady.
    items += [(f"gnp5.{i}", relabel(gnp(5, 0.5, shape), rng), None) for i in range(48)]
    items += [(f"gnp8.{i}", relabel(gnp(8, 0.5, shape), rng), None) for i in range(8)]
    items += [(f"gnp9.{i}", relabel(gnp(9, 0.5, shape), rng), None) for i in range(5)]
    items += [("gnp10", relabel(gnp(10, 0.5, shape), rng), None)]
    items += [("ring12", ring(12), ANALYZE_CAP)]
    items += [(f"gnp{n}", relabel(gnp(n, 0.5, shape), rng), ANALYZE_CAP) for n in (13, 14)]
    items += [("fig6 again", fig6(), None)]  # every round processes one graph twice
    return [_analyze_op(ctx, name, graph, cap) for name, graph, cap in items]


def _analyze_op(ctx: Context, name: str, graph, cap) -> Op:
    path, out = ctx.graph_file(graph)
    argv = ["analyze", path, "--out", out] + ([] if cap is None else ["--orbit-cap", str(cap)])
    cli = ctx.lib.cli  # looked up per call, so that traced runs see the wrappers

    def check(rc):
        data, problems = ctx.read_output(("analyze", graph, cap), out)
        return problems + _analyze_problems(graph, rc, json.loads(data))

    return Op(_describe(name, graph), lambda: cli.main(argv), check)


def _analyze_problems(graph, rc, doc) -> list[str]:
    n, edges = graph
    b = doc["bounds"]
    lower, upper, coincide = b["lower"], b["upper"], b["coincide"]
    rank = max_cut_rank(n, edges)
    out = []
    if rc != (0 if coincide else 2):
        out.append(f"exit code {rc} with coincide={coincide}")
    if doc["graph"]["edges"] != [list(e) for e in edges]:
        out.append("report is about another graph")
    if lower > upper:
        out.append(f"lower {lower} > upper {upper}")
    if upper < rank:
        out.append(f"upper {upper} below the maximum cut rank {rank}")
    if coincide and b["truncated"] and upper != rank:
        out.append(f"point value {upper} not proved: orbit truncated and the maximum cut rank is {rank}")
    want = float(upper) if coincide else [float(lower), float(upper)]
    if any(doc["measures"][m] != want for m in ("schmidt", "ree", "geometric")):
        out.append(f"measures {doc['measures']} do not match the bounds")
    size = 1 << upper
    if len(doc["decomposition"]) != size:
        out.append(f"decomposition has {len(doc['decomposition'])} terms, expected {size}")
    css = doc["css"]
    if len(css["components"]) != size or not math.isclose(css["weight"], 1.0 / size, rel_tol=1e-12):
        out.append(f"css has {len(css['components'])} components of weight {css['weight']}, expected {size}")
    if not css["components"] or doc["cps"] != css["components"][0]:
        out.append("cps is not the first css component")
    return out


# ---------------------------------------------------------------------------
# oracle: `graphent verify`, `graphent css --method all`, product-overlap search


# as criterion 10 of the acceptance suite runs the search
OVERLAP_RESTARTS = 200
OVERLAP_ITERATIONS = 60
OVERLAP_SEED = 11


def oracle_round(seed: int, r: int, ctx: Context) -> list[Op]:
    shape, rng = round_rngs("oracle", seed, r)
    ops = []
    # 2n edges keeps every graph within the 24-edge cap of the projected-pairs CSS route
    for n, count in ((7, 2), (8, 2), (9, 2), (10, 1)):
        for i in range(count):
            graph = relabel(gnm(n, 2 * n, shape), rng)
            ops.append(_cli_oracle_op(ctx, f"verify gnm{n}.{i}", graph, ["verify"]))
            ops.append(_cli_oracle_op(ctx, f"css gnm{n}.{i}", graph, ["css", "--method", "all"]))
    for n in (4, 5, 6, 7):
        graph = relabel(gnp(n, 0.5, shape), rng)
        ops.append(_overlap_op(ctx, f"overlap gnp{n}", graph))
    return ops


def _cli_oracle_op(ctx: Context, name: str, graph, command: list[str]) -> Op:
    path, out = ctx.graph_file(graph)
    argv = [command[0], path, "--out", out] + command[1:]
    cli = ctx.lib.cli

    def check(rc):
        data, problems = ctx.read_output((tuple(command), graph), out)
        doc = json.loads(data)
        if command[0] == "verify":
            if rc != 0 or not doc["all_passed"]:
                failed = [c["name"] for c in doc["checks"] if not c["passed"]]
                problems.append(f"verify exit {rc}, failed checks {failed}")
        elif rc != 0 or doc.get("verdict") != "equal":
            problems.append(f"css exit {rc}, verdict {doc.get('verdict')}")
        return problems

    return Op(_describe(name, graph), lambda: cli.main(argv), check)


def _overlap_op(ctx: Context, name: str, graph) -> Op:
    n, edges = graph
    g = ctx.lib.Graph.from_edges(n, edges)
    dense = ctx.lib.dense

    def run():
        return dense.best_product_overlap(
            dense.statevector(g),
            restarts=OVERLAP_RESTARTS,
            iterations=OVERLAP_ITERATIONS,
            seed=OVERLAP_SEED,
        )

    def check(found):
        out = []
        # across a cut of rank r every product state has overlap at most 2^-r
        cap = 2.0 ** -max_cut_rank(n, edges)
        if not 0.0 < found <= cap + 1e-9:
            out.append(f"overlap {found!r} outside (0, 2^-maxcutrank = {cap}]")
        # where the orbit bounds coincide, the certificate 2^-upper is the optimum
        orbit = ctx.lib.lc_orbit(g)
        upper = orbit.min_vertex_cover
        if not orbit.truncated and orbit.min_matching == upper and found > 2.0 ** -upper + 1e-9:
            out.append(f"overlap {found!r} beats the certificate 2^-{upper} of coinciding bounds")
        return out

    return Op(_describe(name, graph), run, check)


# ---------------------------------------------------------------------------
# certify: lattice patches, gap tables and certificates, library calls only


# Every size of each kind with at most 64 vertices.
GAP_SIZES = {
    "triangular": range(1, 9),
    "kagome": range(1, 5),
    "hexa-triangular": range(1, 5),
    "hexagonal": range(1, 16),
}

# Patches with 16..36 vertices whose vertex cover |beta| is at most 17.
CERT_PATCHES = (
    ("triangular", 4),  # n 16, |beta| 10
    ("kagome", 2),  # n 17, |beta| 10
    ("hexa-triangular", 2),  # n 18, |beta| 12
    ("hexagonal", 4),  # n 18, |beta| 9
    ("hexagonal", 5),  # n 22, |beta| 11
    ("hexagonal", 6),  # n 26, |beta| 13
    ("hexagonal", 7),  # n 30, |beta| 15
    ("triangular", 5),  # n 25, |beta| 16
    ("hexagonal", 8),  # n 34, |beta| 17
)

LC_STEPS = 3
STATE_SAMPLE = 16


def certify_round(seed: int, r: int, ctx: Context) -> list[Op]:
    _, rng = round_rngs("certify", seed, r)
    ops = [_gap_scan_op(ctx, kind, sizes) for kind, sizes in GAP_SIZES.items()]
    for kind, size in CERT_PATCHES:
        ops += _certificate_ops(ctx, kind, size, rng)
    return ops


def _patch_vertices(kind: str, size: int):
    """Closed-form vertex counts, where the patch shape gives one."""
    return {
        "triangular": size * size,
        "hexa-triangular": 3 * size * (size + 1),
        "hexagonal": 2 * (2 * size + 1),
    }.get(kind)


def _gap_scan_op(ctx: Context, kind: str, sizes) -> Op:
    lattices = ctx.lib.lattices

    def check(rows):
        out = []
        if [row.size for row in rows] != list(sizes):
            out.append("gap table rows do not match the sizes asked for")
        for row in rows:
            where = f"{kind} size {row.size}"
            if row.timed_out:
                out.append(f"{where} timed out")
                continue
            if row.vertex_cover - row.matching != row.gap_exact:
                out.append(f"{where}: cover {row.vertex_cover} - matching {row.matching} != gap {row.gap_exact}")
            if not row.matching <= row.vertex_cover <= row.n:
                out.append(f"{where}: matching {row.matching}, cover {row.vertex_cover}, n {row.n} out of order")
            if kind == "hexagonal" and row.gap_exact != 0:
                out.append(f"{where}: bipartite patch with gap {row.gap_exact} (Koenig gives 0)")
            expected_n = _patch_vertices(kind, row.size)
            if expected_n is not None and row.n != expected_n:
                out.append(f"{where}: {row.n} vertices, expected {expected_n}")
        return out

    return Op(f"gap_scan {kind} sizes {sizes.start}..{sizes.stop - 1}",
              lambda: lattices.gap_scan(kind, sizes, exact=True), check)


def _certificate_ops(ctx: Context, kind: str, size: int, rng) -> list[Op]:
    """generate_lattice, max_independent_set, then the four certificates.

    The ops of one patch share `state`; each check records what later checks
    compare against.
    """
    lib = ctx.lib
    where = f"{kind} size {size}"
    state: dict = {}
    lc_seed = rng.randrange(1 << 30)
    sample_seed = rng.randrange(1 << 30)

    def check_lattice(g):
        state["g"] = g
        state["edges"] = tuple(g.edges())
        picker = random.Random(lc_seed)
        state["lc"] = [picker.randrange(1, g.n + 1) for _ in range(LC_STEPS)]
        out = []
        expected_n = _patch_vertices(kind, size)
        if expected_n is not None and g.n != expected_n:
            out.append(f"{g.n} vertices, expected {expected_n}")
        if not is_connected(g.n, state["edges"]):
            out.append("patch is not connected")
        return out

    def check_alpha(alpha):
        g = state["g"]
        state["alpha"] = alpha
        state["beta"] = g.n - len(alpha)
        return independence_failures(g.n, state["edges"], alpha)

    def basis_problems(states, what):
        size_expected = 1 << state["beta"]
        out = []
        if len(states) != size_expected or len(set(states)) != size_expected:
            out.append(f"{what}: {len(set(states))} distinct of {len(states)} states, expected {size_expected}")
        sample = _sample(states, sample_seed)
        out += _unfixed(lib, state["g"], state["alpha"], sample, what)
        return out

    def check_decomposition(dec):
        state["terms"] = tuple(s for _, s in dec.terms)
        out = basis_problems(state["terms"], "decomposition")
        if any(sign not in (1, -1) for sign, _ in dec.terms):
            out.append("decomposition sign outside +-1")
        if not math.isclose(dec.normalization, 2.0 ** (-state["beta"] / 2), rel_tol=1e-12):
            out.append(f"normalization {dec.normalization}")
        return out

    def check_css(css):
        state["css_size"] = len(css.components)
        out = basis_problems(css.components, "css")
        if not math.isclose(css.weight, 2.0 ** -state["beta"], rel_tol=1e-12):
            out.append(f"css weight {css.weight}")
        if tuple(css.components) != state["terms"]:
            out.append("css components are not the decomposition states")
        return out

    def check_cps(cps):
        out = [] if cps == state["terms"][0] else ["cps is not the first basis state"]
        return out + _unfixed(lib, state["g"], state["alpha"], [cps], "cps")

    def check_transport(css):
        comps = css.components
        if len(comps) != state["css_size"] or len(set(comps)) != len(comps):
            return [f"transported css has {len(set(comps))} distinct of {len(comps)} components, "
                    f"expected {state['css_size']}"]
        return []

    spec = lib.lattices.LatticeSpec(kind, size)
    return [
        Op(f"generate_lattice {where}", lambda: lib.lattices.generate_lattice(spec), check_lattice),
        Op(f"max_independent_set {where}", lambda: lib.max_independent_set(state["g"]), check_alpha),
        Op(f"minimal_decomposition {where}",
           lambda: lib.measures.minimal_decomposition(state["g"], state["alpha"]), check_decomposition),
        Op(f"closest_separable_state {where}",
           lambda: lib.measures.closest_separable_state(state["g"], state["alpha"]), check_css),
        Op(f"closest_product_state {where}",
           lambda: lib.measures.closest_product_state(state["g"], state["alpha"]), check_cps),
        Op(f"transport_css {where}",
           lambda: lib.measures.transport_css(state["g"], state["lc"], state["alpha"]), check_transport),
    ]


def _sample(states, seed: int):
    picker = random.Random(seed)
    return [states[i] for i in sorted(picker.sample(range(len(states)), min(STATE_SAMPLE, len(states))))]


def _unfixed(lib, g, alpha, states, what) -> list[str]:
    """States not fixed by every alpha generator X_a Z_N(a), as pauli.apply_generator reports."""
    gens = [lib.pauli.PauliOperator(g.n, 1 << (a - 1), g.adj[a - 1]) for a in sorted(alpha)]
    for s in states:
        for a, p in zip(sorted(alpha), gens):
            if lib.pauli.apply_generator(p, s) != (1, s):
                return [f"{what} state {s} is not fixed by the generator of vertex {a}"]
    return []


# name -> (round function, rounds in a 30-second run, parts of the calibration
# kernel that do the kind of work the workload does: see calibrate.py).  A
# round takes 7-10 s of wall time for analyze, 12-15 s for oracle and 10-13 s
# for certify on the reference machine; certify does three so that its tail
# percentile falls among the six CSS and CPS calls of the |beta| = 17 patch.
WORKLOADS = {
    "analyze": (analyze_round, 3, ("python",)),
    "oracle": (oracle_round, 2, ("blas", "eigh", "memory")),
    "certify": (certify_round, 3, ("python",)),
}

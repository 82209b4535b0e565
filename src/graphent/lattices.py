"""Open-boundary lattice patches and the entanglement-bound gap on them.

The gap Delta = |beta| - |M_max| is evaluated two ways: by the printed
closed-form expressions (with the triangular sum terms clamped at zero) and
exactly on the generated patch.  Exact boundary geometry is a documented
commitment of this module; formula/exact deviations are reported, never
tuned away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import Graph, _matching_max_size, _mis_size

KINDS = ("triangular", "kagome", "hexa-triangular", "hexagonal")


@dataclass(frozen=True)
class LatticeSpec:
    """kind plus size parameter: L for triangular (N = L^2), cell count otherwise."""

    kind: str
    size: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown lattice kind {self.kind!r}")
        if self.size < 1:
            raise ValueError("lattice size must be at least 1")


def _triangular_sites_edges(L: int):
    """L x L rhombus: row-major grid with right, down and down-right bonds."""
    def vid(i, j):
        return i * L + j + 1

    n = L * L
    edges = []
    for i in range(L):
        for j in range(L):
            if j + 1 < L:
                edges.append((vid(i, j), vid(i, j + 1)))
            if i + 1 < L:
                edges.append((vid(i, j), vid(i + 1, j)))
            if i + 1 < L and j + 1 < L:
                edges.append((vid(i, j), vid(i + 1, j + 1)))
    return n, edges


def _hexagonal_sites_edges(cells: int):
    """Brick-wall strip of `cells` hexagons: 2 rows, rungs at even columns."""
    width = 2 * cells + 1

    def vid(r, x):
        return r * width + x + 1

    n = 2 * width
    edges = []
    for r in (0, 1):
        for x in range(width - 1):
            edges.append((vid(r, x), vid(r, x + 1)))
    for x in range(0, width, 2):
        edges.append((vid(0, x), vid(1, x)))
    return n, edges


def _kagome_sites_edges(cells: int):
    """Kagome patch: triangular grid minus the odd-row/even-column sublattice.

    Rows 0..2*cells, columns 0..2*cells, bonds right/down/down-right, then
    degree-<=1 sites trimmed off (open-boundary artifacts); cells = 1 is the
    two-triangle bowtie.
    """
    span = 2 * cells + 1
    present = {}
    for r in range(span):
        for c in range(span):
            if r % 2 == 1 and c % 2 == 0:
                continue
            present[(r, c)] = True

    def nbrs(rc):
        r, c = rc
        cand = [(r, c + 1), (r, c - 1), (r + 1, c), (r - 1, c), (r + 1, c + 1), (r - 1, c - 1)]
        return [p for p in cand if p in present]

    while True:
        drop = [rc for rc in present if len(nbrs(rc)) <= 1]
        if not drop:
            break
        for rc in drop:
            del present[rc]
    order = sorted(present)
    index = {rc: i + 1 for i, rc in enumerate(order)}
    edges = []
    for rc in order:
        for p in nbrs(rc):
            if index[p] > index[rc]:
                edges.append((index[rc], index[p]))
    return len(order), sorted(edges)


def _hexa_triangular_sites_edges(radius: int):
    """Hexagonal patch of the triangular lattice with the centre site removed.

    Axial coordinates within radius; N = 3*radius*(radius+1), so radius 1 is
    a plain hexagon ring.
    """
    sites = []
    for r in range(-radius, radius + 1):
        for q in range(-radius, radius + 1):
            if (q, r) == (0, 0):
                continue
            if abs(q + r) <= radius:
                sites.append((r, q))
    sites.sort()
    index = {s: i + 1 for i, s in enumerate(sites)}
    dirs = ((0, 1), (0, -1), (1, 0), (-1, 0), (1, -1), (-1, 1))
    edges = []
    for (r, q) in sites:
        for dr, dq in dirs:
            other = (r + dr, q + dq)
            if other in index and index[other] > index[(r, q)]:
                edges.append((index[(r, q)], index[other]))
    return len(sites), sorted(edges)


_BUILDERS = {
    "triangular": _triangular_sites_edges,
    "kagome": _kagome_sites_edges,
    "hexa-triangular": _hexa_triangular_sites_edges,
    "hexagonal": _hexagonal_sites_edges,
}


_VERTEX_COUNTS = {
    "triangular": lambda L: L * L,
    "kagome": lambda cells: 3 * cells * cells + 3 * cells - 1,
    "hexa-triangular": lambda radius: 3 * radius * (radius + 1),
    "hexagonal": lambda cells: 2 * (2 * cells + 1),
}


def lattice_vertex_count(kind: str, size: int) -> int:
    """Vertex count of the patch in closed form: nothing is built, so any size works."""
    spec = LatticeSpec(kind, size)
    return _VERTEX_COUNTS[spec.kind](spec.size)


def generate_lattice(spec: LatticeSpec) -> Graph:
    """Build the open-boundary patch as a Graph (row-major vertex numbering)."""
    n = _VERTEX_COUNTS[spec.kind](spec.size)
    if n > 64:
        raise ValueError(f"{spec.kind} size {spec.size} yields {n} > 64 vertices")
    g = Graph.from_edges(*_BUILDERS[spec.kind](spec.size))
    if not g.is_connected():
        raise ValueError(f"{spec.kind} size {spec.size} patch is not connected")
    return g


def gap_formula(kind: str, n: int) -> float:
    """The printed closed-form gap at vertex count n.

    Triangular sum terms are clamped at max(sqrt(N) - 3j, 0): the printed
    upper limit floor((N-1)/3) would otherwise drive later terms negative.
    The J = floor((L-1)/3) positive terms sum to J*L - 3J(J+1)/2.
    Valid for L > 3 only; hexagonal is identically zero (bipartite).
    """
    if kind == "hexagonal":
        return 0.0
    if kind == "triangular":
        L = math.isqrt(n)
        if L * L != n:
            raise ValueError(f"triangular formula needs a square vertex count, got {n}")
        if L <= 3:
            raise ValueError("triangular gap formula is valid for L > 3 only")
        J = (L - 1) // 3
        total = math.ceil(n / 2) - L - 2 * (J * L - 3 * J * (J + 1) // 2)
        return float(total)
    if kind == "hexa-triangular":
        return (12 * n - 3 * math.sqrt(9 + 12 * n) + 9) / 18 - (n // 2)
    if kind == "kagome":
        return (6 * n - math.sqrt(13 + 3 * n) - 11) / 9 - (n // 2)
    raise ValueError(f"unknown lattice kind {kind!r}")


def _solve_gap(g: Graph) -> tuple[int, int, int]:
    """(|M_max|, |beta|, |beta| - |M_max|) of g."""
    cover = g.n - _mis_size(g.n, g.adj)
    matching = _matching_max_size(g.n, g.adj)
    return matching, cover, cover - matching


def gap_exact(g: Graph) -> int:
    """Exact |beta| - |M_max| on the given lattice graph (no orbit minimisation)."""
    return _solve_gap(g)[2]


@dataclass(frozen=True)
class GapRow:
    kind: str
    size: int
    n: int
    matching: int | None
    vertex_cover: int | None
    gap_exact: int | None
    gap_formula: float | None
    timed_out: bool = False
    """Always False, as the solver has no deadline; kept because perfbench's gap check reads it."""


def gap_scan(kind: str, sizes, exact: bool = True):
    """Per-size gap table rows.

    Only exact rows build the patch, so formula-only rows have no vertex cap.
    Every patch within the cap solves in milliseconds.
    """
    rows = []
    for size in sizes:
        n = lattice_vertex_count(kind, size)
        matching = cover = exact_gap = None
        if exact:
            matching, cover, exact_gap = _solve_gap(generate_lattice(LatticeSpec(kind, size)))
        formula: float | None
        try:
            formula = gap_formula(kind, n)
        except ValueError:
            formula = None
        rows.append(GapRow(kind, size, n, matching, cover, exact_gap, formula))
    return rows

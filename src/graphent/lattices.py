"""Open-boundary lattice patches and the entanglement-bound gap on them.

A patch is a set of (row, column) sites, numbered 1..n in (row, column)
order, with one bond rule.  Triangular, kagome and hexa-triangular patches
are site sets of one triangular lattice, whose bonds run right, down and
down-right: the L x L rhombus; the (2c+1) x (2c+1) grid without its
odd-row/even-column sites and its two corners (0, 2c) and (2c, 0), which
would hang on by one bond; and the disc of axial radius R without its
centre, with axial (r, q) at row r, column q + r.  The hexagonal patch is a
two-row brick wall whose bonds run right, and down at even columns.

The gap Delta = |beta| - |M_max| is evaluated two ways: by the printed
closed-form expressions (with the triangular sum terms clamped at zero) and
exactly on the generated patch.  Exact boundary geometry is a documented
commitment of this module; formula/exact deviations are reported, never
tuned away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import MAX_VERTICES, Graph, _matching_max_size, _mis_size


@dataclass(frozen=True)
class LatticeSpec:
    """kind plus size parameter: L for triangular (N = L^2), cell count otherwise."""

    kind: str
    size: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown lattice kind {self.kind!r}")
        if isinstance(self.size, bool) or not isinstance(self.size, int):
            raise ValueError(f"lattice size must be an integer, got {self.size!r}")
        if self.size < 1:
            raise ValueError("lattice size must be at least 1")


def _patch(sites, later):
    """(n, edges) of a patch: its sites numbered 1..n in (row, column) order,
    each joined to the sites of later(site) that are in the patch.

    later(site) names each bond once, from its earlier end.
    """
    index = {site: i for i, site in enumerate(sorted(sites), 1)}
    return len(index), [(i, index[t]) for s, i in index.items() for t in later(s) if t in index]


def _triangular_bonds(site):
    r, c = site
    return (r, c + 1), (r + 1, c), (r + 1, c + 1)


def _brick_bonds(site):
    r, c = site
    return ((r, c + 1), (r + 1, c)) if c % 2 == 0 else ((r, c + 1),)


def _triangular_sites_edges(L: int):
    """L x L rhombus of the triangular lattice."""
    return _patch([(r, c) for r in range(L) for c in range(L)], _triangular_bonds)


def _hexagonal_sites_edges(cells: int):
    """Brick-wall strip of `cells` hexagons: 2 rows, rungs at even columns."""
    return _patch([(r, c) for r in (0, 1) for c in range(2 * cells + 1)], _brick_bonds)


def _kagome_sites_edges(cells: int):
    """Kagome patch: the triangular grid minus its odd-row/even-column sites.

    Rows and columns 0..2*cells; the corners (0, 2*cells) and (2*cells, 0)
    are left out too, as the only sites of degree <= 1 (open-boundary
    artifacts).  cells = 1 is the two-triangle bowtie.
    """
    span = 2 * cells
    sites = {(r, c) for r in range(span + 1) for c in range(span + 1) if r % 2 == 0 or c % 2 == 1}
    return _patch(sites - {(0, span), (span, 0)}, _triangular_bonds)


def _hexa_triangular_sites_edges(radius: int):
    """Hexagonal disc of the triangular lattice with the centre site removed.

    Axial (r, q) within radius sits at row r, column q + r; N =
    3*radius*(radius+1), so radius 1 is a plain hexagon ring.
    """
    sites = {(r, q + r) for r in range(-radius, radius + 1) for q in range(-radius, radius + 1)
             if abs(q + r) <= radius}
    return _patch(sites - {(0, 0)}, _triangular_bonds)


# kind -> (closed-form vertex count, builder of (n, edges)) of a patch of that size
_KIND_TABLE = {
    "triangular": (lambda L: L * L, _triangular_sites_edges),
    "kagome": (lambda cells: 3 * cells * cells + 3 * cells - 1, _kagome_sites_edges),
    "hexa-triangular": (lambda radius: 3 * radius * (radius + 1), _hexa_triangular_sites_edges),
    "hexagonal": (lambda cells: 2 * (2 * cells + 1), _hexagonal_sites_edges),
}
KINDS = tuple(_KIND_TABLE)


def lattice_vertex_count(kind: str, size: int) -> int:
    """Vertex count of the patch in closed form: nothing is built, so any size works."""
    spec = LatticeSpec(kind, size)
    return _KIND_TABLE[spec.kind][0](spec.size)


def generate_lattice(spec: LatticeSpec) -> Graph:
    """Build the open-boundary patch as a Graph (row-major vertex numbering)."""
    count, build = _KIND_TABLE[spec.kind]
    n = count(spec.size)
    if n > MAX_VERTICES:
        raise ValueError(f"{spec.kind} size {spec.size} yields {n} > {MAX_VERTICES} vertices")
    g = Graph.from_edges(*build(spec.size))
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


@dataclass(frozen=True)
class GapRow:
    kind: str
    size: int
    n: int
    matching: int | None
    vertex_cover: int | None
    gap_exact: int | None
    gap_formula: float | None
    timed_out = False  # not a field: the solver has no deadline; the benchmark's gap check reads it


def gap_scan(kind: str, sizes, *, exact: bool):
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

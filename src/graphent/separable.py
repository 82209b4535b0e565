"""Non-stabilizer routes to the closest separable state.

Two independent constructions, both compared entrywise against the
stabilized-basis mixture: a virtual-qubit (projected-pairs style) assembly
over maximally correlated two-qubit separable edge states, and dephasing of
the vertex-cover qubits by averaged relative phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, _bits, _mask_of, max_independent_set
from .measures import closest_separable_state
from . import dense

VIRTUAL_EDGE_CAP = 24

# Edge states on (first, second) virtual qubits, as mixtures of two product
# strings indexed by t: kind A puts the X-basis (orange) qubit first, kind B
# second.  Unnormalized per-component vectors; weights equal by symmetry.
_EDGE_COMPONENTS = {
    "A": {0: "+0", 1: "-1"},
    "B": {0: "0+", 1: "1-"},
}

_ORANGE = "orange"  # X basis
_BLUE = "blue"  # Z basis


@dataclass(frozen=True)
class EdgeAssignment:
    u: int
    v: int
    kind: str  # "A": orange on u; "B": orange on v


@dataclass(frozen=True)
class VirtualLayout:
    """One virtual qubit per edge endpoint; colours record the local basis."""

    n: int
    edges: tuple[EdgeAssignment, ...]

    def virtual_count(self) -> int:
        return 2 * len(self.edges)

    def site_colours(self, a: int) -> tuple[str, ...]:
        out = []
        for e in self.edges:
            if e.u == a:
                out.append(_ORANGE if e.kind == "A" else _BLUE)
            elif e.v == a:
                out.append(_ORANGE if e.kind == "B" else _BLUE)
        return tuple(out)


def assign_edge_states(g: Graph, alpha) -> VirtualLayout:
    """Pick the A/B edge state per edge so every alpha-site virtual is orange.

    Edges between two cover vertices default to kind A with lexicographic
    orientation; the downstream equality test against the stabilized mixture
    is the arbiter of that choice.
    """
    amask = _mask_of(alpha, g.n)
    for a0 in _bits(amask):
        if g.adj[a0] & amask:
            raise ValueError("alpha is not an independent set")
    assignments = []
    for u, v in g.edges():
        u_in = (amask >> (u - 1)) & 1
        v_in = (amask >> (v - 1)) & 1
        kind = "B" if (v_in and not u_in) else "A"
        assignments.append(EdgeAssignment(u, v, kind))
    layout = VirtualLayout(g.n, tuple(assignments))
    for a0 in _bits(amask):
        if any(c != _ORANGE for c in layout.site_colours(a0 + 1)):
            raise RuntimeError("independent-set site got a Z-basis virtual")
    return layout


@dataclass(frozen=True)
class CssConstruction:
    """Dense separable state plus its explicit product-projector mixture."""

    dense: np.ndarray
    components: tuple[str, ...]
    weight: float
    method: str


_S2 = 1.0 / math.sqrt(2.0)

_QUBIT_REAL = {
    "0": (1.0, 0.0),
    "1": (0.0, 1.0),
    "+": (_S2, _S2),
    "-": (_S2, -_S2),
}


def _site_tables(g: Graph, layout: VirtualLayout, amask: int):
    """Per site: incident edge ids, and the projected 2-vector + label per
    local bit combination of those edges."""
    edges = layout.edges
    incident: list[list[tuple[int, str]]] = [[] for _ in range(g.n)]
    for eid, e in enumerate(edges):
        incident[e.u - 1].append((eid, "u"))
        incident[e.v - 1].append((eid, "v"))

    def local_state(eid: int, end: str, t: int) -> str:
        comp = _EDGE_COMPONENTS[edges[eid].kind][t]
        return comp[0] if end == "u" else comp[1]

    vec_tables = []
    char_tables = []
    edge_ids = []
    for a in range(1, g.n + 1):
        loc = incident[a - 1]
        edge_ids.append([eid for eid, _ in loc])
        deg = len(loc)
        combos = 1 << deg
        vecs = np.zeros((combos, 2), dtype=float)
        chars = []
        site_in_alpha = (amask >> (a - 1)) & 1
        for combo in range(combos):
            states = [
                local_state(eid, end, (combo >> pos) & 1)
                for pos, (eid, end) in enumerate(loc)
            ]
            if deg == 1:
                vec = _QUBIT_REAL[states[0]]
            elif site_in_alpha:
                vec = _project_parity(states)
            else:
                vec = _project_repetition(states)
            vecs[combo] = vec
            chars.append(_axis_label(vec))
        vec_tables.append(vecs)
        char_tables.append(chars)
    return edge_ids, vec_tables, char_tables


def _project_repetition(states: list[str]):
    """P^A = |0><0...0| + |1><1...1| applied to a product of local states."""
    c0 = 1.0
    c1 = 1.0
    for s in states:
        v = _QUBIT_REAL[s]
        c0 *= v[0]
        c1 *= v[1]
    return (c0, c1)


def _project_parity(states: list[str]):
    """P^B = |+><~+| + |-><~-|: parity of minus signs over X-basis strings."""
    prod_sum = 1.0
    prod_diff = 1.0
    for s in states:
        v = _QUBIT_REAL[s]
        up = (v[0] + v[1]) * _S2  # <+|s>
        um = (v[0] - v[1]) * _S2  # <-|s>
        prod_sum *= up + um
        prod_diff *= up - um
    c_plus = (prod_sum + prod_diff) / 2.0
    c_minus = (prod_sum - prod_diff) / 2.0
    return (c_plus + c_minus) * _S2, (c_plus - c_minus) * _S2


def _axis_label(vec) -> str:
    norm = math.hypot(vec[0], vec[1])
    if norm < 1e-12:
        return "?"
    a, b = vec[0] / norm, vec[1] / norm
    if a < 0 or (abs(a) < 1e-12 and b < 0):
        a, b = -a, -b
    for label, (ra, rb) in _QUBIT_REAL.items():
        if abs(a - ra) < 1e-9 and abs(b - rb) < 1e-9:
            return label
    return "?"


def peps_css(g: Graph, alpha=None) -> CssConstruction:
    """Closest separable state assembled from virtual-qubit edge mixtures.

    Tensor the per-edge two-qubit separable states over 2|E| virtual qubits,
    apply the repetition projector at cover sites and the parity projector at
    independent-set sites (degree-1 sites are identified with their lone
    virtual qubit), and renormalize.
    """
    if alpha is None:
        alpha = max_independent_set(g)
    amask = _mask_of(alpha, g.n)
    layout = assign_edge_states(g, alpha)
    n_edges = len(layout.edges)
    if n_edges > VIRTUAL_EDGE_CAP:
        raise ValueError(f"virtual assembly limited to {VIRTUAL_EDGE_CAP} edges")
    if g.n > dense.DENSE_OP_CAP:
        raise ValueError(f"dense assembly limited to n <= {dense.DENSE_OP_CAP}")
    edge_ids, vec_tables, char_tables = _site_tables(g, layout, amask)

    nonzero_tables = [np.linalg.norm(v, axis=1) > 1e-12 for v in vec_tables]
    dim = 1 << g.n
    total = 1 << n_edges
    rho = np.zeros((dim, dim), dtype=float)
    components: list[str] = []
    norms_seen: list[np.ndarray] = []
    chunk = 1 << 16
    for start in range(0, total, chunk):
        ts = np.arange(start, min(start + chunk, total), dtype=np.int64)
        site_idx = []
        keep = np.ones(ts.size, dtype=bool)
        for site in range(g.n):
            idx = np.zeros(ts.size, dtype=np.int64)
            for pos, eid in enumerate(edge_ids[site]):
                idx |= ((ts >> eid) & 1) << pos
            site_idx.append(idx)
            # a zero site factor kills the whole product row exactly
            keep &= nonzero_tables[site][idx]
        rows = np.flatnonzero(keep)
        if rows.size == 0:
            continue
        block = np.ones((rows.size, 1), dtype=float)
        for site in range(g.n):
            vecs = vec_tables[site][site_idx[site][rows]]
            block = (block[:, :, None] * vecs[:, None, :]).reshape(rows.size, -1)
        rho += block.T @ block
        norms_seen.append(np.linalg.norm(block, axis=1))
        for row in rows:
            joined = "".join(char_tables[site][site_idx[site][row]] for site in range(g.n))
            if "?" in joined:
                raise RuntimeError("projected component did not land on an axis state")
            components.append(joined)
    trace = float(np.trace(rho))
    if not components or trace <= 0:
        raise RuntimeError("virtual assembly produced a zero state")
    norms = np.concatenate(norms_seen)
    if norms.max() - norms.min() > 1e-9 * norms.max():
        raise RuntimeError("surviving components are not uniformly weighted")
    rho = (rho / trace).astype(complex)
    weight = 1.0 / len(components)
    return CssConstruction(rho, tuple(components), weight, "peps")


def noise_css(g: Graph, beta=None) -> CssConstruction:
    """Closest separable state by dephasing the cover qubits.

    The continuous phase average over the cover qubits reduces exactly to the
    two-point average phi in {0, pi} per qubit (cross terms carry e^{+-i phi}),
    i.e. the uniform mixture of Z^S|G> over subsets S of the cover.
    """
    if beta is None:
        beta = frozenset(range(1, g.n + 1)) - max_independent_set(g)
    alpha = frozenset(range(1, g.n + 1)) - frozenset(beta)
    amask = _mask_of(alpha, g.n) if alpha else 0
    for a0 in _bits(amask):
        if g.adj[a0] & amask:
            raise ValueError("complement of beta is not an independent set")
    if g.n > dense.DENSE_OP_CAP:
        raise ValueError(f"dense assembly limited to n <= {dense.DENSE_OP_CAP}")
    psi = dense.statevector(g)
    dim = psi.size
    beta_sorted = sorted(beta)
    m = len(beta_sorted)
    idx = np.arange(dim)
    rho = np.zeros((dim, dim), dtype=complex)
    for subset in range(1 << m):
        flip = np.zeros(dim, dtype=np.int64)
        for pos in range(m):
            if (subset >> pos) & 1:
                b = beta_sorted[pos]
                flip ^= (idx >> (g.n - b)) & 1
        vec = np.where(flip, -psi, psi)
        rho += np.outer(vec, vec.conj())
    rho /= 1 << m
    css = closest_separable_state(g, alpha)
    mix = dense.mixture_density(css.components)
    if not np.allclose(rho, mix, atol=1e-12):
        raise RuntimeError("dephasing average disagrees with the product mixture")
    return CssConstruction(rho, css.components, css.weight, "noise")


def noise_css_quadrature(g: Graph, beta=None, points: int = 64) -> np.ndarray:
    """Continuous-phase version on a uniform grid, for validating the 2-point average."""
    if beta is None:
        beta = frozenset(range(1, g.n + 1)) - max_independent_set(g)
    beta_sorted = sorted(beta)
    m = len(beta_sorted)
    if g.n > 6 or points**m > 1 << 20:
        raise ValueError("quadrature check limited to small graphs")
    psi = dense.statevector(g)
    dim = psi.size
    idx = np.arange(dim)
    bit_of = [((idx >> (g.n - b)) & 1).astype(float) for b in beta_sorted]
    grid = 2.0 * math.pi * np.arange(points) / points
    rho = np.zeros((dim, dim), dtype=complex)
    total = points**m
    for flat in range(total):
        rem = flat
        phase = np.zeros(dim, dtype=float)
        for pos in range(m):
            phase += grid[rem % points] * bit_of[pos]
            rem //= points
        vec = psi * np.exp(1j * phase)
        rho += np.outer(vec, vec.conj())
    return rho / total


__all__ = [
    "EdgeAssignment",
    "VirtualLayout",
    "CssConstruction",
    "assign_edge_states",
    "peps_css",
    "noise_css",
    "noise_css_quadrature",
]

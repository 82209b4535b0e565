"""Non-stabilizer routes to the closest separable state.

Two independent constructions, which `verify` and `css --method all` compare
entrywise against the stabilized-basis mixture: a virtual-qubit
(projected-pairs style) assembly over maximally correlated two-qubit separable
edge states, and dephasing of the vertex-cover qubits by averaged relative
phases.  Each returns its state as a thin factor and a divisor, not as a
2^n x 2^n matrix: the comparison forms rows of rho in blocks
(`dense.gram_rows`), with the bits the full product would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, _independent_mask
from .measures import closest_separable_state
from . import dense

@dataclass(frozen=True)
class CssConstruction:
    """Separable state rho = factor^T factor / divisor, plus its explicit
    product-projector mixture.

    factor is K x 2^n, float64 and C-contiguous: both constructions are
    real (real edge states and projectors; a real graph state dephased by
    signs).  Nothing forms rho: `cli._css_errors` builds it dense.ROW_BLOCK
    rows at a time with `dense.gram_rows`, over the factor rows that are
    nonzero on the block (every PEPS row is zero on most blocks, no Phi row
    on any), and divides each block by divisor, so that no 2^n x 2^n array
    exists from n = 7 on.  Every entry is the one the full product and
    division give: a PEPS entry is one product, and Phi keeps all its rows
    (see gram_rows).
    """

    factor: np.ndarray
    divisor: float
    components: tuple[str, ...]
    weight: float


def _axis_label(vec) -> str:
    """The label of the row of dense._REAL_TABLE that vec is a multiple of, or "?"."""
    norm = math.hypot(vec[0], vec[1])
    if norm < 1e-12:
        return "?"
    a, b = vec[0] / norm, vec[1] / norm
    if a < 0 or (abs(a) < 1e-12 and b < 0):
        a, b = -a, -b
    for label, (ra, rb) in zip(dense.QUBIT_STATES, dense._REAL_TABLE.tolist()):
        if abs(a - ra) < 1e-9 and abs(b - rb) < 1e-9:
            return label
    return "?"


def peps_css(g: Graph, alpha) -> CssConstruction:
    """Closest separable state assembled from virtual-qubit edge mixtures.

    Each edge (u, v) carries the two-qubit separable state mixing |+0> with
    |-1>, its X-basis (orange) virtual qubit at the alpha end, or at u when
    both ends are in the cover, so its Z-basis (blue) virtual sits at a cover
    end.  Tensor these over 2|E| virtual qubits, apply the repetition projector
    |0><0...0| + |1><1...1| at cover sites and the parity projector
    |+><~+| + |-><~-| at independent-set sites, and renormalize: the
    surviving rows are the factor and their trace, the sum of their squared
    entries, the divisor.  One rule builds both: on a product of d real
    virtual qubits q the repetition projector gives (prod q0, prod q1), and
    since <+|q> +- <-|q> is sqrt(2) q0 or sqrt(2) q1, the parity projector
    gives 2^((d-1)/2) times that, a scale the same on every row that the
    divisor absorbs.  So each site multiplies its virtual qubits' rows of
    dense._REAL_TABLE, and a lone virtual is the site itself.  The parity
    projector never vanishes and the repetition projector vanishes unless a
    cover site's blue virtuals agree, so for a maximal alpha the surviving
    edge strings are t(k) with t_e = k_b, b the blue end of e: one row for
    each k in {0,1}^beta, in ascending t.
    """
    amask = _independent_mask(g, alpha)
    if any(not g.adj[v] & amask for v in range(g.n) if not (amask >> v) & 1):
        raise ValueError("alpha is not a maximal independent set")
    dense._check_cap(g.n, dense.DENSE_OP_CAP, "dense assembly")
    # each site's virtual qubits: (edge id, _REAL_TABLE row of its 0 bit),
    # rows 0 1 for a blue virtual and + - for an orange one
    virtuals: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    blue_edges = [0] * g.n
    for eid, (u, v) in enumerate(g.edges()):
        orange = v if (amask >> (v - 1)) & 1 else u
        blue_edges[(u if orange == v else v) - 1] |= 1 << eid
        for a in (u, v):
            virtuals[a - 1].append((eid, 2 if a == orange else 0))
    ts = np.zeros(1, dtype=np.int64)
    for mask in filter(None, blue_edges):  # alpha sites have no blue virtual
        ts = np.concatenate([ts, ts | mask])
    ts.sort()

    block = np.ones((ts.size, 1), dtype=float)
    site_chars = []
    for site_virtuals in virtuals:
        vecs = np.ones((ts.size, 2))
        for eid, base in site_virtuals:
            vecs *= dense._REAL_TABLE[base + ((ts >> eid) & 1)]
        block = (block[:, :, None] * vecs[:, None, :]).reshape(ts.size, -1)
        rows = list(map(tuple, vecs.tolist()))
        labels = {row: _axis_label(row) for row in set(rows)}
        site_chars.append([labels[row] for row in rows])
    components = tuple(map("".join, zip(*site_chars)))
    if any("?" in c for c in components):
        raise RuntimeError("projected component did not land on an axis state")
    # trace(block^T block) without the product: each diagonal entry is its
    # column's one nonzero square, and the diagonal is summed as np.trace does
    trace = float(np.square(block).sum(axis=0).sum())
    if trace <= 0:
        raise RuntimeError("virtual assembly produced a zero state")
    norms = np.linalg.norm(block, axis=1)
    if norms.max() - norms.min() > 1e-9 * norms.max():
        raise RuntimeError("surviving components are not uniformly weighted")
    return CssConstruction(block, trace, components, 1.0 / len(components))


def noise_css(g: Graph, alpha) -> CssConstruction:
    """Closest separable state by dephasing the cover qubits, beta = V \\ alpha.

    The continuous phase average over the cover qubits reduces exactly to the
    two-point average phi in {0, pi} per qubit (cross terms carry e^{+-i phi}),
    i.e. the uniform mixture of Z^S|G> over subsets S of the cover.  The 2^m
    copies Z^S|G> are the rows of one float64 array Phi (g's statevector as
    built), so the average is Phi^T Phi / 2^m: Phi is the factor and 2^m
    the divisor.  Phi is built by doubling over beta, ascending: the rows
    for S + b are a copy of the rows so far with the sign of every entry whose
    b bit is 1 flipped, so row S is |G> negated exactly at the indices with an
    odd number of 1 bits on S, the bits of the flip-matrix build.  The
    components are the stabilizer CSS's; callers compare rho with their
    mixture (entrywise, to 1e-12).
    """
    amask = _independent_mask(g, alpha)
    dense._check_cap(g.n, dense.DENSE_OP_CAP, "dense assembly")
    phi = dense.statevector(g)[None]
    for v in range(g.n):  # qubit v + 1 is index bit n - 1 - v
        if not (amask >> v) & 1:
            flipped = phi.copy()
            half = flipped.reshape(len(phi), -1, 2, 1 << (g.n - 1 - v))[:, :, 1]
            np.negative(half, out=half)
            phi = np.concatenate([phi, flipped])
    css = closest_separable_state(g, alpha)
    return CssConstruction(phi, float(len(phi)), css.components, css.weight)


__all__ = [
    "CssConstruction",
    "peps_css",
    "noise_css",
]

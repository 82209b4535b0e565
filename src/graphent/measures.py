"""Bounds, direct evaluation of the three measures, and the certificates.

The pipeline: LC-orbit minima give the lower bound (min |M_max|) and upper
bound (min |beta|); when they coincide all three measures equal log2 of the
number of terms in the minimal product decomposition, and the closest
separable state / closest product state certificates are built from the
product basis stabilized by the maximum-independent-set subgroup.

evaluate solves each sub-problem once: the orbit enumeration solves the
members whose solve could still change its summary, and that summary carries
the values bounds needs; then one maximum independent set gives one
stabilized basis, of which the decomposition, the CSS and the CPS are views.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .graphs import (
    DEFAULT_ORBIT_CAP,
    Graph,
    OrbitSummary,
    _bits,
    _independent_mask,
    _mask_of,
    _matching_max_size,
    _tau,
    is_bipartite,
    lc_orbit,
    local_complement,
    max_independent_set,
)
from .pauli import _decode_states, _encode_states, _transport_step, stabilized_product_basis

# Classification labels for the bound-equality statements.
ALPHA_LT_HALF = "ALPHA_LT_HALF"
ALPHA_GT_HALF = "ALPHA_GT_HALF"
ALPHA_EQ_HALF_PERFECT = "ALPHA_EQ_HALF_PERFECT"
ALPHA_EQ_HALF_IMPERFECT = "ALPHA_EQ_HALF_IMPERFECT"
BIPARTITE_KONIG = "BIPARTITE_KONIG"

_PREDICTS_EQUAL = {
    ALPHA_LT_HALF: False,
    ALPHA_GT_HALF: True,
    ALPHA_EQ_HALF_PERFECT: True,
    ALPHA_EQ_HALF_IMPERFECT: False,
    BIPARTITE_KONIG: True,
}


def classify(alpha_size: int, n: int, matching_is_perfect: bool | None = None) -> str:
    """Bound-equality classification from |alpha| against n/2.

    |alpha| < n/2 predicts unequal bounds, |alpha| > n/2 predicts equal; at
    |alpha| = n/2 a perfect maximum matching decides.
    """
    if 2 * alpha_size < n:
        return ALPHA_LT_HALF
    if 2 * alpha_size > n:
        return ALPHA_GT_HALF
    if matching_is_perfect is None:
        raise ValueError("|alpha| = n/2 requires the perfect-matching flag")
    return ALPHA_EQ_HALF_PERFECT if matching_is_perfect else ALPHA_EQ_HALF_IMPERFECT


def predicts_equal(classification: str) -> bool:
    return _PREDICTS_EQUAL[classification]


@dataclass(frozen=True)
class BoundsReport:
    lower: int
    upper: int
    coincide: bool
    classification: str
    representative: Graph
    truncated: bool
    lc_path: tuple[int, ...]


def bounds(g: Graph, orbit_cap: int = DEFAULT_ORBIT_CAP, orbit: OrbitSummary | None = None) -> BoundsReport:
    """Orbit-minimised bounds plus the equality classification.

    Bipartite inputs short-circuit to BIPARTITE_KONIG; otherwise the
    statements are evaluated on the orbit representative.  A truncated orbit
    makes the minima upper bounds only, flagged via `truncated`.  A given
    orbit summary may be rooted at any member of g's orbit.
    """
    if not g.is_connected():
        raise ValueError("bounds require a connected graph")
    if orbit is None:
        orbit = lc_orbit(g, orbit_cap)
    rep = orbit.representative
    if is_bipartite(g) is not None:
        classification = BIPARTITE_KONIG
    else:
        rep_alpha = rep.n - orbit.min_vertex_cover
        classification = classify(rep_alpha, rep.n, 2 * orbit.representative_matching == rep.n)
    return BoundsReport(
        lower=orbit.min_matching,
        upper=orbit.min_vertex_cover,
        coincide=orbit.min_matching == orbit.min_vertex_cover,
        classification=classification,
        representative=rep,
        truncated=orbit.truncated,
        lc_path=orbit.lc_path,
    )


# ---------------------------------------------------------------------------
# Decomposition and the three certificates


def sign_function(k, g: Graph, beta) -> int:
    """Parity of beta-internal edges whose both endpoints carry k = 1.

    Closed form for the sign exponent in the minimal decomposition; its
    equivalence with the dense amplitude signs is enforced by oracle tests
    before anything downstream relies on it.
    """
    beta_sorted = sorted(set(beta))
    bits = [int(b) for b in k]
    if len(bits) != len(beta_sorted):
        raise ValueError("k length does not match beta")
    return _edge_parity(g, _mask_of((b for bit, b in zip(bits, beta_sorted) if bit), g.n))


def _edge_parity(g: Graph, kmask: int) -> int:
    """Parity of the edges of g with both endpoints in kmask."""
    return sum((g.adj[v] & kmask).bit_count() for v in _bits(kmask)) // 2 % 2


def _sign_bits(g: Graph, amask: int) -> np.ndarray:
    """q(k) = _edge_parity of k for every k over beta = V \\ amask, in basis order.

    Built by the basis order's doubling, last beta vertex b first:
    q(k + e_b) = q(k) + |N(b) & k| mod 2 over the k of the vertices placed so far.
    """
    beta = [v for v in range(g.n) if not (amask >> v) & 1]
    m = len(beta)
    q = np.zeros(1 << m, np.uint8)
    kbits = np.zeros((1 << m, m), np.uint8)  # column j: k's bit on beta[j]
    for t, j in enumerate(reversed(range(m))):  # beta[j] is bit t of k
        old, new = slice(0, 1 << t), slice(1 << t, 2 << t)
        kbits[new] = kbits[old]
        kbits[new, j] = 1
        q[new] = q[old]
        for i in range(j + 1, m):  # the beta vertices placed so far
            if (g.adj[beta[j]] >> beta[i]) & 1:
                q[new] ^= kbits[old, i]
    return q


@dataclass(frozen=True)
class Decomposition:
    """Signed uniform superposition of product states reconstructing |G>."""

    terms: tuple[tuple[int, str], ...]
    normalization: float

    def size(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class SeparableStateDescription:
    """Uniform classical mixture of orthonormal product states."""

    components: tuple[str, ...]
    weight: float


@dataclass(frozen=True)
class CssStabilizerSum:
    """The closest separable state as (scale * sum of subgroup elements)."""

    elements: tuple
    scale: float


def _alpha_or_default(g: Graph, alpha):
    return max_independent_set(g) if alpha is None else frozenset(alpha)


def minimal_decomposition(g: Graph, alpha=None) -> Decomposition:
    """Signed product-state decomposition of |g> over the alpha-stabilized basis.

    2^{|beta|} terms; each state's k is the set of beta vertices carrying 1,
    and its sign is sign_function of that k.  Reconstructs the statevector
    exactly (an oracle-checked invariant).
    """
    alpha = _alpha_or_default(g, alpha)
    basis = stabilized_product_basis(g, alpha)
    signs = (1 - 2 * _sign_bits(g, _mask_of(alpha, g.n)).astype(np.int8)).tolist()
    return Decomposition(tuple(zip(signs, basis)), 1.0 / math.sqrt(len(basis)))


def closest_separable_state(g: Graph, alpha=None) -> SeparableStateDescription:
    """Uniform mixture over the stabilized product basis (the CSS certificate)."""
    basis = stabilized_product_basis(g, _alpha_or_default(g, alpha))
    return SeparableStateDescription(basis, 1.0 / len(basis))


def css_stabilizer_form(g: Graph, alpha=None) -> CssStabilizerSum:
    """The same CSS as the normalized sum over the alpha-subgroup elements."""
    from .pauli import generators_from_graph, group_elements, restricted_subgroup

    sub = restricted_subgroup(generators_from_graph(g), _alpha_or_default(g, alpha))
    return CssStabilizerSum(tuple(group_elements(sub)), 1.0 / (1 << g.n))


def closest_product_state(g: Graph, alpha=None) -> str:
    """|+> on alpha and |0> on beta: the k = 0 basis state, first under the
    canonical ordering (the CPS certificate)."""
    amask = _independent_mask(g, _alpha_or_default(g, alpha))
    return "".join("+" if (amask >> v) & 1 else "0" for v in range(g.n))


def _transport_components(g: Graph, lc_sequence, components):
    """Apply the LC Cliffords for lc_sequence to each component label string."""
    h = g
    codes = _encode_states(tuple(components), g.n)
    for a in lc_sequence:
        _transport_step(h, a, codes)
        h = local_complement(h, a)
    return h, _decode_states(codes)


def transport_css(g: Graph, lc_sequence, alpha=None) -> SeparableStateDescription:
    """CSS of the graph state reached from g by the given local complementations."""
    css = closest_separable_state(g, alpha)
    _, comps = _transport_components(g, tuple(lc_sequence), css.components)
    return SeparableStateDescription(comps, css.weight)


# ---------------------------------------------------------------------------
# Bell-pair extraction (matching lower-bound witness)


class BellSearchError(RuntimeError):
    """Raised when no in-budget move sequence reaches the Bell-pair graph."""


@dataclass(frozen=True)
class BellExtraction:
    moves: tuple
    final: Graph
    partition_a: frozenset[int]


_BELL_TREES: dict = {}
_BELL_TREE_LIMIT = 64
_BACKWARD_CAP_N = 6
_FORWARD_STATE_CAP = 500_000


def _bell_moves(n: int, amask: int):
    """Within-partition CZ toggles (sorted pairs) then local complementations."""
    moves = []
    for u in range(n):
        for v in range(u + 1, n):
            same_a = ((amask >> u) & 1) and ((amask >> v) & 1)
            same_b = not ((amask >> u) & 1) and not ((amask >> v) & 1)
            if same_a or same_b:
                moves.append(("cz", u + 1, v + 1))
    moves.extend(("lc", a) for a in range(1, n + 1))
    return tuple(moves)


def _apply_bell_move(adj, move):
    if move[0] == "cz":
        u, v = move[1] - 1, move[2] - 1
        out = list(adj)
        out[u] ^= 1 << v
        out[v] ^= 1 << u
        return tuple(out)
    return _tau(adj, move[1] - 1)


def _contains_all(adj, medges) -> bool:
    return all((adj[u - 1] >> (v - 1)) & 1 for u, v in medges)


def _goal_adj(n: int, medges) -> tuple[int, ...]:
    out = [0] * n
    for u, v in medges:
        out[u - 1] |= 1 << (v - 1)
        out[v - 1] |= 1 << (u - 1)
    return tuple(out)


def _bell_tree(n: int, medges, amask: int) -> dict:
    """Backward BFS tree over all matching-preserving states, rooted at the goal.

    Every move is an involution, so the tree reaches exactly the states from
    which the goal is reachable; shared across queries with the same matching
    and partition.
    """
    key = (n, medges, amask)
    tree = _BELL_TREES.get(key)
    if tree is not None:
        return tree
    goal = _goal_adj(n, medges)
    moves = _bell_moves(n, amask)
    tree = {goal: None}
    queue = deque([goal])
    while queue:
        cur = queue.popleft()
        for move in moves:
            nxt = _apply_bell_move(cur, move)
            if nxt in tree or not _contains_all(nxt, medges):
                continue
            tree[nxt] = (move, cur)
            queue.append(nxt)
    if len(_BELL_TREES) >= _BELL_TREE_LIMIT:
        _BELL_TREES.pop(next(iter(_BELL_TREES)))
    _BELL_TREES[key] = tree
    return tree


def _bell_forward(g: Graph, medges, amask: int, budget: int):
    goal = _goal_adj(g.n, medges)
    moves = _bell_moves(g.n, amask)
    start = g.adj
    if start == goal:
        return ()
    parents = {start: None}
    queue = deque([(start, 0)])
    while queue:
        cur, depth = queue.popleft()
        if depth >= budget:
            continue
        for move in moves:
            nxt = _apply_bell_move(cur, move)
            if nxt in parents or not _contains_all(nxt, medges):
                continue
            parents[nxt] = (move, cur)
            if nxt == goal:
                seq = []
                state = nxt
                while parents[state] is not None:
                    move, prev = parents[state]
                    seq.append(move)
                    state = prev
                return tuple(reversed(seq))
            if len(parents) > _FORWARD_STATE_CAP:
                return None
            queue.append((nxt, depth + 1))
    return None


def _bell_try_partition(g: Graph, medges, amask: int, budget: int):
    if g.n <= _BACKWARD_CAP_N:
        tree = _bell_tree(g.n, medges, amask)
        if g.adj not in tree:
            return None
        seq = []
        state = g.adj
        while tree[state] is not None:
            move, parent = tree[state]
            seq.append(move)
            state = parent
        return tuple(seq) if len(seq) <= budget else None
    return _bell_forward(g, medges, amask, budget)


def bell_extraction(g: Graph, matching, budget: int | None = None) -> BellExtraction:
    """Reduce g to exactly its matched edges using within-partition CZs and LCs.

    Partition A holds one endpoint per matched edge (smaller endpoint first;
    the remaining selections are tried in order on failure).  The returned
    move sequence is replayed and verified: every matched edge survives every
    intermediate graph and the final graph is the disjoint union of the
    matched edges plus isolated vertices.
    """
    medges = tuple(sorted((min(u, v), max(u, v)) for u, v in matching))
    used = set()
    for u, v in medges:
        if not g.has_edge(u, v):
            raise ValueError(f"matched pair ({u},{v}) is not an edge")
        if u in used or v in used:
            raise ValueError("matching edges share a vertex")
        used.update((u, v))
    if len(medges) != _matching_max_size(g.n, g.adj):
        raise ValueError("matching is not maximum")
    if budget is None:
        budget = 4 * g.n

    m = len(medges)
    for sel in range(1 << m):
        amask = 0
        for i, (u, v) in enumerate(medges):
            pick = v if (sel >> i) & 1 else u
            amask |= 1 << (pick - 1)
        seq = _bell_try_partition(g, medges, amask, budget)
        if seq is None:
            continue
        adj = g.adj
        for move in seq:
            adj = _apply_bell_move(adj, move)
            if not _contains_all(adj, medges):
                raise BellSearchError("matched edge deleted mid-sequence")
        if adj != _goal_adj(g.n, medges):
            raise BellSearchError("replayed sequence missed the goal graph")
        return BellExtraction(
            moves=seq,
            final=Graph(g.n, adj),
            partition_a=frozenset(b + 1 for b in _bits(amask)),
        )
    raise BellSearchError(
        f"no move sequence within budget {budget} for any endpoint selection"
    )


# ---------------------------------------------------------------------------
# Full evaluation


@dataclass(frozen=True)
class EntanglementReport:
    """Measures plus certificates; point values only when the bounds coincide.

    When lc_path is nonempty the decomposition belongs to the LC-transformed
    graph reached along lc_path, while css/cps are transported back to the
    original labelling (complex Y-axis labels may appear there).
    """

    graph: Graph
    bounds: BoundsReport
    e_schmidt: object
    e_relative_entropy: object
    e_geometric: object
    decomposition: Decomposition
    css: SeparableStateDescription
    cps: str
    maximally_entangled: bool
    lc_path: tuple[int, ...]

    def to_dict(self) -> dict:
        def measure(v):
            return list(v) if isinstance(v, tuple) else v

        return {
            "graph": {"n": self.graph.n, "edges": [list(e) for e in self.graph.edges()]},
            "n": self.graph.n,
            "bounds": {
                "lower": self.bounds.lower,
                "upper": self.bounds.upper,
                "coincide": self.bounds.coincide,
                "classification": self.bounds.classification,
                "truncated": self.bounds.truncated,
            },
            "measures": {
                "schmidt": measure(self.e_schmidt),
                "ree": measure(self.e_relative_entropy),
                "geometric": measure(self.e_geometric),
            },
            "decomposition": [
                {"sign": sign, "state": state} for sign, state in self.decomposition.terms
            ],
            "css": {"components": list(self.css.components), "weight": self.css.weight},
            "cps": self.cps,
            "maximally_entangled": self.maximally_entangled,
            "lc_path": list(self.lc_path),
        }


def evaluate(g: Graph, orbit_cap: int = DEFAULT_ORBIT_CAP) -> EntanglementReport:
    """Evaluate all three measures with certificates for a connected graph state.

    The decomposition is built on g itself whenever its own vertex cover
    already attains the orbit minimum; otherwise on the orbit representative,
    with the CSS/CPS transported back to g's labelling along the LC path.
    """
    orbit = lc_orbit(g, orbit_cap)
    rep_bounds = bounds(g, orbit=orbit)
    n = g.n
    if orbit.own_vertex_cover == rep_bounds.upper:
        base, path = g, ()
    else:
        base, path = rep_bounds.representative, rep_bounds.lc_path
    decomp = minimal_decomposition(base)
    basis = tuple(state for _, state in decomp.terms)  # the CSS mixes the same basis
    if path:
        back, basis = _transport_components(base, tuple(reversed(path)), basis)
        if back.adj != g.adj:
            raise RuntimeError("LC path replay failed to return to the input graph")
    css = SeparableStateDescription(basis, 1.0 / len(basis))
    cps = css.components[0]
    if rep_bounds.coincide:
        value = float(rep_bounds.upper)
        schmidt = ree = geometric = value
        maximal = rep_bounds.upper == n // 2
    else:
        interval = (float(rep_bounds.lower), float(rep_bounds.upper))
        schmidt = ree = geometric = interval
        maximal = False
    return EntanglementReport(
        graph=g,
        bounds=rep_bounds,
        e_schmidt=schmidt,
        e_relative_entropy=ree,
        e_geometric=geometric,
        decomposition=decomp,
        css=css,
        cps=cps,
        maximally_entangled=maximal,
        lc_path=tuple(path),
    )

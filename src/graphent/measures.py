"""Bounds, direct evaluation of the three measures, and the certificates.

The pipeline: the cut rank r is the lower bound (see BoundsReport) and the
LC orbit's least |beta| the upper; when they coincide all three measures
equal log2 of the number of terms in the minimal product decomposition, and
the closest separable state / closest product state certificates are built
from the product basis stabilized by the maximum-independent-set subgroup.

bounds and evaluate share one solve, _solve, whose docstring states the
settled rule: an input it settles needs no orbit work at any cap, and its
bounds and classification are the ones that solving the whole orbit gives.
truncated thus means one thing: the cap cut off the orbit solve that the
upper bound rests on.

evaluate solves each sub-problem once: r, g's own |beta| and |M_max| and m
are worked out once (graphs._root_facts) and handed to the orbit solve,
which solves the members whose solve could still change its summary; that
summary carries the values bounds needs; then one maximum independent set
of the graph the decomposition is built on (g, or the orbit representative
at the end of the LC path) gives its stabilized basis.  With an empty LC
path the decomposition, the CSS and the CPS are views of that one basis; on
a nonempty path evaluate builds the representative's basis a second time,
as the label buffer that the transport carries back to g for the CSS and
the CPS.

E_R and E_G are one value on a graph state |G>, so one interval serves both.
For a product state |phi>, the twirl sigma_phi = 2^-n sum_s s|phi><phi|s over
the 2^n stabilizer elements s is separable (each s|phi> is a product state)
and diagonal in the basis Z^k|G>: each s has every Z^k|G> as an eigenvector,
and the signs of two distinct k average out.  Its k = 0 entry is
|<G|phi>|^2, so S(G||sigma_phi) = -log2 |<G|phi>|^2 and E_R <= E_G.  E_R >= E_G
holds for every pure state: -<G|log2 sigma|G> >= -log2 <G|sigma|G> (log is
concave), and no separable sigma has <G|sigma|G> above the best product
overlap.  The twirl of the CPS is the CSS mixture.

The basis stays one pauli label buffer through signs and transport: the
decomposition's signs are read from its beta columns taken as integers
(_signs), so this module, like pauli, needs no numpy.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

from .graphs import (
    DEFAULT_ORBIT_CAP,
    Graph,
    _bits,
    _check_orbit_cap,
    _independent_mask,
    _mask_of,
    _root_facts,
    is_bipartite,
    lc_orbit,
    local_complement,
    max_independent_set,
)
from .pauli import _MAX_LISTED_BETA, _basis_codes, _decode_states, _transport_step, stabilized_product_basis
from .pauli import group_elements, restricted_subgroup

# Classification labels for the bound-equality statements.
ALPHA_LT_HALF = "ALPHA_LT_HALF"
ALPHA_GT_HALF = "ALPHA_GT_HALF"
ALPHA_EQ_HALF_PERFECT = "ALPHA_EQ_HALF_PERFECT"
ALPHA_EQ_HALF_IMPERFECT = "ALPHA_EQ_HALF_IMPERFECT"
BIPARTITE_KONIG = "BIPARTITE_KONIG"


def classify(alpha_size: int, n: int, matching_is_perfect: bool) -> str:
    """Bound-equality classification from |alpha| against n/2.

    |alpha| < n/2 predicts unequal bounds, |alpha| > n/2 predicts equal; at
    |alpha| = n/2 a perfect maximum matching decides.
    """
    if 2 * alpha_size < n:
        return ALPHA_LT_HALF
    if 2 * alpha_size > n:
        return ALPHA_GT_HALF
    return ALPHA_EQ_HALF_PERFECT if matching_is_perfect else ALPHA_EQ_HALF_IMPERFECT


@dataclass(frozen=True)
class BoundsReport:
    """[lower, upper] on E_S, E_R and E_G, and the paper's classification.

    lower is r, the GF(2) rank of the best cut found (graphs._cut_rank_bound):
    across it the Schmidt rank is 2^r with a flat spectrum (Hein, Eisert and
    Briegel, quant-ph/0307130), so E_S, E_R (the entropy across the cut;
    Vedral and Plenio, PRA 57, 1619 (1998)) and E_G (no product overlap
    beats 2^-r) are at least r, on every LC-orbit member and at any cap.
    E_R and E_G share each bound, being one value on a graph state (the
    twirl argument of the module docstring).  upper is the least |beta|
    over the orbit members solved; truncated says the cap cut the orbit off.
    A truncated upper can sit above a least Pauli rank m that
    graphs._min_pauli_rank has proved, and no field carries m: seeded
    G(16, 1/2) with s = 3 reports [8, 10] at caps 200 to 5,000, with m = 9.
    """

    lower: int
    upper: int
    coincide: bool
    classification: str
    truncated: bool


def bounds(g: Graph, orbit_cap: int = DEFAULT_ORBIT_CAP) -> BoundsReport:
    """Bounds [r, orbit-least |beta|] plus the equality classification.

    Bipartite inputs short-circuit to BIPARTITE_KONIG; otherwise the
    statements are evaluated on the orbit representative.  When the cap cuts
    off the orbit solve, `truncated` is set, and the upper bound and the
    classification rest on the members solved; r holds on every member.
    The bounds are those of _solve, which evaluate shares; an input that
    its settled rule settles is never truncated.
    """
    return _solve(g, orbit_cap)[0]


def _solve(g: Graph, orbit_cap: int, *, listed: bool = False) -> tuple[BoundsReport, Graph, tuple[int, ...]]:
    """(bounds, base, path) of g, which must be connected: base is the graph
    to build the certificates on and path the LC vertex sequence from g to it.
    listed refuses, before any orbit work, a g with no listable decomposition.

    The settled rule.  root is _root_facts(g): the cut rank r, g's own
    |beta| and |M_max|, and the proved least Pauli rank m.  r bounds |M_max|
    of every orbit member from below, and m bounds every member's |beta|
    from below (see _min_pauli_rank), so when g's own |beta| is m and its
    own |M_max| is r, g has the least (|beta|, |M_max|) pair of the orbit
    (an own |beta| of r is the case m = r): the bounds [r, m] and g's
    classification are proved without the orbit, which is not enumerated
    at any cap, so the report is never truncated.  Otherwise the orbit is
    solved with root (lc_orbit states how it prunes), and base is g
    whenever its own cover attains the upper bound, else the representative.
    """
    _check_orbit_cap(orbit_cap)
    if not g.is_connected():
        raise ValueError("bounds require a connected graph")
    root = _root_facts(g)
    r, cover = root.cut_rank, root.own_cover
    if listed and r > _MAX_LISTED_BETA:  # no member's |beta| is below r
        raise ValueError(
            f"the stabilized basis has at least 2^{r} states, past the 2^{_MAX_LISTED_BETA} that can be listed"
        )
    if cover == root.pauli_rank and root.own_matching == r:
        upper, matching, truncated = cover, r, False
    else:
        orbit = lc_orbit(g, orbit_cap, _root=root)
        upper, matching, truncated = orbit.min_vertex_cover, orbit.representative_matching, orbit.truncated
    n = g.n
    if is_bipartite(g) is not None:
        classification = BIPARTITE_KONIG
    else:
        classification = classify(n - upper, n, 2 * matching == n)
    report = BoundsReport(r, upper, r == upper, classification, truncated)
    if cover == upper:  # always so when settled, so orbit is bound below
        return report, g, ()
    return report, orbit.representative, orbit.lc_path


# ---------------------------------------------------------------------------
# Decomposition and the three certificates


_K_BITS = {"0": 0, "1": 1, 0: 0, 1: 1}


def sign_function(k, g: Graph, beta) -> int:
    """Parity of beta-internal edges whose both endpoints carry k = 1.

    k has one entry per beta vertex, ascending, each 0 or 1 as a digit or a
    number; any other entry, or a beta vertex out of range, is a ValueError.
    Closed form for the sign exponent in the minimal decomposition; its
    equivalence with the dense amplitude signs is enforced by oracle tests
    before anything downstream relies on it.
    """
    beta_sorted = sorted(set(beta))
    _mask_of(beta_sorted, g.n)  # every beta vertex in range, whatever its bit
    bits = [_K_BITS.get(b) for b in k]
    if len(bits) != len(beta_sorted):
        raise ValueError("k length does not match beta")
    if None in bits:
        raise ValueError(f"k entries must be 0 or 1, got {k!r}")
    return _edge_parity(g, _mask_of((b for bit, b in zip(bits, beta_sorted) if bit), g.n))


def _edge_parity(g: Graph, kmask: int) -> int:
    """Parity of the edges of g with both endpoints in kmask."""
    return sum((g.adj[v] & kmask).bit_count() for v in _bits(kmask)) // 2 % 2


# Byte -> sign of its low bit as a signed byte: even -> +1, odd -> -1 (0xff).
_SIGN_OF_LOW_BIT = bytes(255 if x & 1 else 1 for x in range(256))


def _signs(g: Graph, amask: int, buf: bytearray) -> list[int]:
    """(-1)^q(k), q being _edge_parity of k, for every row of the basis buffer of amask.

    k is the set of beta vertices labelled "1", and of the two beta labels
    only "1" has its low bit set.  Column v read as one little-endian integer
    holds row i's label in byte i, so the AND of two columns has a low bit
    set in byte i where both ends of an edge carry "1" in row i, and the XOR
    over the beta-beta edges holds q in the low bits.
    """
    n = g.n
    beta = ~amask & ((1 << n) - 1)
    columns = {v: int.from_bytes(buf[v::n + 1], "little") for v in _bits(beta) if g.adj[v] & beta}
    q = 0
    for v in columns:
        for u in _bits(g.adj[v] & beta & ((1 << v) - 1)):
            q ^= columns[u] & columns[v]
    rows = len(buf) // (n + 1)
    return array("b", q.to_bytes(rows, "little").translate(_SIGN_OF_LOW_BIT)).tolist()


@dataclass(frozen=True)
class Decomposition:
    """Signed uniform superposition of product states reconstructing |G>."""

    terms: tuple[tuple[int, str], ...]
    normalization: float


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


def minimal_decomposition(g: Graph, alpha) -> Decomposition:
    """Signed product-state decomposition of |g> over the alpha-stabilized basis.

    2^{|beta|} terms; each state's k is the set of beta vertices carrying 1,
    and its sign is sign_function of that k.  Reconstructs the statevector
    exactly (an oracle-checked invariant).
    """
    amask = _independent_mask(g, alpha)
    buf = _basis_codes(g, amask)
    basis = _decode_states(buf)
    # a list first: tuple(zip(...)) grows its result by resizing, and CPython
    # puts a resized tuple back into the youngest GC generation, so every
    # young collection walks it again (at 2^17 terms, 29 of 73 ms went to
    # collections, against 10 ms with the list)
    pairs = list(zip(_signs(g, amask, buf), basis))
    return Decomposition(tuple(pairs), 1.0 / math.sqrt(len(basis)))


def closest_separable_state(g: Graph, alpha) -> SeparableStateDescription:
    """Uniform mixture over the stabilized product basis (the CSS certificate)."""
    basis = stabilized_product_basis(g, alpha)
    return SeparableStateDescription(basis, 1.0 / len(basis))


def css_stabilizer_form(g: Graph, alpha) -> CssStabilizerSum:
    """The same CSS as the normalized sum over the alpha-subgroup elements."""
    _independent_mask(g, alpha)
    return CssStabilizerSum(tuple(group_elements(g.n, restricted_subgroup(g, alpha))), 1.0 / (1 << g.n))


def closest_product_state(g: Graph, alpha) -> str:
    """|+> on alpha and |0> on beta: the k = 0 basis state, first under the
    canonical ordering (the CPS certificate)."""
    amask = _independent_mask(g, alpha)
    return "".join("+" if (amask >> v) & 1 else "0" for v in range(g.n))


def _transport_components(g: Graph, lc_sequence, buf: bytearray) -> Graph:
    """Apply the LC Cliffords for lc_sequence to a label buffer in place; returns the graph reached."""
    h = g
    for a in lc_sequence:
        _transport_step(h, a, buf)
        h = local_complement(h, a)
    return h


def transport_css(g: Graph, lc_sequence, alpha) -> SeparableStateDescription:
    """CSS of the graph state reached from g by the given local complementations."""
    buf = _basis_codes(g, _independent_mask(g, alpha))
    _transport_components(g, tuple(lc_sequence), buf)
    basis = _decode_states(buf)
    return SeparableStateDescription(basis, 1.0 / len(basis))


# ---------------------------------------------------------------------------
# Full evaluation


@dataclass(frozen=True)
class EntanglementReport:
    """The certificates of g and the one interval bounds, which E_S, E_R and
    E_G share (see BoundsReport; E_R = E_G by the module docstring's twirl).

    When lc_path is nonempty the decomposition belongs to the LC-transformed
    graph reached along lc_path, while css/cps are transported back to the
    original labelling (complex Y-axis labels may appear there).
    """

    graph: Graph
    bounds: BoundsReport
    decomposition: Decomposition
    css: SeparableStateDescription
    cps: str
    lc_path: tuple[int, ...]

    def to_dict(self) -> dict:
        b = self.bounds
        value = float(b.upper) if b.coincide else [float(b.lower), float(b.upper)]
        return {
            "graph": {"n": self.graph.n, "edges": [list(e) for e in self.graph.edges()]},
            "n": self.graph.n,
            "bounds": {
                "lower": b.lower,
                "upper": b.upper,
                "coincide": b.coincide,
                "classification": b.classification,
                "truncated": b.truncated,
            },
            "measures": {"schmidt": value, "ree": value, "geometric": value},
            "decomposition": [
                {"sign": sign, "state": state} for sign, state in self.decomposition.terms
            ],
            "css": {"components": list(self.css.components), "weight": self.css.weight},
            "cps": self.cps,
            "maximally_entangled": b.coincide and b.upper == self.graph.n // 2,
            "lc_path": list(self.lc_path),
        }


def evaluate(g: Graph, orbit_cap: int = DEFAULT_ORBIT_CAP) -> EntanglementReport:
    """Evaluate all three measures with certificates for a connected graph state.

    The bounds, and the graph base to build the decomposition on, come from
    _solve, which bounds shares: g itself whenever its own vertex cover
    attains the orbit minimum (an input that _solve's settled rule settles
    needs no orbit work), or else the orbit representative, with the
    CSS/CPS transported back to g's labelling along the LC path.  A
    Pauli-rank search that runs out of work proves no m and only leaves
    more members to solve: lower, upper and classification are the same
    either way, but an input settled at its own cover is then solved on its
    orbit, so truncated and the time can move.  A cut rank above the
    listing limit _MAX_LISTED_BETA is refused before orbit work.
    """
    rep_bounds, base, path = _solve(g, orbit_cap, listed=True)
    alpha = max_independent_set(base)
    decomp = minimal_decomposition(base, alpha)
    if path:  # the CSS mixes the same basis, carried back to g
        buf = _basis_codes(base, _independent_mask(base, alpha))
        if _transport_components(base, tuple(reversed(path)), buf).adj != g.adj:
            raise RuntimeError("LC path replay failed to return to the input graph")
        basis = _decode_states(buf)
    else:
        basis = tuple(state for _, state in decomp.terms)
    css = SeparableStateDescription(basis, 1.0 / len(basis))
    return EntanglementReport(g, rep_bounds, decomp, css, css.components[0], tuple(path))

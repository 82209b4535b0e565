"""Brute-force references and plain checks that the tests compare the library against.

None of these is part of the pipeline: each is the plainest way to get a
value the library computes faster, or a statement of the paper the tests
check, kept small enough to read at a glance.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from graphent import dense
from graphent.dense import DENSE_OP_CAP, _check_cap
from graphent.graphs import Graph, _bits, _mask_of, max_independent_set
from graphent.measures import (
    ALPHA_EQ_HALF_IMPERFECT,
    ALPHA_EQ_HALF_PERFECT,
    ALPHA_GT_HALF,
    ALPHA_LT_HALF,
    BIPARTITE_KONIG,
)
from graphent.pauli import PauliOperator, generators_from_graph, group_elements

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def brute_mis(g: Graph) -> int:
    """Maximum independent set size by exhaustive subset enumeration."""
    if g.n > 16:
        raise ValueError("brute MIS limited to n <= 16")
    best = 0
    for mask in range(1 << g.n):
        ok = True
        for v in _bits(mask):
            if g.adj[v] & mask:
                ok = False
                break
        if ok:
            best = max(best, mask.bit_count())
    return best


def brute_matching(g: Graph) -> tuple[tuple[int, int], ...]:
    """The lexicographically first maximum matching, as sorted 1-indexed pairs.

    Exhaustive search over matchings, extending each by a later edge of the
    sorted edge list: matchings are visited in lexicographic order, so the
    first one of the largest size is the lexicographically first.
    """
    edges = g.edges()
    best: list[tuple[int, int]] = []

    def grow(start: int, used_mask: int, chosen: list[tuple[int, int]]):
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        for idx in range(start, len(edges)):
            u, v = edges[idx]
            pair = (1 << (u - 1)) | (1 << (v - 1))
            if not used_mask & pair:
                grow(idx + 1, used_mask | pair, chosen + [(u, v)])

    grow(0, 0, [])
    return tuple(best)


def lc_unitary_dense(g: Graph, a: int) -> np.ndarray:
    """Dense local Clifford relating |g> to |local_complement(g, a)>.

    Convention: sqrt(-iX) = (I - iX)/sqrt(2) on a, sqrt(iZ) = (I + iZ)/sqrt(2)
    on each neighbour of a; locked by unit tests against the statevectors.
    """
    _check_cap(g.n, DENSE_OP_CAP, "dense LC unitary")
    sx = (np.eye(2) - 1j * _X) / math.sqrt(2)
    sz = (np.eye(2) + 1j * _Z) / math.sqrt(2)
    mat = np.array([[1.0 + 0.0j]])
    for v in range(1, g.n + 1):
        if v == a:
            local = sx
        elif (g.adj[a - 1] >> (v - 1)) & 1:
            local = sz
        else:
            local = np.eye(2, dtype=complex)
        mat = np.kron(mat, local)
    return mat


def to_graph6(g: Graph) -> str:
    """Standard graph6 encoding (0-indexed externally)."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = chr(126) + "".join(chr(((n >> shift) & 0x3F) + 63) for shift in (12, 6, 0))
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append((g.adj[i] >> j) & 1)
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = (val << 1) | b
        chars.append(chr(val + 63))
    return head + "".join(chars)


_LETTER_TO_XZ = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}


def pauli_from_text(text: str) -> PauliOperator:
    """Parse the letter form PauliOperator.text writes, e.g. 'XZI', '-IIZZXZ'
    (unicode minus accepted)."""
    s = text.strip().replace("\u2212", "-")
    phase = 0
    # lowercase i is the imaginary prefix; uppercase I is the identity letter
    if s[:2] == "-i":
        phase, s = 3, s[2:]
    elif s[:1] == "-":
        phase, s = 2, s[1:]
    elif s[:2] == "+i":
        phase, s = 1, s[2:]
    elif s[:1] == "i":
        phase, s = 1, s[1:]
    elif s[:1] == "+":
        s = s[1:]
    x = z = 0
    for b, letter in enumerate(s):
        try:
            xb, zb = _LETTER_TO_XZ[letter]
        except KeyError:
            raise ValueError(f"bad Pauli letter {letter!r} in {text!r}") from None
        x |= xb << b
        z |= zb << b
        if xb and zb:
            phase += 1  # Y = i * XZ
    return PauliOperator(len(s), x, z, phase)


def edgewise_statevector(g: Graph) -> np.ndarray:
    """|G> as CZ applied edge by edge to the all-plus state, in complex128:
    the per-edge build dense.statevector replaced.  Its complex negations
    leave -0.0 in the imaginary part of each amplitude negated an even
    number of times, which np.array_equal counts equal to +0.0."""
    _check_cap(g.n, dense.STATEVECTOR_CAP, "dense statevector")
    n = g.n
    dim = 1 << n
    amp = np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    idx = np.arange(dim)
    for (u, v) in g.edges():
        both = ((idx >> (n - u)) & 1) & ((idx >> (n - v)) & 1)  # qubit 1 is the most significant bit
        amp[both == 1] *= -1.0
    return amp


def complex_product_vectors(states) -> np.ndarray:
    """(K, 2^n) complex128 array of the dense vectors of K product state
    strings, whatever their labels: the reference for dense._vectors, whose
    float64 rows for labels 0 1 + - must be its real parts."""
    return dense._tensor_rows(dense._label_codes(states), dense._QUBIT_TABLE)


def twirl(g: Graph, phi: np.ndarray) -> np.ndarray:
    """sigma_phi = 2^-n sum_s s|phi><phi|s^dagger over the 2^n elements s of
    g's stabilizer group, as V^T conj(V) / 2^n for the rows s|phi> of V
    (dense.apply_pauli): no group element is formed as a matrix."""
    vecs = np.array([dense.apply_pauli(s, phi) for s in group_elements(g.n, generators_from_graph(g))])
    return vecs.T @ vecs.conj() / len(vecs)


def all_connected_graphs(n: int):
    """Yield every connected labelled graph on n vertices (small n only)."""
    if n > 6:
        raise ValueError("exhaustive enumeration limited to n <= 6")
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        g = Graph.from_edges(n, edges)
        if g.is_connected():
            yield g


def brute_min_pauli_rank(g: Graph) -> int:
    """Least GF(2) rank of M_P over all 3^n choices P in {X, Y, Z}^n, where
    row v of M_P is e_v (Z), A_v (X) or e_v + A_v (Y)."""
    if g.n > 8:
        raise ValueError("brute Pauli-rank minimum limited to n <= 8")
    best = g.n
    for choice in itertools.product((0, 1, 2), repeat=g.n):
        rows = [((1 << v) if c != 1 else 0) ^ (g.adj[v] if c != 0 else 0) for v, c in enumerate(choice)]
        rank = 0
        while rows:  # eliminate on the lowest set bit of the last row
            pivot = rows.pop()
            if pivot:
                rank += 1
                low = pivot & -pivot
                rows = [r ^ pivot if r & low else r for r in rows]
        best = min(best, rank)
    return best


def noise_css_quadrature(g: Graph, beta=None, points: int = 64) -> np.ndarray:
    """Continuous-phase version on a uniform grid, for validating the 2-point average."""
    if beta is None:
        beta = frozenset(range(1, g.n + 1)) - max_independent_set(g)
    _mask_of(beta, g.n)
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


def construction_density(construction) -> np.ndarray:
    """The full rho of a separable.CssConstruction, as the constructions built
    it before the row blocks: factor^T factor, then divided in place by the
    divisor (the trace of that product for peps_css, 2^m for noise_css)."""
    rho = construction.factor.T @ construction.factor
    rho /= construction.divisor
    return rho


def parity_projector(d: int) -> np.ndarray:
    """The PEPS site projector |+><~+| + |-><~-| on d virtual qubits, as a
    2 x 2^d matrix: every X-basis string of even parity goes to |+>, every
    one of odd parity to |->."""
    kets = (dense.QUBIT_STATES["+"].real, dense.QUBIT_STATES["-"].real)
    proj = np.zeros((2, 1 << d))
    for signs in itertools.product((0, 1), repeat=d):
        bra = np.ones(1)
        for s in signs:
            bra = np.kron(bra, kets[s])
        proj += np.outer(kets[sum(signs) & 1], bra)
    return proj


def repetition_projector(d: int) -> np.ndarray:
    """The PEPS site projector |0><0...0| + |1><1...1| on d virtual qubits,
    as a 2 x 2^d matrix."""
    proj = np.zeros((2, 1 << d))
    proj[0, 0] = proj[1, -1] = 1.0
    return proj


def full_mixture(components) -> np.ndarray:
    """The uniform mixture as one product A A^dagger of the dim x K factor
    (numpy's symmetric path when A is real), as the oracle built it before
    the row blocks."""
    a = dense.mixture_factor(components).T
    return a @ a.T if a.dtype == np.float64 else a @ a.conj().T


def full_css_errors(basis, group_sum, peps, noise) -> dict[str, float]:
    """cli._css_errors from full 2^n x 2^n matrices: the largest entrywise
    distance of the group sum, the PEPS assembly and dephasing from the
    mixture over basis."""
    mixture = full_mixture(basis)
    group = dense.pauli_sum(group_sum.elements)
    group *= group_sum.scale
    built = {"stabilizer_sum": group, "peps": construction_density(peps), "noise": construction_density(noise)}
    return {name: float(np.abs(rho - mixture).max()) for name, rho in built.items()}


# Whether each bound-equality classification predicts coinciding bounds.
_PREDICTS_EQUAL = {
    ALPHA_LT_HALF: False,
    ALPHA_GT_HALF: True,
    ALPHA_EQ_HALF_PERFECT: True,
    ALPHA_EQ_HALF_IMPERFECT: False,
    BIPARTITE_KONIG: True,
}


def predicts_equal(classification: str) -> bool:
    return _PREDICTS_EQUAL[classification]


def commutes(p: PauliOperator, q: PauliOperator) -> bool:
    return ((p.x & q.z).bit_count() + (p.z & q.x).bit_count()) % 2 == 0


def entangles_check(generators) -> bool:
    """True when some kept generator has Z on another kept generator's vertex.

    For graph stabilizers this means the kept vertex set is not independent,
    so the stabilized set contains entangled states rather than a product
    basis.
    """
    for p, q in itertools.permutations(generators, 2):
        if p.x & q.z:
            return True
    return False

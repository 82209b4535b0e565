"""Dense linear-algebra reference implementations (the desk-scale ground truth).

Every structural claim made by the fast modules is checkable here against
explicit statevectors and density matrices.  Qubit 1 is the most significant
bit of the computational-basis index, so state strings read left to right.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np

from .graphs import Graph, _bits, local_complement

STATEVECTOR_CAP = 14
DENSE_OP_CAP = 10

_S2 = 1.0 / math.sqrt(2.0)

#: Dense 2-vectors of the six single-qubit stabilizer states, keyed by label.
QUBIT_STATES = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([_S2, _S2], dtype=complex),
    "-": np.array([_S2, -_S2], dtype=complex),
    "i": np.array([_S2, _S2 * 1j], dtype=complex),
    "j": np.array([_S2, -_S2 * 1j], dtype=complex),
}
_LABEL_INDEX = {label: i for i, label in enumerate(QUBIT_STATES)}
_QUBIT_TABLE = np.array(list(QUBIT_STATES.values()))

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_EIG_FLOOR = 1e-14


def _check_cap(n: int, cap: int, what: str):
    if n > cap:
        raise ValueError(f"{what} limited to n <= {cap}, got n = {n}")


def statevector(g: Graph) -> np.ndarray:
    """Graph state vector: CZ along every edge applied to the all-plus state."""
    _check_cap(g.n, STATEVECTOR_CAP, "dense statevector")
    n = g.n
    dim = 1 << n
    amp = np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    idx = np.arange(dim)
    for (u, v) in g.edges():
        bu = n - u  # qubit 1 is the most significant bit
        bv = n - v
        both = ((idx >> bu) & 1) & ((idx >> bv) & 1)
        amp[both == 1] *= -1.0
    return amp


def graph_basis_state(g: Graph, k) -> np.ndarray:
    """Z^k applied to the graph state; k is a bit-string over vertices 1..n."""
    bits = _as_bits(k, g.n)
    amp = statevector(g).copy()
    idx = np.arange(1 << g.n)
    for a, bit in enumerate(bits, start=1):
        if bit:
            amp[((idx >> (g.n - a)) & 1) == 1] *= -1.0
    return amp


def _as_bits(k, n: int) -> tuple[int, ...]:
    if isinstance(k, str):
        if len(k) != n or set(k) - {"0", "1"}:
            raise ValueError(f"bad bit-string {k!r} for n = {n}")
        return tuple(int(c) for c in k)
    bits = tuple(int(b) for b in k)
    if len(bits) != n or set(bits) - {0, 1}:
        raise ValueError(f"bad bit sequence for n = {n}")
    return bits


def product_state_vector(state: str) -> np.ndarray:
    """Dense vector of a product state string over the {0,1,+,-,i,j} alphabet."""
    return _product_vectors([state])[0]


def _product_vectors(states) -> np.ndarray:
    """(K, 2^n) array of the dense vectors of K product state strings of length n.

    Row by row the same multiplications as np.kron from [1], so the same bits.
    """
    try:  # numpy refuses strings of different lengths with a ValueError
        labels = np.array([[_LABEL_INDEX[ch] for ch in s] for s in states], dtype=np.intp)
    except KeyError as exc:
        raise ValueError(f"unknown qubit label {exc.args[0]!r}") from None
    k = len(states)
    vecs = np.ones((k, 1), dtype=complex)
    for col in labels.T:
        vecs = (vecs[:, :, None] * _QUBIT_TABLE[col][:, None, :]).reshape(k, -1)
    return vecs


def _index_mask(bits: int, n: int) -> int:
    """Index-space mask of a vertex bit mask: bit a-1 (qubit a) goes to bit n-a."""
    return sum(1 << (n - a) for a in range(1, n + 1) if (bits >> (a - 1)) & 1)


def _parity(v: np.ndarray, n: int) -> np.ndarray:
    """Parity of the low n bits of each entry, by XOR-folding."""
    shift = 1
    while shift < n:
        v = v ^ (v >> shift)
        shift <<= 1
    return v & 1


def pauli_dense(p) -> np.ndarray:
    """Dense matrix of a symplectic Pauli operator, phase included.

    i^phase X^x Z^z sends |k> to i^phase (-1)^(z.k) |k xor x>: a signed
    permutation with one nonzero entry per column.
    """
    _check_cap(p.n, DENSE_OP_CAP, "dense Pauli")
    k = np.arange(1 << p.n)
    sign = 1 - 2 * _parity(k & _index_mask(p.z, p.n), p.n)
    mat = np.zeros((k.size, k.size), dtype=complex)
    mat[k ^ _index_mask(p.x, p.n), k] = (1j ** (p.phase % 4)) * sign
    return mat


def _mixture_factor(components) -> np.ndarray:
    """dim x K factor A = V^T sqrt(1/K) of the mixture A A^dagger; V's rows
    are the components' vectors."""
    vecs = _product_vectors(components)
    return vecs.T * np.sqrt(1.0 / len(vecs))


def mixture_density(components) -> np.ndarray:
    """Density matrix of the uniform classical mixture of product state strings."""
    factor = _mixture_factor(components)
    return factor @ factor.conj().T


def relative_entropy_pure(psi: np.ndarray, omega: np.ndarray) -> float:
    """S(rho||omega) = -<psi|log2 omega|psi> for pure rho; +inf outside support."""
    evals, evecs = np.linalg.eigh(omega)
    coeffs = evecs.conj().T @ psi
    weights = np.abs(coeffs) ** 2
    out_of_support = weights[evals <= _EIG_FLOOR].sum()
    if out_of_support > 1e-10:
        return math.inf
    keep = evals > _EIG_FLOOR
    return float(-(weights[keep] * np.log2(evals[keep])).sum())


def mixture_relative_entropy(psi: np.ndarray, components) -> float:
    """relative_entropy_pure(psi, mixture_density(components)), the uniform
    mixture, from its thin factor without forming or diagonalising omega.

    omega = A A^dagger for the dim x K factor A, so the SVD A = U S W^dagger
    gives omega's nonzero eigenpairs (S^2, U) at O(dim K^2) cost; every other
    eigenvector is orthogonal to U, with eigenvalue 0.
    """
    u, s, _ = np.linalg.svd(_mixture_factor(components), full_matrices=False)
    evals = s**2
    weights_psi = np.abs(u.conj().T @ psi) ** 2
    keep = evals > _EIG_FLOOR
    out_of_support = float(np.vdot(psi, psi).real) - weights_psi[keep].sum()
    if out_of_support > 1e-10:
        return math.inf
    # adding 0.0 turns the -0.0 of a zero sum (one vertex: log2(1) = 0) into 0.0
    return float(-(weights_psi[keep] * np.log2(evals[keep])).sum()) + 0.0


def overlap2(psi: np.ndarray, phi: str) -> float:
    """Squared overlap of a dense state with a product state string."""
    vec = product_state_vector(phi)
    return float(abs(np.vdot(vec, psi)) ** 2)


def best_product_overlap(
    psi: np.ndarray, restarts: int = 200, iterations: int = 100, seed: int = 0
) -> float:
    """Heuristic max product overlap via alternating single-site optimisation.

    A lower bound witness only: used to check that no product state found by
    search beats a closest-product-state certificate, never to certify
    optimality on its own.

    All restarts run together as one (R, n, 2) array of site vectors.  A
    sweep sets each site in turn to its normalised environment (psi
    contracted with the conjugates of the other sites).  A restart stops once
    a sweep changes its overlap by less than 1e-13 and keeps the overlap from
    before that sweep.
    """
    n = int(round(math.log2(psi.size)))
    if 1 << n != psi.size:
        raise ValueError("statevector length is not a power of two")
    _check_cap(n, 8, "product-overlap search")
    rng = np.random.default_rng(seed)
    # the same numbers as drawing real then imaginary parts restart by restart
    draws = rng.normal(size=(restarts, 2, n, 2))
    locs = draws[:, 0] + 1j * draws[:, 1]
    locs /= np.linalg.norm(locs, axis=2, keepdims=True)
    prev = np.full(restarts, -1.0)
    active = np.arange(restarts)
    for _ in range(iterations):
        if active.size == 0:
            break
        sub = locs[active]
        val = _overlap_sweep(psi, sub)
        locs[active] = sub
        moving = ~(np.abs(val - prev[active]) < 1e-13)
        prev[active[moving]] = val[moving]
        active = active[moving]
    return float(prev.max(initial=0.0))


def _overlap_sweep(psi: np.ndarray, locs: np.ndarray) -> np.ndarray:
    """One Gauss-Seidel sweep over the sites of every restart in locs (R, n, 2),
    in place; returns each restart's squared overlap after the sweep."""
    r, n, _ = locs.shape
    # right[a]: product of the conjugate site vectors after a, before the sweep
    right = [np.ones((r, 1), dtype=complex)]
    for a in range(n - 1, 0, -1):
        right.append((locs[:, a, :, None].conj() * right[-1][:, None, :]).reshape(r, -1))
    right.reverse()
    # left: psi contracted with the updated conjugate site vectors before a
    left = np.broadcast_to(psi, (r, psi.size))
    for a in range(n):
        block = left.reshape(r, 2, -1)
        env = np.einsum("rij,rj->ri", block, right[a])
        norm = np.linalg.norm(env, axis=1)
        ok = norm > 1e-15
        locs[ok, a] = env[ok] / norm[ok, None]
        left = np.einsum("ri,rij->rj", locs[:, a].conj(), block)
    return np.abs(left[:, 0]) ** 2


def reduced_entropy(psi: np.ndarray, a) -> float:
    """Entanglement entropy (bits) across the cut (a, complement) of an n-qubit psi."""
    n = int(round(math.log2(psi.size)))
    part = sorted(set(a))
    if not part or len(part) >= n:
        raise ValueError("cut requires a proper nonempty vertex subset")
    rest = [v for v in range(1, n + 1) if v not in part]
    tensor = psi.reshape((2,) * n)
    perm = [v - 1 for v in part] + [v - 1 for v in rest]
    mat = tensor.transpose(perm).reshape(1 << len(part), 1 << len(rest))
    svals = np.linalg.svd(mat, compute_uv=False)
    probs = svals**2
    probs = probs[probs > 1e-14]
    return float(-(probs * np.log2(probs)).sum())


# ---------------------------------------------------------------------------
# Brute-force combinatorial references


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


def brute_matching(g: Graph) -> int:
    """Maximum matching size by exhaustive search over matchings."""
    edges = g.edges()

    def grow(start: int, used_mask: int) -> int:
        best = 0
        for idx in range(start, len(edges)):
            u, v = edges[idx]
            pair = (1 << (u - 1)) | (1 << (v - 1))
            if used_mask & pair:
                continue
            best = max(best, 1 + grow(idx + 1, used_mask | pair))
        return best

    return grow(0, 0)


def brute_orbit(g: Graph, cap: int = 10_000) -> set[tuple[int, ...]]:
    """Labelled LC orbit by plain BFS; independent of graphs.lc_orbit internals."""
    if g.n > 8:
        raise ValueError("brute orbit limited to n <= 8")
    seen = {g.adj}
    queue = deque([g])
    while queue:
        cur = queue.popleft()
        for a in range(1, cur.n + 1):
            nxt = local_complement(cur, a)
            if nxt.adj not in seen:
                if len(seen) >= cap:
                    raise RuntimeError("brute orbit cap exceeded")
                seen.add(nxt.adj)
                queue.append(nxt)
    return seen


def lc_unitary_dense(g: Graph, a: int) -> np.ndarray:
    """Dense local Clifford relating |g> to |local_complement(g, a)>.

    Convention: sqrt(-iX) = (I - iX)/sqrt(2) on a, sqrt(iZ) = (I + iZ)/sqrt(2)
    on each neighbour of a; locked by unit tests against the statevectors.
    """
    _check_cap(g.n, DENSE_OP_CAP, "dense LC unitary")
    sx = (np.eye(2) - 1j * _X) / math.sqrt(2)
    sz = (np.eye(2) + 1j * _Z) / math.sqrt(2)
    nb = g.neighbors(a)
    mat = np.array([[1.0 + 0.0j]])
    for v in range(1, g.n + 1):
        if v == a:
            local = sx
        elif v in nb:
            local = sz
        else:
            local = np.eye(2, dtype=complex)
        mat = np.kron(mat, local)
    return mat


def equal_up_to_phase(u: np.ndarray, v: np.ndarray, tol: float = 1e-10) -> bool:
    """True when two state vectors differ only by a global phase."""
    k = int(np.argmax(np.abs(u)))
    if abs(u[k]) < tol or abs(v[k]) < tol:
        return bool(np.allclose(u, v, atol=tol))
    phase = v[k] / u[k]
    return bool(abs(abs(phase) - 1.0) < tol and np.allclose(u * phase, v, atol=tol))


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

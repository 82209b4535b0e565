"""Dense linear algebra: the desk-scale oracle and the product-overlap search.

Explicit statevectors, Pauli matrices and density matrices, against which
`verify` and `css` check the fast modules' claims, plus the heuristic
search for the best product-state overlap.  Qubit 1 is the most significant
bit of the computational-basis index, so state strings read left to right.
`statevector` builds |G> by doubling over the vertices, one sign flip per
edge on half the amplitudes so far, instead of a pass over all 2^n
amplitudes per edge; each amplitude is +-1/sqrt(2^n) negated exactly, so the
bits are those of CZ applied edge by edge.

The CSS checks compare 2^n x 2^n matrices entry by entry without forming
any of them: each entry rule has a row-block kernel, and the caller walks
ROW_BLOCK rows at a time.  `gram_rows` gives rows of F^T G for thin factors
(a mixture, the PEPS assembly, dephasing), as one plain GEMM over the rows
of F that are nonzero on the block's columns.  A left-out row adds only
exact zeros; every mixture and PEPS entry is one product, so its bits do
not depend on which zeros are summed, and Phi, which has no zero row, keeps
the product over all its rows.  numpy's symmetric path for A @ A.T computes
one triangle and copies it across with strided writes: 7.0 ms at 1024 x 64,
against 2.8 ms for a GEMM with a contiguous copy of the transpose, which
gives the same bits.  `pauli_sum_rows` gives rows of a Pauli group sum,
each operator adding its one nonzero entry per row.
`mixture_density` and `pauli_sum` are their whole-range cases.  A single
Pauli acts on a vector (`apply_pauli`) without a matrix.

The dtype is chosen in one place, from the labels: `statevector` is
float64 (a graph state has real amplitudes), and `_vectors` gives float64
rows when every label is one of 0 1 + -, complex128 only for an i or j.
The stabilizer elements of a graph state are real (even phase), so its
group sum is float64 too, and every CSS-check entry is one product or a
sum of +-1, exact in either dtype: float64 row blocks have the bits of
full complex128 matrices.
"""

from __future__ import annotations

import math

import numpy as np

from .graphs import Graph, _bits, _mask_of

STATEVECTOR_CAP = 14
DENSE_OP_CAP = 10
#: Rows per block of the CSS checks: 512 KiB of float64 per block at n = 10,
#: and at least two blocks from n = 7 on, so that no 2^n x 2^n array is
#: formed there.  The whole check of three G(10, 20) graphs took 50.7 ms
#: with 64 rows, 53.9 with 128, 60.5 with 32, 65.7 with 256 and 152.0 in
#: one block of 1024 rows, whose 8 MiB results fall out of cache.
ROW_BLOCK = 64

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
#: Labels 0 1 + - (codes below 4) have real vectors: these rows, as float64.
_REAL_CODES = 4
_REAL_TABLE = _QUBIT_TABLE[:_REAL_CODES].real.copy()

_EIG_FLOOR = 1e-14


def _check_cap(n: int, cap: int, what: str):
    if n > cap:
        raise ValueError(f"{what} limited to n <= {cap}, got n = {n}")


def statevector(g: Graph) -> np.ndarray:
    """Graph state vector: CZ along every edge applied to the all-plus state.

    Built by doubling over the vertices, as pauli._basis_codes builds the
    basis: last vertex first, each vertex v becomes the most significant
    index bit, and the amplitudes with v's bit 1 are those so far with CZ
    from v to its later neighbours applied, a sign flip wherever such a
    neighbour's bit is 1.  Each amplitude is a float64 +-1/sqrt(2^n),
    negated exactly: the bits of CZ applied edge by edge.
    """
    _check_cap(g.n, STATEVECTOR_CAP, "dense statevector")
    n = g.n
    amp = np.full(1, 1.0 / math.sqrt(1 << n))
    for v in range(n - 1, -1, -1):  # qubit v + 1 is index bit n - 1 - v
        upper = amp.copy()
        for w in _bits(g.adj[v] >> (v + 1) << (v + 1)):
            half = upper.reshape(-1, 2, 1 << (n - 1 - w))[:, 1]
            np.negative(half, out=half)
        amp = np.concatenate([amp, upper])
    return amp


def product_state_vector(state: str) -> np.ndarray:
    """Dense vector of a product state string over the {0,1,+,-,i,j} alphabet,
    float64 when every label is one of 0 1 + -."""
    return _vectors([state])[0]


def _vectors(states) -> np.ndarray:
    """(K, 2^n) array of the dense vectors of K product state strings of
    length n: rows of _REAL_TABLE (float64) when every label is one of
    0 1 + -, of _QUBIT_TABLE (complex128) otherwise.  A real row has the
    bits of the complex row's real part: the same multiplications."""
    codes = _label_codes(states)
    real = codes.max(initial=0) < _REAL_CODES
    return _tensor_rows(codes, _REAL_TABLE if real else _QUBIT_TABLE)


def _label_codes(states) -> np.ndarray:
    """(K, n) array of the label codes (rows of _QUBIT_TABLE) of K product state strings."""
    try:  # numpy refuses strings of different lengths with a ValueError
        return np.array([[_LABEL_INDEX[ch] for ch in s] for s in states], dtype=np.intp)
    except KeyError as exc:
        raise ValueError(f"unknown qubit label {exc.args[0]!r}") from None


def _tensor_rows(codes: np.ndarray, table: np.ndarray) -> np.ndarray:
    """(K, 2^n) array of the tensor products of the table rows that codes picks.

    Row by row the same multiplications as np.kron from [1], so the same bits.
    """
    k = len(codes)
    vecs = np.ones((k, 1), dtype=table.dtype)
    for col in codes.T:
        vecs = (vecs[:, :, None] * table[col][:, None, :]).reshape(k, -1)
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
    """Dense matrix of a symplectic Pauli operator, phase included."""
    return pauli_sum([p])


def pauli_sum(paulis) -> np.ndarray:
    """Dense sum of Pauli operators on one n: the whole range of pauli_sum_rows."""
    terms = pauli_terms(paulis)
    return pauli_sum_rows(terms, 0, 1 << terms[0])


def pauli_terms(paulis) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """(n, index-space X masks, index-space Z masks, phase factors) of a
    nonempty list of Pauli operators on one n: pauli_sum_rows's input,
    computed once for all the row blocks of one sum."""
    paulis = list(paulis)
    if not paulis:
        raise ValueError("Pauli sum needs at least one operator")
    n = paulis[0].n
    _check_cap(n, DENSE_OP_CAP, "dense Pauli")
    xs = np.array([_index_mask(p.x, n) for p in paulis], dtype=np.int64)
    zs = np.array([_index_mask(p.z, n) for p in paulis], dtype=np.int64)
    phases = np.array([_phase_factor(p.phase) for p in paulis])
    return n, xs, zs, phases


def pauli_sum_rows(terms, start: int, stop: int) -> np.ndarray:
    """Rows start:stop of the dense sum of the Pauli operators in terms.

    i^phase X^x Z^z sends |k> to i^phase (-1)^(z.k) |k xor x>: one nonzero
    entry per row j, in column j xor x.  Each operator adds that entry to a
    zero block, in list order (one bincount over the operator-major
    entries), so every entry gets the additions of a matrix-by-matrix sum in
    the same order, less the exact zeros: the same bits.  The block is
    float64 when every phase is even (each entry a sum of +-1), complex
    otherwise.
    """
    n, xs, zs, phases = terms
    rows = np.arange(start, stop)
    cols = rows ^ xs[:, None]
    signs = 1 - 2 * _parity(cols & zs[:, None], n)
    flat = ((rows - start) * (1 << n) + cols).ravel()
    size = (stop - start) << n
    if phases.dtype != complex:
        block = np.bincount(flat, weights=(phases[:, None] * signs).ravel(), minlength=size)
    else:
        block = np.zeros(size, dtype=complex)
        block.real = np.bincount(flat, weights=(phases.real[:, None] * signs).ravel(), minlength=size)
        block.imag = np.bincount(flat, weights=(phases.imag[:, None] * signs).ravel(), minlength=size)
    return block.reshape(stop - start, 1 << n)


def _phase_factor(phase: int):
    """i^phase; an int +-1 for an even phase, so that a real operator stays real."""
    phase %= 4
    return 1 - phase if phase % 2 == 0 else 1j**phase


def apply_pauli(p, vec: np.ndarray) -> np.ndarray:
    """i^phase X^x Z^z applied to a statevector, in O(2^n) without its matrix.

    Entry j of the image is i^phase (-1)^(z.(j xor x)) vec[j xor x], which
    is what the matrix's one nonzero entry in row j gives; each factor is
    +-1 or +-i, so the product is exact and equals pauli_dense(p) @ vec.
    """
    n = p.n
    if vec.shape != (1 << n,):
        raise ValueError(f"statevector of shape {vec.shape} for a Pauli on {n} qubits")
    src = np.arange(1 << n) ^ _index_mask(p.x, n)
    sign = 1 - 2 * _parity(src & _index_mask(p.z, n), n)
    return _phase_factor(p.phase) * sign * vec[src]


def mixture_factor(components) -> np.ndarray:
    """K x dim factor F of the uniform mixture F^T conj(F) of K product state
    strings: row k is component k's vector (`_vectors`, so float64 when every
    label is one of 0 1 + -) times sqrt(1/K)."""
    vecs = _vectors(components)
    return vecs * np.sqrt(1.0 / len(vecs))


def gram_rows(factor: np.ndarray, other: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Rows start:stop of factor^T other, for K x dim factors: one GEMM over
    the factor rows that are nonzero on columns start:stop.

    A row that is zero on those columns adds only exact zero products to
    the block (for finite other), so it is left out; a 64-row block of the
    mixture or PEPS factor keeps about 35% of its rows on n = 7..10 graphs
    with 2n edges.  The result has the bits of factor[:, start:stop].T @ other
    for two kinds of factor only: one with at most one nonzero per column
    and other finite on the rows left out (the mixture and PEPS factors of a
    stabilized basis, whose beta labels pin the one term: each entry is one
    product, the same bits in any summation order), and one with no zero
    row on the block (Phi, whose dephased entries sum +-psi_i psi_j in
    BLAS's order), which takes that very product.  For any other factor,
    leaving rows out may regroup BLAS's sums and move the last bits.  Pass
    other = conj(factor) for the rows of a Gram matrix; a real factor may
    be passed as its own other.  The whole range of one buffer would take
    numpy's symmetric path, so mixture_density passes a copy there.
    """
    cols = factor[:, start:stop]
    keep = np.flatnonzero(cols.any(axis=1))
    if keep.size == len(factor):  # no gathered copies: they double the time of Phi's blocks
        return cols.T @ other
    return cols[keep].T @ other[keep]


def mixture_density(components) -> np.ndarray:
    """Density matrix of the uniform classical mixture of product state
    strings: the whole range of gram_rows over mixture_factor, float64 when
    every label is one of 0 1 + -."""
    factor = mixture_factor(components)
    return gram_rows(factor, np.conjugate(factor), 0, factor.shape[1])


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

    omega = A A^dagger for the dim x K factor A = mixture_factor(components).T,
    so the SVD A = U S W^dagger gives omega's nonzero eigenpairs (S^2, U) at
    O(dim K^2) cost; every other eigenvector is orthogonal to U, with
    eigenvalue 0.  A is float64 when every label is one of 0 1 + -.
    """
    u, s, _ = np.linalg.svd(mixture_factor(components).T, full_matrices=False)
    evals = s**2
    weights_psi = np.abs(u.conj().T @ psi) ** 2
    keep = evals > _EIG_FLOOR
    out_of_support = float(np.vdot(psi, psi).real) - weights_psi[keep].sum()
    if out_of_support > 1e-10:
        return math.inf
    # adding 0.0 turns the -0.0 of a zero sum (one vertex: log2(1) = 0) into 0.0
    return float(-(weights_psi[keep] * np.log2(evals[keep])).sum()) + 0.0


def _qubit_count(psi: np.ndarray) -> int:
    """n for a statevector of 2^n entries; ValueError for any other length."""
    n = psi.size.bit_length() - 1
    if psi.ndim != 1 or n < 0 or psi.size != 1 << n:
        raise ValueError(f"statevector of shape {psi.shape}, not of length 2^n")
    return n


def overlap2(psi: np.ndarray, phi: str) -> float:
    """Squared overlap of a dense state with a product state string."""
    n = _qubit_count(psi)
    if len(phi) != n:
        raise ValueError(f"product state {phi!r} has {len(phi)} labels for a statevector on {n} qubits")
    vec = product_state_vector(phi)
    return float(abs(np.vdot(vec, psi)) ** 2)


def best_product_overlap(psi: np.ndarray, *, restarts: int, iterations: int, seed: int) -> float:
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
    n = _qubit_count(psi)
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
    in place; returns each restart's squared overlap after the sweep.

    A site is updated only where its environment's norm exceeds 1e-15.  The
    contractions stay einsum: a batched matmul rounds them otherwise (its
    best overlaps differ in the last bit), for 9% less time in the search.
    """
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
        # np.linalg.norm(env, axis=1) without its dispatch: the same reduction
        norm = np.sqrt((env.conj() * env).real.sum(axis=1))[:, None]
        np.divide(env, norm, out=locs[:, a], where=norm > 1e-15)
        left = np.einsum("ri,rij->rj", locs[:, a].conj(), block)
    return np.abs(left[:, 0]) ** 2


def reduced_entropy(psi: np.ndarray, a) -> float:
    """Entanglement entropy (bits) across the cut (a, complement) of an n-qubit psi."""
    n = _qubit_count(psi)
    part = sorted(set(a))
    if not 0 < _mask_of(part, n).bit_count() < n:
        raise ValueError("cut requires a proper nonempty vertex subset")
    rest = [v for v in range(1, n + 1) if v not in part]
    tensor = psi.reshape((2,) * n)
    perm = [v - 1 for v in part] + [v - 1 for v in rest]
    mat = tensor.transpose(perm).reshape(1 << len(part), 1 << len(rest))
    svals = np.linalg.svd(mat, compute_uv=False)
    probs = svals**2
    probs = probs[probs > 1e-14]
    return float(-(probs * np.log2(probs)).sum())


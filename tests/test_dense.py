"""Self-checks for the dense reference layer."""

from __future__ import annotations

import itertools
import math
import random
import re

import numpy as np
import pytest

from graphent import Graph, closest_separable_state, css_stabilizer_form, cut_rank, dense, max_independent_set
from graphent.pauli import PauliOperator, generators_from_graph, group_elements
from graphent.separable import noise_css

from conftest import FIG6, complete, random_connected, ring, star
from oracles import (
    all_connected_graphs,
    brute_matching,
    brute_mis,
    construction_density,
    edgewise_statevector,
    pauli_from_text,
)


def test_statevector_p2(p2):
    psi = dense.statevector(p2)
    assert np.allclose(psi, np.array([1, 1, 1, -1]) / 2.0)


def test_statevector_single_vertex():
    g = Graph.from_edges(1, [])
    assert np.allclose(dense.statevector(g), np.array([1, 1]) / math.sqrt(2))


def test_statevector_amplitude_signs():
    # amplitude of |z> is 2^{-n/2} (-1)^{sum of z_i z_j over edges}
    rng = random.Random(2)
    for _ in range(10):
        g = random_connected(rng.randrange(2, 7), rng)
        psi = dense.statevector(g)
        for z in range(1 << g.n):
            parity = sum(
                ((z >> (g.n - u)) & 1) & ((z >> (g.n - v)) & 1) for u, v in g.edges()
            )
            want = (-1) ** (parity % 2) / math.sqrt(1 << g.n)
            assert abs(psi[z] - want) < 1e-12


def test_statevector_cap():
    with pytest.raises(ValueError):
        dense.statevector(star(15))


def test_statevector_is_the_edgewise_build():
    # the doubling build against CZ edge by edge on n = 1, every connected
    # graph with n <= 6 and seeded graphs with n = 7..14: equal real parts
    # bit for bit, and +0.0 in every imaginary part
    rng = random.Random(35)
    graphs = [g for n in range(1, 7) for g in all_connected_graphs(n)]
    graphs += [random_connected(n, rng, p) for n in range(7, 15) for p in (0.2, 0.5, 0.8)]
    for g in graphs:
        psi = dense.statevector(g)
        ref = edgewise_statevector(g)
        assert np.array_equal(psi, ref), g.edges()
        assert psi.real.tobytes() == ref.real.tobytes(), g.edges()
        assert not np.signbit(psi.imag).any(), g.edges()


def test_dense_helpers_name_a_bad_vertex_or_length(p3):
    psi = dense.statevector(p3)
    for bad in (0, 4):
        with pytest.raises(ValueError, match=f"vertex {bad} out of range 1..3"):
            dense.reduced_entropy(psi, [bad])
    with pytest.raises(ValueError, match=re.escape("'0+' has 2 labels for a statevector on 3 qubits")):
        dense.overlap2(psi, "0+")
    for call in (
        lambda v: dense.reduced_entropy(v, [1]),
        lambda v: dense.overlap2(v, "0+0"),
        lambda v: dense.best_product_overlap(v, restarts=1, iterations=1, seed=0),
    ):
        for vec in (psi[:6], psi.reshape(2, 4), psi[:0]):
            with pytest.raises(ValueError, match=re.escape(f"statevector of shape {vec.shape},")):
                call(vec)


def _graph_basis_state(g: Graph, zmask: int) -> np.ndarray:
    """Z^k|G>, k the vertex bit mask zmask (bit a-1 for vertex a)."""
    return dense.pauli_dense(PauliOperator(g.n, 0, zmask)) @ dense.statevector(g)


def test_graph_basis_orthonormal(p3):
    vecs = [_graph_basis_state(p3, k) for k in range(8)]
    gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
    assert np.allclose(gram, np.eye(8), atol=1e-12)


def test_graph_basis_eigenvalues(p3):
    gens = generators_from_graph(p3)
    for k in range(8):
        vec = _graph_basis_state(p3, k)
        for i, gen in enumerate(gens):
            sign = -1.0 if (k >> i) & 1 else 1.0
            assert np.allclose(dense.pauli_dense(gen) @ vec, sign * vec, atol=1e-12)


def test_pauli_dense_spot():
    p = pauli_from_text("XZI")
    mat = dense.pauli_dense(p)
    assert mat.shape == (8, 8)
    x = np.array([[0, 1], [1, 0]])
    z = np.array([[1, 0], [0, -1]])
    assert np.allclose(mat, np.kron(np.kron(x, z), np.eye(2)))
    assert np.allclose(dense.pauli_dense(PauliOperator(3, 0, 0, 0)), np.eye(8))


def test_projector_identity():
    for g in (star(3), complete(4), ring(4)):
        psi = dense.statevector(g)
        full = generators_from_graph(g)
        proj = sum(dense.pauli_dense(p) for p in group_elements(g.n, full)) / (1 << g.n)
        assert np.allclose(proj, np.outer(psi, psi.conj()), atol=1e-12)


def test_generators_fix_statevector(fig6):
    psi = dense.statevector(fig6)
    for gen in generators_from_graph(fig6):
        assert np.allclose(dense.pauli_dense(gen) @ psi, psi, atol=1e-12)


def test_relative_entropy_pure_basics(p2):
    psi = dense.statevector(p2)
    assert dense.relative_entropy_pure(psi, np.outer(psi, psi.conj())) < 1e-9
    assert abs(dense.relative_entropy_pure(psi, np.eye(4) / 4.0) - 2.0) < 1e-12


def test_relative_entropy_support_violation(p2):
    psi = dense.statevector(p2)
    other = np.zeros(4, dtype=complex)
    other[0] = 1.0
    omega = np.outer(other, other.conj())
    assert dense.relative_entropy_pure(psi, omega) == math.inf


def test_overlap2(p2, fig6):
    assert abs(dense.overlap2(dense.statevector(p2), "+0") - 0.5) < 1e-12
    assert abs(dense.overlap2(dense.statevector(fig6), "++++00") - 0.25) < 1e-12


def test_reduced_entropy_bell(p2):
    assert abs(dense.reduced_entropy(dense.statevector(p2), [1]) - 1.0) < 1e-9


def _kron_product_state(state: str) -> np.ndarray:
    vec = np.array([1.0 + 0.0j])
    for ch in state:
        vec = np.kron(vec, dense.QUBIT_STATES[ch])
    return vec


def test_product_state_vector_equals_kronecker_bit_for_bit():
    for n in range(4):
        for labels in itertools.product(dense.QUBIT_STATES, repeat=n):
            state = "".join(labels)
            assert dense.product_state_vector(state).tobytes() == _kron_product_state(state).tobytes(), state


def test_product_state_vector_returns_a_fresh_array():
    vec = dense.product_state_vector("+0j")
    vec[:] = 7.0
    assert dense.product_state_vector("+0j").tobytes() == _kron_product_state("+0j").tobytes()


def test_product_state_vector_rejects_unknown_label():
    with pytest.raises(ValueError, match="unknown qubit label 'x'"):
        dense.product_state_vector("+x0")


def test_reduced_entropy_product_state():
    psi = dense.product_state_vector("+01-")
    assert dense.reduced_entropy(psi, [2, 3]) < 1e-9


def test_reduced_entropy_equals_cut_rank():
    rng = random.Random(9)
    for _ in range(12):
        g = random_connected(rng.randrange(2, 7), rng)
        psi = dense.statevector(g)
        size = rng.randrange(1, g.n)
        cut = sorted(rng.sample(range(1, g.n + 1), size))
        assert abs(dense.reduced_entropy(psi, cut) - cut_rank(g, cut)) < 1e-9


def test_brute_solvers(fig6):
    assert brute_mis(fig6) == 4
    assert len(brute_matching(fig6)) == 2
    assert brute_mis(complete(5)) == 1
    assert len(brute_matching(complete(5))) == 2


def test_best_product_overlap_product_input():
    psi = dense.product_state_vector("+01")
    assert dense.best_product_overlap(psi, restarts=20, iterations=40, seed=0) > 1 - 1e-9


def test_best_product_overlap_bell(p2):
    val = dense.best_product_overlap(dense.statevector(p2), restarts=40, iterations=40, seed=0)
    assert abs(val - 0.5) < 1e-9


def test_best_product_overlap_deterministic(p3):
    psi = dense.statevector(p3)
    a = dense.best_product_overlap(psi, restarts=10, iterations=20, seed=4)
    b = dense.best_product_overlap(psi, restarts=10, iterations=20, seed=4)
    assert a == b


def test_best_product_overlap_fig6_certificate(fig6):
    # 200 restarts reach the 1/4 certificate and never beat it
    val = dense.best_product_overlap(dense.statevector(fig6), restarts=200, iterations=60, seed=0)
    assert 0.25 - 1e-9 <= val <= 0.25 + 1e-9


# ---------------------------------------------------------------------------
# The vectorised kernels against the plain loops they replaced


def _kron_pauli(p) -> np.ndarray:
    one_qubit = {
        (0, 0): np.eye(2, dtype=complex),
        (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
        (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
        (1, 1): np.array([[0, -1], [1, 0]], dtype=complex),  # X @ Z
    }
    mat = np.array([[1.0 + 0.0j]])
    for a in range(1, p.n + 1):
        mat = np.kron(mat, one_qubit[((p.x >> (a - 1)) & 1, (p.z >> (a - 1)) & 1)])
    return (1j ** (p.phase % 4)) * mat


def _outer_mixture(components) -> np.ndarray:
    vecs = [dense.product_state_vector(s) for s in components]
    w = 1.0 / len(vecs)
    rho = np.zeros((len(vecs[0]), len(vecs[0])), dtype=complex)
    for v in vecs:
        rho += w * np.outer(v, v.conj())
    return rho


def _subset_noise(g: Graph, beta) -> np.ndarray:
    psi = dense.statevector(g)
    beta_sorted = sorted(beta)
    m = len(beta_sorted)
    idx = np.arange(psi.size)
    rho = np.zeros((psi.size, psi.size), dtype=complex)
    for subset in range(1 << m):
        flip = np.zeros(psi.size, dtype=np.int64)
        for pos in range(m):
            if (subset >> pos) & 1:
                flip ^= (idx >> (g.n - beta_sorted[pos])) & 1
        vec = np.where(flip, -psi, psi)
        rho += np.outer(vec, vec.conj())
    return rho / (1 << m)


def _serial_overlap(psi, restarts, iterations, seed) -> float:
    n = int(round(math.log2(psi.size)))
    rng = np.random.default_rng(seed)
    tensor = psi.reshape((2,) * n)

    def value(locs):
        contracted = tensor
        for b in range(n):
            contracted = np.tensordot(locs[b].conj(), contracted, axes=([0], [0]))
        return float(abs(complex(contracted)) ** 2)

    best = 0.0
    for _ in range(restarts):
        locs = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        locs /= np.linalg.norm(locs, axis=1, keepdims=True)
        prev = -1.0
        for _ in range(iterations):
            for a in range(n):
                contracted = tensor
                for b in range(n):
                    if b != a:
                        axis = 0 if b < a else 1
                        contracted = np.tensordot(locs[b].conj(), contracted, axes=([0], [axis]))
                env = np.asarray(contracted).reshape(2)
                norm = np.linalg.norm(env)
                if norm > 1e-15:
                    locs[a] = env / norm
            val = value(locs)
            if abs(val - prev) < 1e-13:
                break
            prev = val
        best = max(best, prev)
    return best


def test_pauli_dense_is_the_kronecker_build():
    for n in range(1, 4):
        for x in range(1 << n):
            for z in range(1 << n):
                for phase in range(4):
                    p = PauliOperator(n, x, z, phase)
                    assert np.array_equal(dense.pauli_dense(p), _kron_pauli(p)), p


def _operator_by_operator(paulis) -> np.ndarray:
    return sum(dense.pauli_dense(p) for p in paulis)


def test_pauli_sum_is_the_operator_by_operator_sum():
    # equal entry for entry: the CSS group sum (eq. 6) on every connected n <= 5
    # graph and seeded n = 8..10 graphs, and the full stabilizer group on every
    # connected n <= 5 graph and seeded n = 6 graphs; every phase is even, so
    # the sum is float64, and equal to the complex sum of Kronecker builds too
    rng = random.Random(27)
    small = [g for n in range(1, 6) for g in all_connected_graphs(n)]
    for g in small + [random_connected(n, rng) for n in (8, 9, 10) for _ in range(2)]:
        elements = css_stabilizer_form(g, max_independent_set(g)).elements
        mat = dense.pauli_sum(elements)
        assert mat.dtype == np.float64
        assert np.array_equal(mat, _operator_by_operator(elements)), g.edges()
        assert np.array_equal(mat, sum(_kron_pauli(p) for p in elements)), g.edges()
    for g in small + [FIG6, ring(6), complete(6)] + [random_connected(6, rng) for _ in range(5)]:
        elements = group_elements(g.n, generators_from_graph(g))
        assert np.array_equal(dense.pauli_sum(elements), _operator_by_operator(elements)), g.edges()
    # an odd phase keeps the complex matrix
    odd = [pauli_from_text("XZ"), PauliOperator(2, 0b11, 0b01, 1)]
    mat = dense.pauli_sum(odd)
    assert mat.dtype == np.complex128
    assert np.array_equal(mat, sum(_kron_pauli(p) for p in odd))


def test_pauli_sum_refuses_an_empty_list():
    with pytest.raises(ValueError, match="at least one"):
        dense.pauli_sum([])


def _gram_rows_factors():
    """A factor with zero rows on the block of columns 64:128, one whose
    every column has one nonzero (like the mixture and PEPS factors) but
    column 70 two, and a dense one; each 16 x 256."""
    rng = np.random.default_rng(37)
    zero_rows = rng.normal(size=(16, 256))
    zero_rows[[0, 3, 4, 9, 15], 64:128] = 0.0
    two_nonzeros = np.zeros((16, 256))
    two_nonzeros[np.arange(256) % 16, np.arange(256)] = rng.normal(size=256)
    two_nonzeros[5, 70] = rng.normal()
    return zero_rows, two_nonzeros, rng.normal(size=(16, 256))


def test_gram_rows_is_the_full_product():
    # leaving out the rows that are zero on a block changes no bit of the
    # block: every entry sums the same nonzero products (one BLAS pass over
    # 16 rows)
    rng = np.random.default_rng(38)
    for factor in _gram_rows_factors():
        for other in (factor, rng.normal(size=factor.shape)):
            for start in range(0, 256, 64):
                got = dense.gram_rows(factor, other, start, start + 64)
                want = factor[:, start:start + 64].T @ other
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), start


def test_mixture_density_is_the_outer_product_sum():
    for components in (["+0"], ["0+-", "1i-", "j++"], ["01+-i", "10-+j", "++++0", "ij01-"]):
        assert np.allclose(dense.mixture_density(components), _outer_mixture(components), atol=1e-14)


def test_noise_css_is_the_subset_loop():
    rng = random.Random(5)
    for g in (FIG6, ring(5), random_connected(7, rng), random_connected(7, rng)):
        alpha = max_independent_set(g)
        beta = frozenset(range(1, g.n + 1)) - alpha
        assert np.allclose(construction_density(noise_css(g, alpha)), _subset_noise(g, beta), atol=1e-14), g.edges()


# ---------------------------------------------------------------------------
# The float64 oracle against the complex128 builds it replaced


def _real_oracle_graphs():
    """Every connected graph with n <= 5, and seeded graphs with n = 8..10."""
    rng = random.Random(28)
    small = [g for n in range(1, 6) for g in all_connected_graphs(n)]
    return small + [random_connected(n, rng) for n in (8, 9, 10) for _ in range(2)]


def test_real_mixture_density_is_the_complex_product():
    for g in _real_oracle_graphs():
        components = closest_separable_state(g, max_independent_set(g)).components
        factor = dense._product_vectors(components).T * np.sqrt(1.0 / len(components))
        rho = dense.mixture_density(components)
        assert rho.dtype == np.float64
        assert np.array_equal(rho, factor @ factor.conj().T), g.edges()
    # a Y-axis label keeps the complex product
    assert dense.mixture_density(["0+-", "1i-"]).dtype == np.complex128


def test_apply_pauli_is_the_matrix_product():
    # the generators and random Paulis of every phase, on the graph state,
    # its real part and a random complex vector
    rng = np.random.default_rng(28)
    for g in _real_oracle_graphs():
        n = g.n
        psi = dense.statevector(g)
        noise = rng.normal(size=psi.size) + 1j * rng.normal(size=psi.size)
        paulis = list(generators_from_graph(g))
        paulis += [PauliOperator(n, *map(int, rng.integers(1 << n, size=2)), phase) for phase in range(4)]
        for p in paulis:
            mat = dense.pauli_dense(p)
            for vec in (psi, psi.real, noise):
                assert np.array_equal(dense.apply_pauli(p, vec), mat @ vec), (g.edges(), p)
            assert dense.apply_pauli(p, psi.real).dtype == (np.float64 if p.phase % 2 == 0 else np.complex128)


def test_apply_pauli_refuses_a_vector_of_another_size():
    with pytest.raises(ValueError, match="for a Pauli on 3 qubits"):
        dense.apply_pauli(pauli_from_text("XZI"), np.ones(4))


def _overlap_graphs():
    rng = random.Random(11)
    named = [("p2", Graph.from_edges(2, [(1, 2)])), ("fig6", FIG6), ("ring5", ring(5))]
    named += [(f"gnp{n}", random_connected(n, rng)) for n in range(4, 8)]
    return [pytest.param(g, id=name) for name, g in named]


@pytest.mark.parametrize("g", _overlap_graphs())
def test_best_product_overlap_is_the_serial_loop(g):
    psi = dense.statevector(g)
    want = _serial_overlap(psi, 200, 60, 11)
    assert abs(dense.best_product_overlap(psi, restarts=200, iterations=60, seed=11) - want) < 1e-12


def test_best_product_overlap_short_runs():
    psi = dense.statevector(ring(5))
    for restarts, iterations in ((0, 60), (20, 0), (0, 0), (1, 1), (7, 3)):
        want = _serial_overlap(psi, restarts, iterations, 2)
        got = dense.best_product_overlap(psi, restarts=restarts, iterations=iterations, seed=2)
        assert abs(got - want) < 1e-12, (restarts, iterations)


def test_mixture_relative_entropy_is_the_eigensolve():
    for n in range(1, 6):
        for g in all_connected_graphs(n):
            psi = dense.statevector(g)
            components = closest_separable_state(g, max_independent_set(g)).components
            want = dense.relative_entropy_pure(psi, dense.mixture_density(components))
            assert abs(dense.mixture_relative_entropy(psi, components) - want) < 1e-12, g.edges()


def test_mixture_relative_entropy_outside_support(p2):
    psi = dense.statevector(p2)
    assert dense.relative_entropy_pure(psi, dense.mixture_density(["00", "11"])) == math.inf
    assert dense.mixture_relative_entropy(psi, ["00", "11"]) == math.inf
    assert abs(dense.mixture_relative_entropy(psi, ["+0", "-1"]) - 1.0) < 1e-12

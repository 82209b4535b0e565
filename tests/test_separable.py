"""The two non-stabilizer CSS constructions against the stabilized mixture."""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

from graphent import (
    Graph,
    closest_separable_state,
    dense,
    max_independent_set,
    noise_css,
    peps_css,
)

from conftest import complete, random_connected, small_graphs_with_alphas
from oracles import all_connected_graphs, construction_density, noise_css_quadrature


def stab_density(g, alpha):
    return dense.mixture_density(closest_separable_state(g, alpha).components)


def test_peps_rejects_dependent_alpha(p4):
    with pytest.raises(ValueError):
        peps_css(p4, {1, 2})


def test_peps_rejects_non_maximal_alpha(p3):
    # cover vertex 1 has no neighbour in {3}
    with pytest.raises(ValueError, match="alpha is not a maximal independent set"):
        peps_css(p3, {3})


def test_peps_every_maximal_alpha_small_graphs():
    for g, alpha in small_graphs_with_alphas():
        assert np.abs(construction_density(peps_css(g, alpha)) - stab_density(g, alpha)).max() < 1e-12, (g.edges(), alpha)


def test_peps_k8_beyond_24_edges():
    k8 = complete(8)
    assert len(k8.edges()) == 28
    alpha = max_independent_set(k8)
    result = peps_css(k8, alpha)
    assert len(result.components) == 1 << 7
    assert np.abs(construction_density(result) - stab_density(k8, alpha)).max() < 1e-12


def test_peps_beta_edge_orange_at_lower_end(triangle):
    # the 2-3 edge joins two cover vertices: its X-basis virtual sits at 2;
    # at 3 instead the components would be ("+00", "-01", "-10", "+11")
    assert peps_css(triangle, {1}).components == ("+00", "-10", "-01", "+11")


def test_peps_open_chain_4qubit_example(p4):
    """The worked open-linear-chain case, checked against the explicit projectors.

    omega_4 = (P_2^A x P_3^B) (w^A_{1'2'} x w^B_{3'4'} x w^A_{5'6'}) (...)^dag
    with only the two interior sites projected.
    """
    s2 = 1 / math.sqrt(2)
    plus = np.array([s2, s2])
    z0 = np.array([1.0, 0.0])
    z1 = np.array([0.0, 1.0])
    minus = np.array([s2, -s2])

    def proj(vec):
        return np.outer(vec, vec)

    w_a = proj(np.kron(plus, z0)) + proj(np.kron(minus, z1))
    w_b = proj(np.kron(z0, plus)) + proj(np.kron(z1, minus))
    omega6 = np.kron(np.kron(w_a, w_b), w_a)  # virtual qubits 1'..6'

    # P_2^A maps virtuals 2',3' to site 2; P_3^B maps 4',5' to site 3
    p2a = np.zeros((2, 4))
    p2a[0, 0] = 1.0  # |0><00|
    p2a[1, 3] = 1.0  # |1><11|
    p3b = np.zeros((2, 4))
    for bits in range(4):
        parity = ((bits >> 1) & 1) ^ (bits & 1)
        x_string = np.kron(plus if not (bits >> 1) & 1 else minus, plus if not bits & 1 else minus)
        p3b[parity] += x_string
    # p3b rows are the <~+| and <~-| bras; attach the |+>, |-> site kets
    kets = np.array([[s2, s2], [s2, -s2]])  # columns |+>, |->
    p3b = kets @ p3b
    big = np.kron(np.kron(np.eye(2), p2a), np.kron(p3b, np.eye(2)))
    omega4 = big @ omega6 @ big.conj().T
    omega4 /= np.trace(omega4)

    result = peps_css(p4, {1, 3})
    assert np.abs(construction_density(result) - omega4).max() < 1e-12
    assert np.abs(construction_density(result) - stab_density(p4, {1, 3})).max() < 1e-12
    assert sorted(result.components) == ["+0+0", "+0-1", "-1+1", "-1-0"]


def test_peps_p2_is_edge_state(p2):
    result = peps_css(p2, {1})
    assert result.components == ("+0", "-1")
    assert np.abs(construction_density(result) - stab_density(p2, {1})).max() < 1e-15


def test_peps_triangle(triangle):
    result = peps_css(triangle, {1})
    assert np.abs(construction_density(result) - stab_density(triangle, {1})).max() < 1e-12


def test_peps_density_operator_properties(fig6):
    rho = construction_density(peps_css(fig6, max_independent_set(fig6)))
    assert np.abs(rho - rho.conj().T).max() < 1e-12
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_peps_components_match_basis(fig6):
    alpha = max_independent_set(fig6)
    result = peps_css(fig6, alpha)
    stab = closest_separable_state(fig6, alpha)
    assert sorted(result.components) == sorted(stab.components)
    assert abs(result.weight - stab.weight) < 1e-15


def test_noise_p3(p3):
    result = noise_css(p3, {1, 3})
    assert sorted(result.components) == ["+0+", "-1-"]
    assert np.abs(construction_density(result) - stab_density(p3, {1, 3})).max() < 1e-12


def test_noise_p2(p2):
    result = noise_css(p2, {1})
    assert np.abs(construction_density(result) - stab_density(p2, {1})).max() < 1e-15


def test_noise_fig6(fig6):
    result = noise_css(fig6, {1, 2, 3, 4})
    assert np.abs(construction_density(result) - stab_density(fig6, {1, 2, 3, 4})).max() < 1e-12
    assert sorted(result.components) == sorted(closest_separable_state(fig6, {1, 2, 3, 4}).components)


def test_noise_rejects_bad_beta(p4):
    with pytest.raises(ValueError):
        noise_css(p4, {1, 2, 3})  # the alpha of beta {4} is not independent


@pytest.mark.parametrize("alpha, bad", [({1, 3, 9}, 9), ({0, 1, 3}, 0), ({-1, 1, 3}, -1)])
def test_noise_rejects_out_of_range_alpha(p4, alpha, bad):
    with pytest.raises(ValueError, match=f"vertex {bad} out of range 1..4"):
        noise_css(p4, alpha)


@pytest.mark.parametrize("beta, bad", [({9}, 9), ({0}, 0)])
def test_quadrature_rejects_out_of_range_beta(p3, beta, bad):
    with pytest.raises(ValueError, match=f"vertex {bad} out of range 1..3"):
        noise_css_quadrature(p3, beta, points=4)


def test_quadrature_matches_two_point(p3, p2, triangle):
    for g in (p2, p3, triangle):
        alpha = max_independent_set(g)
        fine = noise_css_quadrature(g, frozenset(range(1, g.n + 1)) - alpha, points=64)
        assert np.abs(fine - construction_density(noise_css(g, alpha))).max() < 1e-9


def test_three_way_exhaustive_n4():
    for n in range(2, 5):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
            g = Graph.from_edges(n, edges)
            if not g.is_connected():
                continue
            alpha = max_independent_set(g)
            ref = stab_density(g, alpha)
            assert np.abs(construction_density(peps_css(g, alpha)) - ref).max() < 1e-12
            assert np.abs(construction_density(noise_css(g, alpha)) - ref).max() < 1e-12


def test_three_way_random_n7_n8():
    rng = random.Random(21)
    for _ in range(12):
        g = random_connected(rng.choice([5, 6, 7, 8]), rng, p=0.4)
        alpha = max_independent_set(g)
        ref = stab_density(g, alpha)
        assert np.abs(construction_density(peps_css(g, alpha)) - ref).max() < 1e-12
        assert np.abs(construction_density(noise_css(g, alpha)) - ref).max() < 1e-12


def _flip_phi(g, beta):
    """Phi in complex128 from one flip matrix: row S is Z^S|G>, psi negated
    where the parity of the beta bits S picks is odd."""
    psi = dense.statevector(g)
    idx = np.arange(psi.size)
    subsets = np.arange(1 << len(beta))[:, None]
    flip = np.zeros((subsets.size, psi.size), dtype=np.int64)
    for pos, b in enumerate(sorted(beta)):
        flip ^= ((subsets >> pos) & 1) & ((idx >> (g.n - b)) & 1)
    return np.where(flip, -psi, psi)


def _complex_noise(g, beta):
    """The complex128 dephasing build: Phi^T Phi* / 2^m, Phi's rows Z^S|G>."""
    phi = _flip_phi(g, beta)
    return phi.T @ phi.conj() / len(phi)


def test_noise_factor_is_the_flip_matrix():
    # Phi built by doubling over beta is the real part of the flip-matrix
    # Phi, bit for bit and C-contiguous (the GEMM's bits depend on layout),
    # on every connected graph with n <= 5 and seeded graphs with n = 6..10
    rng = random.Random(36)
    graphs = [g for n in range(1, 6) for g in all_connected_graphs(n)]
    for g in graphs + [random_connected(n, rng, p) for n in range(6, 11) for p in (0.3, 0.6)]:
        alpha = max_independent_set(g)
        factor = noise_css(g, alpha).factor
        want = _flip_phi(g, frozenset(range(1, g.n + 1)) - alpha).real
        assert np.array_equal(factor, want) and factor.tobytes() == want.tobytes(), g.edges()
        assert factor.flags.c_contiguous


def test_real_constructions_are_the_complex_builds():
    # every connected n <= 5 graph and seeded n = 8..10 graphs: the float64
    # dephasing equals the complex build, and both constructions lie as far
    # from the float64 mixture as their complex forms from the complex one
    rng = random.Random(28)
    graphs = [g for n in range(1, 6) for g in all_connected_graphs(n)]
    for g in graphs + [random_connected(n, rng) for n in (8, 9, 10) for _ in range(2)]:
        alpha = max_independent_set(g)
        beta = frozenset(range(1, g.n + 1)) - alpha
        noise = construction_density(noise_css(g, alpha))
        peps = construction_density(peps_css(g, alpha))
        assert noise.dtype == peps.dtype == np.float64
        complex_noise = _complex_noise(g, beta)
        assert np.array_equal(noise, complex_noise), g.edges()
        components = closest_separable_state(g, alpha).components
        factor = dense._product_vectors(components).T * np.sqrt(1.0 / len(components))
        complex_mixture = factor @ factor.conj().T
        mixture = dense.mixture_density(components)
        assert np.abs(noise - mixture).max() == np.abs(complex_noise - complex_mixture).max()
        assert np.abs(peps - mixture).max() == np.abs(peps.astype(complex) - complex_mixture).max()

"""Bounds, decompositions, certificates, Bell extraction, and evaluation."""

from __future__ import annotations

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphent import (
    Graph,
    bell_extraction,
    bounds,
    classify,
    closest_product_state,
    closest_separable_state,
    css_stabilizer_form,
    cut_rank,
    dense,
    evaluate,
    lc_orbit,
    lc_orbit_members,
    max_independent_set,
    max_matching,
    measures,
    minimal_decomposition,
    predicts_equal,
    sign_function,
    stabilized_product_basis,
    transport_css,
)
from graphent.measures import (
    ALPHA_EQ_HALF_IMPERFECT,
    ALPHA_EQ_HALF_PERFECT,
    ALPHA_GT_HALF,
    ALPHA_LT_HALF,
    BIPARTITE_KONIG,
    BellSearchError,
    _transport_components,
)
from graphent.graphs import _pack, _unpack

from conftest import complete, kernel_cases, random_connected, ring, small_graphs_with_alphas, star

FIG4 = Graph.from_edges(7, [(1, 7), (2, 7), (3, 6), (4, 5), (5, 6), (5, 7), (6, 7)])


def reconstruct(decomposition):
    return sum(
        sign * decomposition.normalization * dense.product_state_vector(state)
        for sign, state in decomposition.terms
    )


def css_density(css):
    return dense.mixture_density(css.components, [css.weight] * len(css.components))


# ---------------------------------------------------------------------------
# classification and bounds


def test_classify_branches():
    assert classify(4, 7) == ALPHA_GT_HALF
    assert classify(2, 6) == ALPHA_LT_HALF
    assert classify(3, 6, matching_is_perfect=True) == ALPHA_EQ_HALF_PERFECT
    assert classify(3, 6, matching_is_perfect=False) == ALPHA_EQ_HALF_IMPERFECT
    with pytest.raises(ValueError):
        classify(3, 6)


def test_classify_predictions():
    assert predicts_equal(ALPHA_GT_HALF)
    assert predicts_equal(ALPHA_EQ_HALF_PERFECT)
    assert predicts_equal(BIPARTITE_KONIG)
    assert not predicts_equal(ALPHA_LT_HALF)
    assert not predicts_equal(ALPHA_EQ_HALF_IMPERFECT)


def test_bounds_fig6(fig6):
    b = bounds(fig6)
    assert (b.lower, b.upper) == (2, 2)
    assert b.coincide and b.classification == BIPARTITE_KONIG
    assert not b.truncated


def test_bounds_star5():
    b = bounds(star(5))
    assert (b.lower, b.upper) == (1, 1) and b.coincide


def test_bounds_fig4_like():
    # 7 vertices, alpha = {1,2,3,4}: the |alpha| > N/2 branch with value 3
    assert max_independent_set(FIG4) == {1, 2, 3, 4}
    b = bounds(FIG4)
    assert b.classification == ALPHA_GT_HALF
    assert b.coincide and b.upper == 3


def test_bounds_c5_do_not_coincide(c5):
    b = bounds(c5)
    assert (b.lower, b.upper) == (2, 3)
    assert not b.coincide
    assert b.classification == ALPHA_LT_HALF


def test_bounds_requires_connected():
    with pytest.raises(ValueError):
        bounds(Graph.from_edges(4, [(1, 2), (3, 4)]))


K33 = Graph.from_edges(6, [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)])


def test_truncated_bounds_k33_cap2_is_an_interval():
    # the two members visited both have a matching of 3; the full orbit gives [2, 2]
    b = bounds(K33, orbit_cap=2)
    assert b.truncated and (b.lower, b.upper) == (2, 3) and not b.coincide
    assert evaluate(K33, orbit_cap=2).e_schmidt == (2.0, 3.0)


def test_truncated_bounds_k6_cap1_lower_is_the_cut_rank():
    # every cut of K_6 has rank 1, the true value; the visited member's matching is 3
    b = bounds(complete(6), orbit_cap=1)
    assert b.truncated and (b.lower, b.upper) == (1, 5) and not b.coincide
    assert lc_orbit(complete(6), cap=1).cut_rank == 1


@pytest.mark.parametrize("cap", [1, 2, 5, 20])
def test_truncated_lower_bound_is_sound_up_to_n5(cap):
    for n in range(1, 6):
        for g in dense.all_connected_graphs(n):
            full = bounds(g)
            b = bounds(g, orbit_cap=cap)
            assert b.lower <= full.lower and b.upper >= full.upper, g.edges()
            if b.coincide:
                assert b.upper == full.upper == full.lower, g.edges()
            if not b.truncated:
                assert (b.lower, b.upper) == (full.lower, full.upper), g.edges()


@st.composite
def connected_graphs(draw):
    """2 to 7 vertices: a random spanning tree (each vertex after the first hangs
    off an earlier one) plus any subset of the other pairs, so every draw is connected."""
    n = draw(st.integers(min_value=2, max_value=7))
    edges = {(draw(st.integers(min_value=1, max_value=v - 1)), v) for v in range(2, n + 1)}
    rest = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if (u, v) not in edges]
    mask = draw(st.integers(min_value=0, max_value=(1 << len(rest)) - 1))
    edges.update(e for i, e in enumerate(rest) if (mask >> i) & 1)
    return Graph.from_edges(n, edges)


@settings(max_examples=80, deadline=None)
@given(connected_graphs(), st.integers(min_value=1, max_value=60))
def test_capped_bounds_are_sound_and_consistent(g, cap):
    b = bounds(g, orbit_cap=cap)
    full = bounds(g)
    assert b.lower <= b.upper
    assert b.coincide == (b.lower == b.upper)
    assert b.lower <= full.lower and b.upper >= full.upper
    if b.truncated:
        assert b.lower == lc_orbit(g, cap).cut_rank


# ---------------------------------------------------------------------------
# sign function and minimal decomposition


def test_sign_function_fig6(fig6):
    beta = [5, 6]
    assert sign_function([1, 1], fig6, beta) == 1  # edge (5,6) internal to beta
    assert sign_function([0, 1], fig6, beta) == 0
    assert sign_function([0, 0], fig6, beta) == 0


def test_sign_function_bipartite_colour_class_all_zero(fig6, p3):
    # alpha a colour class of a bipartite graph: every sign positive
    for g, alpha in ((p3, {1, 3}), (fig6, {1, 2, 3, 4})):
        beta = sorted(set(range(1, g.n + 1)) - alpha)
        m = len(beta)
        if not any(g.has_edge(u, v) for u in beta for v in beta if u < v):
            for k in range(1 << m):
                bits = [(k >> (m - 1 - i)) & 1 for i in range(m)]
                assert sign_function(bits, g, beta) == 0


def test_sign_function_matches_dense_amplitudes():
    # mandatory oracle gate for the closed form, random graphs up to n = 8
    rng = random.Random(13)
    for _ in range(30):
        g = random_connected(rng.randrange(2, 9), rng)
        dec = minimal_decomposition(g)
        assert np.abs(reconstruct(dec) - dense.statevector(g)).max() < 1e-12


def test_decomposition_signs_equal_sign_function():
    # k of term idx in the basis order: first beta vertex most significant
    for g, alpha in small_graphs_with_alphas():
        beta = sorted(set(range(1, g.n + 1)) - alpha)
        m = len(beta)
        dec = minimal_decomposition(g, alpha)
        assert dec.size() == 1 << m
        for idx, (sign, _) in enumerate(dec.terms):
            kbits = [(idx >> (m - 1 - pos)) & 1 for pos in range(m)]
            assert sign == (-1 if sign_function(kbits, g, beta) else 1), (g.adj, alpha, idx)


# Reference for the array-built signs: each state's k read from its labels
# ("1" on the beta vertices with k = 1), its sign from the edges inside k.
LOOP_K_BITS = str.maketrans("0+-", "000")


def loop_terms(g: Graph, basis):
    terms = []
    for state in basis:
        kmask = int(state.translate(LOOP_K_BITS)[::-1], 2)
        parity = sum((g.adj[v] & kmask).bit_count() for v in range(g.n) if (kmask >> v) & 1) // 2 % 2
        terms.append((-1 if parity else 1, state))
    return tuple(terms)


def test_decomposition_is_the_per_state_loop():
    for g, alpha, _ in kernel_cases():
        dec = minimal_decomposition(g, alpha)
        assert dec.terms == loop_terms(g, stabilized_product_basis(g, alpha)), (g.adj, alpha)
        assert all(type(sign) is int for sign, _ in dec.terms)


def test_decomposition_fig6(fig6):
    dec = minimal_decomposition(fig6)
    assert dec.terms == (
        (1, "++++00"),
        (1, "--++01"),
        (1, "++--10"),
        (-1, "----11"),
    )
    assert abs(dec.normalization - 0.5) < 1e-15


def test_decomposition_p3_p2(p3, p2):
    dec3 = minimal_decomposition(p3)
    assert dec3.terms == ((1, "+0+"), (1, "-1-"))
    dec2 = minimal_decomposition(p2)
    assert dec2.terms == ((1, "+0"), (1, "-1"))
    assert abs(dec2.normalization - 1 / math.sqrt(2)) < 1e-15


def test_decomposition_reconstructs_exactly(fig6, p3, c5):
    for g in (fig6, p3, c5, FIG4):
        dec = minimal_decomposition(g)
        assert np.abs(reconstruct(dec) - dense.statevector(g)).max() < 1e-12


# ---------------------------------------------------------------------------
# certificates


def test_css_values(p2, p3, fig6):
    for g, value in ((p2, 1.0), (p3, 1.0), (fig6, 2.0)):
        css = closest_separable_state(g)
        ree = dense.relative_entropy_pure(dense.statevector(g), css_density(css))
        assert abs(ree - value) < 1e-9


def test_css_p2_components(p2):
    css = closest_separable_state(p2)
    assert css.components == ("+0", "-1") and css.weight == 0.5


def test_css_stabilizer_form_p3(p3):
    form = css_stabilizer_form(p3)
    assert [p.text() for p in form.elements] == ["III", "XZI", "IZX", "XIX"]
    assert form.scale == 1 / 8


def test_css_sum_equals_mixture(p3, fig6, triangle):
    for g in (p3, fig6, triangle):
        form = css_stabilizer_form(g)
        eq6 = sum(dense.pauli_dense(p) for p in form.elements) * form.scale
        eq5 = css_density(closest_separable_state(g))
        assert np.abs(eq6 - eq5).max() < 1e-12


def test_css_trivial_group_is_maximally_mixed():
    # keeping no generators leaves {I}: the single-qubit maximally mixed state
    g = Graph.from_edges(1, [])
    form = css_stabilizer_form(g, alpha=[])
    assert [p.text() for p in form.elements] == ["I"]
    mat = sum(dense.pauli_dense(p) for p in form.elements) * form.scale
    assert np.allclose(mat, np.eye(2) / 2.0, atol=1e-15)
    # with the natural alpha = {1} the state is |+><+| (E = 0 certificate)
    full = css_stabilizer_form(g)
    mat = sum(dense.pauli_dense(p) for p in full.elements) * full.scale
    assert np.allclose(mat, np.array([[0.5, 0.5], [0.5, 0.5]]), atol=1e-15)


def test_cps(fig6, p3, p2):
    assert closest_product_state(fig6) == "++++00"
    assert closest_product_state(p3) == "+0+"
    assert closest_product_state(p2) == "+0"
    for g, want in ((fig6, 0.25), (p3, 0.5), (p2, 0.5)):
        got = dense.overlap2(dense.statevector(g), closest_product_state(g))
        assert abs(got - want) < 1e-12


def test_cps_is_first_basis_state():
    for g, alpha in small_graphs_with_alphas():
        assert closest_product_state(g, alpha) == stabilized_product_basis(g, alpha)[0], (g.adj, alpha)


def test_cps_rejects_dependent_alpha(p3, fig6):
    with pytest.raises(ValueError, match="independent"):
        closest_product_state(p3, [1, 2])
    with pytest.raises(ValueError, match="independent"):
        closest_product_state(fig6, [5, 6])


# ---------------------------------------------------------------------------
# Bell extraction


def test_bell_p2_trivial(p2):
    result = bell_extraction(p2, [(1, 2)])
    assert result.moves == ()
    assert result.final.edges() == [(1, 2)]


def test_bell_p4(p4):
    result = bell_extraction(p4, [(1, 2), (3, 4)])
    assert result.final.edges() == [(1, 2), (3, 4)]
    assert 0 < len(result.moves) <= 16


def test_bell_prism():
    prism = Graph.from_edges(
        6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5), (3, 6)]
    )
    m = max_matching(prism)
    result = bell_extraction(prism, m)
    assert result.final.edges() == sorted(m)
    # replay: every matched edge survives every intermediate graph
    from graphent.measures import _apply_bell_move

    key = _pack(prism.adj)
    for move in result.moves:
        key = _apply_bell_move(6, key, move)
        adj = _unpack(6, key)
        for u, v in m:
            assert (adj[u - 1] >> (v - 1)) & 1


def test_bell_k6_infeasible_fails_loudly():
    # every K6 bipartition has cut rank 1 < 3: extraction must report failure
    k6 = complete(6)
    with pytest.raises(BellSearchError):
        bell_extraction(k6, max_matching(k6))


def test_bell_rejects_bad_matching(p4):
    with pytest.raises(ValueError):
        bell_extraction(p4, [(1, 2)])  # not maximum
    with pytest.raises(ValueError):
        bell_extraction(p4, [(1, 3), (2, 4)])  # not edges


def test_bell_refusals_are_exact_up_to_n5():
    # extraction succeeds exactly when some endpoint selection A has cut rank
    # |M|, on every connected graph with 2 <= n <= 5
    graphs = refused = 0
    for n in range(2, 6):
        for g in dense.all_connected_graphs(n):
            m = max_matching(g)
            feasible = any(
                cut_rank(g, [(v if (sel >> i) & 1 else u) for i, (u, v) in enumerate(m)]) == len(m)
                for sel in range(1 << len(m))
            )
            if feasible:
                result = bell_extraction(g, m)
                assert result.final.edges() == sorted(m)
                assert cut_rank(g, sorted(result.partition_a)) == len(m)
            else:
                with pytest.raises(BellSearchError, match="any endpoint selection"):
                    bell_extraction(g, m)
                refused += 1
            graphs += 1
    assert graphs == 771 and refused == 2


def test_bell_above_n6_is_refused_at_once():
    motivation = Graph.from_edges(8, [
        (1, 3), (1, 4), (1, 7), (2, 3), (2, 5), (3, 5), (3, 6),
        (3, 8), (4, 5), (4, 8), (5, 6), (5, 8), (7, 8),
    ])
    cases = [
        (ring(7), max_matching(ring(7))),
        (motivation, [(1, 4), (2, 3), (5, 6), (7, 8)]),
    ]
    for g, m in cases:
        with pytest.raises(ValueError, match="n <= 6"):
            bell_extraction(g, m)


# ---------------------------------------------------------------------------
# LC transport of certificates


def test_transport_star_to_k4():
    css = transport_css(star(4), [1])
    assert css.components == ("jjjj", "iiii")
    psi_k4 = dense.statevector(complete(4))
    assert abs(dense.relative_entropy_pure(psi_k4, css_density(css)) - 1.0) < 1e-9


def test_transport_empty_sequence(fig6):
    assert transport_css(fig6, []) == closest_separable_state(fig6)


def test_transport_p3_to_triangle(p3, triangle):
    css = transport_css(p3, [2])
    psi_tri = dense.statevector(triangle)
    assert abs(dense.relative_entropy_pure(psi_tri, css_density(css)) - 1.0) < 1e-9


def test_transport_components_track_graph(p3):
    final, comps = _transport_components(p3, (2, 2), ("+0+", "-1-"))
    assert final.adj == p3.adj  # involution
    # "+0+" -> "jjj" -> "-1-" and "-1-" -> "iii" -> "+0+": the square of the
    # Clifford is X_2 Z_1 Z_3 up to phase, which swaps the two states
    assert comps == ("-1-", "+0+")


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_fig6(fig6):
    report = evaluate(fig6)
    assert report.e_schmidt == report.e_relative_entropy == report.e_geometric == 2.0
    assert report.lc_path == ()
    assert not report.maximally_entangled  # value 2 < floor(6/2) = 3


def test_evaluate_ring6():
    report = evaluate(ring(6))
    assert report.e_schmidt == 3.0
    assert report.maximally_entangled


def test_evaluate_triangle(triangle):
    report = evaluate(triangle)
    assert report.e_schmidt == 1.0
    assert report.maximally_entangled  # 1 == floor(3/2): GHZ3 is maximal


def test_evaluate_k4_transports_certificates():
    k4 = complete(4)
    report = evaluate(k4)
    assert report.e_schmidt == 1.0
    assert report.lc_path != ()
    psi = dense.statevector(k4)
    assert abs(dense.relative_entropy_pure(psi, css_density(report.css)) - 1.0) < 1e-9
    assert abs(dense.overlap2(psi, report.cps) - 0.5) < 1e-12


def test_evaluate_rejects_lc_path_that_misses_the_input(monkeypatch):
    k4 = complete(4)
    real = lc_orbit(k4)
    assert real.min_vertex_cover == 1 and real.lc_path == (2,)
    # vertex 1 is a leaf of the representative star, so replaying (1,) leaves the star
    forged = dataclasses.replace(real, lc_path=(1,))
    monkeypatch.setattr(measures, "lc_orbit", lambda *args, **kwargs: forged)
    with pytest.raises(RuntimeError, match="replay"):
        evaluate(k4)


def test_evaluate_c5_interval(c5):
    report = evaluate(c5)
    assert report.e_schmidt == (2.0, 3.0)
    assert report.e_relative_entropy == (2.0, 3.0)
    assert not report.maximally_entangled
    # the CSS is still an upper-bound certificate
    ree = dense.relative_entropy_pure(dense.statevector(c5), css_density(report.css))
    assert abs(ree - 3.0) < 1e-9


def test_evaluate_lc_invariance(fig6):
    for g, want in ((star(4), 1.0), (fig6, 2.0)):
        members, _ = lc_orbit_members(g)
        values = {evaluate(Graph(g.n, _unpack(g.n, key))).e_schmidt for key in members}
        assert values == {want}


def test_evaluate_report_dict(fig6):
    doc = evaluate(fig6).to_dict()
    assert doc["measures"] == {"schmidt": 2.0, "ree": 2.0, "geometric": 2.0}
    assert doc["bounds"]["classification"] == BIPARTITE_KONIG
    assert doc["cps"] == "++++00"
    assert doc["decomposition"][3] == {"sign": -1, "state": "----11"}
    assert doc["graph"]["edges"][0] == [1, 6]


def test_lower_bound_equals_max_cut_rank(fig6, p3, c5):
    # orbit-min matching vs the maximal bipartite entanglement, tested not assumed
    for g in (fig6, p3, c5, star(5), complete(4)):
        b = bounds(g)
        best = 0
        for mask in range(1, (1 << g.n) - 1):
            cut = [v + 1 for v in range(g.n) if (mask >> v) & 1]
            best = max(best, cut_rank(g, cut))
        assert b.lower == best

"""Bounds, decompositions, certificates, Bell extraction, and evaluation."""

from __future__ import annotations

import dataclasses
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphent import (
    BoundsReport,
    Graph,
    PauliOperator,
    bounds,
    classify,
    closest_product_state,
    closest_separable_state,
    css_stabilizer_form,
    cut_rank,
    dense,
    evaluate,
    graphs,
    lattices,
    lc_orbit,
    lc_orbit_members,
    local_complement,
    max_independent_set,
    measures,
    minimal_decomposition,
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
    _transport_components,
)
from graphent.graphs import _matching_max_size, _pack, _unpack

from bell import BellSearchError, _apply_bell_move, bell_extraction
from conftest import complete, kernel_cases, random_connected, ring, small_graphs_with_alphas, star
from oracles import all_connected_graphs, brute_matching, predicts_equal, twirl
from test_graphs import ORBIT_SCREEN_G8

FIG4 = Graph.from_edges(7, [(1, 7), (2, 7), (3, 6), (4, 5), (5, 6), (5, 7), (6, 7)])


def reconstruct(decomposition):
    return sum(
        sign * decomposition.normalization * dense.product_state_vector(state)
        for sign, state in decomposition.terms
    )


def css_density(css):
    return dense.mixture_density(css.components)


# ---------------------------------------------------------------------------
# classification and bounds


def test_classify_branches():
    # away from n/2 the matching flag does not matter
    assert classify(4, 7, False) == classify(4, 7, True) == ALPHA_GT_HALF
    assert classify(2, 6, False) == classify(2, 6, True) == ALPHA_LT_HALF
    assert classify(3, 6, matching_is_perfect=True) == ALPHA_EQ_HALF_PERFECT
    assert classify(3, 6, matching_is_perfect=False) == ALPHA_EQ_HALF_IMPERFECT


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


def test_bounds_g8_reaches_the_smaller_matching_past_the_cover_floor():
    # G8 has the orbit's least cover but a matching above the cut rank; a
    # larger key with the same cover has the smaller matching, so alpha = n/2
    # is imperfect (see test_graphs.test_orbit_summary_equals_solving_every_member_random)
    assert bounds(ORBIT_SCREEN_G8).classification == ALPHA_EQ_HALF_IMPERFECT


def test_bounds_requires_connected():
    with pytest.raises(ValueError):
        bounds(Graph.from_edges(4, [(1, 2), (3, 4)]))


K33 = Graph.from_edges(6, [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)])


def test_truncated_bounds_k33_cap2_is_an_interval():
    # the two members visited both have a matching of 3; the full orbit gives [2, 2]
    b = bounds(K33, orbit_cap=2)
    assert b.truncated and (b.lower, b.upper) == (2, 3) and not b.coincide
    interval = [2.0, 3.0]
    want = {"schmidt": interval, "ree": interval, "geometric": interval}
    assert evaluate(K33, orbit_cap=2).to_dict()["measures"] == want


def test_truncated_bounds_k6_cap1_lower_is_the_cut_rank():
    # every cut of K_6 has rank 1, the true value; the visited member's matching is 3
    b = bounds(complete(6), orbit_cap=1)
    assert b.truncated and (b.lower, b.upper) == (1, 5) and not b.coincide
    assert lc_orbit(complete(6), cap=1).cut_rank == 1


@pytest.fixture(scope="module")
def full_bounds_corpus() -> list:
    """(graph, full-orbit bounds) for every connected graph with n <= 5 and
    every 25th with n = 6, computed once for all caps."""
    graphs = [g for n in range(1, 6) for g in all_connected_graphs(n)]
    graphs += itertools.islice(all_connected_graphs(6), 0, None, 25)
    return [(g, bounds(g)) for g in graphs]


@pytest.mark.parametrize("cap", [1, 2, 5, 20])
def test_truncated_lower_bound_is_sound_up_to_n5(cap, full_bounds_corpus):
    # n <= 5 in full, and every 25th connected graph with n = 6
    for g, full in full_bounds_corpus:
        b = bounds(g, orbit_cap=cap)
        assert b.lower <= full.lower and b.upper >= full.upper, g.edges()
        if b.coincide:
            assert b.upper == full.upper == full.lower, g.edges()
        if not b.truncated:
            assert (b.lower, b.upper) == (full.lower, full.upper), g.edges()


def test_bounds_report_holds_only_the_bounds():
    names = [f.name for f in dataclasses.fields(BoundsReport)]
    assert names == ["lower", "upper", "coincide", "classification", "truncated"]


@st.composite
def connected_graphs(draw, max_n: int = 7):
    """2 to max_n vertices: a random spanning tree (each vertex after the first hangs
    off an earlier one) plus any subset of the other pairs, so every draw is connected."""
    n = draw(st.integers(min_value=2, max_value=max_n))
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
    assert b.lower == full.lower == lc_orbit(g, cap).cut_rank
    assert b.upper >= full.upper


# ---------------------------------------------------------------------------
# sign function and minimal decomposition


def test_sign_function_fig6(fig6):
    beta = [5, 6]
    assert sign_function([1, 1], fig6, beta) == 1  # edge (5,6) internal to beta
    assert sign_function([0, 1], fig6, beta) == 0
    assert sign_function([0, 0], fig6, beta) == 0


def test_sign_function_refuses_a_bad_k_entry_or_beta_vertex(triangle):
    assert sign_function("11", triangle, [1, 2]) == 1
    for k in ("21", "12", [1, -1], [2, 0], [0.5, 1]):
        with pytest.raises(ValueError, match="0 or 1"):
            sign_function(k, triangle, [1, 2])
    # a vertex out of range is refused whatever its bit
    for k, beta in (("10", [1, 99]), ("01", [1, 99]), ("00", [1, 99]), ("1", [0])):
        with pytest.raises(ValueError, match="out of range"):
            sign_function(k, triangle, beta)


def test_sign_function_bipartite_colour_class_all_zero(fig6, p3):
    # alpha a colour class of a bipartite graph: every sign positive
    for g, alpha in ((p3, {1, 3}), (fig6, {1, 2, 3, 4})):
        beta = sorted(set(range(1, g.n + 1)) - alpha)
        m = len(beta)
        if not any((g.adj[u - 1] >> (v - 1)) & 1 for u in beta for v in beta if u < v):
            for k in range(1 << m):
                bits = [(k >> (m - 1 - i)) & 1 for i in range(m)]
                assert sign_function(bits, g, beta) == 0


def test_sign_function_matches_dense_amplitudes():
    # mandatory oracle gate for the closed form, random graphs up to n = 8
    rng = random.Random(13)
    for _ in range(30):
        g = random_connected(rng.randrange(2, 9), rng)
        dec = minimal_decomposition(g, max_independent_set(g))
        assert np.abs(reconstruct(dec) - dense.statevector(g)).max() < 1e-12


def test_decomposition_signs_equal_sign_function():
    # k of term idx in the basis order: first beta vertex most significant
    for g, alpha in small_graphs_with_alphas():
        beta = sorted(set(range(1, g.n + 1)) - alpha)
        m = len(beta)
        dec = minimal_decomposition(g, alpha)
        assert len(dec.terms) == 1 << m
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
    dec = minimal_decomposition(fig6, {1, 2, 3, 4})
    assert dec.terms == (
        (1, "++++00"),
        (1, "--++01"),
        (1, "++--10"),
        (-1, "----11"),
    )
    assert abs(dec.normalization - 0.5) < 1e-15


def test_decomposition_p3_p2(p3, p2):
    dec3 = minimal_decomposition(p3, {1, 3})
    assert dec3.terms == ((1, "+0+"), (1, "-1-"))
    dec2 = minimal_decomposition(p2, {1})
    assert dec2.terms == ((1, "+0"), (1, "-1"))
    assert abs(dec2.normalization - 1 / math.sqrt(2)) < 1e-15


def test_decomposition_reconstructs_exactly(fig6, p3, c5):
    for g in (fig6, p3, c5, FIG4):
        dec = minimal_decomposition(g, max_independent_set(g))
        assert np.abs(reconstruct(dec) - dense.statevector(g)).max() < 1e-12


# ---------------------------------------------------------------------------
# certificates


def test_css_values(p2, p3, fig6):
    for g, value in ((p2, 1.0), (p3, 1.0), (fig6, 2.0)):
        css = closest_separable_state(g, max_independent_set(g))
        ree = dense.relative_entropy_pure(dense.statevector(g), css_density(css))
        assert abs(ree - value) < 1e-9


def test_css_p2_components(p2):
    css = closest_separable_state(p2, {1})
    assert css.components == ("+0", "-1") and css.weight == 0.5


def test_css_stabilizer_form_p3(p3):
    form = css_stabilizer_form(p3, {1, 3})
    assert [p.text() for p in form.elements] == ["III", "XZI", "IZX", "XIX"]
    assert form.scale == 1 / 8


def test_css_sum_equals_mixture(p3, fig6, triangle):
    for g in (p3, fig6, triangle):
        alpha = max_independent_set(g)
        form = css_stabilizer_form(g, alpha)
        eq6 = sum(dense.pauli_dense(p) for p in form.elements) * form.scale
        eq5 = css_density(closest_separable_state(g, alpha))
        assert np.abs(eq6 - eq5).max() < 1e-12


def test_css_trivial_group_is_maximally_mixed():
    # keeping no generators leaves {I}: the single-qubit maximally mixed state
    g = Graph.from_edges(1, [])
    form = css_stabilizer_form(g, [])
    assert [p.text() for p in form.elements] == ["I"]
    mat = sum(dense.pauli_dense(p) for p in form.elements) * form.scale
    assert np.allclose(mat, np.eye(2) / 2.0, atol=1e-15)
    # with the natural alpha = {1} the state is |+><+| (E = 0 certificate)
    full = css_stabilizer_form(g, {1})
    mat = sum(dense.pauli_dense(p) for p in full.elements) * full.scale
    assert np.allclose(mat, np.array([[0.5, 0.5], [0.5, 0.5]]), atol=1e-15)


def test_cps(fig6, p3, p2):
    assert closest_product_state(fig6, {1, 2, 3, 4}) == "++++00"
    assert closest_product_state(p3, {1, 3}) == "+0+"
    assert closest_product_state(p2, {1}) == "+0"
    for g, want in ((fig6, 0.25), (p3, 0.5), (p2, 0.5)):
        got = dense.overlap2(dense.statevector(g), closest_product_state(g, max_independent_set(g)))
        assert abs(got - want) < 1e-12


def test_cps_is_first_basis_state():
    for g, alpha in small_graphs_with_alphas():
        assert closest_product_state(g, alpha) == stabilized_product_basis(g, alpha)[0], (g.adj, alpha)


def test_cps_rejects_dependent_alpha(p3, fig6):
    with pytest.raises(ValueError, match="independent"):
        closest_product_state(p3, [1, 2])
    with pytest.raises(ValueError, match="independent"):
        closest_product_state(fig6, [5, 6])


def test_certificates_refuse_a_dependent_alpha(p3):
    # {1, 2} is an edge of P3
    from graphent.separable import noise_css, peps_css

    builds = (
        minimal_decomposition,
        closest_separable_state,
        css_stabilizer_form,
        closest_product_state,
        lambda g, alpha: transport_css(g, [2], alpha),
        peps_css,
        noise_css,
    )
    for build in builds:
        with pytest.raises(ValueError, match="alpha is not an independent set"):
            build(p3, [1, 2])


# ---------------------------------------------------------------------------
# E_R = E_G: the twirl of a product state over the stabilizer group


def _random_product_state(n: int, rng: np.random.Generator) -> np.ndarray:
    vec = np.ones(1, dtype=complex)
    for _ in range(n):
        qubit = rng.normal(size=2) + 1j * rng.normal(size=2)
        vec = np.kron(vec, qubit / np.linalg.norm(qubit))
    return vec


def test_twirl_relative_entropy_is_the_product_overlap():
    # sigma_phi is diagonal in the basis Z^k|G>, so S(G||sigma_phi) = -log2 |<G|phi>|^2
    rng = np.random.default_rng(40)
    for g in (ring(5), ring(6)):
        psi = dense.statevector(g)
        graph_basis = np.array([dense.apply_pauli(PauliOperator(g.n, 0, k), psi) for k in range(1 << g.n)])
        for _ in range(40):
            phi = _random_product_state(g.n, rng)
            sigma = twirl(g, phi)
            in_basis = graph_basis.conj() @ sigma @ graph_basis.T
            assert np.abs(in_basis - np.diag(np.diag(in_basis))).max() < 1e-12
            want = -math.log2(abs(np.vdot(psi, phi)) ** 2)
            assert abs(dense.relative_entropy_pure(psi, sigma) - want) < 1e-9


def test_twirl_of_the_cps_is_the_css_mixture():
    rng = random.Random(41)
    small = [g for n in range(1, 6) for g in all_connected_graphs(n)]
    for g in small + [random_connected(n, rng) for n in (6, 7, 8) for _ in range(3)]:
        alpha = max_independent_set(g)
        sigma = twirl(g, dense.product_state_vector(closest_product_state(g, alpha)))
        mixture = dense.mixture_density(closest_separable_state(g, alpha).components)
        assert np.abs(sigma - mixture).max() < 1e-12, g.edges()


# ---------------------------------------------------------------------------
# Bell extraction (tests/bell.py, the reference of criterion 08)


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
    m = brute_matching(prism)
    result = bell_extraction(prism, m)
    assert result.final.edges() == sorted(m)
    # replay: every matched edge survives every intermediate graph
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
        bell_extraction(k6, brute_matching(k6))


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
        for g in all_connected_graphs(n):
            m = brute_matching(g)
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
        (ring(7), brute_matching(ring(7))),
        (motivation, [(1, 4), (2, 3), (5, 6), (7, 8)]),
    ]
    for g, m in cases:
        with pytest.raises(ValueError, match="n <= 6"):
            bell_extraction(g, m)


# ---------------------------------------------------------------------------
# LC transport of certificates


def test_transport_star_to_k4():
    css = transport_css(star(4), [1], {2, 3, 4})
    assert css.components == ("jjjj", "iiii")
    psi_k4 = dense.statevector(complete(4))
    assert abs(dense.relative_entropy_pure(psi_k4, css_density(css)) - 1.0) < 1e-9


def test_transport_empty_sequence(fig6):
    assert transport_css(fig6, [], {1, 2, 3, 4}) == closest_separable_state(fig6, {1, 2, 3, 4})


def test_transport_p3_to_triangle(p3, triangle):
    css = transport_css(p3, [2], {1, 3})
    psi_tri = dense.statevector(triangle)
    assert abs(dense.relative_entropy_pure(psi_tri, css_density(css)) - 1.0) < 1e-9


def test_transport_components_track_graph(p3):
    codes = bytearray(b"+0+\n-1-\n")
    final = _transport_components(p3, (2, 2), codes)
    comps = tuple(codes.decode("ascii").split())
    assert final.adj == p3.adj  # involution
    # "+0+" -> "jjj" -> "-1-" and "-1-" -> "iii" -> "+0+": the square of the
    # Clifford is X_2 Z_1 Z_3 up to phase, which swaps the two states
    assert comps == ("-1-", "+0+")


# ---------------------------------------------------------------------------
# evaluate


def _interval(report):
    """The report's one stored interval, as (lower, upper, coincide)."""
    b = report.bounds
    return b.lower, b.upper, b.coincide


def test_evaluate_fig6(fig6):
    report = evaluate(fig6)
    assert _interval(report) == (2, 2, True)
    assert report.lc_path == ()
    assert not report.to_dict()["maximally_entangled"]  # value 2 < floor(6/2) = 3


def test_evaluate_ring6():
    report = evaluate(ring(6))
    assert _interval(report) == (3, 3, True)
    assert report.to_dict()["maximally_entangled"]


def test_evaluate_triangle(triangle):
    report = evaluate(triangle)
    assert _interval(report) == (1, 1, True)
    assert report.to_dict()["maximally_entangled"]  # 1 == floor(3/2): GHZ3 is maximal


def test_evaluate_k4_transports_certificates():
    # the second graph's CSS is carried back along a three-step LC path
    three_steps = Graph.from_edges(5, [(1, 2), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (4, 5)])
    for g, value, path in ((complete(4), 1, (2,)), (three_steps, 2, (2, 4, 3))):
        report = evaluate(g)
        assert _interval(report) == (value, value, True) and report.lc_path == path
        psi = dense.statevector(g)
        assert abs(dense.relative_entropy_pure(psi, css_density(report.css)) - value) < 1e-9
        assert abs(dense.overlap2(psi, report.cps) - 2.0**-value) < 1e-12


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
    assert _interval(report) == (2, 3, False)
    doc = report.to_dict()
    assert doc["measures"] == {"schmidt": [2.0, 3.0], "ree": [2.0, 3.0], "geometric": [2.0, 3.0]}
    assert not doc["maximally_entangled"]
    # the CSS is still an upper-bound certificate
    ree = dense.relative_entropy_pure(dense.statevector(c5), css_density(report.css))
    assert abs(ree - 3.0) < 1e-9


def test_evaluate_lc_invariance(fig6):
    for g, want in ((star(4), 1), (fig6, 2)):
        members, _ = lc_orbit_members(g)
        values = {_interval(evaluate(Graph(g.n, _unpack(g.n, key)))) for key in members}
        assert values == {(want, want, True)}


def _relabelled(g: Graph, rng: random.Random) -> Graph:
    """g with its vertices renamed by a random permutation drawn from rng."""
    names = list(range(1, g.n + 1))
    rng.shuffle(names)
    return Graph.from_edges(g.n, [(names[u - 1], names[v - 1]) for u, v in g.edges()])


def _ends(g: Graph, cap: int = graphs.DEFAULT_ORBIT_CAP) -> tuple[int, int, bool]:
    b = bounds(g, cap)
    return b.lower, b.upper, b.truncated


def test_bounds_are_the_same_on_every_orbit_member_and_labelling():
    # (lower, upper, truncated) is a property of the state: every connected
    # graph with n <= 6, orbit by orbit, and one relabelling of each (the
    # classification is not, as a bipartite member gets Koenig's statement)
    ends = {}
    for g in (g for n in range(1, 7) for g in all_connected_graphs(n)):
        if (g.n, g.adj) in ends:
            continue
        members, truncated = lc_orbit_members(g)
        assert not truncated
        for key in members:
            adj = _unpack(g.n, key)
            ends[g.n, adj] = _ends(Graph(g.n, adj))
        assert len({ends[g.n, _unpack(g.n, key)] for key in members}) == 1, g.edges()
    rng = random.Random(59)
    for (n, adj), want in ends.items():
        moved = _relabelled(Graph(n, adj), rng)
        assert ends[n, moved.adj] == want, moved.edges()


def test_bounds_settled_by_the_pauli_rank_are_the_same_on_lc_neighbours_and_labellings():
    # the odd rings from 23 vertices on are settled at their own cover, the
    # least Pauli rank m = r + 1, so no orbit is enumerated and no cap bites
    rng = random.Random(67)
    for n, want in ((23, (11, 12, False)), (25, (12, 13, False))):
        for g in (ring(n), local_complement(ring(n), 1)):
            assert _ends(g) == _ends(_relabelled(g, rng)) == want, (n, g.edges())


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_n=10), st.randoms(use_true_random=False))
def test_untruncated_bounds_are_the_same_on_a_relabelling_and_an_lc_neighbour(g, rng):
    # up to 10 vertices an orbit has at most 3^10 members, below the default
    # cap, so no report is truncated; from 11 on an orbit can pass the cap
    moved = _relabelled(g, rng)
    neighbour = local_complement(g, rng.randint(1, g.n))
    want = _ends(g)
    assert not want[2]
    assert _ends(moved) == _ends(neighbour) == want, g.edges()


def test_bounds_settle_the_inputs_whose_pauli_rank_is_proved():
    triangular5 = lattices.generate_lattice(lattices.LatticeSpec("triangular", 5))
    assert _ends(ring(63)) == (31, 32, False)
    assert _ends(triangular5) == (12, 16, False)  # own cover 16 = m
    # m = 15 is proved, but the own cover 16 is above it, so the orbit is
    # solved and cut off by the cap
    assert _ends(random_connected(24, random.Random(24), 0.3), 1_000) == (12, 16, True)


def test_bounds_tighten_as_the_cap_grows():
    # a larger cap solves more members: the lower end is r at any cap, and
    # the upper end, the least cover among the members solved, never rises
    rng = random.Random(61)
    falls = 0
    for n in (11, 11, 11, 12, 12, 12, 13, 13, 13, 14, 14, 14):
        g = random_connected(n, rng)
        ends = [_ends(g, cap) for cap in (1, 10, 100, 1_000)]
        assert len({lower for lower, _, _ in ends}) == 1, g.edges()
        uppers = [upper for _, upper, _ in ends]
        assert uppers == sorted(uppers, reverse=True), g.edges()
        falls += uppers[0] > uppers[-1]
    assert falls  # on some graph a larger cap finds a smaller cover


def test_evaluate_report_dict(fig6):
    doc = evaluate(fig6).to_dict()
    assert doc["measures"] == {"schmidt": 2.0, "ree": 2.0, "geometric": 2.0}
    assert doc["bounds"]["classification"] == BIPARTITE_KONIG
    assert doc["cps"] == "++++00"
    assert doc["decomposition"][3] == {"sign": -1, "state": "----11"}
    assert doc["graph"]["edges"][0] == [1, 6]


def test_evaluate_requires_connected():
    # two disjoint edges: the own cover 2 meets the rank of the cut {1, 3} | {2, 4}
    with pytest.raises(ValueError):
        evaluate(Graph.from_edges(4, [(1, 2), (3, 4)]))


@pytest.fixture
def no_orbit(monkeypatch):
    """Make any orbit enumeration or orbit solve fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("orbit enumerated")

    monkeypatch.setattr(graphs, "lc_orbit_members", refuse)
    monkeypatch.setattr(measures, "lc_orbit", refuse)


def test_evaluate_settles_own_cover_at_cut_rank_without_the_orbit(no_orbit):
    # the 10-ring's own cover 5 is its cut rank
    report = evaluate(ring(10))
    assert _interval(report) == (5, 5, True) and report.lc_path == () and not report.bounds.truncated
    assert bounds(ring(10)) == report.bounds


def test_evaluate_settles_own_cover_at_the_pauli_rank_without_the_orbit(no_orbit):
    # the 9-ring: own cover 5 is the least Pauli rank, own |M_max| 4 the cut rank
    report = evaluate(ring(9))
    assert (report.bounds.lower, report.bounds.upper) == (4, 5) and not report.bounds.coincide
    assert report.lc_path == () and not report.bounds.truncated
    assert bounds(ring(9)) == report.bounds


def test_settled_inputs_do_no_orbit_work_at_any_cap(no_orbit):
    # the 12-ring's orbit is larger than either cap, but its own cover 6 is
    # its cut rank: the value is proved, so the report is not truncated
    for cap in (1, 100_000):
        report = evaluate(ring(12), cap)
        b = report.bounds
        assert (b.lower, b.upper) == (6, 6) and b.coincide and not b.truncated, cap
        assert report.lc_path == () and bounds(ring(12), cap) == b
    b = bounds(ring(64))  # bounds lists nothing, so it does not refuse
    assert (b.lower, b.upper) == (32, 32) and b.coincide and not b.truncated
    for solve in (evaluate, bounds):  # the cap is checked all the same
        with pytest.raises(ValueError, match="orbit cap 0 must be at least 1"):
            solve(ring(12), 0)


def test_evaluate_refuses_an_unlistable_decomposition_before_the_orbit(no_orbit):
    # the 64-ring's cut rank 32 bounds every member's |beta| from below
    with pytest.raises(ValueError, match=r"2\^32 states"):
        evaluate(ring(64))


def test_evaluate_works_out_the_input_facts_once(monkeypatch):
    # K4 is not settled (own cover 3, orbit minimum 1), so its orbit is solved
    calls = {}
    for module, name in ((graphs, "_cut_rank_bound"), (graphs, "_min_pauli_rank"), (measures, "lc_orbit")):
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    for solve in (evaluate, bounds):
        calls.update(_cut_rank_bound=0, _min_pauli_rank=0, lc_orbit=0)
        solve(complete(4))
        assert calls == {"_cut_rank_bound": 1, "_min_pauli_rank": 1, "lc_orbit": 1}, solve


# own cover 5, least Pauli rank 4, cut rank 3: an interval whose orbit is solved
OWN_COVER_ABOVE_MINIMUM = Graph.from_edges(7, [
    (1, 2), (1, 4), (1, 5), (1, 7), (2, 4), (2, 5), (2, 6), (3, 5), (3, 6), (3, 7), (4, 6), (4, 7), (6, 7),
])


def test_evaluate_unchanged_when_the_pauli_rank_search_runs_out(monkeypatch):
    cases = (ring(9), complete(4), OWN_COVER_ABOVE_MINIMUM)
    want = [evaluate(g).to_dict() for g in cases]
    assert graphs._root_facts(OWN_COVER_ABOVE_MINIMUM).pauli_rank == 4
    monkeypatch.setattr(graphs, "_PAULI_RANK_WORK", 1)
    assert all(graphs._root_facts(g).pauli_rank is None for g in cases)
    assert [evaluate(g).to_dict() for g in cases] == want


def test_the_pauli_rank_budget_can_move_only_truncated(monkeypatch):
    # the 23-ring is settled at its own cover 12 = m; with no budget m is
    # not proved, its orbit is solved instead and passes the cap
    g = ring(23)
    settled = bounds(g, 1_000)
    assert (settled.lower, settled.upper, settled.truncated) == (11, 12, False)
    monkeypatch.setattr(graphs, "_PAULI_RANK_WORK", 0)
    solved = bounds(g, 1_000)
    assert (solved.lower, solved.upper, solved.truncated) == (11, 12, True)
    assert solved.classification == settled.classification


@pytest.fixture(scope="module")
def settle_corpus() -> list:
    """(graph, settled) for every connected graph with n <= 5 and every 7th
    with n = 6, then the 7- to 9-rings and seeded G(n, 1/2) with n = 7-9.

    settled: the graph's own vertex cover is the smallest of its full orbit
    and its own maximum matching the orbit's cut rank, so its bounds are
    proved without the orbit."""
    corpus = [g for n in range(1, 6) for g in all_connected_graphs(n)]
    corpus += itertools.islice(all_connected_graphs(6), 0, None, 7)
    rng = random.Random(53)
    corpus += [ring(n) for n in (7, 8, 9)] + [random_connected(n, rng) for n in (7, 7, 8, 8, 9, 9)]
    out = []
    for g in corpus:
        full = lc_orbit(g)
        own = (g.n - len(max_independent_set(g)), _matching_max_size(g.n, g.adj))
        out.append((g, own == (full.min_vertex_cover, full.cut_rank)))
    return out


@pytest.mark.parametrize("cap", [1, 2, 3, 20, 100_000])
def test_evaluate_and_bounds_equal_the_orbit_path(cap, settle_corpus):
    # the orbit path's values, classification and lc_path at every cap; its
    # truncated flag only where the input is not settled at its own cover
    assert any(settled for _, settled in settle_corpus)
    for g, settled in settle_corpus:
        orbit = lc_orbit(g, cap)
        truncated = orbit.truncated and not settled
        want = measures._report(g, orbit.cut_rank, orbit.min_vertex_cover, orbit.representative_matching, truncated)
        report = evaluate(g, cap)
        assert report.bounds == want == bounds(g, cap), g.edges()
        path = () if g.n - len(max_independent_set(g)) == want.upper else orbit.lc_path
        assert report.lc_path == path, g.edges()


def test_lower_bound_equals_max_cut_rank(fig6, p3, c5, settle_corpus):
    # the paper's lower bound, the orbit's least maximum matching, against the
    # maximum cut rank that every report takes as its lower end: observed equal
    # here, not assumed anywhere
    for g in [fig6, p3, c5, star(5), complete(4)] + [g for g, _ in settle_corpus]:
        best = 0
        for mask in range(1, 1 << (g.n - 1)):  # a cut and its complement have one rank
            cut = [v + 1 for v in range(g.n) if (mask >> v) & 1]
            best = max(best, cut_rank(g, cut))
        assert lc_orbit(g).min_matching == best == bounds(g).lower, g.edges()

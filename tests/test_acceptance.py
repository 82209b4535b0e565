"""Acceptance suite: one test per criterion, each printed in the run summary.

The criteria check what the library ships: the bounds and certificates come
from the public entry points evaluate and bounds, called on every labelled
graph of the exhaustive small-graph corpus, with no orbit index of the
suite's own.  evaluate builds its decomposition on g itself or on the orbit
representative reached along lc_path, which is itself a corpus graph whose
report has an empty path, so the decomposition check on each graph's own
maximum independent set covers every decomposition evaluate ships.
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from graphent import (
    Graph,
    bounds,
    closest_separable_state,
    cut_rank,
    dense,
    evaluate,
    gap_formula,
    generate_lattice,
    is_bipartite,
    max_independent_set,
    minimal_decomposition,
    restricted_subgroup,
    stabilized_product_basis,
)
from graphent.graphs import _matching_max_size, _mis_size
from graphent.lattices import LatticeSpec
from graphent.measures import css_stabilizer_form
from graphent.separable import noise_css, peps_css

from bell import BellSearchError, _apply_bell_move, bell_extraction
from conftest import complete, random_connected, record_criterion, star
from oracles import (
    all_connected_graphs,
    brute_matching,
    brute_mis,
    construction_density,
    entangles_check,
    predicts_equal,
)

FIG6 = Graph.from_edges(6, [(1, 6), (2, 6), (3, 5), (4, 5), (5, 6)])

DENSE_TOL = 1e-12
REE_TOL = 1e-9


# ---------------------------------------------------------------------------
# shared corpus


_CONNECTED: dict[int, list[Graph]] = {}


def connected_graphs(n: int) -> list[Graph]:
    if n not in _CONNECTED:
        _CONNECTED[n] = list(all_connected_graphs(n))
    return _CONNECTED[n]


def css_density(css):
    return dense.mixture_density(css.components)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_example2_end_to_end():
    t0 = time.monotonic()
    report = evaluate(FIG6)
    assert report.to_dict()["measures"] == {"schmidt": 2.0, "ree": 2.0, "geometric": 2.0}
    assert report.decomposition.terms == (
        (1, "++++00"),
        (1, "--++01"),
        (1, "++--10"),
        (-1, "----11"),
    )
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    record_criterion("criterion 01 worked 6-qubit example", True, f"{elapsed:.2f}s")


def test_criterion_02_example1_restrictions():
    t0 = time.monotonic()
    p3 = Graph.from_edges(3, [(1, 2), (2, 3)])
    basis = stabilized_product_basis(p3, [1, 3])
    assert basis == ("+0+", "-1-")
    assert entangles_check(restricted_subgroup(p3, [1, 2]))
    assert not entangles_check(restricted_subgroup(p3, [1, 3]))
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    record_criterion("criterion 02 3-qubit subgroup restriction", True, f"{elapsed:.2f}s")


def test_criterion_03_ghz_orbit_minimisation():
    t0 = time.monotonic()
    for n in range(3, 9):
        report = evaluate(star(n))
        assert (report.bounds.lower, report.bounds.upper, report.bounds.coincide) == (1, 1, True), f"star {n}"
    for n in range(3, 7):
        report = evaluate(complete(n))
        assert (report.bounds.lower, report.bounds.upper, report.bounds.coincide) == (1, 1, True), f"complete {n}"
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    record_criterion("criterion 03 GHZ stars and cliques", True, f"{elapsed:.1f}s")


def test_criterion_04_oracle_ree_certificates():
    t0 = time.monotonic()
    checked = coinciding = 0
    for n in range(1, 7):
        for g in connected_graphs(n):
            checked += 1
            dec = minimal_decomposition(g, max_independent_set(g))
            psi = dense.statevector(g)
            rec = sum(
                s * dec.normalization * dense.product_state_vector(st)
                for s, st in dec.terms
            )
            assert np.abs(rec - psi).max() < DENSE_TOL, g.edges()
            report = evaluate(g)
            assert not report.bounds.truncated, g.edges()
            if not report.bounds.coincide:
                continue
            coinciding += 1
            upper = report.bounds.upper
            ree = dense.relative_entropy_pure(psi, css_density(report.css))
            assert abs(ree - upper) < REE_TOL, (g.edges(), ree, upper)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    record_criterion(
        "criterion 04 dense REE certificates",
        True,
        f"{coinciding}/{checked} coinciding, {elapsed:.0f}s",
    )


def test_criterion_05_three_way_css_agreement():
    t0 = time.monotonic()

    def check(g):
        alpha = max_independent_set(g)
        ref = css_density(closest_separable_state(g, alpha))
        form = css_stabilizer_form(g, alpha)
        eq6 = sum(dense.pauli_dense(p) for p in form.elements) * form.scale
        assert np.abs(eq6 - ref).max() < DENSE_TOL, g.edges()
        assert np.abs(construction_density(peps_css(g, alpha)) - ref).max() < DENSE_TOL, g.edges()
        assert np.abs(construction_density(noise_css(g, alpha)) - ref).max() < DENSE_TOL, g.edges()

    count = 0
    for n in range(2, 7):
        for g in connected_graphs(n):
            check(g)
            count += 1
    rng = random.Random(20250808)
    for _ in range(100):
        check(random_connected(rng.choice([7, 8]), rng, p=0.4))
        count += 1
    # the worked 4-qubit open chain reproduces exactly
    p4 = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
    result = peps_css(p4, {1, 3})
    assert sorted(result.components) == ["+0+0", "+0-1", "-1+1", "-1-0"]
    assert np.abs(construction_density(result) - css_density(closest_separable_state(p4, {1, 3}))).max() < DENSE_TOL
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    record_criterion(
        "criterion 05 three-way CSS agreement", True, f"{count} graphs, {elapsed:.0f}s"
    )


def _classification_prediction_matches(g: Graph) -> bool:
    report = bounds(g)
    assert not report.truncated, g.edges()  # the default cap is above 3^7
    return predicts_equal(report.classification) == report.coincide


def test_criterion_06_statement_soundness():
    t0 = time.monotonic()
    count = 0
    for n in range(2, 7):
        for g in connected_graphs(n):
            assert _classification_prediction_matches(g), g.edges()
            count += 1
    rng = random.Random(606)
    done = 0
    while done < 1000:
        g = random_connected(7, rng)
        assert _classification_prediction_matches(g), g.edges()
        done += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 900.0
    record_criterion(
        "criterion 06 bound-equality statements", True, f"{count}+1000 graphs, {elapsed:.0f}s"
    )


def test_criterion_07_koenig_duality():
    t0 = time.monotonic()
    rng = random.Random(77)
    corpus = [g for n in range(1, 7) for g in connected_graphs(n)]
    corpus += [random_connected(rng.choice([7, 8]), rng) for _ in range(300)]
    for g in corpus:
        msize = _matching_max_size(g.n, g.adj)
        alpha = _mis_size(g.n, g.adj)
        beta = g.n - alpha
        assert alpha + beta == g.n
        assert msize <= beta, g.edges()
        if is_bipartite(g) is not None:
            assert msize == beta, g.edges()
        if g.n <= 6:  # brute-force cross-check on the exhaustive corpus
            assert msize == len(brute_matching(g))
            assert alpha == brute_mis(g)
    elapsed = time.monotonic() - t0
    record_criterion(
        "criterion 07 Koenig and duality", True, f"{len(corpus)} graphs, {elapsed:.0f}s"
    )


def test_criterion_08_bell_extraction_exhaustive():
    t0 = time.monotonic()
    from graphent.graphs import _pack, _unpack

    attempted = extracted = infeasible = 0
    for g in connected_graphs(6):
        if _matching_max_size(6, g.adj) != 3:
            continue
        attempted += 1
        m = brute_matching(g)
        feasible = any(
            cut_rank(g, [(v if (sel >> i) & 1 else u) for i, (u, v) in enumerate(m)]) == 3
            for sel in range(8)
        )
        if feasible:
            result = bell_extraction(g, m)
            assert result.final.edges() == sorted(m)
            key = _pack(g.adj)
            for move in result.moves:  # matched edges survive every step
                key = _apply_bell_move(6, key, move)
                adj = _unpack(6, key)
                for u, v in m:
                    assert (adj[u - 1] >> (v - 1)) & 1
            assert key == _pack(result.final.adj)
            assert len(result.moves) <= 24
            extracted += 1
        else:
            # cut rank below the matching size: extraction must refuse loudly
            with pytest.raises(BellSearchError):
                bell_extraction(g, m)
            infeasible += 1
    elapsed = time.monotonic() - t0
    assert extracted > 20_000 and attempted == extracted + infeasible
    assert elapsed < 300.0
    record_criterion(
        "criterion 08 Bell-pair extraction",
        True,
        f"{extracted} extracted, {infeasible} infeasible refused, {elapsed:.0f}s",
    )


def test_criterion_09_lattice_gaps():
    t0 = time.monotonic()
    for size in (1, 2, 4, 6, 8):
        g = generate_lattice(LatticeSpec("hexagonal", size))
        assert _matching_max_size(g.n, g.adj) == g.n // 2
        assert (g.n - _mis_size(g.n, g.adj)) - _matching_max_size(g.n, g.adj) == 0
    trend_sizes = {
        "triangular": (4, 5, 6),
        "kagome": (1, 2, 3),
        "hexa-triangular": (2, 3),
    }
    for kind, sizes in trend_sizes.items():
        ns, gaps = [], []
        for size in sizes:
            g = generate_lattice(LatticeSpec(kind, size))
            assert g.n <= 36
            msize = _matching_max_size(g.n, g.adj)
            assert msize == g.n // 2, (kind, size)
            gap = (g.n - _mis_size(g.n, g.adj)) - msize
            assert gap > 0, (kind, size)
            ns.append(g.n)
            gaps.append(gap)
        assert gaps == sorted(gaps), kind
        slope, intercept = np.polyfit(ns, gaps, 1)
        assert slope > 0, kind
        residual = np.abs(np.polyval([slope, intercept], ns) - np.array(gaps)).max()
        assert residual < 0.1 * (max(gaps) - min(gaps) + 1e-9), kind
    # formula-level deviations are reported, not asserted; triangular agrees
    for L in (4, 5, 6):
        g = generate_lattice(LatticeSpec("triangular", L))
        exact = (g.n - _mis_size(g.n, g.adj)) - _matching_max_size(g.n, g.adj)
        assert exact == gap_formula("triangular", g.n)
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    record_criterion("criterion 09 lattice gap scaling", True, f"{elapsed:.0f}s")


def test_criterion_10_cps_heuristic_never_beats_certificate():
    t0 = time.monotonic()
    checked = 0
    for n in range(2, 6):
        for g in connected_graphs(n):
            report = bounds(g)
            assert not report.truncated, g.edges()
            if not report.coincide:
                continue
            upper = report.upper
            psi = dense.statevector(g)
            found = dense.best_product_overlap(psi, restarts=200, iterations=60, seed=11)
            certificate = 2.0**-upper
            assert found <= certificate + 1e-9, (g.edges(), found, certificate)
            assert found >= certificate - 1e-9, (g.edges(), found, certificate)
            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    record_criterion(
        "criterion 10 product-overlap search vs certificate",
        True,
        f"{checked} graphs, {elapsed:.0f}s",
    )

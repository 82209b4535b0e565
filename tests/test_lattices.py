"""Lattice patch generation and the gap between the entanglement bounds."""

from __future__ import annotations

import pytest

from graphent import LatticeSpec, gap_exact, gap_formula, gap_scan, generate_lattice, lattices
from graphent.graphs import _matching_max_size
from graphent.lattices import _BUILDERS, KINDS, lattice_vertex_count


def test_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec("square", 2)
    with pytest.raises(ValueError):
        LatticeSpec("kagome", 0)


def test_triangular_unit_rhombus():
    g = generate_lattice(LatticeSpec("triangular", 2))
    assert g.n == 4 and g.edge_count() == 5  # rhombus with one diagonal


def test_triangular_sizes():
    for L in (2, 3, 4, 5):
        g = generate_lattice(LatticeSpec("triangular", L))
        assert g.n == L * L


def test_hexagonal_single_cell_is_ring():
    g = generate_lattice(LatticeSpec("hexagonal", 1))
    assert g.n == 6 and g.edge_count() == 6
    assert all(g.degree(a) == 2 for a in range(1, 7))


def test_kagome_single_cell_is_bowtie():
    g = generate_lattice(LatticeSpec("kagome", 1))
    assert g.n == 5 and g.edge_count() == 6
    degrees = sorted(g.degree(a) for a in range(1, 6))
    assert degrees == [2, 2, 2, 2, 4]  # two triangles sharing one vertex


def test_hexa_triangular_single_cell_is_hexagon_ring():
    g = generate_lattice(LatticeSpec("hexa-triangular", 1))
    assert g.n == 6 and g.edge_count() == 6
    assert all(g.degree(a) == 2 for a in range(1, 7))


def test_hexa_triangular_sizes():
    for c in (1, 2, 3):
        assert lattice_vertex_count("hexa-triangular", c) == 3 * c * (c + 1)


def test_matching_is_half_n_on_all_kinds():
    cases = {
        "triangular": (2, 3, 4, 5),
        "kagome": (1, 2, 3),
        "hexa-triangular": (1, 2, 3),
        "hexagonal": (1, 2, 4, 6),
    }
    for kind, sizes in cases.items():
        for size in sizes:
            g = generate_lattice(LatticeSpec(kind, size))
            assert _matching_max_size(g.n, g.adj) == g.n // 2, (kind, size)


def test_formula_hexagonal_zero():
    for n in (6, 10, 18, 34):
        assert gap_formula("hexagonal", n) == 0.0


def test_formula_kagome_n12():
    # sqrt(13 + 36) = 7: (72 - 7 - 11)/9 - 6 = 0
    assert abs(gap_formula("kagome", 12)) < 1e-12


def test_formula_hexa_triangular_n6():
    # sqrt(9 + 72) = 9: (72 - 27 + 9)/18 - 3 = 0
    assert abs(gap_formula("hexa-triangular", 6)) < 1e-12


def test_formula_triangular_clamped():
    assert gap_formula("triangular", 16) == 2.0
    assert gap_formula("triangular", 25) == 4.0
    assert gap_formula("triangular", 36) == 6.0
    # the closed-form sum equals the printed sum with every term clamped at 0
    for L in range(4, 121):
        n = L * L
        clamped = sum(max(L - 3 * j, 0) for j in range(1, (n - 1) // 3 + 1))
        assert gap_formula("triangular", n) == float(-(-n // 2) - L - 2 * clamped), L


def test_formula_triangular_validity():
    with pytest.raises(ValueError):
        gap_formula("triangular", 9)  # L = 3
    with pytest.raises(ValueError):
        gap_formula("triangular", 10)  # not a square


def test_exact_gaps_frozen():
    expect = {
        ("triangular", 2): 0,
        ("triangular", 3): 1,
        ("triangular", 4): 2,
        ("triangular", 5): 4,
        ("kagome", 1): 1,
        ("kagome", 2): 2,
        ("kagome", 3): 4,
        ("hexa-triangular", 1): 0,
        ("hexa-triangular", 2): 3,
        ("hexagonal", 1): 0,
        ("hexagonal", 3): 0,
    }
    for (kind, size), gap in expect.items():
        assert gap_exact(generate_lattice(LatticeSpec(kind, size))) == gap, (kind, size)


def test_exact_matches_clamped_formula_on_triangular():
    # at open boundaries the rhombus patch reproduces the clamped sums exactly
    for L in (4, 5, 6):
        g = generate_lattice(LatticeSpec("triangular", L))
        assert gap_exact(g) == gap_formula("triangular", g.n)


def test_gap_scan_rows():
    rows = gap_scan("hexagonal", [1, 2], exact=True)
    assert [r.n for r in rows] == [6, 10]
    assert all(r.gap_exact == 0 and r.gap_formula == 0.0 for r in rows)
    rows = gap_scan("triangular", [2], exact=False)
    assert rows[0].gap_exact is None and rows[0].gap_formula is None


def test_gap_scan_builds_only_exact_patches(monkeypatch):
    built = []
    real = lattices.generate_lattice

    def counting(spec):
        built.append(spec)
        return real(spec)

    monkeypatch.setattr(lattices, "generate_lattice", counting)
    rows = gap_scan("kagome", [1, 2, 5], exact=False)
    assert built == [] and [r.n for r in rows] == [5, 17, 89]
    assert all(r.gap_exact is None for r in rows)
    gap_scan("hexagonal", [1, 2, 3], exact=True)
    assert built == [LatticeSpec("hexagonal", s) for s in (1, 2, 3)]


def test_vertex_counts_match_the_builders():
    for kind, build in _BUILDERS.items():
        for size in range(1, 41):
            assert lattice_vertex_count(kind, size) == build(size)[0], (kind, size)


def test_gap_scan_solves_every_patch_within_the_cap():
    # the 31 patches with n <= 64 all solve in milliseconds, so no row is left open
    total = 0
    for kind in KINDS:
        sizes = []
        while lattice_vertex_count(kind, len(sizes) + 1) <= 64:
            sizes.append(len(sizes) + 1)
        for row in gap_scan(kind, sizes, exact=True):
            assert None not in (row.matching, row.vertex_cover, row.gap_exact), row
            assert not row.timed_out
            assert row.vertex_cover - row.matching == row.gap_exact, row
        total += len(sizes)
    assert total == 31


def test_generate_over_64_rejected():
    with pytest.raises(ValueError):
        generate_lattice(LatticeSpec("triangular", 9))
    assert lattice_vertex_count("triangular", 9) == 81  # formula-only sizing still works

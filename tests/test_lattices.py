"""Lattice patch generation and the gap between the entanglement bounds."""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest

from graphent import LatticeSpec, gap_formula, gap_scan, generate_lattice, lattices
from graphent.graphs import _matching_max_size
from graphent.lattices import _KIND_TABLE, KINDS, _solve_gap, lattice_vertex_count


def test_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec("square", 2)
    with pytest.raises(ValueError):
        LatticeSpec("kagome", 0)


@pytest.mark.parametrize("size", [2.5, 2.0, True, "3"])
def test_spec_refuses_a_size_that_is_not_an_integer(size):
    # a bool is refused too, although Python counts it as an int
    for kind in ("triangular", "kagome"):
        with pytest.raises(ValueError, match="integer"):
            LatticeSpec(kind, size)
        with pytest.raises(ValueError, match="integer"):
            lattice_vertex_count(kind, size)
        with pytest.raises(ValueError, match="integer"):
            gap_scan(kind, [size], exact=False)


def test_triangular_unit_rhombus():
    g = generate_lattice(LatticeSpec("triangular", 2))
    assert g.n == 4 and len(g.edges()) == 5  # rhombus with one diagonal


def test_triangular_sizes():
    for L in (2, 3, 4, 5):
        g = generate_lattice(LatticeSpec("triangular", L))
        assert g.n == L * L


def test_hexagonal_single_cell_is_ring():
    g = generate_lattice(LatticeSpec("hexagonal", 1))
    assert g.n == 6 and len(g.edges()) == 6
    assert all(row.bit_count() == 2 for row in g.adj)


def test_kagome_single_cell_is_bowtie():
    g = generate_lattice(LatticeSpec("kagome", 1))
    assert g.n == 5 and len(g.edges()) == 6
    degrees = sorted(row.bit_count() for row in g.adj)
    assert degrees == [2, 2, 2, 2, 4]  # two triangles sharing one vertex


def test_hexa_triangular_single_cell_is_hexagon_ring():
    g = generate_lattice(LatticeSpec("hexa-triangular", 1))
    assert g.n == 6 and len(g.edges()) == 6
    assert all(row.bit_count() == 2 for row in g.adj)


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
        assert _solve_gap(generate_lattice(LatticeSpec(kind, size)))[2] == gap, (kind, size)


def test_exact_matches_clamped_formula_on_triangular():
    # at open boundaries the rhombus patch reproduces the clamped sums exactly,
    # on every triangular patch within 64 vertices
    for L in range(4, 9):
        g = generate_lattice(LatticeSpec("triangular", L))
        assert _solve_gap(g)[2] == gap_formula("triangular", g.n)


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
    # the digest pins every builder's numbering and bond list, byte for byte
    digest = hashlib.sha256()
    for kind, (_, build) in _KIND_TABLE.items():
        for size in range(1, 41):
            n, edges = build(size)
            assert lattice_vertex_count(kind, size) == n, (kind, size)
            digest.update(repr((kind, size, n, sorted(edges))).encode())
    assert digest.hexdigest() == "c93325d496194adc868ac1fe6641b1607d7f26743e5371ae071ef38fb5267d18"


def test_kagome_patches_have_no_site_of_degree_below_2():
    # the two corners left out are the only open-boundary sites that would hang on by one bond
    for cells in range(1, 41):
        n, edges = _KIND_TABLE["kagome"][1](cells)
        degree = Counter(v for edge in edges for v in edge)
        assert len(degree) == n and min(degree.values()) >= 2, cells


def test_patches_within_the_cap_are_pinned():
    # the 31 patches with n <= 64, in KINDS order, as generate_lattice builds them
    digest = hashlib.sha256()
    for kind in KINDS:
        size = 1
        while lattice_vertex_count(kind, size) <= 64:
            g = generate_lattice(LatticeSpec(kind, size))
            digest.update(repr((kind, size, g.n, g.edges())).encode())
            size += 1
    assert digest.hexdigest() == "b8bb1a7d0c5152383401f479b918cd22bee5028bd2416372cc789cc018df9abc"


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

"""Graph parsing, local complementation, orbits, and the exact solvers."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphent import (
    DisconnectedGraphError,
    Graph,
    GraphFormatError,
    cut_rank,
    dense,
    is_bipartite,
    lc_orbit,
    lc_orbit_members,
    local_complement,
    max_independent_set,
    max_matching,
    min_vertex_cover,
    parse_graph,
)
from graphent.graphs import _matching_max_size, _mis_size

from conftest import FIG6, complete, random_connected, ring, star


def graphs_strategy(max_n=7):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
        edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        return Graph.from_edges(n, edges)

    return build()


# ---------------------------------------------------------------------------
# parsing


def test_parse_p3():
    g = parse_graph("3 2\n1 2\n2 3")
    assert g.n == 3 and g.edges() == [(1, 2), (2, 3)]


def test_parse_fig6(fig6):
    assert fig6.edges() == [(1, 6), (2, 6), (3, 5), (4, 5), (5, 6)]
    assert fig6.neighbors(5) == {3, 4, 6}


def test_parse_comments_and_whitespace():
    g = parse_graph("# a path\n 3 2 \n1 2  # first\n2 3\n")
    assert g.edges() == [(1, 2), (2, 3)]


@pytest.mark.parametrize(
    "text",
    [
        "2 1\n1 1",  # self-loop
        "2 2\n1 2\n1 2",  # duplicate
        "2 1\n1 3",  # out of range
        "2 1\nx y",  # malformed
        "2 5\n1 2",  # wrong edge count
        "",
        "65 0",  # over the cap
    ],
)
def test_parse_errors(text):
    with pytest.raises(GraphFormatError):
        parse_graph(text)


def test_parse_rejects_disconnected():
    with pytest.raises(DisconnectedGraphError):
        parse_graph("4 2\n1 2\n3 4")
    g = parse_graph("4 2\n1 2\n3 4", require_connected=False)
    assert g.n == 4


def test_graph6_known_vector(p3):
    # 'Bg' is the standard graph6 encoding of the 3-vertex path
    assert p3.to_graph6() == "Bg"
    assert parse_graph("Bg", fmt="graph6").edges() == [(1, 2), (2, 3)]
    assert parse_graph(">>graph6<<Bg", fmt="graph6").edges() == [(1, 2), (2, 3)]


@settings(max_examples=60, deadline=None)
@given(graphs_strategy())
def test_graph6_round_trip(g):
    assert parse_graph(g.to_graph6(), fmt="graph6", require_connected=False).adj == g.adj


def test_graph6_bad_chars():
    with pytest.raises(GraphFormatError):
        parse_graph("B\x07", fmt="graph6")


# ---------------------------------------------------------------------------
# local complementation and orbits


def test_lc_star_gives_complete():
    g = star(4)
    assert local_complement(g, 1).edges() == complete(4).edges()


def test_lc_leaf_noop(p2):
    assert local_complement(p2, 2).adj == p2.adj


@settings(max_examples=80, deadline=None)
@given(graphs_strategy(), st.integers(min_value=1, max_value=7))
def test_lc_involution(g, a):
    a = (a - 1) % g.n + 1
    assert local_complement(local_complement(g, a), a).adj == g.adj


def test_orbit_star4():
    summary = lc_orbit(star(4))
    assert summary.size == 5
    assert summary.min_matching == 1 and summary.min_vertex_cover == 1
    members, truncated = lc_orbit_members(star(4))
    assert not truncated
    assert complete(4).adj in members


def test_orbit_p2(p2):
    summary = lc_orbit(p2)
    assert summary.size == 1
    assert summary.min_matching == summary.min_vertex_cover == 1


def test_orbit_fig6(fig6):
    summary = lc_orbit(fig6)
    assert summary.min_matching == 2 and summary.min_vertex_cover == 2
    assert not summary.truncated
    # brute-force matching/MVC per enumerated member agrees with the minima
    members, _ = lc_orbit_members(fig6)
    assert min(dense.brute_matching(Graph(6, adj)) for adj in members) == 2
    assert min(6 - dense.brute_mis(Graph(6, adj)) for adj in members) == 2


def test_orbit_path_reaches_representative(fig6):
    summary = lc_orbit(fig6)
    g = fig6
    for a in summary.lc_path:
        g = local_complement(g, a)
    assert g.adj == summary.representative.adj


# (graph, orbit size, lc_path, representative edges): the lexicographic
# tie-breaks of the representative and the breadth-first path to it
ORBIT_PINS = {
    "K4": (complete(4), 5, (2,), [(1, 2), (2, 3), (2, 4)]),
    "star5": (star(5), 6, (1, 2), [(1, 2), (2, 3), (2, 4), (2, 5)]),
    "C5": (ring(5), 132, (1, 2, 5, 4), [(1, 2), (1, 3), (2, 4), (3, 5), (4, 5)]),
    "fig6": (FIG6, 18, (5, 3, 6, 2), [(1, 2), (2, 3), (2, 6), (3, 4), (3, 5)]),
    "ring6": (ring(6), 372, (1, 6, 5, 2, 1), [(1, 2), (1, 3), (2, 4), (2, 5), (3, 5), (4, 6), (5, 6)]),
}


@pytest.mark.parametrize("name", sorted(ORBIT_PINS))
def test_orbit_pinned_tie_breaks(name):
    g, size, path, rep_edges = ORBIT_PINS[name]
    summary = lc_orbit(g)
    assert summary.size == size and not summary.truncated
    assert summary.lc_path == path
    assert summary.representative.edges() == rep_edges
    assert summary.own_vertex_cover == len(min_vertex_cover(g))
    rep = summary.representative
    assert summary.representative_matching == _matching_max_size(rep.n, rep.adj)


def _bfs_depths(g: Graph) -> dict:
    depth = {g.adj: 0}
    frontier = [g]
    while frontier:
        nxt = []
        for h in frontier:
            for a in range(1, g.n + 1):
                k = local_complement(h, a)
                if k.adj not in depth:
                    depth[k.adj] = depth[h.adj] + 1
                    nxt.append(k)
        frontier = nxt
    return depth


@pytest.mark.parametrize("g", [FIG6, complete(4)], ids=["fig6", "K4"])
def test_orbit_parent_pointers_replay(g):
    summary = lc_orbit(g)
    depths = _bfs_depths(g)
    assert set(summary.members) == set(depths)
    for adj in summary.members:
        path = summary.path(adj)
        h = g
        for a in path:
            h = local_complement(h, a)
        assert h.adj == adj
        assert len(path) == depths[adj]
    assert summary.path(g.adj) == ()
    assert summary.path(summary.representative.adj) == summary.lc_path


def test_orbit_closure_small(p3, triangle):
    for g in (p3, triangle, star(4)):
        members, truncated = lc_orbit_members(g)
        assert not truncated
        for adj in members:
            h = Graph(g.n, adj)
            for a in range(1, g.n + 1):
                assert local_complement(h, a).adj in members


def test_orbit_truncation_flag():
    g = random_connected(7, random.Random(3))
    summary = lc_orbit(g, cap=5)
    assert summary.truncated and summary.size <= 5


def test_orbit_matches_brute(p3):
    assert set(lc_orbit_members(p3)[0]) == dense.brute_orbit(p3)


# ---------------------------------------------------------------------------
# matching


def test_matching_fig6(fig6):
    m = max_matching(fig6)
    assert len(m) == 2
    assert m == ((1, 6), (3, 5))


def test_matching_star():
    for n in (3, 5, 8):
        assert len(max_matching(star(n))) == 1


def test_matching_complete():
    assert len(max_matching(complete(6))) == 3


def test_matching_is_valid_matching(fig6):
    m = max_matching(fig6)
    seen = set()
    for u, v in m:
        assert fig6.has_edge(u, v)
        assert u not in seen and v not in seen
        seen.update((u, v))


def test_matching_exhaustive_n5_vs_brute():
    for n in range(2, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
            g = Graph.from_edges(n, edges)
            assert _matching_max_size(n, g.adj) == dense.brute_matching(g)


@settings(max_examples=40, deadline=None)
@given(graphs_strategy(max_n=8))
def test_matching_vs_brute_random(g):
    assert _matching_max_size(g.n, g.adj) == dense.brute_matching(g)


# ---------------------------------------------------------------------------
# independent set / vertex cover


def test_mis_fig6(fig6):
    assert max_independent_set(fig6) == {1, 2, 3, 4}
    assert min_vertex_cover(fig6) == {5, 6}


def test_mis_p3(p3):
    assert max_independent_set(p3) == {1, 3}
    assert min_vertex_cover(p3) == {2}


def test_mis_k5_tie_break():
    assert max_independent_set(complete(5)) == {1}
    assert min_vertex_cover(complete(5)) == {2, 3, 4, 5}


def test_mis_tie_break_prefers_low_vertices():
    c4 = Graph.from_edges(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
    assert max_independent_set(c4) == {1, 4}


def test_mis_exhaustive_n5_vs_brute():
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
            g = Graph.from_edges(n, edges)
            assert _mis_size(n, g.adj) == dense.brute_mis(g)


@settings(max_examples=40, deadline=None)
@given(graphs_strategy(max_n=8))
def test_mis_properties(g):
    alpha = max_independent_set(g)
    beta = min_vertex_cover(g)
    assert len(alpha) + len(beta) == g.n
    for a in alpha:
        assert not (alpha & g.neighbors(a))
    for u, v in g.edges():
        assert u in beta or v in beta
    assert _mis_size(g.n, g.adj) == dense.brute_mis(g)


@settings(max_examples=60, deadline=None)
@given(graphs_strategy(max_n=8))
def test_matching_cover_duality(g):
    msize = _matching_max_size(g.n, g.adj)
    bsize = len(min_vertex_cover(g))
    assert msize <= bsize
    if is_bipartite(g) is not None:
        assert msize == bsize


# ---------------------------------------------------------------------------
# bipartiteness and cut rank


def test_bipartite_fig6(fig6):
    sides = is_bipartite(fig6)
    assert sides == ({1, 2, 5}, {3, 4, 6})


def test_bipartite_triangle(triangle):
    assert is_bipartite(triangle) is None


def test_bipartite_p4(p4):
    assert is_bipartite(p4) == ({1, 3}, {2, 4})


def test_cut_rank_examples(fig6, p3):
    assert cut_rank(p3, [2]) == 1
    assert cut_rank(complete(6), [1, 2, 3]) == 1
    assert cut_rank(fig6, [1, 3, 5]) == 2


def test_cut_rank_rejects_trivial_cut(p3):
    with pytest.raises(ValueError):
        cut_rank(p3, [])
    with pytest.raises(ValueError):
        cut_rank(p3, [1, 2, 3])


@settings(max_examples=60, deadline=None)
@given(graphs_strategy(max_n=7), st.integers(min_value=1, max_value=126))
def test_cut_rank_symmetric_and_bounded(g, raw):
    if g.n < 2:
        return
    amask = raw % ((1 << g.n) - 1)
    if amask == 0:
        amask = 1
    a = [b + 1 for b in range(g.n) if (amask >> b) & 1]
    comp = [v for v in range(1, g.n + 1) if v not in a]
    r = cut_rank(g, a)
    assert r == cut_rank(g, comp)
    assert 0 <= r <= min(len(a), len(comp))
    if g.is_connected() and 0 < len(a) < g.n:
        assert r >= 1


def test_cut_rank_invariant_under_lc():
    rng = random.Random(11)
    for _ in range(20):
        g = random_connected(6, rng)
        a = rng.randrange(1, 7)
        cut = [1, 4, 5]
        assert cut_rank(g, cut) == cut_rank(local_complement(g, a), cut)

"""Graph parsing, local complementation, orbits, and the exact solvers."""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphent import (
    DisconnectedGraphError,
    Graph,
    GraphFormatError,
    OrbitSummary,
    cut_rank,
    graphs,
    is_bipartite,
    lc_orbit,
    lc_orbit_members,
    local_complement,
    max_independent_set,
    parse_graph,
)
from graphent.graphs import (
    DEFAULT_ORBIT_CAP,
    _cut_rank,
    _cut_rank_bound,
    _cut_rank_ceiling,
    _greedy_clique_cover,
    _layout,
    _lc_key,
    _matching_max_size,
    _min_pauli_rank,
    _mis_size,
    _pack,
    _parse_edgelist,
    _parse_graph6,
    _path_to,
    _root_facts,
    _unpack,
    _vertices_of,
)
from graphent.lattices import LatticeSpec, generate_lattice

from bell import _edge_key
from conftest import FIG6, complete, random_connected, ring, star
from oracles import all_connected_graphs, brute_matching, brute_min_pauli_rank, brute_mis, gf2_rank, to_graph6


def graphs_strategy(max_n=7):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
        edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        return Graph.from_edges(n, edges)

    return build()


_CONNECTED_UP_TO_5 = [g for n in range(1, 6) for g in all_connected_graphs(n)]


# ---------------------------------------------------------------------------
# parsing


def test_parse_p3():
    g = parse_graph("3 2\n1 2\n2 3")
    assert g.n == 3 and g.edges() == [(1, 2), (2, 3)]


def test_parse_fig6(fig6):
    assert fig6.edges() == [(1, 6), (2, 6), (3, 5), (4, 5), (5, 6)]
    assert _vertices_of(fig6.adj[4]) == {3, 4, 6}


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
        "3 2 1\n1 2\n2 3",  # header of three fields
        "a b",  # non-integer header
        "3 2\n1 2 3\n2 3",  # edge line of three fields
    ],
)
def test_parse_errors(text):
    with pytest.raises(GraphFormatError):
        parse_graph(text)


def test_parse_rejects_disconnected():
    with pytest.raises(DisconnectedGraphError):
        parse_graph("4 2\n1 2\n3 4")
    g = _parse_edgelist("4 2\n1 2\n3 4")
    assert g.n == 4


def test_graph6_known_vector(p3):
    # 'Bg' is the standard graph6 encoding of the 3-vertex path
    assert to_graph6(p3) == "Bg"
    assert parse_graph("Bg", fmt="graph6").edges() == [(1, 2), (2, 3)]
    assert parse_graph(">>graph6<<Bg", fmt="graph6").edges() == [(1, 2), (2, 3)]


@settings(max_examples=60, deadline=None)
@given(graphs_strategy())
def test_graph6_round_trip(g):
    assert _parse_graph6(to_graph6(g)).adj == g.adj


def test_graph6_bad_chars():
    with pytest.raises(GraphFormatError):
        parse_graph("B\x07", fmt="graph6")


@pytest.mark.parametrize(
    "text",
    [
        "",
        ">>graph6<<",  # header only
        "~",  # long size field cut short
        "~?",
        "?",  # zero vertices
        "A",  # two vertices, no body
        "~?@@?",  # 65 vertices, over the cap
    ],
)
def test_graph6_errors(text):
    with pytest.raises(GraphFormatError):
        parse_graph(text, fmt="graph6")


@pytest.mark.parametrize("n", [63, 64])
def test_graph6_long_form_round_trip(n):
    # from 63 vertices on, graph6 gives the size in the long form '~' plus three characters
    text = to_graph6(ring(n))
    assert text[0] == "~" and parse_graph(text, fmt="graph6").adj == ring(n).adj


def test_parse_unknown_format():
    with pytest.raises(ValueError):
        parse_graph("Bg", fmt="dot")


@pytest.mark.parametrize(
    "n,adj,reason",
    [
        (3, (0b010, 0b101), "length"),  # one row short
        (2, (0b110, 0b001), "out of range"),  # a neighbour bit past n
        (2, (0b011, 0b001), "self-loop"),
        (2, (0b10, 0b00), "asymmetric"),  # 1 lists 2, 2 does not list 1
        (0, (), "outside"),
        (65, (0,) * 65, "outside"),
    ],
)
def test_graph_rejects_bad_adjacency(n, adj, reason):
    with pytest.raises(GraphFormatError, match=reason):
        Graph(n, adj)


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
    assert _pack(complete(4).adj) in members


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
    assert min(len(brute_matching(Graph(6, _unpack(6, key)))) for key in members) == 2
    assert min(6 - brute_mis(Graph(6, _unpack(6, key))) for key in members) == 2


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
    rep = summary.representative
    assert summary.representative_matching == _matching_max_size(rep.n, rep.adj)


def _bfs_depths(g: Graph, count: float = float("inf")) -> dict:
    """Breadth-first depth of the members of g's orbit, found level by level
    over adjacency tuples until the levels hold at least count of them."""
    depth = {g.adj: 0}
    level = [g.adj]
    while level and len(depth) < count:
        nxt = []
        for adj in level:
            for a0 in range(g.n):
                h = _tuple_tau(adj, a0)
                if h not in depth:
                    depth[h] = depth[adj] + 1
                    nxt.append(h)
        level = nxt
    return depth


@pytest.mark.parametrize("g", [FIG6, complete(4)], ids=["fig6", "K4"])
def test_orbit_parent_pointers_replay(g):
    members, _ = lc_orbit_members(g)
    depths = _bfs_depths(g)
    assert {_unpack(g.n, key) for key in members} == set(depths)
    for key in members:
        path = _path_to(g.n, members, key)
        h = g
        for a in path:
            h = local_complement(h, a)
        assert _pack(h.adj) == key
        assert len(path) == depths[h.adj]
    assert _path_to(g.n, members, _pack(g.adj)) == ()
    summary = lc_orbit(g)
    assert _path_to(g.n, members, _pack(summary.representative.adj)) == summary.lc_path


def _assert_parents_replay(g: Graph, cap: int) -> None:
    """The root maps to None; every other member maps to a vertex whose local
    complement takes it to a member found earlier; _path_to replays from g to
    each member in exactly its breadth-first depth."""
    members, _ = lc_orbit_members(g, cap)
    depths = _bfs_depths(g, len(members))
    order = {key: i for i, key in enumerate(members)}
    root = _pack(g.adj)
    assert order[root] == 0 and members[root] is None
    for key, a in members.items():
        adj = _unpack(g.n, key)
        if key != root:
            assert a in range(1, g.n + 1), (g.edges(), adj)
            assert order.get(_lc_key(g.n, key, a - 1), len(order)) < order[key], (g.edges(), adj)
        path = _path_to(g.n, members, key)
        h = g.adj
        for v in path:
            h = _tuple_tau(h, v - 1)
        assert h == adj and len(path) == depths[adj], (g.edges(), adj)


@pytest.mark.parametrize("cap", [1, 3, DEFAULT_ORBIT_CAP])
def test_orbit_parent_vertices_replay_up_to_n5(cap):
    for g in _CONNECTED_UP_TO_5:
        _assert_parents_replay(g, cap)


def test_orbit_parent_vertices_replay_random():
    rng = random.Random(53)
    for n in range(6, 11):
        _assert_parents_replay(random_connected(n, rng), 3000)


def test_orbit_summary_has_no_members_view():
    # the member map, and what was read from it, belong to lc_orbit_members
    dropped = {"members", "packed", "path", "own_vertex_cover"}
    assert not dropped & {f.name for f in dataclasses.fields(OrbitSummary)}
    summary = lc_orbit(ring(5))
    assert not any(hasattr(summary, name) for name in dropped)


def test_orbit_closure_small(p3, triangle):
    for g in (p3, triangle, star(4)):
        members, truncated = lc_orbit_members(g)
        assert not truncated
        for key in members:
            h = Graph(g.n, _unpack(g.n, key))
            for a in range(1, g.n + 1):
                assert _pack(local_complement(h, a).adj) in members


def test_orbit_has_at_most_3_to_the_n_members():
    # Bouchet's count of an LC orbit by Eulerian vectors; every connected
    # graph with n <= 6 lies in one of the orbits enumerated
    seen = set()
    for g in (g for n in range(1, 7) for g in all_connected_graphs(n)):
        if (g.n, _pack(g.adj)) not in seen:
            members, truncated = lc_orbit_members(g, 3**g.n + 1)
            assert len(members) <= 3**g.n and not truncated, g.edges()
            seen.update((g.n, key) for key in members)
    rng = random.Random(41)
    for g in [ring(n) for n in range(7, 11)] + [random_connected(n, rng) for n in range(7, 11)]:
        members, truncated = lc_orbit_members(g, 3**g.n + 1)
        assert len(members) <= 3**g.n and not truncated, g.edges()


def test_orbit_truncation_flag():
    g = random_connected(7, random.Random(3))
    summary = lc_orbit(g, cap=5)
    assert summary.truncated and summary.size <= 5


@pytest.mark.parametrize("cap", [0, -3])
def test_orbit_cap_below_1_rejected(p3, cap):
    with pytest.raises(ValueError):
        lc_orbit_members(p3, cap)
    with pytest.raises(ValueError):
        lc_orbit(p3, cap)


# ---------------------------------------------------------------------------
# the packed orbit search against a plain search over adjacency tuples


def _tuple_tau(adj: tuple[int, ...], a0: int) -> tuple[int, ...]:
    """Local complementation on an adjacency tuple, 0-indexed vertex."""
    nb = adj[a0]
    out = list(adj)
    m = nb
    while m:
        low = m & -m
        out[low.bit_length() - 1] ^= nb ^ low
        m ^= low
    return tuple(out)


def _tuple_orbit_members(g: Graph, cap: int) -> tuple[dict, bool]:
    """Breadth-first orbit search over adjacency tuples, the reference the
    packed search must reproduce: {adj: (parent_adj, vertex) or None}, truncated."""
    start = g.adj
    members = {start: None}
    queue = [start]
    truncated = False
    for cur in queue:
        for a0 in range(g.n):
            nb = cur[a0]
            if not nb & (nb - 1):
                continue
            nxt = _tuple_tau(cur, a0)
            if nxt not in members:
                if len(members) >= cap:
                    truncated = True
                    continue
                members[nxt] = (cur, a0 + 1)
                queue.append(nxt)
    return members, truncated


def _parent_items(n: int, members: dict) -> list:
    """lc_orbit_members' map as [(adj, (parent_adj, vertex) or None)], each
    parent being the member's own local complement at its vertex."""
    return [
        (_unpack(n, key), None if a is None else (_unpack(n, _lc_key(n, key, a - 1)), a))
        for key, a in members.items()
    ]


def _unpacked_items(g: Graph, cap: int) -> tuple[list, bool]:
    members, truncated = lc_orbit_members(g, cap)
    return _parent_items(g.n, members), truncated


def _tuple_items(g: Graph, cap: int) -> tuple[list, bool]:
    members, truncated = _tuple_orbit_members(g, cap)
    return list(members.items()), truncated


_SEEDED_N6 = [random_connected(6, random.Random(59 + k)) for k in range(40)]


@pytest.mark.parametrize("cap", [1, 2, 5, 20, DEFAULT_ORBIT_CAP])
def test_packed_orbit_equals_tuple_search(cap):
    for g in _CONNECTED_UP_TO_5 + _SEEDED_N6:
        assert _unpacked_items(g, cap) == _tuple_items(g, cap), g.edges()


def test_packed_orbit_equals_tuple_search_random():
    # caps that cut a breadth-first level in the middle, and one past most orbits
    for cap in (1, 7, 97, 3000):
        rng = random.Random(41)
        for n in range(6, 11):
            g = random_connected(n, rng)
            assert _unpacked_items(g, cap) == _tuple_items(g, cap), (cap, g.edges())


def test_packed_orbit_equals_tuple_search_64_vertices():
    # keys of up to 64 rows of 64 bits; the cap stops the search well inside each orbit
    graphs = [random_connected(n, random.Random(43), p=0.1) for n in (60, 61, 62, 64)]
    for g in graphs + [generate_lattice(LatticeSpec("hexagonal", 15))]:
        items, truncated = _unpacked_items(g, 2000)
        assert truncated and len(items) == 2000
        assert (items, truncated) == _tuple_items(g, 2000), g.n


# whole orbits: two rings, and two G(10, 1/2) whose own cover exceeds the
# least Pauli rank m, so that lc_orbit reads every member; (graph, size)
_WHOLE_ORBITS = {
    "ring9": (ring(9), 8140),
    "ring10": (ring(10), 22484),
    "G10-seed2": (random_connected(10, random.Random(2)), 11456),
    "G10-seed20": (random_connected(10, random.Random(20)), 11784),
}


@pytest.mark.parametrize("name", list(_WHOLE_ORBITS))
def test_packed_orbit_equals_tuple_search_whole_orbits(name):
    g, size = _WHOLE_ORBITS[name]
    if name.startswith("G10"):
        facts = _root_facts(g)
        assert facts.own_cover > facts.pauli_rank
    items, truncated = _unpacked_items(g, DEFAULT_ORBIT_CAP)
    assert not truncated and len(items) == size
    assert (items, truncated) == _tuple_items(g, DEFAULT_ORBIT_CAP)


def test_lc_commutes_at_non_adjacent_vertices_and_keeps_its_row():
    # the two facts lc_orbit_members' skip rule rests on; local complements
    # at two adjacent vertices do not commute in general, and the test sees it
    rng = random.Random(67)
    adjacent_differ = 0
    for n in [2, 3, 5, 8, 13, 21, 34, 59, 60, 61, 62, 63, 64]:
        stride = _layout(n)[0]
        for p in (0.5, min(1.0, 3 / n)):
            g = random_connected(n, rng, p)
            key = _pack(g.adj)
            for a0 in range(n):
                after = _lc_key(n, key, a0)
                assert (after >> (n - 1 - a0) * stride) & ((1 << n) - 1) == g.adj[a0]
            for a0, b0 in itertools.combinations(range(n), 2):
                ab = _lc_key(n, _lc_key(n, key, b0), a0)
                ba = _lc_key(n, _lc_key(n, key, a0), b0)
                if g.adj[a0] >> b0 & 1:
                    adjacent_differ += ab != ba
                else:
                    assert ab == ba, (g.edges(), a0, b0)
    assert adjacent_differ


@pytest.mark.parametrize("g", [ring(62), generate_lattice(LatticeSpec("hexagonal", 15))])
def test_packed_keys_hash_apart_at_62_vertices(g):
    # Python hashes ints modulo 2^61 - 1; a row stride of 62 would give these
    # keys a hash that depends only on their edges' differences
    members = lc_orbit_members(g, 3000)[0]
    assert len({hash(key) for key in members}) == len(members) == 3000


def test_pack_round_trip_and_local_complement_up_to_64():
    rng = random.Random(47)
    for n in [1, 2, 3, 7, 12, 13, 31, 32, 33, 59, 60, 61, 62, 63, 64]:
        stride = _layout(n)[0]
        assert n <= stride <= 64
        g = random_connected(n, rng, p=min(1.0, 3 / n))
        key = _pack(g.adj)
        assert key.bit_length() <= n * stride and _unpack(n, key) == g.adj
        for u, v in g.edges()[:5]:
            assert _edge_key(n, u - 1, v - 1) == _pack(Graph.from_edges(n, [(u, v)]).adj)
        for a in range(1, n + 1):
            assert local_complement(g, a).adj == _tuple_tau(g.adj, a - 1)


def test_packed_key_order_is_adjacency_order():
    for g, cap in [(ring(5), DEFAULT_ORBIT_CAP), (ring(62), 500)]:
        graphs = [Graph(g.n, _unpack(g.n, key)) for key in lc_orbit_members(g, cap)[0]]
        assert sorted(graphs, key=lambda h: _pack(h.adj)) == sorted(graphs, key=lambda h: h.adj)


# ---------------------------------------------------------------------------
# matching


def test_matching_fig6(fig6):
    m = brute_matching(fig6)
    assert len(m) == _matching_max_size(6, fig6.adj) == 2
    assert m == ((1, 6), (3, 5))


def test_matching_star():
    for n in (3, 5, 8):
        assert _matching_max_size(n, star(n).adj) == len(brute_matching(star(n))) == 1


def test_matching_complete():
    assert _matching_max_size(6, complete(6).adj) == len(brute_matching(complete(6))) == 3


def test_matching_is_valid_matching(fig6):
    m = brute_matching(fig6)
    seen = set()
    for u, v in m:
        assert (fig6.adj[u - 1] >> (v - 1)) & 1
        assert u not in seen and v not in seen
        seen.update((u, v))


def test_matching_exhaustive_n5_vs_brute():
    for n in range(2, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
            g = Graph.from_edges(n, edges)
            assert _matching_max_size(n, g.adj) == len(brute_matching(g))


@settings(max_examples=40, deadline=None)
@given(graphs_strategy(max_n=8))
def test_matching_vs_brute_random(g):
    assert _matching_max_size(g.n, g.adj) == len(brute_matching(g))


# ---------------------------------------------------------------------------
# independent set / vertex cover


def vertex_cover(g: Graph) -> frozenset[int]:
    """The vertex cover beta that complements max_independent_set."""
    return frozenset(range(1, g.n + 1)) - max_independent_set(g)


def test_mis_fig6(fig6):
    assert max_independent_set(fig6) == {1, 2, 3, 4}
    assert vertex_cover(fig6) == {5, 6}


def test_mis_p3(p3):
    assert max_independent_set(p3) == {1, 3}
    assert vertex_cover(p3) == {2}


def test_mis_k5_tie_break():
    assert max_independent_set(complete(5)) == {1}
    assert vertex_cover(complete(5)) == {2, 3, 4, 5}


def test_mis_tie_break_prefers_low_vertices():
    c4 = Graph.from_edges(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
    assert max_independent_set(c4) == {1, 4}


def test_mis_exhaustive_n5_vs_brute():
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
            g = Graph.from_edges(n, edges)
            assert _mis_size(n, g.adj) == brute_mis(g)


@settings(max_examples=40, deadline=None)
@given(graphs_strategy(max_n=8))
def test_mis_properties(g):
    alpha = max_independent_set(g)
    beta = vertex_cover(g)
    assert len(alpha) + len(beta) == g.n
    for a in alpha:
        assert not (alpha & _vertices_of(g.adj[a - 1]))
    for u, v in g.edges():
        assert u in beta or v in beta
    assert _mis_size(g.n, g.adj) == brute_mis(g)


@settings(max_examples=60, deadline=None)
@given(graphs_strategy(max_n=8))
def test_matching_cover_duality(g):
    msize = _matching_max_size(g.n, g.adj)
    bsize = len(vertex_cover(g))
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


# ---------------------------------------------------------------------------
# lc_orbit's solve pruning against solving every member


def _reference_summary(g: Graph, cap: int) -> dict:
    """Every field of lc_orbit's summary, from a loop that solves every member
    of the adjacency-tuple search."""
    members, truncated = _tuple_orbit_members(g, cap)
    n = g.n
    keys = [(n - _mis_size(n, adj), _matching_max_size(n, adj), adj) for adj in members]
    cover, msize, rep = min(keys)
    path = []
    link = members[rep]
    while link is not None:
        path.append(link[1])
        link = members[link[0]]
    return {
        "size": len(members),
        "representative": rep,
        "min_matching": min(k[1] for k in keys),
        "min_vertex_cover": cover,
        "truncated": truncated,
        "lc_path": tuple(reversed(path)),
        "representative_matching": msize,
    }


def _summary_fields(g: Graph, cap: int) -> dict:
    s = lc_orbit(g, cap)
    return {
        "size": s.size,
        "representative": s.representative.adj,
        "min_matching": s.min_matching,
        "min_vertex_cover": s.min_vertex_cover,
        "truncated": s.truncated,
        "lc_path": s.lc_path,
        "representative_matching": s.representative_matching,
    }


@pytest.mark.parametrize("cap", [1, 2, 5, 20, DEFAULT_ORBIT_CAP])
def test_orbit_summary_equals_solving_every_member(cap):
    for g in _CONNECTED_UP_TO_5:
        assert _summary_fields(g, cap) == _reference_summary(g, cap), g.edges()


# The minimum-cover members of this truncated orbit need their own matching
# solves: the smallest matching among them exceeds the cut-rank bound.
MATCHING_ABOVE_BOUND = Graph.from_edges(10, [
    (1, 2), (1, 5), (1, 7), (1, 9), (2, 4), (2, 6), (2, 10), (3, 4), (3, 6), (4, 5),
    (4, 6), (4, 8), (4, 10), (5, 6), (5, 8), (5, 10), (6, 10),
])


ORBIT_SCREEN_G8 = Graph.from_edges(8, [
    (1, 2), (1, 3), (1, 4), (2, 5), (2, 6), (2, 8), (3, 4), (3, 5), (3, 7), (3, 8),
    (4, 5), (4, 6), (4, 7), (4, 8), (6, 7),
])
ORBIT_SCREEN_G10 = Graph.from_edges(10, [
    (1, 2), (1, 3), (1, 4), (1, 5), (2, 6), (2, 7), (2, 10), (3, 7), (3, 9), (3, 10),
    (4, 5), (4, 6), (4, 10), (5, 6), (5, 8), (5, 10), (7, 8),
])


def test_orbit_summary_equals_solving_every_member_random():
    rng = random.Random(23)
    cases = [(random_connected(n, rng), 3000) for n in (6, 7, 8, 9, 10) for _ in range(2)]
    cases.append((MATCHING_ABOVE_BOUND, 3000))
    # 8,140 members, cut rank 4, best cover 5: an untruncated orbit whose
    # members mostly cannot be ruled out by the cut rank, only by their
    # clique covers or an independent-set search
    cases.append((ring(9), DEFAULT_ORBIT_CAP))
    # lc_orbit passes over the keys above the best one only once that best has
    # both the proved least cover and the matching r.  On these two orbits the
    # input itself has the least cover but a matching above r, and a larger
    # key with the same cover has the matching r, so a screen on the cover
    # alone reads the input's matching and an empty LC path: on G8
    # min_matching 4, not 3, and a perfect alpha = n/2.  G10 has 5,244 members.
    cases.append((ORBIT_SCREEN_G8, DEFAULT_ORBIT_CAP))
    cases.append((ORBIT_SCREEN_G10, DEFAULT_ORBIT_CAP))
    for g, cap in cases:
        assert _summary_fields(g, cap) == _reference_summary(g, cap), g.edges()


# (graph, cap, independent-set solves, matching solves) of lc_orbit given g's
# root facts, so g's own solves are not counted: a change to the pruning that
# solves a member more or fewer times fails here, even when the summary holds
_SOLVE_COUNTS = {
    "ring9": (ring(9), DEFAULT_ORBIT_CAP, 17, 17),
    "ring10": (ring(10), DEFAULT_ORBIT_CAP, 14, 0),
    "G10-seed2": (_WHOLE_ORBITS["G10-seed2"][0], DEFAULT_ORBIT_CAP, 14, 1),
    "G10-seed20": (_WHOLE_ORBITS["G10-seed20"][0], DEFAULT_ORBIT_CAP, 27, 2),
    "screen-G8": (ORBIT_SCREEN_G8, DEFAULT_ORBIT_CAP, 12, 23),
    "screen-G10": (ORBIT_SCREEN_G10, DEFAULT_ORBIT_CAP, 22, 37),
    "matching-above-bound": (MATCHING_ABOVE_BOUND, 3000, 66, 62),
}


@pytest.mark.parametrize("name", list(_SOLVE_COUNTS))
def test_orbit_solve_counts_are_pinned(name, monkeypatch):
    g, cap, mis_calls, matching_calls = _SOLVE_COUNTS[name]
    root = _root_facts(g)
    calls = {"_mis_size": 0, "_matching_max_size": 0}
    for fname in calls:
        real = getattr(graphs, fname)

        def counted(*args, _real=real, _name=fname, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(graphs, fname, counted)
    lc_orbit(g, cap, _root=root)
    assert calls == {"_mis_size": mis_calls, "_matching_max_size": matching_calls}


def test_greedy_clique_cover_bounds_every_independent_set():
    # lc_orbit skips a member whose n - cover count cannot beat the best |beta|
    for g in _CONNECTED_UP_TO_5:
        independent = [
            not any(g.adj[v] & sub for v in range(g.n) if (sub >> v) & 1)
            for sub in range(1 << g.n)
        ]
        for cand in range(1 << g.n):
            best = max(
                sub.bit_count() for sub in range(1 << g.n) if independent[sub] and not sub & ~cand
            )
            assert _greedy_clique_cover(g.adj, cand) >= best, (g.edges(), cand)


def test_mis_floor_is_exact_above_floor():
    rng = random.Random(29)
    for _ in range(60):
        g = random_connected(rng.randrange(2, 10), rng)
        exact = _mis_size(g.n, g.adj)
        for floor in range(g.n + 1):
            got = _mis_size(g.n, g.adj, floor=floor)
            if exact > floor:
                assert got == exact
            else:
                assert got <= floor


def _brute_max_cut_rank(g: Graph) -> int:
    """Maximum GF(2) cut rank by plain row reduction over every bipartition."""
    best = 0
    for amask in range(1, (1 << g.n) - 1):
        side = [v for v in range(g.n) if (amask >> v) & 1]
        other = [v for v in range(g.n) if not (amask >> v) & 1]
        rows = [[(g.adj[a] >> b) & 1 for b in other] for a in side]
        rank = 0
        for col in range(len(other)):
            pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            for i in range(len(rows)):
                if i != rank and rows[i][col]:
                    rows[i] = [x ^ y for x, y in zip(rows[i], rows[rank])]
            rank += 1
        best = max(best, rank)
    return best


def _up_to_n6(seed: int, count: int):
    """Every connected graph with n <= 5, then count seeded ones with n = 6."""
    yield from _CONNECTED_UP_TO_5
    rng = random.Random(seed)
    for _ in range(count):
        yield random_connected(6, rng)


def test_cut_rank_bound_is_the_maximum_cut_rank_up_to_n6():
    # every cut is tried up to 12 vertices, so the bound is the maximum itself
    for g in _up_to_n6(31, 200):
        assert _cut_rank_bound(g.n, g.adj) == _brute_max_cut_rank(g), g.edges()


def test_cut_rank_bound_below_every_member_matching():
    for g in _up_to_n6(37, 40):
        r = _cut_rank_bound(g.n, g.adj)
        members, _ = lc_orbit_members(g)
        assert all(r <= _matching_max_size(g.n, _unpack(g.n, key)) for key in members), g.edges()


def _scanned_max_cut_rank(n: int, adj) -> int:
    """Maximum cut rank over every cut, with no early stop."""
    full = (1 << n) - 1
    return max((_cut_rank(adj, a, full ^ a) for a in range(1, 1 << (n - 1))), default=0)


def test_cut_rank_bound_ceiling_keeps_the_full_scan_value():
    # the ceiling only stops the scan early; it never changes the rank found
    graphs = _CONNECTED_UP_TO_5 + list(all_connected_graphs(6))
    graphs += [star(n) for n in range(2, 13)] + [complete(n) for n in range(2, 13)]
    for g in graphs:
        top = _scanned_max_cut_rank(g.n, g.adj)
        assert _cut_rank_ceiling(g.n, g.adj) >= top, g.edges()
        assert _cut_rank_bound(g.n, g.adj) == top, g.edges()
    # stars stop at once through the independent set, cliques through N[v]
    assert all(_cut_rank_ceiling(n, star(n).adj) == 1 for n in range(2, 13))
    assert all(_cut_rank_ceiling(n, complete(n).adj) == 1 for n in range(2, 13))


# a sparse G(n, 0.2) seed on which no move raises the rank before the ceiling,
# so the ascent stops below it: at the exact maximum 5 for n = 13, one short
# of the exact maximum 7 for n = 14; pinned no tighter, as a wider scan may raise r
_STALLED_ASCENT_SEED = {13: 18, 14: 37}


@pytest.mark.parametrize("n", [13, 14])
def test_cut_rank_bound_by_ascent_is_sound(n):
    rng = random.Random(n)
    stalled = random_connected(n, random.Random(_STALLED_ASCENT_SEED[n]), 0.2)
    assert _cut_rank_bound(n, stalled.adj) < _cut_rank_ceiling(n, stalled.adj)
    for g in [random_connected(n, rng) for _ in range(2)] + [stalled]:
        r = _cut_rank_bound(n, g.adj)
        full = (1 << n) - 1
        assert 1 <= r <= max(cut_rank(g, _vertices_of(a)) for a in range(1, full))
        assert r <= _matching_max_size(n, g.adj)


def _pauli_rank(g: Graph, floor: int | None = None) -> int | None:
    """_min_pauli_rank as the orbit solve calls it: seeded with g's own cover
    and stopping at the cut rank, unless another floor is given."""
    n = g.n
    if floor is None:
        floor = _cut_rank_bound(n, g.adj)
    return _min_pauli_rank(n, g.adj, floor, n - _mis_size(n, g.adj))


def test_min_pauli_rank_equals_the_brute_force_minimum():
    rng = random.Random(43)
    graphs = _CONNECTED_UP_TO_5 + [random_connected(n, rng) for n in (6, 6, 6, 7, 7)]
    graphs += [random_connected(n, rng, p) for n in (7, 8) for p in (0.3, 0.3, 0.5)]
    for g in graphs:
        want = brute_min_pauli_rank(g)
        assert _pauli_rank(g, floor=0) == want == _pauli_rank(g), g.edges()


def test_direct_sum_keeps_subspaces_in_direct_sum_with_the_chosen_rows(monkeypatch):
    # at every branching node: S and the kept W_u = span(e_u, A_u) have full
    # rank together, v itself is kept, and the basis is handed back unchanged
    real = graphs._direct_sum
    kept_counts = []

    def checked(pivots, adj, v, n, most):
        before = list(pivots)
        kept, calls = real(pivots, adj, v, n, most)
        assert pivots == before
        rows = [p for p in pivots if p] + [w for u in kept for w in (1 << u, adj[u])]
        assert gf2_rank(rows) == len(rows), (before, kept)
        assert kept[0] == v and len(kept) <= most and calls >= 2 * len(kept)
        kept_counts.append(len(kept))
        return kept, calls

    monkeypatch.setattr(graphs, "_direct_sum", checked)
    rng = random.Random(71)
    for g in [ring(9), complete(6)] + [random_connected(n, rng, p) for n in (8, 9, 10) for p in (0.3, 0.5)]:
        assert _pauli_rank(g, floor=0) == lc_orbit(g).min_vertex_cover, g.edges()
    assert len(kept_counts) > 50 and max(kept_counts) > 2


def test_min_pauli_rank_proves_rings_and_patches_within_the_budget():
    # the partial rank alone gave up on each of these; the 23- and 63-rings
    # are proved at the root's children, one above their cut rank
    for n in (23, 63):
        assert _pauli_rank(ring(n)) == _cut_rank_bound(n, ring(n).adj) + 1 == (n + 1) // 2
    triangular5 = generate_lattice(LatticeSpec("triangular", 5))
    assert _pauli_rank(triangular5) == 16
    # G(24, 0.3), s = 24: one below its own cover of 16
    assert _pauli_rank(random_connected(24, random.Random(24), 0.3)) == 15


def test_min_pauli_rank_equals_the_orbit_minimum_cover():
    # every connected graph with n <= 6 lies in one of the orbits checked
    seen = set()
    for g in (g for n in range(1, 7) for g in all_connected_graphs(n)):
        if (g.n, _pack(g.adj)) in seen:
            continue
        members, truncated = lc_orbit_members(g)
        minimum = lc_orbit(g).min_vertex_cover
        assert not truncated
        for key in members:
            assert _pauli_rank(Graph(g.n, _unpack(g.n, key))) == minimum, g.edges()
        seen.update((g.n, key) for key in members)
    rng = random.Random(47)
    graphs = [ring(n) for n in range(7, 11)] + [random_connected(n, rng) for n in (7, 7, 8, 8, 9, 9)]
    for g in graphs:
        assert _pauli_rank(g) == lc_orbit(g).min_vertex_cover, g.edges()


def test_min_pauli_rank_returns_the_incumbent_at_the_floor(monkeypatch):
    # no row is reduced: with a budget of none, an unfinished search would give None
    monkeypatch.setattr("graphent.graphs._PAULI_RANK_WORK", 0)
    assert _min_pauli_rank(10, ring(10).adj, 5, 5) == 5
    assert _min_pauli_rank(4, complete(4).adj, 1, 1) == 1
    assert _min_pauli_rank(4, complete(4).adj, 1, 3) is None

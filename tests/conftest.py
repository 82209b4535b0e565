"""Shared fixtures and the acceptance-criterion terminal summary."""

from __future__ import annotations

import itertools
import random

import pytest

from graphent import Graph, dense, lattices, max_independent_set, parse_graph

FIG6_TEXT = "6 5\n1 6\n2 6\n3 5\n4 5\n5 6\n"
FIG6 = parse_graph(FIG6_TEXT)


@pytest.fixture
def fig6() -> Graph:
    """Six-vertex bipartite benchmark: two cover hubs over four leaves."""
    return parse_graph(FIG6_TEXT)


@pytest.fixture
def p2() -> Graph:
    return Graph.from_edges(2, [(1, 2)])


@pytest.fixture
def p3() -> Graph:
    return Graph.from_edges(3, [(1, 2), (2, 3)])


@pytest.fixture
def p4() -> Graph:
    return Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])


@pytest.fixture
def c5() -> Graph:
    """Smallest graph with non-coinciding orbit bounds (lower 2, upper 3)."""
    return Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])


@pytest.fixture
def triangle() -> Graph:
    return Graph.from_edges(3, [(1, 2), (2, 3), (1, 3)])


def star(n: int) -> Graph:
    return Graph.from_edges(n, [(1, i) for i in range(2, n + 1)])


def complete(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


def ring(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i % n + 1) for i in range(1, n + 1)])


def random_connected(n: int, rng: random.Random, p: float = 0.5) -> Graph:
    """Seeded random connected graph on n vertices."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    while True:
        edges = [e for e in pairs if rng.random() < p]
        g = Graph.from_edges(n, edges)
        if g.is_connected():
            return g


def maximal_independent_sets(g: Graph):
    """Every maximal independent set of g, by brute force over vertex subsets."""
    for mask in range(1 << g.n):
        members = [v for v in range(1, g.n + 1) if (mask >> (v - 1)) & 1]
        if any(g.has_edge(u, v) for u in members for v in members if u < v):
            continue
        if all(any(g.has_edge(u, v) for u in members) for v in range(1, g.n + 1) if v not in members):
            yield frozenset(members)


def small_graphs_with_alphas():
    """(g, alpha) for every connected graph with n <= 5 and each of its maximal independent sets."""
    for n in range(1, 6):
        for g in dense.all_connected_graphs(n):
            for alpha in maximal_independent_sets(g):
                yield g, alpha


# Lattice patches of the certify benchmark workload with |beta| <= 13.
KERNEL_PATCHES = (
    ("triangular", 4),
    ("kagome", 2),
    ("hexa-triangular", 2),
    ("hexagonal", 4),
    ("hexagonal", 5),
    ("hexagonal", 6),
)


def kernel_cases():
    """(g, alpha, lc_sequence) on which the array-built bases, signs and
    transport are pinned to the per-character loops they replaced.

    Every connected n <= 5 graph with each maximal independent set and a
    seeded three-step sequence; seeded n = 6..10 graphs with a maximum and a
    random maximal independent set and six-step sequences that repeat
    vertices; the lattice patches above with a maximum independent set.
    """
    rng = random.Random(11)
    for g, alpha in small_graphs_with_alphas():
        yield g, alpha, [rng.randrange(1, g.n + 1) for _ in range(3)]
    for n in range(6, 11):
        for _ in range(4):
            g = random_connected(n, rng)
            order = rng.sample(range(1, n + 1), n)
            greedy = set()
            for v in order:
                if not any(g.has_edge(u, v) for u in greedy):
                    greedy.add(v)
            head = [rng.randrange(1, n + 1) for _ in range(4)]
            for alpha in (max_independent_set(g), frozenset(greedy)):
                yield g, alpha, head + head[:2]
    for kind, size in KERNEL_PATCHES:
        g = lattices.generate_lattice(lattices.LatticeSpec(kind, size))
        yield g, max_independent_set(g), [rng.randrange(1, g.n + 1) for _ in range(3)]


_ACCEPTANCE_RESULTS: dict[str, str] = {}


def record_criterion(name: str, passed: bool, detail: str = ""):
    _ACCEPTANCE_RESULTS[name] = f"{'PASS' if passed else 'FAIL'}" + (f" ({detail})" if detail else "")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"{name}: {_ACCEPTANCE_RESULTS[name]}")

"""Shared fixtures and the acceptance-criterion terminal summary."""

from __future__ import annotations

import itertools
import random

import pytest

from graphent import Graph, parse_graph

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


_ACCEPTANCE_RESULTS: dict[str, str] = {}


def record_criterion(name: str, passed: bool, detail: str = ""):
    _ACCEPTANCE_RESULTS[name] = f"{'PASS' if passed else 'FAIL'}" + (f" ({detail})" if detail else "")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"{name}: {_ACCEPTANCE_RESULTS[name]}")

"""Seeded benchmark inputs, generated without importing the library.

A graph is an ``(n, edges)`` pair with 1-indexed, sorted ``(u, v)`` edges,
``u < v``.  The CLI workloads write it as edge-list text; ``certify`` builds
its patches through ``lattices.generate_lattice`` itself, as part of an op.
"""

from __future__ import annotations

import itertools
import random


def ring(n: int):
    return n, tuple(sorted((min(i, i % n + 1), max(i, i % n + 1)) for i in range(1, n + 1)))


def star(n: int):
    return n, tuple((1, v) for v in range(2, n + 1))


def complete(n: int):
    return n, tuple(itertools.combinations(range(1, n + 1), 2))


def k33():
    return 6, tuple((u, v) for u in (1, 2, 3) for v in (4, 5, 6))


def fig6():
    """The six-vertex example of the paper: two cover hubs over four leaves."""
    return 6, ((1, 6), (2, 6), (3, 5), (4, 5), (5, 6))


def is_connected(n: int, edges) -> bool:
    nbrs = [[] for _ in range(n + 1)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = {1}
    stack = [1]
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def gnp(n: int, p: float, rng: random.Random):
    """Connected G(n, p) by rejection."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    while True:
        edges = tuple(e for e in pairs if rng.random() < p)
        if is_connected(n, edges):
            return n, edges


def gnm(n: int, m: int, rng: random.Random):
    """Connected graph drawn uniformly with exactly m edges, by rejection."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    while True:
        edges = tuple(sorted(rng.sample(pairs, m)))
        if is_connected(n, edges):
            return n, edges


def relabel(graph, rng: random.Random):
    """The same graph under a random vertex permutation."""
    n, edges = graph
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return n, tuple(sorted((min(perm[u - 1], perm[v - 1]), max(perm[u - 1], perm[v - 1])) for u, v in edges))


def edgelist_text(graph) -> str:
    n, edges = graph
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def round_rngs(workload: str, seed: int, round_index: int) -> tuple[random.Random, random.Random]:
    """The two random streams of one round; str seeds hash stably.

    The first draws graph structures and depends on the round only, so every
    seed does the same work and the figures stay steady across seeds.  The
    second depends on the seed too: it relabels the vertices of every graph
    and draws search seeds, LC sequences and samples, which changes the
    outputs (labels, tie-breaks, LC paths) and the order the solvers see.
    """
    return random.Random(f"{workload}:structure:{round_index}"), random.Random(f"{workload}:{seed}:{round_index}")

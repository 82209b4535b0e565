"""Facts the benchmark computes itself, to check the library's outputs.

None of these call the library's solvers: the maximum cut rank is a brute
force over all 2^(n-1) bipartitions with a local GF(2) elimination.
"""

from __future__ import annotations

import functools


def _adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    return adj


def gf2_rank(rows) -> int:
    rank = 0
    rows = [r for r in rows if r]
    while rows:
        pivot = rows.pop()
        rank += 1
        low = pivot & -pivot
        rows = [r ^ pivot if r & low else r for r in rows]
        rows = [r for r in rows if r]
    return rank


@functools.lru_cache(maxsize=None)
def max_cut_rank(n: int, edges: tuple) -> int:
    """Largest GF(2) rank of the adjacency block of any bipartition.

    It is a lower bound on all three measures (Hein, Eisert and Briegel,
    quant-ph/0307130): across a cut of rank r every Schmidt coefficient
    squared of a graph state is 2^-r.  Vertex n always sits on the
    complement side, so each bipartition is counted once.
    """
    adj = _adjacency(n, edges)
    full = (1 << n) - 1
    best = 0
    for side in range(1, 1 << (n - 1)):
        comp = full & ~side
        rows = [adj[v] & comp for v in range(n) if (side >> v) & 1]
        best = max(best, gf2_rank(rows))
    return best


def independence_failures(n: int, edges, vertices) -> list[str]:
    """Why `vertices` is not a maximal independent set of the graph, if it is not."""
    adj = _adjacency(n, edges)
    mask = 0
    for a in vertices:
        mask |= 1 << (a - 1)
    out = []
    if any(adj[a - 1] & mask for a in vertices):
        out.append("independent set has an internal edge")
    free = [v for v in range(1, n + 1) if not (mask >> (v - 1)) & 1 and not adj[v - 1] & mask]
    if free:
        out.append(f"independent set is not maximal: vertex {free[0]} can join")
    return out

"""Bell-pair extraction: the matching lower bound's witness, checked by criterion 08.

Moves inside a partition keep the cut rank, and local complementation keeps
every cut rank, so a cut A of rank |M| is what an extraction proves; the
library checks a cut with graphs.cut_rank.  This exact search for n <= 6 is
the reference the acceptance suite compares that check against.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass

from graphent.graphs import Graph, _bits, _layout, _lc_key, _matching_max_size, _pack


class BellSearchError(RuntimeError):
    """Raised when no move sequence reaches the Bell-pair graph for any endpoint selection."""


@dataclass(frozen=True)
class BellExtraction:
    moves: tuple
    final: Graph
    partition_a: frozenset[int]


def _edge_key(n: int, u0: int, v0: int) -> int:
    """The two bits of the packed key that hold edge {u0, v0} (0-based)."""
    stride = _layout(n)[0]
    return (1 << ((n - 1 - u0) * stride + v0)) | (1 << ((n - 1 - v0) * stride + u0))


def _bell_moves(n: int, amask: int):
    """Within-partition CZ toggles (sorted pairs) then local complementations."""
    moves = []
    for u in range(n):
        for v in range(u + 1, n):
            same_a = ((amask >> u) & 1) and ((amask >> v) & 1)
            same_b = not ((amask >> u) & 1) and not ((amask >> v) & 1)
            if same_a or same_b:
                moves.append(("cz", u + 1, v + 1))
    moves.extend(("lc", a) for a in range(1, n + 1))
    return tuple(moves)


def _apply_bell_move(n: int, key: int, move) -> int:
    """One move on a packed adjacency key (see graphs._pack)."""
    if move[0] == "cz":
        return key ^ _edge_key(n, move[1] - 1, move[2] - 1)
    return _lc_key(n, key, move[1] - 1)


@functools.lru_cache(maxsize=64)
def _bell_tree(n: int, medges, amask: int) -> dict:
    """Backward BFS tree over all matching-preserving states, rooted at the goal.

    States are packed adjacency keys.  Every move is an involution, so the
    tree reaches exactly the states from which the goal is reachable; shared
    across queries with the same matching and partition.
    """
    goal = _pack(Graph.from_edges(n, medges).adj)  # exactly the matched edges
    moves = _bell_moves(n, amask)
    tree = {goal: None}
    queue = deque([goal])
    while queue:
        cur = queue.popleft()
        for move in moves:
            nxt = _apply_bell_move(n, cur, move)
            if nxt in tree or nxt & goal != goal:  # seen, or a matched edge lost
                continue
            tree[nxt] = (move, cur)
            queue.append(nxt)
    return tree


def bell_extraction(g: Graph, matching) -> BellExtraction:
    """Reduce g to exactly its matched edges using within-partition CZs and LCs.

    Partition A holds one endpoint per matched edge (smaller endpoint first;
    the remaining selections are tried in order on failure).  Each selection's
    backward tree lists every graph that can reach the goal, so a refusal is
    exact; the trees are built for n <= 6 only, and larger graphs raise
    ValueError.  The returned move sequence is replayed and verified: every
    matched edge survives every intermediate graph and the final graph is the
    disjoint union of the matched edges plus isolated vertices.
    """
    if g.n > 6:
        raise ValueError("Bell extraction is limited to n <= 6")
    medges = tuple(sorted((min(u, v), max(u, v)) for u, v in matching))
    used = set()
    for u, v in medges:
        if not (g.adj[u - 1] >> (v - 1)) & 1:
            raise ValueError(f"matched pair ({u},{v}) is not an edge")
        if u in used or v in used:
            raise ValueError("matching edges share a vertex")
        used.update((u, v))
    if len(medges) != _matching_max_size(g.n, g.adj):
        raise ValueError("matching is not maximum")

    goal = Graph.from_edges(g.n, medges)
    start, want = _pack(g.adj), _pack(goal.adj)
    for sel in range(1 << len(medges)):
        amask = 0
        for i, (u, v) in enumerate(medges):
            pick = v if (sel >> i) & 1 else u
            amask |= 1 << (pick - 1)
        tree = _bell_tree(g.n, medges, amask)
        if start not in tree:
            continue
        seq = []
        state = start
        while tree[state] is not None:
            move, state = tree[state]
            seq.append(move)
        key = start
        for move in seq:
            key = _apply_bell_move(g.n, key, move)
            if key & want != want:
                raise BellSearchError("matched edge deleted mid-sequence")
        if key != want:
            raise BellSearchError("replayed sequence missed the goal graph")
        return BellExtraction(
            moves=tuple(seq),
            final=goal,
            partition_a=frozenset(b + 1 for b in _bits(amask)),
        )
    raise BellSearchError("no sequence of these moves exists for any endpoint selection")

"""Bit-vector graphs and the exact combinatorial solvers everything else rests on.

Vertices are labelled 1..n at the API surface.  Internally each vertex a owns
one integer bitmask (bit a-1) holding its neighbourhood, which keeps the
branch-and-bound solvers and orbit enumeration fast up to the 64-vertex cap.
All functions are pure and deterministic: ties are broken lexicographically.

Local complementation has one primitive, _tau on raw adjacency tuples.
lc_orbit is the one orbit engine: it enumerates the orbit breadth-first,
solves every member once, and keeps the search's parent pointers, from which
the LC path to any member is read back.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

MAX_VERTICES = 64

DEFAULT_ORBIT_CAP = 100_000


class GraphFormatError(ValueError):
    """Raised for malformed or out-of-contract graph input."""


class DisconnectedGraphError(GraphFormatError):
    """Raised when a connected graph is required but the input is not."""


class SolverTimeout(RuntimeError):
    """Raised when an exact solver exceeds its optional deadline."""


def _bits(mask: int):
    """Yield 0-based bit indices of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_of(vertices, n: int) -> int:
    mask = 0
    for a in vertices:
        if not 1 <= a <= n:
            raise ValueError(f"vertex {a} out of range 1..{n}")
        mask |= 1 << (a - 1)
    return mask


def _vertices_of(mask: int) -> frozenset[int]:
    return frozenset(b + 1 for b in _bits(mask))


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n, adjacency as per-vertex bitmasks."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.n <= MAX_VERTICES:
            raise GraphFormatError(f"vertex count {self.n} outside 1..{MAX_VERTICES}")
        if len(self.adj) != self.n:
            raise GraphFormatError("adjacency length does not match vertex count")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.adj):
            if row & ~full:
                raise GraphFormatError(f"vertex {i + 1} has neighbours out of range")
            if (row >> i) & 1:
                raise GraphFormatError(f"self-loop at vertex {i + 1}")
        for i in range(self.n):
            for j in _bits(self.adj[i]):
                if not (self.adj[j] >> i) & 1:
                    raise GraphFormatError(f"asymmetric edge ({i + 1},{j + 1})")

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        """Build a graph from 1-indexed edge pairs; rejects loops and duplicates."""
        if not 1 <= n <= MAX_VERTICES:
            raise GraphFormatError(f"vertex count {n} outside 1..{MAX_VERTICES}")
        adj = [0] * n
        seen = set()
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphFormatError(f"edge ({u},{v}) out of range 1..{n}")
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphFormatError(f"duplicate edge ({key[0]},{key[1]})")
            seen.add(key)
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
        return Graph(n, tuple(adj))

    def neighbors(self, a: int) -> frozenset[int]:
        self._check_vertex(a)
        return _vertices_of(self.adj[a - 1])

    def degree(self, a: int) -> int:
        self._check_vertex(a)
        return self.adj[a - 1].bit_count()

    def has_edge(self, a: int, b: int) -> bool:
        self._check_vertex(a)
        self._check_vertex(b)
        return bool((self.adj[a - 1] >> (b - 1)) & 1)

    def edges(self) -> list[tuple[int, int]]:
        """Sorted list of edges as (u, v) with u < v, 1-indexed."""
        out = []
        for i in range(self.n):
            for j in _bits(self.adj[i]):
                if j > i:
                    out.append((i + 1, j + 1))
        return out

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            for b in _bits(frontier):
                nxt |= self.adj[b]
            frontier = nxt & ~seen
            seen |= frontier
        return seen == (1 << self.n) - 1

    def to_graph6(self) -> str:
        """Standard graph6 encoding (0-indexed externally)."""
        n = self.n
        if n <= 62:
            head = chr(n + 63)
        else:
            head = chr(126) + "".join(
                chr(((n >> shift) & 0x3F) + 63) for shift in (12, 6, 0)
            )
        bits = []
        for j in range(1, n):
            for i in range(j):
                bits.append((self.adj[i] >> j) & 1)
        while len(bits) % 6:
            bits.append(0)
        chars = []
        for k in range(0, len(bits), 6):
            val = 0
            for b in bits[k : k + 6]:
                val = (val << 1) | b
            chars.append(chr(val + 63))
        return head + "".join(chars)

    def _check_vertex(self, a: int):
        if not 1 <= a <= self.n:
            raise ValueError(f"vertex {a} out of range 1..{self.n}")


def _parse_edgelist(text: str) -> Graph:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise GraphFormatError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFormatError(f"header must be 'N M', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphFormatError(f"non-integer header {lines[0]!r}") from exc
    if n > MAX_VERTICES:
        raise GraphFormatError(f"vertex count {n} exceeds cap {MAX_VERTICES}")
    if len(lines) - 1 != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"malformed edge line {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"non-integer edge line {line!r}") from exc
        edges.append((u, v))
    return Graph.from_edges(n, edges)


def _parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise GraphFormatError("empty graph6 input")
    vals = []
    for ch in s:
        code = ord(ch) - 63
        if not 0 <= code <= 63:
            raise GraphFormatError(f"invalid graph6 character {ch!r}")
        vals.append(code)
    if vals[0] == 63:
        if len(vals) < 4:
            raise GraphFormatError("truncated graph6 size field")
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        body = vals[4:]
    else:
        n = vals[0]
        body = vals[1:]
    if n > MAX_VERTICES:
        raise GraphFormatError(f"vertex count {n} exceeds cap {MAX_VERTICES}")
    if n == 0:
        raise GraphFormatError("graph6 with zero vertices")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise GraphFormatError(f"graph6 body length {len(body)}, expected {need}")
    bitstream = []
    for val in body:
        for shift in range(5, -1, -1):
            bitstream.append((val >> shift) & 1)
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bitstream[k]:
                edges.append((i + 1, j + 1))
            k += 1
    return Graph.from_edges(n, edges)


def parse_graph(text: str, fmt: str = "edgelist", require_connected: bool = True) -> Graph:
    """Parse edge-list or graph6 text into a Graph.

    Analysis entry points require connectivity; library callers that build
    disconnected intermediates (e.g. Bell-extraction results) pass
    require_connected=False.
    """
    if fmt == "edgelist":
        g = _parse_edgelist(text)
    elif fmt == "graph6":
        g = _parse_graph6(text)
    else:
        raise ValueError(f"unknown graph format {fmt!r}")
    if require_connected and not g.is_connected():
        raise DisconnectedGraphError("input graph is not connected")
    return g


# ---------------------------------------------------------------------------
# Local complementation and orbits


def local_complement(g: Graph, a: int) -> Graph:
    """Toggle every edge inside the neighbourhood of a (addition mod 2)."""
    g._check_vertex(a)
    return Graph(g.n, _tau(g.adj, a - 1))


def _tau(adj: tuple[int, ...], a0: int) -> tuple[int, ...]:
    """local_complement on a raw adjacency tuple, 0-indexed vertex."""
    nb = adj[a0]
    out = list(adj)
    for b in _bits(nb):
        out[b] ^= nb & ~(1 << b)
    return tuple(out)


def lc_orbit_members(
    g: Graph, cap: int = DEFAULT_ORBIT_CAP
) -> tuple[dict[tuple[int, ...], tuple[tuple[int, ...], int] | None], bool]:
    """Breadth-first closure of g under all single local complementations.

    Returns (members, truncated).  members maps each labelled adjacency tuple
    to (parent_adj, vertex): parent_adj is the member the search first reached
    it from, by local complementation at vertex (1-indexed).  g's own
    adjacency maps to None, so following the links from any member back to g
    retraces a shortest LC path (see OrbitSummary.path).
    """
    start = g.adj
    members: dict[tuple[int, ...], tuple[tuple[int, ...], int] | None] = {start: None}
    queue = deque([start])
    truncated = False
    n = g.n
    while queue:
        cur = queue.popleft()
        for a0 in range(n):
            if not cur[a0]:
                continue
            nxt = _tau(cur, a0)
            if nxt not in members:
                if len(members) >= cap:
                    truncated = True
                    continue
                members[nxt] = (cur, a0 + 1)
                queue.append(nxt)
    return members, truncated


def _path_to(members, adj) -> tuple[int, ...]:
    """Walk lc_orbit_members' parent links from adj back to the root."""
    path = []
    link = members[adj]
    while link is not None:
        adj, a = link
        path.append(a)
        link = members[adj]
    return tuple(reversed(path))


@dataclass(frozen=True)
class OrbitSummary:
    """LC-orbit census: minima of matching/vertex-cover size over the orbit.

    members is the parent-pointer map of lc_orbit_members, rooted at the
    input graph.  own_vertex_cover is the input graph's |beta| and
    representative_matching the representative's |M_max|; the
    representative's |beta| is min_vertex_cover.
    """

    size: int
    representative: Graph
    min_matching: int
    min_vertex_cover: int
    truncated: bool
    lc_path: tuple[int, ...]
    own_vertex_cover: int
    representative_matching: int
    members: dict = field(repr=False, compare=False)

    def path(self, adj: tuple[int, ...]) -> tuple[int, ...]:
        """Shortest LC vertex sequence from the input graph to member adj."""
        return _path_to(self.members, adj)


def lc_orbit(g: Graph, cap: int = DEFAULT_ORBIT_CAP) -> OrbitSummary:
    """Enumerate the labelled LC orbit and minimise |M_max| and |beta| over it.

    Each member is solved once.  The representative minimises (|beta|,
    |M_max|, adjacency-bytes) lexicographically; when the cap truncates
    enumeration the minima are only upper bounds and the truncated flag is set.
    """
    members, truncated = lc_orbit_members(g, cap)
    n = g.n
    best_key = None
    min_match = min_cover = own_cover = n + 1
    for adj, link in members.items():
        msize = _matching_max_size(n, adj)
        cover = n - _mis_size(n, adj)
        min_match = min(min_match, msize)
        min_cover = min(min_cover, cover)
        if link is None:
            own_cover = cover
        key = (cover, msize, adj)
        if best_key is None or key < best_key:
            best_key = key
    _, rep_match, rep_adj = best_key
    return OrbitSummary(
        size=len(members),
        representative=Graph(n, rep_adj),
        min_matching=min_match,
        min_vertex_cover=min_cover,
        truncated=truncated,
        lc_path=_path_to(members, rep_adj),
        own_vertex_cover=own_cover,
        representative_matching=rep_match,
        members=members,
    )


# ---------------------------------------------------------------------------
# Maximum matching (general graphs, blossom contraction)


def _matching_max_size(n: int, adj) -> int:
    """Exact maximum-cardinality matching size via blossom contraction."""
    match = [-1] * n
    for v in range(n):
        if match[v] == -1:
            for u in _bits(adj[v]):
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break

    def find_path(root: int) -> bool:
        used = [False] * n
        parent = [-1] * n
        base = list(range(n))
        used[root] = True
        queue = deque([root])

        def lca(a: int, b: int) -> int:
            hit = [False] * n
            x = a
            while True:
                x = base[x]
                hit[x] = True
                if match[x] == -1:
                    break
                x = parent[match[x]]
            y = b
            while True:
                y = base[y]
                if hit[y]:
                    return y
                y = parent[match[y]]

        def mark_path(v: int, b: int, child: int, in_blossom: list[bool]):
            while base[v] != b:
                in_blossom[base[v]] = True
                in_blossom[base[match[v]]] = True
                parent[v] = child
                child = match[v]
                v = parent[match[v]]

        while queue:
            v = queue.popleft()
            for to in _bits(adj[v]):
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    cur_base = lca(v, to)
                    in_blossom = [False] * n
                    mark_path(v, cur_base, to, in_blossom)
                    mark_path(to, cur_base, v, in_blossom)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = cur_base
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        while to != -1:
                            pv = parent[to]
                            nxt = match[pv]
                            match[to] = pv
                            match[pv] = to
                            to = nxt
                        return True
                    used[match[to]] = True
                    queue.append(match[to])
        return False

    size = sum(1 for v in range(n) if match[v] != -1) // 2
    for v in range(n):
        if match[v] == -1 and adj[v] and find_path(v):
            size += 1
    return size


def max_matching(g: Graph) -> tuple[tuple[int, int], ...]:
    """Lexicographically smallest maximum matching, as sorted 1-indexed pairs."""
    n = g.n
    adj = list(g.adj)
    remaining = _matching_max_size(n, adj)
    chosen: list[tuple[int, int]] = []
    while remaining:
        found = False
        for i in range(n):
            row = adj[i]
            for j in _bits(row):
                if j <= i:
                    continue
                trial = list(adj)
                kill = (1 << i) | (1 << j)
                for k in range(n):
                    trial[k] &= ~kill
                trial[i] = 0
                trial[j] = 0
                if _matching_max_size(n, trial) == remaining - 1:
                    chosen.append((i + 1, j + 1))
                    adj = trial
                    remaining -= 1
                    found = True
                    break
            if found:
                break
        if not found:  # pragma: no cover - would mean the solver is inconsistent
            raise RuntimeError("matching extraction failed")
    return tuple(chosen)


# ---------------------------------------------------------------------------
# Maximum independent set / minimum vertex cover


def _greedy_clique_cover(adj, cand: int) -> int:
    """Greedy partition of cand into cliques; upper-bounds the MIS size."""
    count = 0
    rem = cand
    while rem:
        v = (rem & -rem).bit_length() - 1
        avail = rem & adj[v]
        clique = 1 << v
        while avail:
            u = (avail & -avail).bit_length() - 1
            clique |= 1 << u
            avail &= adj[u]
        rem &= ~clique
        count += 1
    return count


def _mis_size(n: int, adj, cand: int | None = None, deadline: float | None = None) -> int:
    """Exact maximum independent set size on the subgraph induced by cand.

    Branch and bound over bitmasks: vertices of degree <= 1 inside the
    candidate set are taken greedily (always safe), otherwise we branch on a
    maximum-degree vertex, pruning with a greedy clique-cover bound.
    """
    if cand is None:
        cand = (1 << n) - 1
    best = 0
    work = cand
    size = 0
    while work:  # greedy min-degree start solution
        pick = -1
        pick_deg = n + 1
        for v in _bits(work):
            d = (adj[v] & work).bit_count()
            if d < pick_deg:
                pick, pick_deg = v, d
                if d <= 1:
                    break
        size += 1
        work &= ~(adj[pick] | (1 << pick))
    best = size
    nodes = 0

    if deadline is not None and time.monotonic() > deadline:
        raise SolverTimeout("independent-set search exceeded its deadline")

    def expand(cand: int, size: int):
        nonlocal best, nodes
        nodes += 1
        if deadline is not None and nodes % 2048 == 0 and time.monotonic() > deadline:
            raise SolverTimeout("independent-set search exceeded its deadline")
        while True:
            if cand == 0:
                if size > best:
                    best = size
                return
            reduced = False
            for v in _bits(cand):
                if (adj[v] & cand).bit_count() <= 1:
                    cand &= ~(adj[v] | (1 << v))
                    size += 1
                    reduced = True
                    break
            if not reduced:
                break
        if size + _greedy_clique_cover(adj, cand) <= best:
            return
        pivot = -1
        pivot_deg = -1
        for v in _bits(cand):
            d = (adj[v] & cand).bit_count()
            if d > pivot_deg:
                pivot, pivot_deg = v, d
        expand(cand & ~(adj[pivot] | (1 << pivot)), size + 1)
        expand(cand & ~(1 << pivot), size)

    expand(cand, 0)
    return best


def max_independent_set(g: Graph) -> frozenset[int]:
    """Exact maximum independent set; ties resolved toward low-numbered vertices."""
    n = g.n
    adj = g.adj
    left = _mis_size(n, adj)
    cand = (1 << n) - 1
    chosen = 0
    for v in range(n):
        if left == 0:
            break
        if not (cand >> v) & 1:
            continue
        cand_in = cand & ~(adj[v] | (1 << v))
        if 1 + _mis_size(n, adj, cand_in) == left:
            chosen |= 1 << v
            cand = cand_in
            left -= 1
    return _vertices_of(chosen)


def min_vertex_cover(g: Graph) -> frozenset[int]:
    """Complement of the maximum independent set; |alpha| + |beta| = n."""
    alpha = max_independent_set(g)
    return frozenset(range(1, g.n + 1)) - alpha


def is_bipartite(g: Graph):
    """BFS 2-colouring: (side0, side1) with the lowest vertex in side0, else None."""
    n = g.n
    colour = [-1] * n
    for root in range(n):
        if colour[root] != -1:
            continue
        colour[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for u in _bits(g.adj[v]):
                if colour[u] == -1:
                    colour[u] = colour[v] ^ 1
                    queue.append(u)
                elif colour[u] == colour[v]:
                    return None
    side0 = frozenset(i + 1 for i in range(n) if colour[i] == 0)
    side1 = frozenset(i + 1 for i in range(n) if colour[i] == 1)
    return side0, side1


def cut_rank(g: Graph, a) -> int:
    """GF(2) rank of the adjacency submatrix between a and its complement."""
    amask = _mask_of(a, g.n)
    full = (1 << g.n) - 1
    comp = full & ~amask
    if amask == 0 or comp == 0:
        raise ValueError("cut requires a proper nonempty vertex subset")
    rows = [g.adj[v] & comp for v in _bits(amask)]
    rank = 0
    for col in _bits(comp):
        pivot = None
        for idx in range(rank, len(rows)):
            if (rows[idx] >> col) & 1:
                pivot = idx
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for idx in range(len(rows)):
            if idx != rank and (rows[idx] >> col) & 1:
                rows[idx] ^= rows[rank]
        rank += 1
        if rank == len(rows):
            break
    return rank

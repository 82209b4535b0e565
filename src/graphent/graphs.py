"""Bit-vector graphs and the exact combinatorial solvers everything else rests on.

Vertices are labelled 1..n at the API surface.  Internally each vertex a owns
one integer bitmask (bit a-1) holding its neighbourhood, which keeps the
branch-and-bound solvers and orbit enumeration fast up to the 64-vertex cap.
All functions are pure and deterministic: ties are broken lexicographically.

Local complementation has one primitive, _lc on packed adjacency keys: the
rows of the adjacency in one integer, row 0 in the highest bits, so that
the toggle is a shift, a multiply, two masks and an XOR, and integer order
is the order of adjacency tuples.  lc_orbit is the one orbit engine: it
enumerates the orbit breadth-first over packed keys and keeps the search's
parent pointers, from which the LC path to any member is read back.  It
solves the input graph exactly, and the other members only while a solve
could still change its summary: the GF(2) rank of a cut is the same on
every member and bounds every member's |M_max| and |beta| from below, so
once the running minima reach that rank most members need no solve.  Where
the best |beta| stays above that rank, n minus a member's greedy clique
cover (an independent set holds one vertex per clique at most) rules out
most of the rest before any independent-set search: on the 9-ring, 1,360
searches instead of 8,140.  The summary is the one that solving every
member would give.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field
from itertools import islice

MAX_VERTICES = 64

DEFAULT_ORBIT_CAP = 100_000


class GraphFormatError(ValueError):
    """Raised for malformed or out-of-contract graph input."""


class DisconnectedGraphError(GraphFormatError):
    """Raised when a connected graph is required but the input is not."""


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


def _independent_mask(g: Graph, vertices, what: str = "alpha") -> int:
    """Bit mask of vertices; ValueError unless no edge of g joins two of them."""
    mask = _mask_of(vertices, g.n)
    for v in _bits(mask):
        if g.adj[v] & mask:
            raise ValueError(f"{what} is not an independent set")
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

    Analysis entry points require connectivity, so by default a disconnected
    graph raises DisconnectedGraphError; require_connected=False parses any
    graph, e.g. to read a disconnected edge list or graph6 string back.
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
#
# An orbit member is one integer key: row a of the adjacency (0-based) sits at
# shift (n-1-a)*n, so row 0 holds the highest bits and comparing two keys as
# integers compares their adjacency tuples lexicographically.


def _pack(adj) -> int:
    """The packed key of an adjacency tuple."""
    n = len(adj)
    key = 0
    for row in adj:
        key = (key << n) | row
    return key


def _unpack(n: int, key: int) -> tuple[int, ...]:
    """The adjacency tuple of a packed key."""
    full = (1 << n) - 1
    rows = []
    for _ in range(n):  # last row first, from the bottom of the shrinking key
        rows.append(key & full)
        key >>= n
    return tuple(reversed(rows))


@functools.lru_cache(maxsize=MAX_VERTICES)
def _lc_masks(n: int) -> tuple[int, int]:
    """(lows, keep) for _lc: the bottom bit of every row, and every bit of
    the n*n square but the diagonal."""
    lows = diag = 0
    for a0 in range(n):
        shift = (n - 1 - a0) * n
        lows |= 1 << shift
        diag |= 1 << (shift + a0)
    return lows, ((1 << n * n) - 1) ^ diag


def _lc(key: int, a0: int, row: int, lows: int, keep: int) -> int:
    """Local complementation of a packed key at 0-based vertex a0, whose
    neighbourhood mask is row; lows and keep come from _lc_masks(n).

    Column a0 marks the rows to toggle (the adjacency is symmetric): shifted
    to the bottom of each row and multiplied by row, it writes N(a0) into
    each of them, and keep clears each row's own bit.
    """
    return key ^ ((((key >> a0) & lows) * row) & keep)


def _lc_key(n: int, key: int, a0: int) -> int:
    """_lc with the row and masks worked out from key and n."""
    return _lc(key, a0, (key >> (n - 1 - a0) * n) & ((1 << n) - 1), *_lc_masks(n))


def _edge_key(n: int, u0: int, v0: int) -> int:
    """The two bits of the packed key that hold edge {u0, v0} (0-based)."""
    return (1 << ((n - 1 - u0) * n + v0)) | (1 << ((n - 1 - v0) * n + u0))


def local_complement(g: Graph, a: int) -> Graph:
    """Toggle every edge inside the neighbourhood of a (addition mod 2)."""
    g._check_vertex(a)
    return Graph(g.n, _unpack(g.n, _lc_key(g.n, _pack(g.adj), a - 1)))


def lc_orbit_members(
    g: Graph, cap: int = DEFAULT_ORBIT_CAP
) -> tuple[dict[int, tuple[int, int] | None], bool]:
    """Breadth-first closure of g under all single local complementations.

    Returns (members, truncated).  members maps each member's packed key
    (see _pack; _unpack(g.n, key) is its adjacency tuple) to (parent_key,
    vertex): parent_key is the member the search first reached it from, by
    local complementation at vertex (1-indexed).  g's own key maps to None,
    so following the links from any member back to g retraces a shortest LC
    path (see OrbitSummary.path).  cap, at least 1, bounds the number of
    members kept; truncated is set once a further member was found, and the
    search stops there.
    """
    if cap < 1:
        raise ValueError(f"orbit cap {cap} must be at least 1")
    n = g.n
    full = (1 << n) - 1
    lows, keep = _lc_masks(n)
    rows = [(a0, (n - 1 - a0) * n) for a0 in range(n)]
    start = _pack(g.adj)
    members: dict[int, tuple[int, int] | None] = {start: None}
    order = [start]  # the breadth-first queue; the loop reads it as it grows
    for cur in order:
        for a0, shift in rows:
            row = (cur >> shift) & full
            if not row & (row - 1):
                continue  # degree <= 1: local complementation changes nothing
            nxt = _lc(cur, a0, row, lows, keep)
            if nxt not in members:
                if len(members) >= cap:
                    return members, True
                members[nxt] = (cur, a0 + 1)
                order.append(nxt)
    return members, False


def _path_to(members, key: int) -> tuple[int, ...]:
    """Walk lc_orbit_members' parent links from key back to the root."""
    path = []
    link = members[key]
    while link is not None:
        key, a = link
        path.append(a)
        link = members[key]
    return tuple(reversed(path))


@dataclass(frozen=True)
class OrbitSummary:
    """LC-orbit census: minima of matching/vertex-cover size over the orbit.

    packed is the parent-pointer map of lc_orbit_members, rooted at the
    input graph, and members the same map with every key unpacked to an
    adjacency tuple (built on first use).  own_vertex_cover is the input
    graph's |beta| and representative_matching the representative's
    |M_max|; the representative's |beta| is min_vertex_cover.  cut_rank is
    the GF(2) rank of the best cut of the input graph found, a lower bound
    on |M_max| and |beta| of every member, visited or not.
    """

    size: int
    representative: Graph
    min_matching: int
    min_vertex_cover: int
    truncated: bool
    lc_path: tuple[int, ...]
    own_vertex_cover: int
    representative_matching: int
    cut_rank: int
    packed: dict = field(repr=False, compare=False)

    @functools.cached_property
    def members(self) -> dict:
        """{adjacency tuple: (parent adjacency tuple, vertex) or None}."""
        n = self.representative.n
        adj = {key: _unpack(n, key) for key in self.packed}
        return {
            adj[key]: None if link is None else (adj[link[0]], link[1])
            for key, link in self.packed.items()
        }

    def path(self, adj: tuple[int, ...]) -> tuple[int, ...]:
        """Shortest LC vertex sequence from the input graph to member adj."""
        return _path_to(self.packed, _pack(adj))


def lc_orbit(g: Graph, cap: int = DEFAULT_ORBIT_CAP) -> OrbitSummary:
    """Enumerate the labelled LC orbit and minimise |M_max| and |beta| over it.

    The representative minimises (|beta|, |M_max|, adjacency) lexicographically;
    when the cap truncates enumeration the minima are only upper bounds and
    the truncated flag is set.

    The input graph is solved exactly.  Every other member is solved only as
    far as it could still change a field of the summary: the GF(2) rank r of
    a cut of g is the same on every member (local complementation keeps cut
    ranks) and bounds each member's |M_max| from below, which bounds its
    |beta| in turn.  So a member's matching is solved only while the running
    minimum exceeds r, and its independent set only when its cover could
    still beat the best key, with the search told the size it has to beat.
    Before that search, n minus the size of the member's greedy clique
    cover bounds its |beta| from below (an independent set takes at most
    one vertex of each clique), and a member this bound already rules out
    is not searched; on the 9-ring, where the best |beta| stays one above
    r, this leaves 1,360 of 8,140 members to search.
    Every field equals what solving every member would give.  Members are
    compared as packed keys, whose order is that of their adjacency tuples,
    and unpacked only for a solve.
    """
    members, truncated = lc_orbit_members(g, cap)
    n = g.n
    full = (1 << n) - 1
    r = _cut_rank_bound(n, g.adj)
    root = g.adj
    min_match = bm = _matching_max_size(n, root)
    own_cover = bc = n - _mis_size(n, root)
    bkey = _pack(root)
    for key in islice(members, 1, None):  # the root comes first
        adj = msize = None
        if min_match > r:
            adj = _unpack(n, key)
            msize = _matching_max_size(n, adj)
            min_match = min(min_match, msize)
        mlow = r if msize is None else msize  # |beta| >= |M_max| >= mlow
        tie = (mlow, key) < (bm, bkey)  # could a cover equal to bc still win?
        if mlow > bc or (mlow == bc and not tie):
            continue
        if adj is None:
            adj = _unpack(n, key)
        clow = n - _greedy_clique_cover(adj, full)  # one MIS vertex per clique
        if clow > bc or (clow == bc and not tie):
            continue
        cover = n - _mis_size(n, adj, floor=n - bc - 1 if tie else n - bc)
        if cover > bc or (cover == bc and not tie):
            continue
        if msize is None:
            msize = r if cover == r else _matching_max_size(n, adj)  # r <= |M_max| <= |beta|
            min_match = min(min_match, msize)
        if (cover, msize, key) < (bc, bm, bkey):
            bc, bm, bkey = cover, msize, key
    return OrbitSummary(
        size=len(members),
        representative=Graph(n, _unpack(n, bkey)),
        min_matching=min_match,
        min_vertex_cover=bc,
        truncated=truncated,
        lc_path=_path_to(members, bkey),
        own_vertex_cover=own_cover,
        representative_matching=bm,
        cut_rank=r,
        packed=members,
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


def _mis_size(n: int, adj, cand: int | None = None, floor: int = 0) -> int:
    """Exact maximum independent set size on the subgraph induced by cand.

    Branch and bound over bitmasks: vertices of degree <= 1 inside the
    candidate set are taken greedily (always safe), otherwise we branch on a
    maximum-degree vertex, pruning with a greedy clique-cover bound.  The
    search only looks for sets larger than floor: the result is exact when
    it exceeds floor, and some value <= floor otherwise.
    """
    if cand is None:
        cand = (1 << n) - 1
    work = cand
    size = 0
    while work:  # greedy min-degree start solution
        pick = -1
        pick_deg = n + 1
        m = work
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            d = (adj[v] & work).bit_count()
            if d < pick_deg:
                pick, pick_deg = v, d
                if d <= 1:
                    break
        size += 1
        work &= ~(adj[pick] | (1 << pick))
    best = max(size, floor)

    def expand(cand: int, size: int):
        nonlocal best
        while True:
            if cand == 0:
                if size > best:
                    best = size
                return
            m = cand
            while m:
                low = m & -m
                v = low.bit_length() - 1
                if (adj[v] & cand).bit_count() <= 1:
                    cand &= ~(adj[v] | low)
                    size += 1
                    break
                m ^= low
            if not m:
                break
        if size + _greedy_clique_cover(adj, cand) <= best:
            return
        pivot = -1
        pivot_deg = -1
        m = cand
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
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
    comp = ((1 << g.n) - 1) & ~amask
    if amask == 0 or comp == 0:
        raise ValueError("cut requires a proper nonempty vertex subset")
    return _cut_rank(g.adj, amask, comp)


def _cut_rank(adj, amask: int, comp: int) -> int:
    """GF(2) rank of the rows of amask restricted to the columns of comp."""
    if amask.bit_count() > comp.bit_count():  # the rank is symmetric
        amask, comp = comp, amask
    basis: list[int] = []
    while amask:
        low = amask & -amask
        row = adj[low.bit_length() - 1] & comp
        for b in basis:  # clears b's leading bit, which no later basis row has
            row = min(row, row ^ b)
        if row:
            basis.append(row)
        amask ^= low
    return len(basis)


# up to this many vertices _cut_rank_bound tries every cut (2^11 at n = 12)
_ALL_CUTS_N = 12


def _cut_rank_bound(n: int, adj) -> int:
    """GF(2) rank of the best cut of g found: a lower bound on |M_max| (so on
    |beta|) of every member of g's LC orbit.

    A cut's rank is at most the term rank of its crossing submatrix, which is
    the size of a maximum crossing matching (Koenig), so at most |M_max|; and
    local complementation leaves every cut rank unchanged (Hein, Eisert and
    Briegel, quant-ph/0307130).  Up to _ALL_CUTS_N vertices every cut is
    tried; above it, an ascent that moves one vertex across the cut or swaps
    two runs from the low half and from one endpoint of each edge of a
    greedy matching.  Both stop once the rank meets _cut_rank_ceiling.
    """
    full = (1 << n) - 1
    top = _cut_rank_ceiling(n, adj)  # no cut rank exceeds this
    best = 0
    if n <= _ALL_CUTS_N:
        for amask in range(1, 1 << (n - 1)):
            k = amask.bit_count()
            if min(k, n - k) <= best:
                continue
            best = max(best, _cut_rank(adj, amask, full ^ amask))
            if best == top:
                break
        return best
    ends = 0
    matched = 0
    for v in range(n):
        free = adj[v] & ~matched
        if not (matched >> v) & 1 and free:
            u = (free & -free).bit_length() - 1
            ends |= 1 << v
            matched |= (1 << v) | (1 << u)
    for amask in ((1 << top) - 1, ends):
        rank = _cut_rank(adj, amask, full ^ amask) if amask else 0
        while rank < top:
            for move in _cut_moves(n, amask, full):
                trial = amask ^ move
                t = _cut_rank(adj, trial, full ^ trial)
                if t > rank:
                    amask, rank = trial, t
                    break
            else:
                break
        best = max(best, rank)
        if best == top:
            break
    return best


def _cut_rank_ceiling(n: int, adj) -> int:
    """An upper bound on every cut rank of g, worked out from g alone.

    The smallest of: floor(n/2); n minus a greedy independent set (vertices
    tried in order of degree, least first), which is the size of a vertex
    cover and so bounds |M_max| and the cut rank; and the numbers of
    distinct open and of distinct closed neighbourhoods.  A vertex u on the
    side S of a cut has the crossing row N(u) & ~S = N[u] & ~S, so vertices
    with equal N(u) or equal N[u] have equal rows.
    """
    independent = 0
    blocked = 0
    for v in sorted(range(n), key=lambda u: adj[u].bit_count()):
        if not (blocked >> v) & 1:
            independent += 1
            blocked |= adj[v] | (1 << v)
    open_nbhds = len(set(adj))
    closed_nbhds = len({a | (1 << v) for v, a in enumerate(adj)})
    return min(n // 2, n - independent, open_nbhds, closed_nbhds)


def _cut_moves(n: int, amask: int, full: int):
    """Masks to XOR into a cut: every single-vertex move and every swap,
    skipping those that would leave a side empty."""
    for v in range(n):
        trial = amask ^ (1 << v)
        if trial and trial != full:
            yield 1 << v
    for v in range(n):
        if (amask >> v) & 1:
            for u in range(n):
                if not (amask >> u) & 1:
                    yield (1 << v) | (1 << u)

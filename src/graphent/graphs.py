"""Bit-vector graphs and the exact combinatorial solvers everything else rests on.

Vertices are labelled 1..n at the API surface.  Internally each vertex a owns
one integer bitmask (bit a-1) holding its neighbourhood, which keeps the
branch-and-bound solvers and orbit enumeration fast up to the 64-vertex cap.
All functions are pure and deterministic: ties are broken lexicographically.

Local complementation has one primitive, _toggle on packed adjacency keys:
the rows of the adjacency in one integer, row 0 in the highest bits and one
row every stride bits (see _layout), so that integer order is the order of
adjacency tuples and the bits a local complementation flips are a shift, a
multiply and two masks away; they depend only on the vertex and its row,
and the orbit search keeps them in a table per vertex.  lc_orbit is the
one orbit engine: it enumerates the orbit breadth-first over packed keys
and reads the LC path to its representative back from the search's parent
pointers.  The search leaves out steps known to lead to a member found
already: local complementations at two non-adjacent vertices commute, and
one at a keeps a's row (the skip rule of lc_orbit_members).  The members
and their order stay those of the search that takes every step.
lc_orbit solves the input graph exactly, and the other members only
while a solve could still change its summary, which is the one that
solving every member would give; its docstring states the pruning rule.

The Pauli-rank lemma.  For P in {X, Y, Z}^n let M_P be the n x n GF(2)
matrix whose row v is e_v (Z), A_v (X) or e_v + A_v (Y).  The stabilizer
element of g for a vertex set s is X^s Z^(A s) up to sign; it acts on qubit
v as I or P_v exactly when M_P s has a 0 at v, so those elements form a
subgroup T_P of dimension n - rank M_P.  (<=) An orbit member H = U g, for
a local Clifford U, with independent set alpha and cover beta has the
|alpha| independent generators X_a Z_N(a), a in alpha, which act as X or I
on alpha and as Z or I on beta.  U pulls them back to elements of g's
stabilizer that act on each qubit as I or as one fixed Pauli, since a
one-qubit Clifford maps a Pauli to a Pauli up to sign: so for that P,
dim T_P >= |alpha| and rank M_P <= |beta|.  The least rank over P is thus
at most every member's |beta|, which is all the orbit solve relies on.  The
converse (>=), by the reduction of Van den Nest, Dehaene and De Moor
(PRA 69, 022316 (2004)), makes it the orbit minimum; the tests check that
on every connected graph with n <= 6 and on seeded ones up to n = 10.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from itertools import islice

MAX_VERTICES = 64

DEFAULT_ORBIT_CAP = 100_000


class GraphFormatError(ValueError):
    """Raised for malformed or out-of-contract graph input."""


class DisconnectedGraphError(GraphFormatError):
    """Raised when a connected graph is required but the input is not."""


def _check_vertex_count(n: int) -> None:
    if not 1 <= n <= MAX_VERTICES:
        raise GraphFormatError(f"vertex count {n} outside 1..{MAX_VERTICES}")


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


def _independent_mask(g: Graph, vertices) -> int:
    """Bit mask of vertices; ValueError unless no edge of g joins two of them."""
    mask = _mask_of(vertices, g.n)
    for v in _bits(mask):
        if g.adj[v] & mask:
            raise ValueError("alpha is not an independent set")
    return mask


def _vertices_of(mask: int) -> frozenset[int]:
    return frozenset(b + 1 for b in _bits(mask))


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n, adjacency as per-vertex bitmasks."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        _check_vertex_count(self.n)
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
        _check_vertex_count(n)
        adj = [0] * n
        seen = set()
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphFormatError(f"edge ({u},{v}) out of range 1..{n}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphFormatError(f"duplicate edge ({key[0]},{key[1]})")
            seen.add(key)
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
        return Graph(n, tuple(adj))

    def edges(self) -> list[tuple[int, int]]:
        """Sorted list of edges as (u, v) with u < v, 1-indexed."""
        out = []
        for i in range(self.n):
            for j in _bits(self.adj[i]):
                if j > i:
                    out.append((i + 1, j + 1))
        return out

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
    _check_vertex_count(n)  # before its n(n-1)/2 edge bits are decoded
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


def parse_graph(text: str) -> Graph:
    """Parse edge-list or graph6 text into a connected Graph.

    The text says its format: graph6 is one whitespace-separated token (its
    characters lie in '?'..'~'), and an edge list has at least the two
    tokens of its 'N M' header.  Analysis entry points require connectivity, so a
    disconnected graph raises DisconnectedGraphError.
    """
    g = _parse_graph6(text) if len(text.split(None, 1)) == 1 else _parse_edgelist(text)
    if not g.is_connected():
        raise DisconnectedGraphError("input graph is not connected")
    return g


# ---------------------------------------------------------------------------
# Local complementation and orbits
#
# An orbit member is one integer key: row a of the adjacency (0-based) sits at
# shift (n-1-a)*stride, with stride from _layout(n), so row 0 holds the
# highest bits and comparing two keys as integers compares their adjacency
# tuples lexicographically.


@functools.lru_cache(maxsize=MAX_VERTICES)
def _layout(n: int) -> tuple[int, int, int]:
    """(stride, lows, keep) of the packed keys of n-vertex graphs.

    stride is the bit distance between rows: n, but 64 for n >= 60.  Python
    hashes an int modulo the prime 2^61 - 1, and with stride 60, 61 or 62
    (2^stride is 2^-1, 1 or 2 modulo it) a key's hash depends only on the
    sums, degrees or differences of its edges' endpoints, so a whole orbit
    shares a few hashes and the search's dict turns quadratic.  lows has the
    bottom bit of every row, keep every bit of the key but the diagonal.
    """
    stride = 64 if n >= 60 else n
    lows = diag = 0
    for a0 in range(n):
        shift = (n - 1 - a0) * stride
        lows |= 1 << shift
        diag |= 1 << (shift + a0)
    return stride, lows, ((1 << n * stride) - 1) ^ diag


def _pack(adj) -> int:
    """The packed key of an adjacency tuple."""
    stride = _layout(len(adj))[0]
    key = 0
    for row in adj:
        key = (key << stride) | row
    return key


def _unpack(n: int, key: int) -> tuple[int, ...]:
    """The adjacency tuple of a packed key."""
    stride = _layout(n)[0]
    full = (1 << n) - 1
    rows = []
    for _ in range(n):  # last row first, from the bottom of the shrinking key
        rows.append(key & full)
        key >>= stride
    return tuple(reversed(rows))


def _toggle(key: int, a0: int, row: int, lows: int, keep: int) -> int:
    """The bits of packed key that local complementation at 0-based vertex
    a0 flips, where row is a0's neighbourhood mask; lows and keep come from
    _layout(n).  Zero when a0 has degree <= 1.

    Column a0 marks the rows to toggle (the adjacency is symmetric): shifted
    to the bottom of each row and multiplied by row, it writes N(a0) into
    each of them, and keep clears each row's own bit.  Column a0 is row, so
    the result depends on a0 and row alone.
    """
    return (((key >> a0) & lows) * row) & keep


def _lc_key(n: int, key: int, a0: int) -> int:
    """Local complementation of a packed key at 0-based vertex a0."""
    stride, lows, keep = _layout(n)
    row = (key >> (n - 1 - a0) * stride) & ((1 << n) - 1)
    return key ^ _toggle(key, a0, row, lows, keep)


def local_complement(g: Graph, a: int) -> Graph:
    """Toggle every edge inside the neighbourhood of a (addition mod 2)."""
    _mask_of((a,), g.n)
    return Graph(g.n, _unpack(g.n, _lc_key(g.n, _pack(g.adj), a - 1)))


def _check_orbit_cap(cap: int) -> None:
    """Refuse an orbit cap below 1: the orbit always holds its root."""
    if cap < 1:
        raise ValueError(f"orbit cap {cap} must be at least 1")


def lc_orbit_members(
    g: Graph, cap: int = DEFAULT_ORBIT_CAP
) -> tuple[dict[int, int | None], bool]:
    """Breadth-first closure of g under all single local complementations.

    Returns (members, truncated).  members maps each member's packed key
    (see _pack; _unpack(g.n, key) is its adjacency tuple) to the vertex
    (1-indexed) whose local complementation first reached it, and g's own
    key to None.  Local complementation is an involution, so a member's
    parent is its own local complement at that vertex, and following the
    parents back to g retraces a shortest LC path (see _path_to).
    cap, at least 1, bounds the number of members kept; truncated is set
    once a further member was found, and the search stops there.

    The bits a local complementation flips depend only on the vertex and
    its row (see _toggle), so each vertex keeps a table from the rows seen
    so far to their toggles, and a step is a row extraction, a lookup and
    an XOR.  A vertex of degree <= 1 toggles nothing and leads back to the
    member itself.

    The skip rule.  Most steps only find a member found before, and the
    search leaves out some of them without taking them.  Each queued member
    x has a skip set S(x): S(g) is empty, and a member x = tau_a(p), first
    reached from its parent p at vertex a, has
    S(x) = ((S(p) | {b < a}) minus N(a)) | {a},
    and x is expanded only at the vertices outside S(x).  Two facts make
    every skipped step one that finds a known member:
    (1) tau_a leaves a's own row unchanged, so N(a) is the same in p and x;
    (2) tau_a tau_b = tau_b tau_a when a and b are not adjacent (Bouchet,
        J. Combin. Theory B 45, 58 (1988); Hein, Eisert and Briegel, PRA 69,
        062311 (2004)).
    Claim: when x's expansion starts, tau_b(x) is a member for every b in
    S(x), so once x is expanded, tau_c(x) is a member for every vertex c.
    By induction along the queue: b = a gives tau_a(x) = p.  Otherwise b is
    not adjacent to a, so tau_b(x) = tau_a(q) with q = tau_b(p), and q was a
    member before p's step at a found x: p's own step at b came earlier if
    b < a and b is outside S(p), and the claim for p covers b in S(p).  So q
    was queued before x and expanded before it, which made tau_a(q) a
    member.  The steps left out change nothing, so the members, their
    order, their parent vertices and truncated are those of the search that
    takes every step.  A table per call maps each skip set to the vertex
    entries outside it.
    """
    _check_orbit_cap(cap)
    n = g.n
    full = (1 << n) - 1
    stride, lows, keep = _layout(n)
    # per vertex: (a0, row shift, toggle table, the vertices up to a0)
    rows = [(a0, (n - 1 - a0) * stride, {}, (2 << a0) - 1) for a0 in range(n)]
    steps = {}  # skip set -> the entries of rows outside it
    start = _pack(g.adj)
    members: dict[int, int | None] = {start: None}
    order = [start]  # the breadth-first queue; the loop reads it as it grows
    skips = [0]  # S(x) of each queued member, beside the queue
    for cur, skip in zip(order, skips):
        todo = steps.get(skip)
        if todo is None:
            todo = steps[skip] = [e for e in rows if not skip >> e[0] & 1]
        for a0, shift, toggles, upto in todo:
            row = (cur >> shift) & full
            t = toggles.get(row)
            if t is None:
                t = toggles[row] = _toggle(cur, a0, row, lows, keep)
            nxt = cur ^ t
            if nxt not in members:
                if len(members) >= cap:
                    return members, True
                members[nxt] = a0 + 1
                order.append(nxt)
                skips.append((skip | upto) & ~row)  # a0 is not in its own row
    return members, False


def _path_to(n: int, members, key: int) -> tuple[int, ...]:
    """A shortest LC vertex sequence from lc_orbit_members' root to member key."""
    path = []
    a = members[key]
    while a is not None:
        path.append(a)
        key = _lc_key(n, key, a - 1)  # the involution undoes the step
        a = members[key]
    return tuple(reversed(path))


@dataclass(frozen=True)
class OrbitSummary:
    """LC-orbit census: minima of matching/vertex-cover size over the orbit.

    representative_matching is the representative's |M_max|; its |beta| is
    min_vertex_cover.  cut_rank is the GF(2) rank of the best cut of the
    input graph found, a lower bound on |M_max| and |beta| of every member,
    visited or not.
    """

    size: int
    representative: Graph
    min_matching: int
    min_vertex_cover: int
    truncated: bool
    lc_path: tuple[int, ...]
    representative_matching: int
    cut_rank: int


@dataclass(frozen=True)
class _RootFacts:
    """What the orbit solve needs to know of the input graph g, worked out once.

    cut_rank is r (see _cut_rank_bound), own_cover and own_matching are g's
    own |beta| and |M_max|, and pauli_rank is the least Pauli rank m (see
    _min_pauli_rank), which is at most every member's |beta|, or None when
    the search ran out of work.
    """

    cut_rank: int
    own_cover: int
    own_matching: int
    pauli_rank: int | None


def _root_facts(g: Graph) -> _RootFacts:
    n, adj = g.n, g.adj
    r = _cut_rank_bound(n, adj)
    cover = n - _mis_size(n, adj)
    matching = r if cover == r else _matching_max_size(n, adj)  # r <= |M_max| <= |beta|
    return _RootFacts(r, cover, matching, _min_pauli_rank(n, adj, r, cover))


def lc_orbit(g: Graph, cap: int = DEFAULT_ORBIT_CAP, *, _root: _RootFacts | None = None) -> OrbitSummary:
    """Enumerate the labelled LC orbit and minimise |M_max| and |beta| over it.

    The representative minimises (|beta|, |M_max|, adjacency) lexicographically,
    and lc_path is a shortest LC path from g to it; when the cap truncates
    enumeration the minima are only upper bounds and the truncated flag is
    set.  _root is _root_facts(g), for a caller that has worked it out.

    The pruning rule.  g is solved exactly, and every other member only as
    far as it could still change a field of the summary.  Two floors hold
    on every member: the GF(2) rank r of a cut of g (local complementation
    keeps cut ranks) is at most its |M_max|, which is at most its |beta|;
    and the least Pauli rank m of g (see _min_pauli_rank) is at most its
    |beta|, with r for m where that search proved nothing.  With
    (bc, bm, bkey) the best (|beta|, |M_max|, key) so far:
    - the member's matching is solved first while the least |M_max| so far
      exceeds r, and mlow is that |M_max|, else r;
    - the member can become the representative only with a cover below
      limit = bc + ((mlow, key) < (bm, bkey)): a cover below bc always
      wins, and a cover of bc only if the tie-break on (|M_max|, adjacency)
      can still go its way;
    - it is passed over once mlow reaches limit, then once n minus its
      greedy clique cover does (an independent set takes at most one vertex
      of each clique), then once its cover does, from an independent-set
      search told to look only above n - limit;
    - a member that gets past all three has its matching solved if it was
      not (r if its cover is r) and replaces the best key if its key is
      smaller.
    One case is screened before all of that, with one key comparison: once
    bc is m and bm is r, no matching solve is left, and a member with a
    larger key has mlow = r and limit = bc = m, which no cover is below.
    The screen is the first test with m as its floor, in the one case that
    needs no solve, and m serves nowhere else.  Where r < m the first test
    alone lets such a member through to the searches: on the 9-ring (m = 5,
    r = 4) the screen leaves 17 of the 8,140 members besides g to search,
    against 1,359 independent-set solves without it.  Folded into the first
    test as max(mlow, m) >= limit, it kept every summary and solve count on
    27,574 orbits but made analyze slower in 6 of 6 benchmark pairs.  Every
    field equals what solving every member would give.  Members are
    compared as packed keys, whose order is that of their adjacency tuples,
    and unpacked once each past the screen.
    """
    members, truncated = lc_orbit_members(g, cap)
    n = g.n
    full = (1 << n) - 1
    facts = _root_facts(g) if _root is None else _root
    r = facts.cut_rank
    lowest = r if facts.pauli_rank is None else facts.pauli_rank  # no member's |beta| is below it
    min_match = bm = facts.own_matching
    bc = facts.own_cover
    bkey = _pack(g.adj)
    above = 1 << n * _layout(n)[0]  # above every key
    stop = bkey if bc == lowest and bm == r else above
    for key in islice(members, 1, None):  # the root comes first
        if key > stop:  # settled: only a smaller key can still win
            continue
        adj, msize = _unpack(n, key), None
        if min_match > r:
            msize = _matching_max_size(n, adj)
            min_match = min(min_match, msize)
        mlow = r if msize is None else msize  # |beta| >= |M_max| >= mlow
        limit = bc + ((mlow, key) < (bm, bkey))  # only a cover below limit can win
        if mlow >= limit:
            continue
        if n - _greedy_clique_cover(adj, full) >= limit:  # one MIS vertex per clique
            continue
        cover = n - _mis_size(n, adj, floor=n - limit)
        if cover >= limit:
            continue
        if msize is None:
            msize = r if cover == r else _matching_max_size(n, adj)  # r <= |M_max| <= |beta|
            min_match = min(min_match, msize)
        if (cover, msize, key) < (bc, bm, bkey):
            bc, bm, bkey = cover, msize, key
            stop = bkey if bc == lowest and bm == r else above
    return OrbitSummary(
        size=len(members),
        representative=Graph(n, _unpack(n, bkey)),
        min_matching=min_match,
        min_vertex_cover=bc,
        truncated=truncated,
        lc_path=_path_to(n, members, bkey),
        representative_matching=bm,
        cut_rank=r,
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


def _residue(pivots: list[int], row: int) -> int:
    """row minus echelon rows until its leading bit has no pivot; 0 if in
    their span.  pivots[b] is the row whose leading bit is b, or 0."""
    while row:
        p = pivots[row.bit_length() - 1]
        if not p:
            return row
        row ^= p
    return 0


def _cut_rank(adj, amask: int, comp: int) -> int:
    """GF(2) rank of the rows of amask restricted to the columns of comp."""
    if amask.bit_count() > comp.bit_count():  # the rank is symmetric
        amask, comp = comp, amask
    pivots = [0] * len(adj)
    for v in _bits(amask):
        row = _residue(pivots, adj[v] & comp)
        if row:
            pivots[row.bit_length() - 1] = row
    return len(pivots) - pivots.count(0)


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


# Row reductions (_residue calls) the Pauli-rank search may make before it
# gives up: kagome 3 (n = 35) needs about 460,000, and the benchmark's
# inputs, n <= 14, at most about 3,000.  A search that runs out takes
# 0.25-0.4 s of CPython on a 2-core x86 VM.
_PAULI_RANK_WORK = 600_000


def _min_pauli_rank(n: int, adj, floor: int, best: int) -> int | None:
    """The least GF(2) rank m of M_P over P in {X, Y, Z}^n (see the module
    docstring), proved: at most every orbit member's |beta|.

    best must be the rank of some choice: g's own cover, X on a maximum
    independent set and Z elsewhere, has rank |beta|, and the search only
    looks for a smaller one, returning best if there is none (at once when
    best <= floor).  It stops once the rank reaches floor, which must be a
    lower bound on every member's |beta| such as the cut rank, and then
    returns floor: like m, it is at most every member's |beta|, which is
    all that callers use.
    After _PAULI_RANK_WORK row reductions it gives up and returns None: it
    proves nothing then, and callers solve the orbit as they would without
    it.

    Depth first over the vertices, with the chosen rows kept as an echelon
    basis keyed by leading bit.  A candidate row already in the span is the
    only child taken: whatever the later rows, the span without the
    candidate's alternatives is contained in the span with them.  Otherwise
    all three rows add rank, and the node's children are taken only while
    the rank of the chosen rows plus the count of _direct_sum's vertices,
    a lower bound on the rank of every leaf below, stays below best.
    """
    if best <= floor:
        return best
    pivots = [0] * n  # pivots[b]: the basis row whose leading bit is b, or 0
    work = 0

    def search(v: int, rank: int) -> bool:
        """Assign vertices v..n-1 at the given rank; True once the search should stop."""
        nonlocal best, work
        if work > _PAULI_RANK_WORK:
            return True
        while v < n:  # rows already in the span add nothing: one child, walk on
            z = 1 << v
            rz = _residue(pivots, z)
            rx = rz and _residue(pivots, adj[v])
            ry = rx and _residue(pivots, z ^ adj[v])
            work += 1 + bool(rz) + bool(rx)
            if ry:
                break
            v += 1
        else:
            best = rank
            return best <= floor
        kept, calls = _direct_sum(pivots, adj, v, n, best - rank)
        work += calls
        bound = rank + len(kept)  # v is kept: its three rows are all outside S
        for row in (rz, rx, ry):
            if bound >= best:
                return False
            lead = row.bit_length() - 1
            pivots[lead] = row
            stop = search(v + 1, rank + 1)
            pivots[lead] = 0
            if stop:
                return True
        return False

    search(0, 0)
    return None if work > _PAULI_RANK_WORK else best


def _direct_sum(pivots: list[int], adj, v: int, n: int, most: int) -> tuple[list[int], int]:
    """Up to most vertices u >= v whose W_u = span(e_u, A_u) are in direct
    sum with each other and with the span S of the echelon rows pivots, and
    the _residue calls made; pivots is left as it was.

    Each of u's three candidate rows in _min_pauli_rank is a nonzero vector
    of W_u.  The vertices are walked in order, and u is kept when W_u raises
    the dimension of S plus the kept W's by 2.  Any rows chosen for the j
    kept vertices are then independent modulo S, so every choice for the
    vertices from v on has rank at least rank S + j.
    """
    kept = []
    leads = []  # leading bits of the kept W's rows, cleared after the walk
    calls = 0
    for u in range(v, n):
        if len(kept) == most:
            break
        a = _residue(pivots, 1 << u)
        calls += 1
        if not a:
            continue
        lead_a = a.bit_length() - 1
        pivots[lead_a] = a
        b = _residue(pivots, adj[u])
        calls += 1
        if not b:
            pivots[lead_a] = 0
            continue
        lead_b = b.bit_length() - 1
        pivots[lead_b] = b
        leads += lead_a, lead_b
        kept.append(u)
    for lead in leads:
        pivots[lead] = 0
    return kept, calls


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

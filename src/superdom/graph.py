"""Immutable simple-graph core.

Vertices are dense integer indices 0..n-1 and adjacency is stored as one
integer bitmask per vertex, which keeps the neighbourhood algebra (unions,
intersections, complements) cheap for the exact search routines built on
top.  Graphs are value types: construction validates the simple-graph
invariants, nothing mutates afterwards, and they hash and compare
structurally.  A vertex set leaves the package as the ascending tuple of
its vertices (a component, a neighbourhood, a certificate's set), which
the private ``_members`` expands from its mask.  A graph derived from a
valid one by mask algebra (the vertex surgeries and compositions of
``ops``) is built by the private ``Graph._of``, which takes the masks as
they are and checks only their number against :data:`MAX_ORDER`, as the
constructor does.  The solvers build no graph at all:
they search each component in place on ``adj``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

DEFAULT_ISO_GUARD = 12
# A graph's bitmasks take up to n*n/8 bytes, so 2**14 vertices cap them at
# 32 MiB, and an edge-list header alone can never ask for an O(n) table
# the machine cannot hold.
MAX_ORDER = 1 << 14


class SizeGuardError(ValueError):
    """An exact routine was asked to exceed its configured size guard."""

    def __init__(self, what: str, n: int, guard: int):
        super().__init__(f"{what}: n={n} exceeds the size guard of {guard}")
        self.what = what
        self.n = n
        self.guard = guard


class EdgeListError(ValueError):
    """Malformed edge-list text."""


def _order(n: int) -> int:
    """``n``, if a graph may have that many vertices (at most :data:`MAX_ORDER`)."""
    if n > MAX_ORDER:
        raise ValueError(f"vertex count {n} exceeds the maximum order of {MAX_ORDER}")
    return n


def _members(mask: int) -> Tuple[int, ...]:
    """The vertices of ``mask`` as an ascending tuple."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class Graph:
    """Immutable undirected simple graph on vertices 0..n-1.

    Construction rejects self-loops and out-of-range endpoints; repeated
    edges collapse silently (adjacency is a set).  The order is checked
    against :data:`MAX_ORDER` before any edge is read, so a generator can
    hand over its edges lazily and an oversized order builds none.
    ``adj[v]`` is the neighbourhood bitmask of ``v`` and is part of the
    public surface for the solvers.
    """

    __slots__ = ("n", "adj", "m")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = [0] * _order(n)
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise IndexError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)
        self.m = sum(a.bit_count() for a in adj) // 2

    @classmethod
    def _of(cls, adj: Tuple[int, ...]) -> "Graph":
        """The graph with neighbourhood masks ``adj``, whose order alone is checked.

        Only for masks derived from a valid graph (symmetric, loop-free,
        within range), as the vertex surgeries and compositions produce.
        The order is held to :data:`MAX_ORDER` as the constructor holds
        it; the compositions of ``ops`` hold theirs to it before they
        build any mask.
        """
        g = cls.__new__(cls)
        g.n = _order(len(adj))
        g.adj = adj
        g.m = sum(a.bit_count() for a in adj) // 2
        return g

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range 0..{self.n - 1}")

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Open neighbourhood of ``v`` as an ascending tuple."""
        self._check_vertex(v)
        return _members(self.adj[v])

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def edges(self) -> List[Tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        return [(u, v) for u in range(self.n) for v in _members(self.adj[u] >> (u + 1) << (u + 1))]

    def components(self) -> List[Tuple[int, ...]]:
        """Connected components as ascending vertex tuples, ordered by minimum
        vertex.  Each is one mask flood, and no tuple is built before all
        floods are done, so a connected graph costs one flood and a range."""
        adj = self.adj
        rest = (1 << self.n) - 1
        masks = []
        while rest:
            comp = frontier = rest & -rest
            while frontier:
                nxt = 0
                while frontier:
                    b = frontier & -frontier
                    frontier ^= b
                    nxt |= adj[b.bit_length() - 1]
                frontier = nxt & ~comp
                comp |= frontier
            rest ^= comp
            masks.append(comp)
        if len(masks) == 1:
            return [tuple(range(self.n))]
        return [_members(comp) for comp in masks]

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _decimal(token: str) -> int:
    """``token`` as a number if it is unsigned ASCII decimal (``int`` also takes signs and ``_``)."""
    if token.isascii() and token.isdigit():
        return int(token)
    raise ValueError(token)


def read_edge_list(text: str, guard: Optional[int] = None, what: str = "") -> Graph:
    """Parse the edge-list text format.

    Format: a header line ``n m`` followed by exactly ``m`` lines ``u v``
    with distinct endpoints in 0..n-1, every number unsigned ASCII decimal
    as :func:`write_edge_list` writes it.  Lines end at ``\n``, and one
    ``\r`` ending a line is dropped; numbers are separated by spaces and
    tabs, and a line of only those is skipped.  Any other control
    character (or, in text that is not ASCII, anything ``str.isprintable``
    refuses) is rejected naming its line, as are duplicate edges (in
    either orientation), self-loops, bad indices, other numbers and count
    mismatches.  With ``guard``, an order above it raises
    :class:`SizeGuardError` for ``what`` once the text has parsed and
    before the graph is built, so a solve refuses a file it would not take
    without first allocating per vertex.
    """
    lines = []
    for number, line in enumerate(text.split("\n"), 1):
        if line[-1:] == "\r":
            line = line[:-1]
        if not line.replace("\t", " ").isprintable():  # so str.split() below splits at spaces and tabs only
            bad = next(c for c in line if c != "\t" and not c.isprintable())
            raise EdgeListError(f"line {number}: control character {bad!r}")
        line = line.strip()
        if line:
            lines.append(line)
    if not lines:
        raise EdgeListError("empty input")
    head = lines[0].split()
    if len(head) != 2:
        raise EdgeListError(f"malformed header {lines[0]!r}, expected 'n m'")
    try:
        n, m = map(_decimal, head)
    except ValueError:
        raise EdgeListError(f"malformed header {lines[0]!r}, expected unsigned decimal integers") from None
    body = lines[1:]
    if len(body) != m:
        raise EdgeListError(f"header promises {m} edges, found {len(body)} edge lines")
    seen = set()
    edges = []
    for ln in body:
        try:
            u, v = map(_decimal, ln.split())  # a count other than two fails the unpacking
        except ValueError:
            raise EdgeListError(f"malformed edge line {ln!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise EdgeListError(f"self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise EdgeListError(f"duplicate edge ({u}, {v})")
        seen.add(key)
        edges.append(key)
    if guard is not None and n > guard:
        raise SizeGuardError(what, n, guard)
    return Graph(n, edges)


def write_edge_list(g: Graph) -> str:
    """Serialize ``g`` in the edge-list text format (round-trips with read_edge_list)."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _refined_colors(g: Graph, h: Graph) -> Tuple[Tuple[int, ...], Tuple[int, ...]] | None:
    """Joint 1-dimensional colour refinement; None when histograms diverge."""
    cg = list(g.degree(v) for v in range(g.n))
    ch = list(h.degree(v) for v in range(h.n))
    for _ in range(g.n):
        table: dict = {}

        def recolor(graph: Graph, colors: List[int]) -> List[int]:
            out = []
            for v in range(graph.n):
                sig = (colors[v], tuple(sorted(colors[u] for u in graph.neighbors(v))))
                out.append(table.setdefault(sig, len(table)))
            return out

        ng, nh = recolor(g, cg), recolor(h, ch)
        if sorted(ng) != sorted(nh):
            return None
        if len(set(ng)) == len(set(cg)):  # stable partition
            return tuple(ng), tuple(nh)
        cg, ch = ng, nh
    return tuple(cg), tuple(ch)


def is_isomorphic(g: Graph, h: Graph, max_n: int = DEFAULT_ISO_GUARD) -> bool:
    """Exact isomorphism test for small graphs.

    Guarded backtracking: colour refinement prunes the candidate classes
    (its first round colours by degree, so graphs whose degree multisets
    differ are refused there), then vertices are matched in
    rarest-class-first order with adjacency consistency checked against
    the mapped prefix.  Intended for the small
    witness graphs this toolkit deals in, not as a general canonical
    labeller; raise ``max_n`` explicitly for slightly larger instances.
    """
    big = max(g.n, h.n)
    if big > max_n:
        raise SizeGuardError("isomorphism test", big, max_n)
    if g.n != h.n:
        return False
    if g.n == 0:
        return True
    refined = _refined_colors(g, h)
    if refined is None:
        return False
    cg, ch = refined

    class_size = {c: cg.count(c) for c in set(cg)}
    order = sorted(range(g.n), key=lambda v: (class_size[cg[v]], cg[v], v))
    candidates = [[w for w in range(h.n) if ch[w] == cg[v]] for v in order]

    image = [-1] * g.n  # g vertex -> h vertex
    used = [False] * h.n

    def extend(i: int) -> bool:
        if i == g.n:
            return True
        v = order[i]
        for w in candidates[i]:
            if used[w]:
                continue
            ok = True
            for j in range(i):
                u, x = order[j], image[order[j]]
                if ((g.adj[v] >> u) & 1) != ((h.adj[w] >> x) & 1):
                    ok = False
                    break
            if ok:
                image[v] = w
                used[w] = True
                if extend(i + 1):
                    return True
                used[w] = False
                image[v] = -1
        return False

    found = extend(0)
    del extend  # it refers to itself through its cell: free it without the collector
    return found

"""Graph surgeries: neighbourhood edge clearing, clique contraction, and
the point-attaching compositions (disjoint union, chain, bouquet).

All operations are pure: they take immutable graphs and return fresh ones.
Compositions relabel into a dense 0..n-1 range and always report the
per-part relabelling maps, so callers can locate attachment vertices in
the result.  An identified vertex keeps the smallest index it received
while parts are placed left to right.  A bouquet is the chain of its parts
with y = x in every part, so :func:`chain` places the vertices of both.

Every surgery and composition works on the neighbourhood masks of its
already valid inputs and builds the result with the private ``Graph._of``,
with no edge list and no re-validation.  A union, chain or bouquet states
its order with :func:`_glued_order` and holds it to ``graph.MAX_ORDER``
before it builds any mask, so an oversized one is refused at the cost of
its inputs alone.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple

from .graph import Graph, _order


class CompositionResult(NamedTuple):
    """A composed graph plus the bookkeeping needed to trace vertices.

    ``vertex_maps[i][v]`` is the composed index of vertex ``v`` of part i;
    ``merged`` lists the composed indices created by identification, in
    attachment order (empty for a disjoint union).
    """

    graph: Graph
    vertex_maps: Tuple[Tuple[int, ...], ...]
    merged: Tuple[int, ...]


def _glued_order(orders: Sequence[int]) -> int:
    """Order of a chain or bouquet of parts of these orders: each of the
    len(orders) - 1 identifications merges two vertices into one."""
    return sum(orders) - len(orders) + 1


def odot(g: Graph, v: int) -> Graph:
    """Remove every edge joining two neighbours of ``v``.

    The vertex set is unchanged and all edges at ``v`` survive, so a
    pendant ``v`` returns a graph equal to ``g``.  On masks: each
    neighbour u of ``v`` keeps ``adj[u] & ~N(v)``.
    """
    g._check_vertex(v)
    nv = g.adj[v]
    return Graph._of(tuple(a & ~nv if nv >> u & 1 else a for u, a in enumerate(g.adj)))


def contract_clique(g: Graph, v: int) -> Graph:
    """Delete ``v`` and place a clique on its former open neighbourhood.

    Remaining vertices are compacted order-preservingly: w maps to w when
    w < v and to w-1 otherwise.  On a pendant (or isolated) ``v`` this
    degenerates to plain vertex deletion.  On masks: each neighbour u of
    ``v`` gains N(v) minus u, then bit ``v`` is shifted out of every mask.
    """
    g._check_vertex(v)
    nv = g.adj[v]
    low = (1 << v) - 1
    adj = []
    for u, a in enumerate(g.adj):
        if u == v:
            continue
        if nv >> u & 1:
            a |= nv ^ (1 << u)
        adj.append(a & low | a >> (v + 1) << v)
    return Graph._of(tuple(adj))


def disjoint_union(g: Graph, h: Graph) -> CompositionResult:
    """Place ``g`` and ``h`` side by side with no edges between them: the
    masks of ``h`` shift up by ``g.n``."""
    _order(g.n + h.n)
    map_g = tuple(range(g.n))
    map_h = tuple(range(g.n, g.n + h.n))
    union = Graph._of(g.adj + tuple(a << g.n for a in h.adj))
    return CompositionResult(union, (map_g, map_h), ())


def chain(parts: Sequence[Tuple[Graph, int, int]]) -> CompositionResult:
    """Chain the parts by identifying ``y`` of each part with ``x`` of the next.

    Each part is a (graph, x, y) triple; x and y may coincide within a
    part.  The first part keeps its own labels, later parts get fresh
    indices in ascending original order.  A single part comes back
    unchanged.  On masks: a later part's x becomes z, the index of the
    previous part's y; its vertices below x move up by the order so far,
    and those above x by one less.
    """
    if not parts:
        raise ValueError("chain needs at least one part")
    for i, (g, x, y) in enumerate(parts):
        for v in (x, y):
            if not 0 <= v < g.n:
                raise IndexError(f"attach vertex {v} out of range for part {i} (n={g.n})")
    _order(_glued_order([g.n for g, _, _ in parts]))

    adj = list(parts[0][0].adj)
    maps = [tuple(range(len(adj)))]
    merged: List[int] = []
    for (_, _, y), (g, x, _) in zip(parts, parts[1:]):
        z, n = maps[-1][y], len(adj)
        moved = [(a & (1 << x) - 1) << n | a >> x + 1 << n + x | (a >> x & 1) << z for a in g.adj]
        adj[z] |= moved.pop(x)
        adj += moved
        maps.append(tuple(n + v if v < x else z if v == x else n + v - 1 for v in range(g.n)))
        merged.append(z)
    return CompositionResult(Graph._of(tuple(adj)), tuple(maps), tuple(merged))


def bouquet(parts: Sequence[Tuple[Graph, int]]) -> CompositionResult:
    """Identify the chosen vertex of every part into one shared vertex.

    Each part is a (graph, x) pair.  The bouquet is the chain of the parts
    with y = x in every part: each x is glued to the previous part's x,
    which is already the shared vertex.  The shared vertex keeps the index
    the first part's x received, and ``merged`` holds exactly that index,
    for a single part too.
    """
    if not parts:
        raise ValueError("bouquet needs at least one part")
    comp = chain([(g, x, x) for g, x in parts])
    return comp._replace(merged=(comp.vertex_maps[0][parts[0][1]],))

"""Exact domination and super domination solvers with certificates.

A set S super dominates when every outside vertex u has a private witness
v in S whose only neighbour outside S is u.  Witnesses pin themselves to a
unique outside vertex (if N(v) lies outside S except for u, v can serve
nobody else), so |complement| <= |S| for any valid S and no matching step
is ever needed: a per-u existence scan is a complete check.

The exact search looks for the largest valid complement.  Valid
complements are hereditary (dropping a vertex from one only widens the
others' witness pools), so sizes are tried upward from 1 to at most
floor(n/2), and the first size with no valid complement ends the search.
Each size is a depth-first search that keeps, per node, the outside
vertices with exactly one and with several prefix neighbours, which makes
the valid-complement test on each grown prefix incremental.  The outside
vertices with no prefix neighbour (the zero pool) are the only possible
witnesses of the members still to be added, which gives two more cuts:
only candidates with a neighbour in the zero pool are tried, and a node
is cut when fewer zero-pool vertices than members still needed have a
neighbour among the remaining candidates.  Connected
components are solved separately and their certificates merged, which is
value-exact (validity of a complement is a per-component property) and
keeps the exponent small.

The minimum dominating set search tries sizes k = 1, 2, ... in turn,
depth first over ascending vertex choices.  It cuts a prefix in two
cases: some undominated vertex lies outside the union of the closed
neighbourhoods of the vertices still available, or the undominated count
exceeds the number of picks left times the largest closed neighbourhood.
Either way no completion dominates, so the cuts drop only subtrees
without a solution and the search still meets the k-subsets in
lexicographic order: the first dominating set found is the
lexicographically smallest one.

Tie-breaking is deterministic everywhere: among maximum-size valid
complements the lexicographically smallest wins (vertices compared as
integers), and each outside vertex records its smallest witness.  Because
components partition the vertex range and are relabelled monotonically,
per-component lexicographic minima merge into the global lexicographic
minimum.
"""

from __future__ import annotations

from typing import Dict, Iterable, NamedTuple, Optional, Tuple, Union

from .graph import Graph, SizeGuardError, VertexSet

DEFAULT_GUARD = 24
BRUTEFORCE_GUARD = 16
SP_SEARCH = "exact super domination search"
DOM_SEARCH = "exact domination search"

SetLike = Union[VertexSet, Iterable[int]]


class DomCertificate(NamedTuple):
    """A minimum dominating set."""

    vertices: VertexSet
    value: int


class SuperDomCertificate(NamedTuple):
    """A minimum super dominating set plus the private witness map.

    ``witnesses[u]`` is the in-set vertex whose only outside neighbour is
    u, for every u outside the set.
    """

    vertices: VertexSet
    witnesses: Dict[int, int]
    value: int


def _as_vertex_set(g: Graph, s: SetLike) -> VertexSet:
    if isinstance(s, VertexSet):
        if s.owner_n != g.n:
            raise ValueError(
                f"vertex set indexes a graph of order {s.owner_n}, not {g.n}"
            )
        return s
    return VertexSet(g.n, s)


def is_dominating(g: Graph, s: SetLike) -> bool:
    """True iff every vertex outside ``s`` has a neighbour in ``s``."""
    s = _as_vertex_set(g, s)
    outside = s.complement()
    return all(g.adj[u] & s.mask for u in outside)


def _witness_scan(g: Graph, s: SetLike) -> Union[Dict[int, int], str]:
    """The witness map of ``s``, or the reason its smallest failing outside
    vertex disqualifies it."""
    s = _as_vertex_set(g, s)
    outside = s.mask ^ ((1 << g.n) - 1)
    witnesses: Dict[int, int] = {}
    rest = outside
    while rest:
        ub = rest & -rest
        u = ub.bit_length() - 1
        rest ^= ub
        cand = g.adj[u] & s.mask
        if not cand:
            return f"u={u}: not dominated"
        while cand:
            vb = cand & -cand
            cand ^= vb
            if g.adj[vb.bit_length() - 1] & outside == ub:
                witnesses[u] = vb.bit_length() - 1
                break
        else:
            return f"u={u}: no witness"
    return witnesses


def super_domination_witnesses(g: Graph, s: SetLike) -> Optional[Dict[int, int]]:
    """Witness map for ``s`` if it super dominates, else None.

    Each outside vertex u maps to its smallest witness: a v in s adjacent
    to u whose neighbourhood meets the outside only in u.  The empty map
    for s = V is a valid (vacuous) answer.
    """
    found = _witness_scan(g, s)
    return None if isinstance(found, str) else found


def is_super_dominating(g: Graph, s: SetLike) -> bool:
    """True iff ``s`` is a super dominating set of ``g``."""
    return super_domination_witnesses(g, s) is not None


def first_violation(g: Graph, s: SetLike) -> Optional[str]:
    """Human-readable reason the smallest failing outside vertex disqualifies ``s``."""
    found = _witness_scan(g, s)
    return found if isinstance(found, str) else None


def _lex_first_complement(adj: Tuple[int, ...], n: int, k: int) -> Optional[int]:
    """First (lexicographically) valid complement of size k, or None.

    Depth-first over ascending vertex choices, so leaves are visited in
    lexicographic set order.  Each node carries two masks over the vertices
    outside its prefix P: ``one`` holds those with exactly one neighbour in
    P, ``many`` those with two or more.  A vertex v outside P witnesses its
    prefix neighbour exactly when v is in ``one``, so P is a valid
    complement iff every member of P has a neighbour in ``one``.  Adding a
    vertex moves its outside neighbours up one count, and only the new
    vertex and the members whose witnesses just left ``one`` (the prefix
    neighbours of the new vertex and of the vertices promoted to ``many``)
    need rechecking.  The test is exact and valid complements are
    hereditary, so a failing prefix has no valid completion and its whole
    subtree is cut; no completable prefix is ever discarded.

    Two more cuts read the zero pool ``zero``: the vertices outside P with
    no neighbour in P.  A member added later needs a witness whose only
    neighbour in the final complement is that member, so the witness has
    no neighbour in P and lies in the zero pool, which only shrinks down
    the tree.  Hence every later member is a candidate v >= start with a
    neighbour in the zero pool, and the loop runs over those candidates
    only, stopping once fewer remain than members are still needed.  And
    the witnesses of distinct members are distinct, so a node is cut when
    fewer zero-pool vertices than members still needed have a neighbour
    at or after ``start`` (``reach[start]``, the union of the open
    neighbourhoods of v >= start).  Both cuts drop only subtrees without a
    valid completion, so the leaves still come in lexicographic order.
    """
    full = (1 << n) - 1
    reach = [0] * (n + 1)  # reach[i]: union of N(v) over v >= i
    for v in range(n - 1, -1, -1):
        reach[v] = reach[v + 1] | adj[v]

    def extend(start: int, size: int, prefix: int, one: int, many: int) -> Optional[int]:
        need = k - size
        if not need:
            return prefix
        zero = full & ~(prefix | one | many)
        if (reach[start] & zero).bit_count() < need:
            return None
        cand = 0
        rest = zero
        while rest:
            wb = rest & -rest
            rest ^= wb
            cand |= adj[wb.bit_length() - 1]
        cand = cand >> start << start
        left = cand.bit_count()
        while left >= need:
            vb = cand & -cand
            cand ^= vb
            left -= 1
            v = vb.bit_length() - 1
            grown = prefix | vb
            near = adj[v] & ~grown
            promoted = near & one
            grown_one = (one | near) & ~(many | promoted | vb)
            grown_many = (many | promoted) & ~vb
            stale = (adj[v] & prefix) | vb
            while promoted:
                wb = promoted & -promoted
                promoted ^= wb
                stale |= adj[wb.bit_length() - 1] & prefix
            while stale:
                ub = stale & -stale
                stale ^= ub
                if not adj[ub.bit_length() - 1] & grown_one:
                    break
            else:
                found = extend(v + 1, size + 1, grown, grown_one, grown_many)
                if found is not None:
                    return found
        return None

    return extend(0, 0, 0, 0, 0)


def _best_complement(adj: Tuple[int, ...], n: int) -> int:
    """Lexicographically smallest maximum-size valid complement, as a mask.

    Sizes are tried upward, k = 1, 2, ..., n // 2 (a complement never
    outgrows its set, as witnesses are distinct), and the search stops at
    the first size with no valid complement.  Valid complements are
    hereditary, so every size below the maximum has one and the last size
    that succeeded is the maximum; its lex-first complement is the answer.
    At most one size, the one past the maximum, is ever refuted.
    """
    best = 0
    for k in range(1, n // 2 + 1):
        found = _lex_first_complement(adj, n, k)
        if found is None:
            break
        best = found
    return best


def _check_input(g: Graph, guard: int, what: str) -> None:
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if g.n > guard:
        raise SizeGuardError(what, g.n, guard)


def gamma_sp(g: Graph, guard: int = DEFAULT_GUARD) -> SuperDomCertificate:
    """Minimum super dominating set of ``g`` with its witness map.

    Degenerate inputs get the all-vertices convention: an isolated vertex
    can only be dominated from inside, so edgeless graphs (including K_1)
    come back with value n.
    """
    _check_input(g, guard, SP_SEARCH)
    comp_mask = 0
    for comp in g.components():
        sub = g.induced_subgraph(comp)
        local = _best_complement(sub.adj, sub.n)
        while local:
            b = local & -local
            local ^= b
            comp_mask |= 1 << comp[b.bit_length() - 1]
    s = VertexSet.from_mask(g.n, comp_mask ^ ((1 << g.n) - 1))
    witnesses = super_domination_witnesses(g, s)
    if witnesses is None:
        raise RuntimeError("super domination search returned an invalid complement")
    return SuperDomCertificate(s, witnesses, len(s))


def _min_dominating(adj: Tuple[int, ...], n: int) -> Tuple[int, ...]:
    """Lexicographically smallest minimum dominating set, as ascending vertices.

    Depth-first over ascending vertex choices, one level per size k, so the
    first dominating set found is the one a lexicographic scan of the
    k-subsets returns.  The cuts are described in the module docstring.
    """
    full = (1 << n) - 1
    closed = [adj[v] | (1 << v) for v in range(n)]
    reach = [0] * (n + 1)  # reach[i]: union of N[v] over v >= i
    for v in range(n - 1, -1, -1):
        reach[v] = reach[v + 1] | closed[v]
    width = max(c.bit_count() for c in closed)  # most vertices one pick dominates

    def extend(start: int, left: int, cover: int) -> Optional[Tuple[int, ...]]:
        missing = full ^ cover
        if missing & ~reach[start] or missing.bit_count() > left * width:
            return None
        if not left:
            return ()
        for v in range(start, n - left + 1):
            found = extend(v + 1, left - 1, cover | closed[v])
            if found is not None:
                return (v,) + found
        return None

    for k in range(1, n + 1):
        found = extend(0, k, 0)
        if found is not None:
            return found
    raise AssertionError("unreachable: the full vertex set dominates")


def gamma(g: Graph, guard: int = DEFAULT_GUARD) -> DomCertificate:
    """Minimum dominating set of ``g`` (lexicographically smallest one)."""
    _check_input(g, guard, DOM_SEARCH)
    chosen = []
    for comp in g.components():
        sub = g.induced_subgraph(comp)
        chosen += [comp[v] for v in _min_dominating(sub.adj, sub.n)]
    s = VertexSet(g.n, chosen)
    return DomCertificate(s, len(s))


def gamma_sp_bruteforce(g: Graph) -> int:
    """Independent oracle: scan all 2^n subsets, no pruning, no decomposition.

    Returns only the minimum size.  Hard-guarded at n <= 16.
    """
    if g.n > BRUTEFORCE_GUARD:
        raise SizeGuardError("brute-force super domination scan", g.n, BRUTEFORCE_GUARD)
    best = g.n
    for mask in range(1 << g.n):
        if is_super_dominating(g, VertexSet.from_mask(g.n, mask)):
            size = mask.bit_count()
            if size < best:
                best = size
    return best

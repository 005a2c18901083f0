"""Exact domination and super domination solvers with certificates.

A set S super dominates when every outside vertex u has a private witness
v in S whose only neighbour outside S is u.  Witnesses pin themselves to a
unique outside vertex (if N(v) lies outside S except for u, v can serve
nobody else), so |complement| <= |S| for any valid S and no matching step
is ever needed: a per-u existence scan is a complete check.

The exact search exploits that cap: candidate complements are enumerated
by decreasing size starting at floor(n/2), and the first size admitting a
valid complement is optimal.  Connected components are solved separately
and their certificates merged, which is value-exact (validity of a
complement is a per-component property) and keeps the exponent small.

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

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple, Union

from .graph import Graph, SizeGuardError, VertexSet

DEFAULT_GUARD = 24
BRUTEFORCE_GUARD = 16

SetLike = Union[VertexSet, Iterable[int]]


@dataclass(frozen=True)
class DomCertificate:
    """A minimum dominating set."""

    vertices: VertexSet
    value: int


@dataclass(frozen=True)
class SuperDomCertificate:
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


def _prefix_feasible(adj: Tuple[int, ...], prefix: int) -> bool:
    """True iff ``prefix`` is itself a valid complement.

    Every u in the prefix needs some neighbour v outside it whose other
    prefix neighbours are empty: N(v) & prefix <= {u}, which is == since v
    is adjacent to u.  That is exactly the witness condition for the set
    V minus ``prefix``.  Valid complements are hereditary (dropping a
    vertex from one only widens the others' witness pools), so a failure
    here also rules out every complement containing the prefix and kills
    the whole subtree.
    """
    rest = prefix
    while rest:
        ub = rest & -rest
        rest ^= ub
        others = prefix ^ ub
        cand = adj[ub.bit_length() - 1] & ~prefix
        while cand:
            vb = cand & -cand
            cand ^= vb
            if adj[vb.bit_length() - 1] & others == 0:
                break
        else:
            return False
    return True


def _lex_first_complement(adj: Tuple[int, ...], n: int, k: int) -> Optional[int]:
    """First (lexicographically) valid complement of size k, or None.

    Depth-first over ascending vertex choices, so leaves are visited in
    lexicographic set order; subtrees are cut by :func:`_prefix_feasible`,
    which never discards a completable prefix.
    """

    def extend(start: int, size: int, prefix: int) -> Optional[int]:
        if size == k:
            return prefix
        for v in range(start, n - (k - size) + 1):
            grown = prefix | (1 << v)
            if _prefix_feasible(adj, grown):
                found = extend(v + 1, size + 1, grown)
                if found is not None:
                    return found
        return None

    return extend(0, 0, 0)


def _best_complement(adj: Tuple[int, ...], n: int) -> int:
    """Lexicographically smallest maximum-size valid complement, as a mask."""
    for k in range(n // 2, 0, -1):
        found = _lex_first_complement(adj, n, k)
        if found is not None:
            return found
    return 0


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
    _check_input(g, guard, "exact super domination search")
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
    _check_input(g, guard, "exact domination search")
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

"""Exact domination and super domination solvers with certificates.

A set S super dominates when every outside vertex u has a private witness
v in S whose only neighbour outside S is u.  Witnesses pin themselves to a
unique outside vertex (if N(v) lies outside S except for u, v can serve
nobody else), so |complement| <= |S| for any valid S and no matching step
is ever needed: a per-u existence scan is a complete check.

The exact search looks for the largest valid complement in one
depth-first branch and bound per component, over ascending vertex
choices.  It keeps the best complement found so far, cuts every subtree
that cannot beat it (by the witnesses still free to serve new members,
and by each member's last witness), and stops once the best reaches
floor(n/2).  Valid complements are hereditary (dropping a vertex from one
only widens the others' witness pools), so every prefix of one is met,
and the search meets the sets of each size in lexicographic order: the
first maximum it meets is the lexicographically smallest.
:func:`_best_complement` states the cuts and why they keep that maximum.
Connected components are solved separately and their certificates merged,
which is value-exact (validity of a complement is a per-component
property) and keeps the exponent small.  Both solvers split through one
helper, and a connected graph is solved in place on its own masks, with
no relabelled copy.

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

from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

from .graph import Graph, SizeGuardError, VertexSet

DEFAULT_GUARD = 24
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


def _best_complement(adj: Tuple[int, ...], n: int) -> int:
    """Lexicographically smallest maximum-size valid complement, as a mask.

    One depth-first branch and bound over ascending vertex choices, which
    meets the sets of each size in lexicographic order.  Each node carries
    two masks over the vertices outside its prefix P: ``one`` holds those
    with exactly one neighbour in P, ``many`` those with two or more.  A
    vertex outside P witnesses its prefix neighbour exactly when it is in
    ``one``, so P is a valid complement iff every member of P has a
    neighbour in ``one``.  Adding a vertex moves its outside neighbours up
    one count, and only the new vertex and the members whose witnesses
    just left ``one`` (the prefix neighbours of the new vertex and of the
    vertices promoted to ``many``) need rechecking.  The test is exact and
    valid complements are hereditary, so a failing prefix has no valid
    completion and its whole subtree is cut.

    Every prefix reached is valid, and one strictly larger than the best
    so far replaces it; the search stops once the best reaches n // 2 (a
    complement never outgrows its set, as witnesses are distinct).  The
    cuts below drop only subtrees that hold no valid complement larger
    than the best so far.  Any set met before the lex-first maximum M is
    lex-smaller than M or smaller in size, so until M is met the best is
    smaller than M and no cut drops M's subtree; M is then the first
    maximum met, and only a strictly larger set could replace it.

    Two cuts read the zero pool ``zero``: the vertices outside P with no
    neighbour in P.  A member added later needs a witness whose only
    neighbour in the final complement is that member, so the witness lies
    in the zero pool, which only shrinks down the tree.  Hence only
    candidates v >= start with a neighbour in the zero pool are tried, and
    the loop stops once too few remain to beat the best.  And the
    witnesses of distinct members are distinct, so a node is cut when P
    plus the zero-pool vertices with a neighbour at or after ``start``
    (``reach[start]``, the union of the open neighbourhoods of v >= start)
    cannot beat the best.

    The sole-witness cut: if a member x has a single witness w left
    (``adj[x] & one`` is one bit), no later member may neighbour w, since
    w would then have two neighbours in the complement and x no witness;
    ``adj[x] & one`` only shrinks down the tree, so N(w) is dropped from
    the node's candidates.
    """
    full = (1 << n) - 1
    cap = n // 2
    reach = [0] * (n + 1)  # reach[i]: union of N(v) over v >= i
    for v in range(n - 1, -1, -1):
        reach[v] = reach[v + 1] | adj[v]
    best_size = 0
    best = 0

    def extend(start: int, size: int, prefix: int, one: int, many: int) -> bool:
        """Search below P; True once a complement of size n // 2 is found."""
        nonlocal best_size, best
        if size > best_size:
            best_size, best = size, prefix
            if size == cap:
                return True
        zero = full & ~(prefix | one | many)
        if size + (reach[start] & zero).bit_count() <= best_size:
            return False
        cand = 0
        rest = zero
        while rest:
            wb = rest & -rest
            rest ^= wb
            cand |= adj[wb.bit_length() - 1]
        rest = prefix
        while rest:
            xb = rest & -rest
            rest ^= xb
            w = adj[xb.bit_length() - 1] & one  # never 0 on a valid prefix
            if not w & (w - 1):
                cand &= ~adj[w.bit_length() - 1]
        cand = cand >> start << start
        left = cand.bit_count()
        while size + left > best_size:
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
                if extend(v + 1, size + 1, grown, grown_one, grown_many):
                    return True
        return False

    if cap:  # a lone vertex has only the empty complement
        extend(0, 0, 0, 0, 0)
    return best


def _check_input(g: Graph, guard: int, what: str) -> None:
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if g.n > guard:
        raise SizeGuardError(what, g.n, guard)


def _components(g: Graph) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Each connected component of ``g`` as (its vertices, its masks
    relabelled to 0..k-1 in vertex order).  A connected graph is its own
    component and is solved in place, on ``g.adj`` itself."""
    comps = g.components()
    if len(comps) == 1:
        return [(comps[0], g.adj)]
    return [(comp, g.induced_subgraph(comp).adj) for comp in comps]


def gamma_sp(g: Graph, guard: int = DEFAULT_GUARD) -> SuperDomCertificate:
    """Minimum super dominating set of ``g`` with its witness map.

    Degenerate inputs get the all-vertices convention: an isolated vertex
    can only be dominated from inside, so edgeless graphs (including K_1)
    come back with value n.
    """
    _check_input(g, guard, SP_SEARCH)
    comp_mask = 0
    for comp, adj in _components(g):
        local = _best_complement(adj, len(adj))
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
    for comp, adj in _components(g):
        chosen += [comp[v] for v in _min_dominating(adj, len(adj))]
    s = VertexSet(g.n, chosen)
    return DomCertificate(s, len(s))


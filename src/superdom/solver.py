"""Exact domination and super domination solvers with certificates.

A set S super dominates when every outside vertex u has a private witness
v in S whose only neighbour outside S is u.  Witnesses pin themselves to a
unique outside vertex (if N(v) lies outside S except for u, v can serve
nobody else), so |complement| <= |S| for any valid S and no matching step
is ever needed: a per-u existence scan is a complete check.

The exact search looks for the largest valid complement of each
component with a depth-first branch and bound over ascending vertex
choices.  It keeps the best complement found so far, cuts every subtree
that cannot beat it (by the witnesses still free to serve new members, by
member/witness pairs, and by each member's last witness), and stops once
the best reaches a cap, by default floor(n/2).  Valid complements are
hereditary (dropping a vertex from one only widens the others' witness
pools), so every prefix of one is met, and the search meets the sets of
each size in lexicographic order: the first maximum it meets is the
lexicographically smallest.  :func:`_best_complement` states the cuts and
why they keep that maximum.

Most of a one-pass search is spent proving that its maximum is a maximum,
and a good first guess shortens that proof.  So from order
``_TWO_PASS_ORDER`` on, :func:`_max_complement` runs the same search
twice.  Pass (a) searches a copy of the component's masks relabelled in
descending-degree order (ties by label), where large complements turn up
early, and keeps only their size, the value.  Pass (b) searches the
graph's own labels with the best set to one below the value and the cap
at the value, so it stops at the first set of that size, which is the
lexicographically smallest maximum; finding none raises
:class:`RuntimeError`.  Below order 12 the second pass costs more than it
saves: over connected ``G(n,p)`` graphs, four p and 30 seeds per order,
the two-pass time was 2.2 times the one-pass time at order 4, 1.04 at
11, 0.97 at 12 and 0.57 at 24.  So smaller components take one pass.

Connected components are solved separately and their certificates merged,
which is value-exact (validity of a complement is a per-component
property) and keeps the exponent small.  Both solvers split through
:func:`_solve`: each search runs in place on the graph's own masks,
restricted to one component's vertices, and returns its answer in the
graph's labels; only the value pass works on a relabelled copy.

The minimum dominating set search tries sizes k = 1, 2, ... in turn,
depth first over ascending vertex choices.  It cuts a prefix in two
cases: some undominated vertex lies outside the union of the closed
neighbourhoods of the vertices still available, or the undominated count
exceeds the number of picks left times the largest closed neighbourhood.
Either way no completion dominates, so the cuts drop only subtrees
without a solution and the search still meets the k-subsets in
lexicographic order: the first dominating set found is the
lexicographically smallest one.  A prefix with no picks left is a
solution only if it dominates, which is tested on its own, so no cut
is needed for the answer to be right.

Tie-breaking is deterministic everywhere: among maximum-size valid
complements the lexicographically smallest wins (vertices compared as
integers), and each outside vertex records its smallest witness.  Because
components partition the vertex range and each search meets its
component's vertices in ascending order, per-component lexicographic
minima merge into the global lexicographic minimum.

:meth:`SuperDomCertificate.payload` is the one JSON shape of a certificate,
which ``gamma-sp``, ``check`` and the ``T1`` rows of the report all write.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, NamedTuple, Optional, Tuple, Union

from .graph import Graph, SizeGuardError, _members

DEFAULT_GUARD = 24
_TWO_PASS_ORDER = 12  # components of this order and up are searched in two passes
SP_SEARCH = "exact super domination search"
DOM_SEARCH = "exact domination search"


class DomCertificate(NamedTuple):
    """A minimum dominating set, ``vertices`` in ascending order."""

    vertices: Tuple[int, ...]
    value: int


class SuperDomCertificate(NamedTuple):
    """A minimum super dominating set plus the private witness map.

    ``vertices`` is the set in ascending order, as :meth:`payload` prints
    it; ``witnesses[u]`` is the in-set vertex whose only outside neighbour
    is u, for every u outside the set.
    """

    vertices: Tuple[int, ...]
    witnesses: Dict[int, int]
    value: int

    def payload(self) -> Dict[str, object]:
        """The set and the witness map as the commands and the report write them."""
        return {"set": list(self.vertices), "witnesses": _witness_payload(self.witnesses)}


def _witness_payload(witnesses: Dict[int, int]) -> Dict[str, int]:
    """A witness map as JSON writes it: string keys in ascending vertex order."""
    return {str(u): v for u, v in sorted(witnesses.items())}


def _mask(g: Graph, s: Iterable[int]) -> int:
    """The mask of the vertices ``s`` of ``g``; a vertex outside 0..n-1 raises IndexError."""
    mask = 0
    for v in s:
        g._check_vertex(v)
        mask |= 1 << v
    return mask


def is_dominating(g: Graph, s: Iterable[int]) -> bool:
    """True iff every vertex outside ``s`` has a neighbour in ``s``."""
    inside = _mask(g, s)
    return all(g.adj[u] & inside for u in range(g.n) if not inside >> u & 1)


def _witness_scan(g: Graph, s: Iterable[int]) -> Union[Dict[int, int], str]:
    """The witness map of ``s``, or the reason its smallest failing outside
    vertex disqualifies it."""
    return _witnesses(g, _mask(g, s))


def _witnesses(g: Graph, inside: int) -> Union[Dict[int, int], str]:
    """:func:`_witness_scan` of the set with mask ``inside``."""
    outside = inside ^ ((1 << g.n) - 1)
    witnesses: Dict[int, int] = {}
    for u in _members(outside):
        cand = g.adj[u] & inside
        if not cand:
            return f"u={u}: not dominated"
        for v in _members(cand):
            if g.adj[v] & outside == 1 << u:
                witnesses[u] = v
                break
        else:
            return f"u={u}: no witness"
    return witnesses


def super_domination_witnesses(g: Graph, s: Iterable[int]) -> Optional[Dict[int, int]]:
    """Witness map for ``s`` if it super dominates, else None.

    Each outside vertex u maps to its smallest witness: a v in s adjacent
    to u whose neighbourhood meets the outside only in u.  The empty map
    for s = V is a valid (vacuous) answer.
    """
    found = _witness_scan(g, s)
    return None if isinstance(found, str) else found


def is_super_dominating(g: Graph, s: Iterable[int]) -> bool:
    """True iff ``s`` is a super dominating set of ``g``."""
    return super_domination_witnesses(g, s) is not None


def first_violation(g: Graph, s: Iterable[int]) -> Optional[str]:
    """Human-readable reason the smallest failing outside vertex disqualifies ``s``."""
    found = _witness_scan(g, s)
    return found if isinstance(found, str) else None


def _best_complement(adj: Tuple[int, ...], comp: Tuple[int, ...], floor: int = 0, cap: Optional[int] = None) -> int:
    """Lexicographically smallest valid complement of the largest size up
    to ``cap`` (default: half the component) within the component ``comp``
    (its ascending vertices) of the graph with masks ``adj``, as a mask in
    the graph's labels; 0 when no valid complement is larger than
    ``floor``.

    One depth-first branch and bound over ascending vertex choices, which
    meets the sets of each size in lexicographic order.  Each node carries
    two masks over the vertices outside its prefix P: ``one`` holds those
    with exactly one neighbour in P, ``many`` those with two or more.  A
    vertex outside P witnesses its prefix neighbour exactly when it is in
    ``one``, so P is a valid complement iff every member of P has a
    neighbour in ``one``.  Adding a vertex moves its outside neighbours up
    one count, and only the members whose witnesses just left ``one`` (the
    prefix neighbours of the new vertex and of the vertices promoted to
    ``many``) need rechecking: the new vertex is a candidate, so it has a
    neighbour in the zero pool (below), which moves into ``one`` and
    witnesses it.  The test is exact and valid complements are
    hereditary, so a failing prefix has no valid completion and its whole
    subtree is cut.

    The best so far starts at size ``floor`` with no set.  Every prefix
    reached is valid, and one strictly larger than the best replaces it;
    the search stops once the best reaches ``cap`` (half the component is
    the most there can be, as a complement never outgrows its set:
    witnesses are distinct).  The cuts below drop only subtrees that hold
    no valid complement larger than the best so far.  Any set met before
    the lex-first complement M of the largest size up to ``cap`` is
    lex-smaller than M or smaller in size, so until M is met the best is
    smaller than M and no cut drops M's subtree; M is then the first such
    set met, and only a strictly larger set could replace it.  With
    ``floor`` one below a known maximum and ``cap`` at it, the search
    returns the lex-first maximum the moment it meets it.

    Two cuts read the zero pool ``zero``: the vertices outside P with no
    neighbour in P.  A member added later needs a witness whose only
    neighbour in the final complement is that member, so the witness lies
    in the zero pool, which only shrinks down the tree.  Hence only
    candidates v >= start with a neighbour in the zero pool are tried, and
    the loop stops once too few remain to beat the best.  And the
    witnesses of distinct members are distinct, so a node is cut when P
    plus the zero-pool vertices with a neighbour at or after ``start``
    (``reach[start]``, the union of the open neighbourhoods of the
    component's v >= start) cannot beat the best.  Neighbourhoods never
    leave the component, so every mask stays inside ``full``.

    The pair cut: each later member lies in the node's candidates and its
    witness in ``reach[start] & zero``; a member is in the complement and
    its witness is not, and witnesses are distinct, so the later members
    and their witnesses are twice as many distinct vertices of the union
    of the two masks.  A node is cut when P plus half that union cannot
    beat the best.

    The sole-witness cut: if a member x has a single witness w left
    (``adj[x] & one`` is one bit), no later member may neighbour w, since
    w would then have two neighbours in the complement and x no witness;
    ``adj[x] & one`` only shrinks down the tree, so N(w) is dropped from
    the node's candidates.
    """
    if cap is None:
        cap = len(comp) // 2
    # the search starts at 0 and then at v + 1 for component vertices v only
    reach = [0] * (comp[-1] + 2)  # reach[v + 1]: union of N(w) over component w > v
    full = 0
    for v in reversed(comp):
        reach[v + 1] = full
        full |= adj[v]
    reach[0] = full  # the whole component, as each vertex has a neighbour in it
    best_size = floor
    best = 0

    def extend(start: int, size: int, prefix: int, one: int, many: int) -> bool:
        """Search below P; True once a complement of size ``cap`` is found."""
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
        if size + (cand | (reach[start] & zero)).bit_count() // 2 <= best_size:
            return False
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
            stale = adj[v] & prefix
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

    extend(0, 0, 0, 0, 0)
    del extend  # it refers to itself through its cell: free it without the collector
    return best


def _max_complement(adj: Tuple[int, ...], comp: Tuple[int, ...]) -> int:
    """:func:`_best_complement` of the component ``comp``, found in two
    passes from order ``_TWO_PASS_ORDER`` on: the value on a copy of the
    masks relabelled in descending-degree order, then the lex-first set of
    that size in the graph's own labels."""
    if len(comp) < _TWO_PASS_ORDER:
        return _best_complement(adj, comp)
    order = sorted(comp, key=lambda v: (-adj[v].bit_count(), v))
    label = dict(zip(order, range(len(order))))
    relabelled = tuple(sum(1 << label[u] for u in _members(adj[v])) for v in order)
    value = _best_complement(relabelled, tuple(range(len(order)))).bit_count()
    found = _best_complement(adj, comp, value - 1, value)
    if found.bit_count() != value:
        raise RuntimeError(f"super domination search lost the value {value} in its lexicographic pass")
    return found


def _min_dominating(adj: Tuple[int, ...], comp: Tuple[int, ...]) -> int:
    """Lexicographically smallest minimum dominating set of the component
    ``comp`` (its ascending vertices) of the graph with masks ``adj``, as a
    mask in the graph's labels.

    Depth-first over ascending vertex choices, one level per size k, so the
    first dominating set found is the one a lexicographic scan of the
    k-subsets returns.  The cuts are described in the module docstring.
    The search walks positions i in ``comp``, not labels.
    """
    order = len(comp)
    closed = [adj[v] | (1 << v) for v in comp]
    reach = [0] * (order + 1)  # reach[i]: union of N[comp[j]] over j >= i
    for i in range(order - 1, -1, -1):
        reach[i] = reach[i + 1] | closed[i]
    full = reach[0]  # the whole component
    width = max(c.bit_count() for c in closed)  # most vertices one pick dominates

    def extend(start: int, left: int, cover: int) -> Optional[int]:
        missing = full ^ cover
        if missing & ~reach[start] or missing.bit_count() > left * width:
            return None
        if not left:
            return None if missing else 0
        for i in range(start, order - left + 1):
            found = extend(i + 1, left - 1, cover | closed[i])
            if found is not None:
                return found | 1 << comp[i]
        return None

    for k in range(1, order + 1):
        found = extend(0, k, 0)
        if found is not None:
            del extend  # it refers to itself through its cell: free it without the collector
            return found
    del extend
    raise RuntimeError("domination search found no set, not even the whole component")


def _solve(g: Graph, guard: int, what: str, search: Callable[[Tuple[int, ...], Tuple[int, ...]], int]) -> int:
    """Check ``g`` against ``guard``, run ``search`` in place on each of its
    components, and OR the masks it returns, which are in ``g``'s labels."""
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if g.n > guard:
        raise SizeGuardError(what, g.n, guard)
    found = 0
    for comp in g.components():
        found |= search(g.adj, comp)
    return found


def gamma_sp(g: Graph, guard: int = DEFAULT_GUARD) -> SuperDomCertificate:
    """Minimum super dominating set of ``g`` with its witness map.

    Degenerate inputs get the all-vertices convention: an isolated vertex
    can only be dominated from inside, so edgeless graphs (including K_1)
    come back with value n.
    """
    inside = _solve(g, guard, SP_SEARCH, _max_complement) ^ ((1 << g.n) - 1)
    witnesses = _witnesses(g, inside)
    if isinstance(witnesses, str):
        raise RuntimeError("super domination search returned an invalid complement")
    s = _members(inside)
    return SuperDomCertificate(s, witnesses, len(s))


def gamma(g: Graph, guard: int = DEFAULT_GUARD) -> DomCertificate:
    """Minimum dominating set of ``g`` (lexicographically smallest one)."""
    s = _members(_solve(g, guard, DOM_SEARCH, _min_dominating))
    if not is_dominating(g, s):
        raise RuntimeError("domination search returned a set that does not dominate")
    return DomCertificate(s, len(s))


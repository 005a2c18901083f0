"""Brute-force oracles shared across the tests.

Deliberately written against plain Python sets and the edge list rather
than the package's bitmask internals, so they stay an independent check
path for the solver results.  The one exception is
:func:`gamma_sp_bruteforce`, which scans every subset with the package's
set test but none of its search.
"""

from itertools import combinations

import hypothesis.strategies as st

from superdom import Graph, SizeGuardError, VertexSet, is_super_dominating

BRUTEFORCE_GUARD = 16


def gamma_sp_bruteforce(g: Graph) -> int:
    """Independent oracle: scan all 2^n subsets, no pruning, no decomposition.

    Returns only the minimum size.  Hard-guarded at n <= 16.  It tests
    each subset with ``is_super_dominating`` on masks, which is several
    times faster than the plain-set scan of :func:`plain_min_super_dom` on
    the acceptance pool.
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


def plain_neighbors(g: Graph):
    nbr = {v: set() for v in range(g.n)}
    for u, v in g.edges():
        nbr[u].add(v)
        nbr[v].add(u)
    return nbr


def plain_is_dominating(g: Graph, s) -> bool:
    s = set(s)
    nbr = plain_neighbors(g)
    return all(u in s or nbr[u] & s for u in range(g.n))


def plain_is_super_dominating(g: Graph, s) -> bool:
    s = set(s)
    nbr = plain_neighbors(g)
    outside = set(range(g.n)) - s
    for u in outside:
        if not any(nbr[v] & outside == {u} for v in nbr[u] & s):
            return False
    return True


def plain_min_super_dom(g: Graph) -> int:
    for k in range(g.n + 1):
        for combo in combinations(range(g.n), k):
            if plain_is_super_dominating(g, combo):
                return k
    return g.n


def plain_lexmin_dom(g: Graph):
    """The solver's tie-break target for gamma: the lexicographically
    smallest minimum dominating set, scanned the slow way."""
    for k in range(1, g.n + 1):
        for combo in combinations(range(g.n), k):
            if plain_is_dominating(g, combo):
                return list(combo)
    raise AssertionError("V dominates itself")


def plain_min_dom(g: Graph) -> int:
    return len(plain_lexmin_dom(g))


def plain_lexmin_max_complement(g: Graph):
    """The solver's tie-break target: among valid complements of maximum
    size, the lexicographically smallest, scanned the slow way."""
    for k in range(g.n // 2, -1, -1):
        for combo in combinations(range(g.n), k):
            if plain_is_super_dominating(g, set(range(g.n)) - set(combo)):
                return list(combo)
    return []


def plain_lexmax_complement(g: Graph):
    """The solver's tie-break target on graphs too large for the
    exhaustive scan, found by a different route: sizes k = n//2, n//2 - 1,
    ... downward, each a depth-first search over ascending vertices that
    recomputes the valid-complement test on every prefix, and no split
    into components."""
    nbr = plain_neighbors(g)

    def prefix_feasible(prefix):
        return all(any(nbr[v] & prefix == {u} for v in nbr[u] - prefix) for u in prefix)

    def extend(start, k, prefix):
        if len(prefix) == k:
            return prefix
        for v in range(start, g.n - (k - len(prefix)) + 1):
            if prefix_feasible(set(prefix + [v])):
                found = extend(v + 1, k, prefix + [v])
                if found is not None:
                    return found
        return None

    for k in range(g.n // 2, 0, -1):
        found = extend(0, k, [])
        if found is not None:
            return found
    return []


def plain_smallest_witnesses(g: Graph, s):
    """Each outside vertex's smallest private witness in ``s``."""
    s = set(s)
    nbr = plain_neighbors(g)
    return {u: min(v for v in nbr[u] & s if nbr[v] - s == {u})
            for u in sorted(set(range(g.n)) - s)}


@st.composite
def graphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    else:
        edges = []
    return Graph(n, edges)


# Edge-list constructions of the surgeries, kept as an oracle for the
# mask versions in the package: each builds its result from the edge list
# through the validating constructor.


def edge_list_odot(g: Graph, v: int) -> Graph:
    nv = set(plain_neighbors(g)[v])
    return Graph(g.n, [(a, b) for a, b in g.edges() if not (a in nv and b in nv)])


def edge_list_contract_clique(g: Graph, v: int) -> Graph:
    def relabel(w):
        return w if w < v else w - 1

    edges = [(relabel(a), relabel(b)) for a, b in g.edges() if v not in (a, b)]
    nbrs = [relabel(u) for u in sorted(plain_neighbors(g)[v])]
    edges += [(a, b) for i, a in enumerate(nbrs) for b in nbrs[i + 1:]]
    return Graph(g.n - 1, edges)


def edge_list_disjoint_union(g: Graph, h: Graph) -> Graph:
    return Graph(g.n + h.n, g.edges() + [(g.n + a, g.n + b) for a, b in h.edges()])


"""An independent integer-programming oracle at the orders the solvers serve.

The brute-force oracles in ``conftest`` stop at n = 16 while the default
guard allows 24.  These tests solve both problems as 0/1 programs with
``scipy.optimize.milp`` (HiGHS), on the whole graph with no split into
components, and compare the optimum with the solvers' certificates:

* domination: x_v = 1 iff v is in S, and x_u + sum of x_v over N(u) >= 1;
* super domination: also y_uv on each arc u -> v, meaning v is u's
  witness, with y_uv <= x_v, y_uv <= x_w for every w in N(v) - {u}, and
  x_u + sum of y_uv over N(u) >= 1.

Sparse graphs solve in well under a second each and run by default.  The
denser ones take several seconds each and carry the ``milp_dense``
marker, which the default run deselects; ``python -m pytest -m
milp_dense`` runs them.
"""

from fractions import Fraction

import pytest

import conftest as brute
from superdom import Graph, disjoint_union, gamma, gamma_sp, gnp_random_graph

np = pytest.importorskip("numpy")
optimize = pytest.importorskip("scipy.optimize")


def milp_minimum(g: Graph, witnessed: bool):
    """Minimum dominating (``witnessed=False``) or super dominating set
    size of ``g`` and an optimal set, by HiGHS."""
    nbr = brute.plain_neighbors(g)
    arcs = [(u, v) for u in range(g.n) for v in sorted(nbr[u])] if witnessed else []
    column = {arc: g.n + i for i, arc in enumerate(arcs)}
    rows, lower = [], []

    def row(coefficients, at_least):
        r = np.zeros(g.n + len(arcs))
        for j, c in coefficients:
            r[j] += c
        rows.append(r)
        lower.append(at_least)

    for u in range(g.n):
        covers = [column[u, v] for v in sorted(nbr[u])] if witnessed else sorted(nbr[u])
        row([(u, 1)] + [(j, 1) for j in covers], 1)
    for (u, v), j in column.items():
        for w in {v} | (nbr[v] - {u}):
            row([(w, 1), (j, -1)], 0)  # y_uv <= x_w
    objective = np.concatenate([np.ones(g.n), np.zeros(len(arcs))])
    res = optimize.milp(
        objective,
        constraints=optimize.LinearConstraint(np.array(rows), np.array(lower), np.inf),
        integrality=np.ones(len(objective)),
        bounds=optimize.Bounds(0, 1),
    )
    assert res.success, res.message
    chosen = [v for v in range(g.n) if res.x[v] > 0.5]
    return round(res.fun), chosen


def assert_matches_milp(g: Graph):
    dom_value, dom_set = milp_minimum(g, witnessed=False)
    sp_value, sp_set = milp_minimum(g, witnessed=True)
    # the model's own optimum must be a valid set of that size
    assert len(dom_set) == dom_value and brute.plain_is_dominating(g, dom_set)
    assert len(sp_set) == sp_value and brute.plain_is_super_dominating(g, sp_set)
    dom, sp = gamma(g), gamma_sp(g)
    assert dom.value == dom_value and brute.plain_is_dominating(g, dom.vertices)
    assert sp.value == sp_value and brute.plain_is_super_dominating(g, sp.vertices)
    assert sp.witnesses == brute.plain_smallest_witnesses(g, sp.vertices)


@pytest.mark.parametrize("n", range(17, 25))
def test_sparse_gnp_matches_milp(n):
    assert_matches_milp(gnp_random_graph(n, Fraction(1, 8), seed=n))


def test_gnp_quarter_matches_milp():
    assert_matches_milp(gnp_random_graph(20, Fraction(1, 4), seed=0))


def test_disconnected_union_matches_milp():
    g = disjoint_union(gnp_random_graph(12, Fraction(1, 4), seed=3), gnp_random_graph(9, Fraction(1, 2), seed=1)).graph
    g = disjoint_union(g, Graph(2)).graph
    assert len(g.components()) >= 4
    assert_matches_milp(g)


@pytest.mark.milp_dense
@pytest.mark.parametrize("n,p,seed", [
    (24, Fraction(1, 4), 0),
    (22, Fraction(1, 4), 1),
    (18, Fraction(1, 2), 0),
    (20, Fraction(1, 2), 2),
])
def test_denser_gnp_matches_milp(n, p, seed):
    assert_matches_milp(gnp_random_graph(n, p, seed))

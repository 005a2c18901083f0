"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (or ``-s`` to see the
lines as they print).  Everything here is exact — integer equalities and
rational comparisons, no tolerances.
"""

from fractions import Fraction

import pytest

from conftest import gamma_sp_bruteforce, plain_min_dom
from superdom import (
    bouquet,
    chain,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    friendship_graph,
    gamma,
    gamma_sp,
    is_isomorphic,
    odot,
    path_graph,
    star_graph,
)
from superdom.theorems import (
    DEFAULT_CONFIG,
    check_chain2,
    check_chain_n,
    check_sandwich,
    check_vertex,
    connected_random_pool,
    family_pool,
    random_pool,
    report_document,
    run_harness,
)


def _passed(k, text):
    print(f"ACCEPTANCE {k}: PASS — {text}")


def _criterion_pool():
    """Criterion 3's pool: every family instance of order <= 12 plus the
    default 200-instance seeded G(n,p) grid."""
    return family_pool(12) + random_pool(DEFAULT_CONFIG.random)


def test_criterion_01_closed_form_table():
    for n in range(3, 15):
        assert gamma_sp(path_graph(n)).value == (n + 1) // 2, f"path({n})"
    for n in range(3, 15):
        expected = (n + 1) // 2 if n % 4 in (0, 3) else (n + 2) // 2
        assert gamma_sp(cycle_graph(n)).value == expected, f"cycle({n})"
    for n in range(2, 11):
        assert gamma_sp(complete_graph(n)).value == n - 1, f"complete({n})"
    for a in range(2, 7):
        for b in range(a, 7):
            assert gamma_sp(complete_bipartite_graph(a, b)).value == a + b - 2, f"K({a},{b})"
    for n in range(1, 13):
        assert gamma_sp(star_graph(n)).value == n, f"star({n})"
    _passed(1, "closed forms for paths, cycles, cliques, bipartite, stars (exact)")


def test_criterion_02_friendship_values():
    for k in range(1, 6):
        assert gamma_sp(friendship_graph(k)).value == k + 1, f"friendship({k})"
    _passed(2, "friendship value k+1 for k in 1..5 (exact)")


def test_criterion_03_oracle_equivalence():
    checked = 0
    for label, g in _criterion_pool():
        if g.n <= 12:
            assert gamma_sp(g).value == gamma_sp_bruteforce(g), label
            checked += 1
    assert checked >= 200 + 70
    _passed(3, f"pruned solver equals 2^n scan on {checked} instances (exact)")


def test_criterion_04_sandwich_on_pool():
    full = 0
    partial = 0
    for label, g in _criterion_pool():
        if g.m == 0:
            continue
        report = check_sandwich(g, label)
        assert report.holds, label
        if all(a != 0 for a in g.adj):
            assert len(report.relations) == 4, label
            full += 1
        else:
            # isolated vertices fall outside the gamma <= n/2 half
            # (K_2 + K_1 breaks it); the other three rows still must hold
            assert len(report.relations) == 3, label
            partial += 1
    assert full > 200
    _passed(4, f"sandwich holds on {full} isolated-free graphs "
               f"(+{partial} isolated-vertex graphs pass the applicable rows)")


def test_criterion_05_odot_sharpness():
    for k in range(2, 6):
        f = friendship_graph(k)
        cleared = odot(f, 0)
        val = gamma_sp(cleared).value
        assert val == 2 * k
        assert val == gamma_sp(f).value + (2 * k) // 2 - 1
        assert is_isomorphic(cleared, star_graph(2 * k), max_n=2 * k + 1)
    _passed(5, "clearing a friendship centre: value 2k, bound tight, result is K_{1,2k}")


def test_criterion_06_vertex_op_bounds_on_pool():
    pairs = 0
    for label, g in _criterion_pool():
        if g.n > 10:
            continue
        for v in range(g.n):
            if g.degree(v) < 2:
                continue
            reports = check_vertex(g, v, label)
            assert [r.theorem_id for r in reports] == ["T_odot", "T_Gv", "C_combined"], (label, v)
            assert all(r.holds for r in reports), (label, v)
            pairs += 1
    assert pairs > 500
    _passed(6, f"clearing/contraction bounds and combined corollary on {pairs} (g,v) pairs")


def test_criterion_07_chain_sharpness_and_sandwich():
    p3 = path_graph(3)
    two = chain([(p3, 1, 1), (p3, 1, 1)])
    assert gamma_sp(two.graph).value == 4
    assert is_isomorphic(two.graph, star_graph(4))

    nineteen = chain([(friendship_graph(4), 0, 0), (friendship_graph(5), 0, 0)])
    assert nineteen.graph.n == 19
    assert gamma_sp(nineteen.graph, guard=20).value == 10
    assert is_isomorphic(nineteen.graph, friendship_graph(9), max_n=20)

    parts2 = connected_random_pool(100, seed=777)
    for i in range(50):
        (_, g1), (_, g2) = parts2[2 * i], parts2[2 * i + 1]
        assert check_chain2(g1, 0, g2, g2.n - 1).holds
    parts3 = connected_random_pool(150, seed=888, n_min=4, n_max=6)
    for i in range(50):
        spec = [(parts3[3 * i + j][1], 0, parts3[3 * i + j][1].n - 1) for j in range(3)]
        assert check_chain_n(spec).holds
    _passed(7, "chain sharp instances exact (K_{1,4} and the 19-vertex friendship chain) "
               "+ sandwich on 100 random connected chains")


def test_criterion_08_bouquet_sharpness():
    f2 = friendship_graph(2)
    for k in (2, 3):
        comp = bouquet([(f2, 0)] * k)
        assert is_isomorphic(comp.graph, friendship_graph(2 * k), max_n=comp.graph.n)
        assert gamma_sp(comp.graph).value == 2 * k + 1
    p2 = path_graph(2)
    for k in range(2, 11):
        comp = bouquet([(p2, 0)] * k)
        assert is_isomorphic(comp.graph, star_graph(k))
        assert gamma_sp(comp.graph).value == k
    _passed(8, "bouquet sharp instances: friendship gluing (2k+1) and edge gluing (k)")


def test_criterion_09_union_additivity():
    pool = _criterion_pool()
    for i in range(50):
        (_, g1), (_, g2) = pool[2 * i], pool[2 * i + 1]
        combined = disjoint_union(g1, g2).graph
        assert gamma_sp(combined).value == gamma_sp(g1).value + gamma_sp(g2).value
    _passed(9, "gamma_sp additive over 50 disjoint unions (exact)")


def test_criterion_10_harness_determinism():
    r1, s1 = run_harness(DEFAULT_CONFIG)
    r2, s2 = run_harness(DEFAULT_CONFIG)
    doc1 = report_document(r1, s1, DEFAULT_CONFIG)
    doc2 = report_document(r2, s2, DEFAULT_CONFIG)
    assert s1["failed"] == 0
    assert doc1.encode() == doc2.encode()
    _passed(10, f"two full harness runs byte-identical ({s1['total']} reports, 0 failures)")


@pytest.fixture(scope="module", autouse=True)
def _gamma_cross_check():
    # spot-anchor the dominating-set side used by criterion 4
    assert gamma(path_graph(5)).value == 2 == plain_min_dom(path_graph(5))
    yield

import hashlib
import json
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from superdom import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    friendship_graph,
    gnp_random_graph,
    path_graph,
    star_graph,
)
from superdom import theorems
from superdom.theorems import (
    ALL_THEOREM_IDS,
    DEFAULT_CONFIG,
    HarnessConfig,
    RandomGrid,
    check_bouquet,
    check_bouquet_sharp_lower,
    check_bouquet_sharp_upper,
    check_chain2,
    check_chain_n,
    check_chain_sharp_lower,
    check_chain_sharp_upper,
    check_closed_forms,
    check_combined_corollary,
    check_contract,
    check_odot,
    check_odot_sharp,
    check_sandwich,
    config_from_dict,
    config_to_dict,
    connected_random_pool,
    family_pool,
    random_pool,
    report_document,
    run_harness,
)


class TestSandwich:
    def test_path4(self):
        r = check_sandwich(path_graph(4))
        assert r.holds
        assert r.lhs[0] == 1 and r.rhs[-1] == 3

    def test_k2_boundary(self):
        r = check_sandwich(path_graph(2))
        assert r.holds
        assert list(r.lhs) == [1, 1, Fraction(1), 1]

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="at least one edge"):
            check_sandwich(Graph(3))

    def test_isolated_vertex_rejected_with_counterexample(self):
        # K_2 plus an isolated vertex: gamma = 2 > n/2, so the gamma <= n/2
        # row is out of domain and dropped while the other three still hold
        g = Graph(3, [(0, 1)])
        r = check_sandwich(g)
        assert r.holds
        assert r.lhs == (1, Fraction(3, 2), 2) and r.rhs == (2, 2, 2)
        assert r.relations == ("<=", "<=", "<=")
        assert r.witness["gamma_set"] == [0, 2] or r.witness["gamma_set"] == [1, 2]

    def test_random_instances(self):
        for seed in range(10):
            g = gnp_random_graph(8, Fraction(1, 2), seed)
            if g.m and all(a for a in g.adj):
                assert check_sandwich(g).holds


class TestClosedForms:
    def test_examples(self):
        reports = {r.instance: r for r in check_closed_forms(max_order=9)}
        assert reports["cycle(7)"].lhs == (4,)
        assert reports["friendship(4)"].lhs == (5,)
        assert all(r.holds for r in reports.values())

    def test_k33(self):
        reports = {r.instance: r for r in check_closed_forms(max_order=6)}
        assert reports["complete_bipartite(3,3)"].lhs == (4,)


class TestVertexOpChecks:
    def test_odot_friendship_center_is_tight(self):
        r = check_odot(friendship_graph(2), 0)
        assert r.theorem_id == "T_odot" and r.holds
        assert r.lhs == (4,) and r.rhs == (4,)

    def test_odot_pendant_equality(self):
        r = check_odot(path_graph(3), 0)
        assert r.theorem_id == "P_odot_pendant" and r.holds

    def test_odot_isolated_rejected(self):
        with pytest.raises(ValueError, match="isolated"):
            check_odot(Graph(3, [(0, 1)]), 2)

    def test_contract_cycle4(self):
        r = check_contract(cycle_graph(4), 0)
        assert r.holds and r.lhs == (2,) and r.rhs == (2,)

    def test_contract_complete4(self):
        r = check_contract(complete_graph(4), 0)
        assert r.holds and r.lhs == (2,) and r.rhs == (3,)

    def test_contract_pendant_rejected(self):
        with pytest.raises(ValueError, match="deg"):
            check_contract(path_graph(3), 0)

    def test_combined_friendship(self):
        r = check_combined_corollary(friendship_graph(2), 0)
        assert r.holds
        assert r.lhs == (3,)
        assert r.rhs == (Fraction(5, 2),)  # (4 + 3)/2 - 2 + 1, exact

    def test_combined_cycle4(self):
        assert check_combined_corollary(cycle_graph(4), 1).holds

    def test_random_pairs(self):
        for seed in range(6):
            g = gnp_random_graph(7, Fraction(1, 2), 100 + seed)
            for v in range(g.n):
                if g.degree(v) >= 2:
                    assert check_odot(g, v).holds
                    assert check_contract(g, v).holds
                    assert check_combined_corollary(g, v).holds

    def test_atlas_sweep(self):
        # every graph on 1..7 vertices, up to isomorphism, at every
        # non-isolated vertex; the counts pin how often each bound is tight,
        # so a solver regression cannot hide behind rows that still hold
        nx = pytest.importorskip("networkx")
        atlas = [Graph(h.number_of_nodes(), list(h.edges())) for h in nx.graph_atlas_g()[1:]]
        rows, tight, failed = Counter(), Counter(), []
        for g in atlas:
            for v in range(g.n):
                deg = g.degree(v)
                reports = [check_odot(g, v)] if deg else []
                if deg >= 2:
                    reports.append(check_contract(g, v))
                for r in reports:
                    rows[r.theorem_id] += 1
                    tight[r.theorem_id] += r.lhs == r.rhs
                    if not r.holds:
                        failed.append(r.instance)
        assert len(atlas) == 1252
        assert failed == []
        assert rows == {"T_odot": 7202, "T_Gv": 7202, "P_odot_pendant": 977}
        assert tight == {"T_odot": 3413, "T_Gv": 2083, "P_odot_pendant": 977}


class TestChainChecks:
    def test_two_paths_upper_tight(self):
        r = check_chain2(path_graph(3), 1, path_graph(3), 1)
        assert r.holds
        assert r.lhs[0] == 3 and r.rhs[0] == 4  # lower bound row
        assert r.lhs[1] == 4 and r.rhs[1] == 4  # upper bound row, tight
        assert r.witness["proof_case"]["valid"] is True

    def test_friendship_lower_tight(self):
        r = check_chain2(friendship_graph(4), 0, friendship_graph(5), 0)
        assert r.holds
        assert r.lhs[0] == 10 and r.lhs[1] == 10 and r.rhs[1] == 11

    def test_disconnected_part_rejected(self):
        with pytest.raises(ValueError, match="disconnected"):
            check_chain2(Graph(3, [(0, 1)]), 0, path_graph(3), 1)

    def test_chain_n_three_paths(self):
        parts = [(path_graph(3), 1, 1)] * 3
        r = check_chain_n(parts)
        assert r.holds and r.theorem_id == "C_chain_n"

    def test_chain_n_single_part(self):
        g = cycle_graph(5)
        r = check_chain_n([(g, 0, 2)])
        assert r.holds
        # one part: window [value-1, value] collapses onto the value
        assert r.lhs[0] == r.lhs[1] - 1 and r.lhs[1] == r.rhs[1]

    def test_random_chains(self):
        parts = connected_random_pool(6, seed=7)
        for i in range(3):
            (l1, g1), (l2, g2) = parts[2 * i], parts[2 * i + 1]
            assert check_chain2(g1, 0, g2, 0).holds


class TestBouquetChecks:
    def test_ids_by_part_count(self):
        p = path_graph(3)
        assert check_bouquet([(p, 0)] * 2).theorem_id == "P_bouquet2"
        assert check_bouquet([(p, 0)] * 3).theorem_id == "T_bouquet3"
        assert check_bouquet([(p, 0)] * 4).theorem_id == "C_bouquet_n"

    def test_friendship_bouquet_lower_tight(self):
        r = check_bouquet([(friendship_graph(2), 0)] * 3)
        assert r.holds
        assert r.lhs[0] == 7 and r.rhs[0] == 7

    def test_edge_bouquet_upper_tight(self):
        r = check_bouquet([(path_graph(2), 0)] * 5)
        assert r.holds
        assert r.lhs[1] == 5 and r.rhs[1] == 5


class TestSharpness:
    @pytest.mark.parametrize("k", range(2, 6))
    def test_odot_sharp(self, k):
        assert check_odot_sharp(k).holds

    def test_chain_sharp_upper(self):
        assert check_chain_sharp_upper().holds

    def test_chain_sharp_lower(self):
        assert check_chain_sharp_lower(guard=20).holds

    @pytest.mark.parametrize("k", (2, 3))
    def test_bouquet_sharp_lower(self, k):
        assert check_bouquet_sharp_lower(k).holds

    @pytest.mark.parametrize("k", range(2, 11))
    def test_bouquet_sharp_upper(self, k):
        assert check_bouquet_sharp_upper(k).holds


SMALL_CONFIG = HarnessConfig(
    theorems=("T1", "T2i", "T_chain2", "P_union", "R_odot_sharp"),
    family_max_order=8,
    random=RandomGrid(count=12, n_min=4, n_max=8, seed=5),
    union_pairs=4,
    chain_samples=3,
    bouquet_samples=2,
)


class TestHarness:
    def test_empty_config_empty_report(self):
        reports, summary = run_harness(HarnessConfig(theorems=()))
        assert reports == [] and summary["total"] == 0 and summary["failed"] == 0

    def test_config_from_dict_empty_is_empty_run(self):
        cfg = config_from_dict({})
        assert cfg.theorems == ()
        assert cfg == HarnessConfig(theorems=())

    def test_config_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            config_from_dict({"theorms": ["T1"]})
        with pytest.raises(ValueError, match="identifiers"):
            config_from_dict({"theorems": ["T99"]})

    def test_config_round_trip(self):
        cfg = config_from_dict(
            {"theorems": ["T1"], "random": {"count": 3, "p": ["1/3"], "seed": 9}}
        )
        assert cfg.random.p_values == (Fraction(1, 3),)
        assert cfg.random.count == 3
        assert config_from_dict(config_to_dict(DEFAULT_CONFIG)) == DEFAULT_CONFIG

    def test_small_run_green_and_deterministic(self):
        r1, s1 = run_harness(SMALL_CONFIG)
        r2, s2 = run_harness(SMALL_CONFIG)
        assert s1["failed"] == 0
        d1 = report_document(r1, s1, SMALL_CONFIG)
        d2 = report_document(r2, s2, SMALL_CONFIG)
        assert d1 == d2
        parsed = json.loads(d1)
        assert parsed["summary"]["total"] == s1["total"]

    def test_reports_sorted(self):
        reports, _ = run_harness(SMALL_CONFIG)
        keys = [(r.theorem_id, r.instance) for r in reports]
        assert keys == sorted(keys)

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            run_harness(HarnessConfig(theorems=("T99",)))

    def test_pools_are_replayable(self):
        grid = RandomGrid(count=10, seed=3)
        a = random_pool(grid)
        b = random_pool(grid)
        assert [l for l, _ in a] == [l for l, _ in b]
        assert [g for _, g in a] == [g for _, g in b]
        fam = family_pool(8)
        assert all(g.n <= 8 for _, g in fam)

    def test_default_report_digest(self):
        # the sha256 of the default report pins every check, instance label
        # and certificate the harness emits
        doc = report_document(*run_harness(), DEFAULT_CONFIG)
        assert hashlib.sha256(doc.encode()).hexdigest() == (
            "bdaa0f731250ef624945a8fb823fa3b8e445221d6811e78e9e5f5c1a6ea0846e"
        )

    def test_default_config_selects_everything(self):
        assert set(DEFAULT_CONFIG.theorems) == set(ALL_THEOREM_IDS)

    @pytest.mark.parametrize("tid", [
        "P_union", "T_chain2", "C_chain_n", "P_bouquet2", "T_bouquet3", "C_bouquet_n",
        "R_odot_sharp", "R_chain_sharp_upper", "R_chain_sharp_lower",
        "R_bouquet_sharp_lower", "R_bouquet_sharp_upper",
    ])
    def test_guard_plan_is_the_largest_order_solved(self, tid, monkeypatch):
        # the pre-run guard test must admit exactly the runs that finish: at
        # the largest order the check solves it runs, one below it stops
        # before any solve and names the check
        solved = []
        cert = theorems._sdom_cert

        def spy(g, guard):
            solved.append(g.n)
            return cert(g, guard)

        monkeypatch.setattr(theorems, "_sdom_cert", spy)
        cfg = HarnessConfig(theorems=(tid,), family_max_order=1, random=RandomGrid(count=0))
        assert run_harness(cfg)[1]["failed"] == 0
        largest = max(solved)
        assert run_harness(replace(cfg, guard=largest))[1]["failed"] == 0
        solved.clear()
        with pytest.raises(ValueError, match=rf"{tid} \(order {largest}\)"):
            run_harness(replace(cfg, guard=largest - 1))
        assert solved == []

    def test_report_union_values(self):
        reports, _ = run_harness(
            HarnessConfig(theorems=("P_union",), family_max_order=6,
                          random=RandomGrid(count=0), union_pairs=3)
        )
        for r in reports:
            assert r.holds
            assert r.lhs[0] == sum(r.witness["part_values"])

import gc
import hashlib
import json
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import hypothesis.strategies as st
import pytest
from hypothesis import given

from test_cli import DEFAULT_REPORT_SHA256
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
from superdom import families, is_isomorphic, ops, solver, theorems
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
    check_odot_sharp,
    check_sandwich,
    check_vertex,
    config_from_dict,
    config_to_dict,
    connected_random_pool,
    family_pool,
    random_pool,
    report_document,
    run_harness,
)


def report_dict(r):
    """A report as the JSON object ``report_document`` writes for it: the
    reference its bytes are compared against, lhs and rhs numbers as ints
    or ``"p/q"`` strings."""
    def num(x):
        if isinstance(x, Fraction):
            return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
        return x

    return {
        "theorem_id": r.theorem_id,
        "instance": r.instance,
        "lhs": [num(x) for x in r.lhs],
        "relations": list(r.relations),
        "rhs": [num(x) for x in r.rhs],
        "holds": r.holds,
        "witness": r.witness,
    }


def _atlas():
    """Every graph on 1..7 vertices, up to isomorphism (networkx's atlas)."""
    nx = pytest.importorskip("networkx")
    return [Graph(h.number_of_nodes(), list(h.edges())) for h in nx.graph_atlas_g()[1:]]


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

    def test_atlas_sweep(self):
        reports = [check_sandwich(g) for g in _atlas() if g.m]
        assert len(reports) == 1245
        assert [r.instance for r in reports if not r.holds] == []


class TestClosedForms:
    def test_examples(self):
        reports = {r.instance: r for r in check_closed_forms(max_order=9)}
        assert reports["cycle(7)"].lhs == (4,)
        assert reports["friendship(4)"].lhs == (5,)
        assert all(r.holds for r in reports.values())

    def test_k33(self):
        reports = {r.instance: r for r in check_closed_forms(max_order=6)}
        assert reports["complete_bipartite(3,3)"].lhs == (4,)


def _vertex_reports(g, v):
    """check_vertex's reports at (g, v), by id."""
    return {r.theorem_id: r for r in check_vertex(g, v)}


class TestVertexOpChecks:
    def test_odot_friendship_center_is_tight(self):
        r = _vertex_reports(friendship_graph(2), 0)["T_odot"]
        assert r.holds
        assert r.lhs == (4,) and r.rhs == (4,)

    def test_odot_pendant_equality(self):
        # a pendant vertex reports the clearing equality and nothing else:
        # no bound of the deg >= 2 checks applies to it
        [r] = check_vertex(path_graph(3), 0)
        assert r.theorem_id == "P_odot_pendant" and r.holds
        assert r.lhs == r.rhs == (2,)

    def test_odot_isolated_rejected(self):
        with pytest.raises(ValueError, match="vertex 2 is isolated"):
            check_vertex(Graph(3, [(0, 1)]), 2)

    def test_contract_cycle4(self):
        r = _vertex_reports(cycle_graph(4), 0)["T_Gv"]
        assert r.holds and r.lhs == (2,) and r.rhs == (2,)

    def test_contract_complete4(self):
        r = _vertex_reports(complete_graph(4), 0)["T_Gv"]
        assert r.holds and r.lhs == (2,) and r.rhs == (3,)

    def test_combined_friendship(self):
        r = _vertex_reports(friendship_graph(2), 0)["C_combined"]
        assert r.holds
        assert r.lhs == (3,)
        assert r.rhs == (Fraction(5, 2),)  # (4 + 3)/2 - 2 + 1, exact

    def test_combined_cycle4(self):
        assert _vertex_reports(cycle_graph(4), 1)["C_combined"].holds

    def test_rows_labels_and_witnesses(self):
        # the report rows at the friendship centre, field by field: one
        # clearing and one contraction feed all three
        docs = [report_dict(r) for r in check_vertex(friendship_graph(2), 0, "friendship(2)")]
        base = {"v": 0, "degree": 4, "base_value": 3}
        assert docs == [
            {"theorem_id": "T_odot", "instance": "odot(friendship(2),v=0)", "lhs": [4],
             "relations": ["<="], "rhs": [4], "holds": True, "witness": base},
            {"theorem_id": "T_Gv", "instance": "contract(friendship(2),v=0)", "lhs": [3],
             "relations": ["<="], "rhs": [4], "holds": True, "witness": base},
            {"theorem_id": "C_combined", "instance": "combined(friendship(2),v=0)", "lhs": [3],
             "relations": [">="], "rhs": ["5/2"], "holds": True,
             "witness": {"v": 0, "degree": 4, "cleared_value": 4, "contracted_value": 3}},
        ]

    def test_random_pairs(self):
        for seed in range(6):
            g = gnp_random_graph(7, Fraction(1, 2), 100 + seed)
            for v in range(g.n):
                if g.degree(v) >= 2:
                    reports = check_vertex(g, v)
                    assert [r.theorem_id for r in reports] == ["T_odot", "T_Gv", "C_combined"]
                    assert all(r.holds for r in reports)

    def test_atlas_sweep(self):
        # every graph on 1..7 vertices, up to isomorphism, at every
        # non-isolated vertex; the counts pin how often each bound is tight,
        # so a solver regression cannot hide behind rows that still hold
        atlas = _atlas()
        rows, tight, failed = Counter(), Counter(), []
        for g in atlas:
            for v in range(g.n):
                for r in check_vertex(g, v) if g.degree(v) else []:
                    rows[r.theorem_id] += 1
                    tight[r.theorem_id] += r.lhs == r.rhs
                    if not r.holds:
                        failed.append(r.instance)
        assert len(atlas) == 1252
        assert failed == []
        assert rows == {"T_odot": 7202, "T_Gv": 7202, "C_combined": 7202, "P_odot_pendant": 977}
        assert tight == {"T_odot": 3413, "T_Gv": 2083, "C_combined": 2083, "P_odot_pendant": 977}


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

    def test_two_part_atlas_sweep(self):
        # chain2 and the two-part bouquet glue every (connected graph on 2..5
        # vertices, vertex) pair to every other; the tight counts pin the
        # slack of each bound row exactly
        pairs = [(g, v) for g in _atlas() if 2 <= g.n <= 5 and g.is_connected() for v in range(g.n)]
        assert len(pairs) == 137
        chains = [check_chain2(g1, y1, g2, x2) for g1, y1 in pairs for g2, x2 in pairs]
        bouquets = [check_bouquet([(g1, y1), (g2, x2)]) for g1, y1 in pairs for g2, x2 in pairs]
        for reports in (chains, bouquets):
            assert len(reports) == 18769
            assert [r.instance for r in reports if not r.holds] == []
            assert sum(r.lhs[0] == r.rhs[0] for r in reports) == 12433
            assert sum(r.lhs[1] == r.rhs[1] for r in reports) == 6336


class TestGluedLabels:
    """A direct chain or bouquet check labels each part ``graph(n=..,m=..)``
    unless given the parts' labels, and writes its attach vertices after them."""

    P3, C4, K4 = path_graph(3), cycle_graph(4), complete_graph(4)

    def test_default_labels(self):
        p3, c4, k4 = self.P3, self.C4, self.K4
        assert check_chain2(p3, 1, c4, 3).instance == "chain(graph(n=3,m=2)@1,graph(n=4,m=4)@3)"
        assert check_chain_n([(p3, 0, 2), (c4, 1, 1), (k4, 3, 0)]).instance == (
            "chain(graph(n=3,m=2)@0:2,graph(n=4,m=4)@1:1,graph(n=4,m=6)@3:0)"
        )
        assert check_chain_n([(c4, 2, 0)]).instance == "chain(graph(n=4,m=4)@2:0)"
        assert check_bouquet([(p3, 2), (c4, 0), (k4, 1)]).instance == (
            "bouquet(graph(n=3,m=2)@2,graph(n=4,m=4)@0,graph(n=4,m=6)@1)"
        )
        assert check_bouquet([(k4, 3)]).instance == "bouquet(graph(n=4,m=6)@3)"

    def test_given_labels(self):
        p3, c4 = self.P3, self.C4
        assert check_chain2(p3, 1, c4, 3, ("path(3)", "cycle(4)")).instance == "chain(path(3)@1,cycle(4)@3)"
        assert check_chain_n([(p3, 0, 2), (c4, 1, 1)], ["a", "b"]).instance == "chain(a@0:2,b@1:1)"
        assert check_bouquet([(p3, 2), (c4, 0)], ["a", "b"]).instance == "bouquet(a@2,b@0)"


class TestBouquetChecks:
    def test_ids_by_part_count(self):
        p = path_graph(3)
        assert check_bouquet([(p, 0)] * 2).theorem_id == "P_bouquet2"
        assert check_bouquet([(p, 0)] * 3).theorem_id == "T_bouquet3"
        assert check_bouquet([(p, 0)] * 4).theorem_id == "C_bouquet_n"
        assert check_bouquet([(p, 0)] * 5).theorem_id == "C_bouquet_n"
        assert check_bouquet([(p, 0)]).theorem_id == "C_bouquet_n"

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
        assert check_chain_sharp_lower().holds

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

    @pytest.mark.parametrize("cfg", [DEFAULT_CONFIG, SMALL_CONFIG], ids=["default", "small"])
    def test_config_echo_round_trips(self, cfg):
        assert config_from_dict(config_to_dict(cfg)) == cfg

    @pytest.mark.parametrize("record,changes", [
        (DEFAULT_CONFIG, {"guard": 0}),
        (DEFAULT_CONFIG.random, {"count": -1}),
        (DEFAULT_CONFIG.random, {"n_min": 13}),
        (DEFAULT_CONFIG.random, {"p_values": ("2",)}),
    ], ids=["guard", "count", "n_min_above_n_max", "p"])
    def test_replace_checks_as_construction_does(self, record, changes):
        with pytest.raises(ValueError) as built:
            type(record)(**{**record._asdict(), **changes})
        with pytest.raises(ValueError) as replaced:
            record._replace(**changes)
        assert str(replaced.value) == str(built.value)

    @pytest.mark.parametrize("record", [DEFAULT_CONFIG, DEFAULT_CONFIG.random, check_odot_sharp(2)],
                             ids=["HarnessConfig", "RandomGrid", "TheoremReport"])
    def test_records_are_immutable(self, record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], record[0])
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_report_without_rows_holds(self):
        report = theorems._report("T1", "empty", [])
        assert (report.lhs, report.relations, report.rhs, report.holds, report.witness) == ((), (), (), True, {})

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
        assert hashlib.sha256(doc.encode()).hexdigest() == DEFAULT_REPORT_SHA256

    def test_default_report_is_the_stdlib_encoding(self):
        reports, summary = run_harness()
        doc = {
            "config": config_to_dict(DEFAULT_CONFIG),
            "reports": [report_dict(r) for r in reports],
            "summary": summary,
        }
        assert report_document(reports, summary, DEFAULT_CONFIG) == (
            json.dumps(doc, sort_keys=True, indent=2) + "\n"
        )

    def test_default_config_selects_everything(self):
        assert set(DEFAULT_CONFIG.theorems) == set(ALL_THEOREM_IDS)

    @pytest.mark.parametrize("tid", ALL_THEOREM_IDS)
    def test_guard_plan_is_the_largest_order_solved(self, tid, monkeypatch):
        # run_harness's pre-flight is the only guard check of a harness
        # solve, so it must admit exactly the runs that solve within the
        # guard: at the largest order the check solves it runs, and one
        # below it is refused before any solve, by the plan naming the
        # check or, for checks of the family pool, by family_max_order
        solved = []
        for name in ("_sdom_cert", "_dom_cert"):
            cert = getattr(theorems, name)
            monkeypatch.setattr(theorems, name, lambda g, cert=cert: solved.append(g.n) or cert(g))
        # family_max_order sizes the pool and the closed forms; the other
        # checks draw neither, so it stays at 1, below every order they solve
        pooled = {"T1", "P_union"}.union(*theorems._VERTEX_IDS, (f.check_id for f in families.FAMILIES.values()))
        cfg = HarnessConfig(theorems=(tid,), family_max_order=6 if tid in pooled else 1, random=RandomGrid(count=0))
        assert run_harness(cfg)[1]["failed"] == 0
        largest = max(solved)
        assert run_harness(cfg._replace(guard=largest))[1]["failed"] == 0
        solved.clear()
        refused = rf"{tid} \(order {largest}\)|family_max_order 6 exceeds the size guard {largest - 1}"
        with pytest.raises(ValueError, match=refused):
            run_harness(cfg._replace(guard=largest - 1))
        assert solved == []

    def test_report_union_values(self):
        reports, _ = run_harness(
            HarnessConfig(theorems=("P_union",), family_max_order=6,
                          random=RandomGrid(count=0), union_pairs=3)
        )
        for r in reports:
            assert r.holds
            assert r.lhs[0] == sum(r.witness["part_values"])

    def test_sharpness_checks_draw_no_pool(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the random pool was drawn")

        monkeypatch.setattr(families, "gnp_random_graph", refuse)
        cfg = HarnessConfig(theorems=tuple(t for t in ALL_THEOREM_IDS if t.startswith("R_")), random=RandomGrid(count=3000))
        reports, summary = run_harness(cfg)
        assert reports and summary["failed"] == 0
        assert reports == run_harness(cfg._replace(random=RandomGrid(count=0)))[0]


VERTEX_IDS = ("P_odot_pendant", "T_odot", "T_Gv", "C_combined")
# the vertex ids plus one closed form with instances at order <= 6
MIXED_IDS = VERTEX_IDS + ("T2iv",)
# the random draws run n = 4..11, so the n <= 10 cut of the vertex pool bites
VERTEX_CONFIG = HarnessConfig(
    theorems=VERTEX_IDS,
    family_max_order=6,
    random=RandomGrid(count=8, n_min=4, n_max=11, seed=5),
)


@lru_cache(maxsize=None)
def _vertex_run(ids):
    return run_harness(VERTEX_CONFIG._replace(theorems=ids))[0]


class TestVertexHarness:
    def test_one_clearing_and_one_contraction_per_pair(self, monkeypatch):
        pool = family_pool(VERTEX_CONFIG.family_max_order) + random_pool(VERTEX_CONFIG.random)
        degrees = Counter(min(g.degree(v), 2) for _, g in pool if g.n <= 10 for v in range(g.n))
        assert degrees == {0: 6, 1: 43, 2: 109}
        calls = Counter()
        for name in ("odot", "contract_clique"):
            def spy(g, v, _name=name, _op=getattr(ops, name)):
                calls[_name] += 1
                return _op(g, v)
            monkeypatch.setattr(ops, name, spy)
        reports, summary = run_harness(VERTEX_CONFIG)
        assert summary["failed"] == 0
        assert calls == {"odot": degrees[1] + degrees[2], "contract_clique": degrees[2]}
        assert Counter(r.theorem_id for r in reports) == {
            "P_odot_pendant": degrees[1], "T_odot": degrees[2], "T_Gv": degrees[2], "C_combined": degrees[2],
        }
        # the pendant check alone visits only the pendant vertices
        calls.clear()
        run_harness(VERTEX_CONFIG._replace(theorems=("P_odot_pendant",)))
        assert calls == {"odot": degrees[1]}

    def test_each_check_group_runs_through_its_public_check(self, monkeypatch):
        # check_closed_forms runs once when a closed form is selected, and
        # check_vertex once per vertex whose degree class is selected: the
        # 43 pendant and 109 degree >= 2 vertices counted above
        calls = Counter()
        for name in ("check_closed_forms", "check_vertex"):
            def spy(*args, _name=name, _check=getattr(theorems, name)):
                calls[_name] += 1
                return _check(*args)
            monkeypatch.setattr(theorems, name, spy)
        run_harness(VERTEX_CONFIG)
        assert calls == {"check_vertex": 152}
        calls.clear()
        run_harness(VERTEX_CONFIG._replace(theorems=MIXED_IDS))
        assert calls == {"check_closed_forms": 1, "check_vertex": 152}
        calls.clear()
        run_harness(VERTEX_CONFIG._replace(theorems=("T2i", "T_Fn")))
        assert calls == {"check_closed_forms": 1}
        calls.clear()
        run_harness(VERTEX_CONFIG._replace(theorems=("P_union",)))
        assert calls == {}

    @pytest.mark.parametrize("tid", MIXED_IDS)
    def test_selecting_one_id_reports_only_its_rows(self, tid):
        alone = _vertex_run((tid,))
        assert alone and {r.theorem_id for r in alone} == {tid}
        assert alone == [r for r in _vertex_run(MIXED_IDS) if r.theorem_id == tid]


# The value types a report holds: dicts with str keys, lists, str, bool, int.
_report_values = st.recursive(
    st.booleans()
    | st.integers()
    | st.integers(min_value=-(10 ** 60), max_value=10 ** 60)
    | st.text()
    | st.text(st.characters(max_codepoint=0x1F)),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)


_numbers = st.integers(-50, 50) | st.fractions(max_denominator=6) | st.integers(min_value=2 ** 70)
# short keys mixing characters JSON escapes with plain ones, and ints next to bools
_witness_keys = st.text(st.sampled_from('%d"\\\x01\u00e9v'), max_size=3) | st.text(max_size=4)
_int_witnesses = st.dictionaries(_witness_keys, st.integers(-(2 ** 70), 2 ** 70) | st.booleans(), max_size=5)
_vertex_lists = st.lists(st.integers(0, 30), max_size=5)
# Every witness shape the harness writes, then any report value.
_witnesses = st.one_of(
    st.fixed_dictionaries({"v": st.integers(0, 9), "degree": st.integers(1, 9), "base_value": st.integers(1, 9)}),
    st.fixed_dictionaries({
        "v": st.integers(0, 9), "degree": st.integers(2, 9),
        "cleared_value": st.integers(1, 9), "contracted_value": st.integers(1, 9),
    }),
    st.just({}),
    st.fixed_dictionaries({
        "gamma_set": _vertex_lists,
        "gamma_sp": st.fixed_dictionaries({
            "set": _vertex_lists, "witnesses": st.dictionaries(st.integers(0, 30).map(str), st.integers(0, 30)),
        }),
    }),
    st.fixed_dictionaries({"part_values": _vertex_lists}),
    st.fixed_dictionaries({"part_values": _vertex_lists, "merged": _vertex_lists}),
    st.fixed_dictionaries({"part_values": _vertex_lists, "hub": st.integers(0, 30)}),
    st.fixed_dictionaries(
        {"part_values": _vertex_lists, "merged_vertex": st.integers(0, 30)},
        optional={"proof_case": st.text() | st.dictionaries(st.text(max_size=8), _vertex_lists | st.booleans())},
    ),
    st.fixed_dictionaries({"isomorphic_to": st.text()}),
    _int_witnesses,
    st.dictionaries(st.text(max_size=4), _report_values, max_size=4),
)
_reports = st.builds(
    theorems.TheoremReport,
    theorem_id=st.sampled_from(ALL_THEOREM_IDS) | st.text(),
    instance=st.text(),
    lhs=st.lists(_numbers, max_size=3).map(tuple),
    relations=st.lists(st.sampled_from(["<=", ">=", "=="]) | st.text(max_size=3), max_size=3).map(tuple),
    rhs=st.lists(_numbers, max_size=3).map(tuple),
    holds=st.booleans(),
    witness=_witnesses,
)


def _stdlib_document(reports, summary, cfg):
    doc = {"config": config_to_dict(cfg), "reports": [report_dict(r) for r in reports], "summary": summary}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class TestReportDocument:
    """report_document equals the stdlib encoding of the report_dict
    document, and holds one report's object at a time."""

    @given(st.lists(_reports, max_size=6), st.dictionaries(st.text(max_size=4), _report_values, max_size=3))
    def test_equals_the_stdlib_encoder(self, reports, summary):
        assert report_document(reports, summary, SMALL_CONFIG) == _stdlib_document(reports, summary, SMALL_CONFIG)

    @pytest.mark.parametrize("witness", [
        {}, {"%": 1}, {"%d": 1, "v": 2}, {"%%": -3}, {'"': 4, "\\": 5, "\x01": 6, "\u00e9": 7},
        {"v": True}, {"v": 1, "w": False}, {"big": 2 ** 80, "neg": -(2 ** 80)}, {"v": 1, "w": [2]},
    ], ids=repr)
    def test_witness_edge_cases(self, witness):
        reports = [check_odot_sharp(2)._replace(witness=witness, lhs=(Fraction(3, 2), 2), rhs=(Fraction(4, 2), 0))]
        assert report_document(reports, {}, SMALL_CONFIG) == _stdlib_document(reports, {}, SMALL_CONFIG)

    def test_builds_one_row_at_a_time(self):
        # on the default run the row texts and the document peak at about
        # 3.4 times the text; the document built as one object, at about 4.5
        reports, summary = run_harness()
        tracemalloc.start()
        try:
            text = report_document(reports, summary, DEFAULT_CONFIG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * len(text)

    def test_empty_report_list(self):
        summary = {"total": 0, "failed": 0, "per_theorem": {}}
        text = report_document([], summary, DEFAULT_CONFIG)
        assert text == _stdlib_document([], summary, DEFAULT_CONFIG) and '"reports": []' in text

    @pytest.mark.parametrize("changes", [
        {"lhs": (1.5,)}, {"rhs": (None,)}, {"lhs": (1, Fraction(1, 2), 0.5)},
        {"witness": {"v": 1.5}}, {"witness": {"v": None}}, {"witness": {"v": 1, "degree": 0.0}},
        {"witness": {1: 2}}, {"witness": {"set": (1, 2)}},
        {"holds": None}, {"holds": 0.5}, {"holds": Fraction(1, 2)}, {"holds": (True,)},
        {"theorem_id": None}, {"instance": 1.0},
    ], ids=repr)
    def test_refuses_types_a_report_never_holds(self, changes):
        report = check_odot_sharp(2)._replace(**changes)
        with pytest.raises(TypeError):
            report_document([report], {}, SMALL_CONFIG)


def test_searches_leave_nothing_for_the_cyclic_collector():
    """Each recursive search frees its own closure, so with the collector
    off, the solvers, the isomorphism test and a default harness run leave
    no cycle behind."""
    theorems._sdom_cert.cache_clear()  # so the harness solves again
    theorems._dom_cert.cache_clear()
    gc.collect()
    gc.disable()
    try:
        g = gnp_random_graph(16, Fraction(1, 4), 5)  # a component of 12 or more takes both passes
        solver.gamma_sp(g)
        solver.gamma(g)
        triangles = disjoint_union(complete_graph(3), complete_graph(3)).graph
        assert not is_isomorphic(cycle_graph(6), triangles)  # both 2-regular: refinement leaves it to the search
        assert is_isomorphic(star_graph(4), star_graph(4))
        theorems.run_harness()
        assert gc.collect() == 0
    finally:
        gc.enable()

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import conftest as brute
from conftest import gamma_sp_bruteforce, graphs
from superdom import (
    Graph,
    SizeGuardError,
    VertexSet,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    friendship_graph,
    gamma,
    gamma_sp,
    gnp_random_graph,
    is_dominating,
    is_super_dominating,
    path_graph,
    star_graph,
    super_domination_witnesses,
)
from superdom import solver
from superdom.solver import first_violation

SRC = Path(__file__).resolve().parents[1] / "src"


def solve_under_optimisation(stand_in, call):
    """stderr of a ``python -O`` run that prints ``call`` after the line
    ``stand_in`` has replaced a solver search; the run must fail before
    printing anything."""
    script = f"from superdom import path_graph, solver\n{stand_in}\nprint({call})\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 1 and proc.stdout == ""
    return proc.stderr


def nodes_entered(g, solve=gamma_sp):
    """The number of search nodes ``solve(g)`` enters."""
    entered = 0

    def count(frame, event, arg):
        nonlocal entered
        if event == "call" and frame.f_code.co_name == "extend" and frame.f_globals is vars(solver):
            entered += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        solve(g)
    finally:
        sys.setprofile(previous)
    return entered


class TestIsDominating:
    def test_path_middle(self):
        assert is_dominating(path_graph(3), [1])

    def test_path_endpoint(self):
        assert not is_dominating(path_graph(3), [0])

    def test_edgeless_full_set(self):
        assert is_dominating(Graph(3), [0, 1, 2])

    def test_mismatched_owner(self):
        with pytest.raises(ValueError):
            is_dominating(path_graph(3), VertexSet(4, [0]))

    @given(graphs())
    def test_agrees_with_plain_sets(self, g):
        s = set(range(0, g.n, 2))
        assert is_dominating(g, s) == brute.plain_is_dominating(g, s)


class TestIsSuperDominating:
    def test_cycle4_adjacent_pair(self):
        wit = super_domination_witnesses(cycle_graph(4), [0, 1])
        assert wit == {2: 1, 3: 0}

    def test_triangle_single_vertex(self):
        assert not is_super_dominating(complete_graph(3), [0])

    def test_full_set_vacuous(self):
        g = friendship_graph(2)
        assert super_domination_witnesses(g, range(g.n)) == {}

    def test_first_violation_messages(self):
        assert first_violation(complete_graph(3), [0]) == "u=1: no witness"
        assert first_violation(Graph(2), [0]) == "u=1: not dominated"
        assert first_violation(cycle_graph(4), [0, 1]) is None

    @given(graphs())
    def test_agrees_with_plain_sets(self, g):
        for s in ({0}, set(range(0, g.n, 2)), set(range(g.n))):
            s = {v for v in s if v < g.n}
            assert is_super_dominating(g, s) == brute.plain_is_super_dominating(g, s)


class TestGamma:
    def test_complete(self):
        assert gamma(complete_graph(9)).value == 1

    def test_path5_matches_bruteforce(self):
        cert = gamma(path_graph(5))
        assert cert.value == 2 == brute.plain_min_dom(path_graph(5))
        assert list(cert.vertices) == [0, 3]  # lexicographically smallest of size 2

    def test_star_center(self):
        cert = gamma(star_graph(6))
        assert cert.value == 1 and list(cert.vertices) == [0]

    def test_edgeless(self):
        assert gamma(Graph(4)).value == 4

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            gamma(Graph(30))

    @given(graphs())
    @settings(deadline=None)
    def test_certificates_valid_and_minimum(self, g):
        cert = gamma(g)
        assert is_dominating(g, cert.vertices)
        assert cert.value == brute.plain_min_dom(g)
        assert list(cert.vertices) == brute.plain_lexmin_dom(g)

    @pytest.mark.parametrize("p", [Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)])
    def test_lexicographic_tie_break_on_gnp(self, p):
        for n in range(1, 15):
            for seed in range(3):
                g = gnp_random_graph(n, p, seed)
                assert list(gamma(g).vertices) == brute.plain_lexmin_dom(g), (n, seed)

    def test_paths_and_cycles_closed_form(self):
        for n in range(3, 61):
            expected = -(-n // 3)
            assert gamma(path_graph(n), guard=64).value == expected, n
            assert gamma(cycle_graph(n), guard=64).value == expected, n

    @pytest.mark.parametrize("seed,nodes", [(0, 12037), (5, 1351)])
    def test_cuts_bound_the_search(self, seed, nodes):
        # a weakened cut still returns every certificate unchanged, so only
        # the number of search nodes entered can show it (without the
        # counting cut these graphs take 22445 and 6156)
        assert nodes_entered(gnp_random_graph(24, Fraction(1, 8), seed), gamma) <= nodes

    def test_invalid_search_result_raises(self, monkeypatch):
        monkeypatch.setattr(solver, "_min_dominating", lambda adj, comp: 0)
        with pytest.raises(RuntimeError, match="does not dominate"):
            gamma(path_graph(3))

    def test_invalid_search_result_raises_without_asserts(self):
        stderr = solve_under_optimisation("solver._min_dominating = lambda adj, comp: 0", "solver.gamma(path_graph(3))")
        assert "RuntimeError: domination search returned a set that does not dominate" in stderr


class TestGammaSp:
    @pytest.mark.parametrize(
        "g,value",
        [
            (path_graph(5), 3),
            (cycle_graph(6), 4),
            (complete_graph(5), 4),
            (complete_bipartite_graph(2, 3), 3),
            (star_graph(7), 7),
            (friendship_graph(3), 4),
            (Graph(1), 1),
            (Graph(4), 4),
            (path_graph(2), 1),
        ],
    )
    def test_known_values(self, g, value):
        assert gamma_sp(g).value == value

    def test_certificate_is_super_dominating(self):
        g = gnp_random_graph(10, Fraction(1, 2), 5)
        cert = gamma_sp(g)
        assert super_domination_witnesses(g, cert.vertices) is not None

    def test_witnesses_are_valid_and_smallest(self):
        g = cycle_graph(6)
        cert = gamma_sp(g)
        outside = cert.vertices.complement()
        for u, v in cert.witnesses.items():
            assert v in cert.vertices
            assert g.adj[v] & outside.mask == 1 << u
            smaller = [
                w
                for w in g.neighbors(u)
                if w < v and w in cert.vertices and g.adj[w] & outside.mask == 1 << u
            ]
            assert not smaller

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            gamma_sp(Graph(25))
        assert gamma_sp(Graph(25, [(0, 1)]), guard=25).value == 24

    def test_zero_vertices_rejected(self):
        with pytest.raises(ValueError):
            gamma_sp(Graph(0))

    def test_lexicographic_tie_break(self):
        for g in [
            path_graph(6),
            cycle_graph(5),
            gnp_random_graph(7, Fraction(1, 2), 11),
            gnp_random_graph(8, Fraction(1, 4), 3),
            disjoint_union(path_graph(3), path_graph(4)).graph,
        ]:
            cert = gamma_sp(g)
            assert list(cert.vertices.complement()) == brute.plain_lexmin_max_complement(g)

    @staticmethod
    def assert_matches_downward_search(g):
        cert = gamma_sp(g)
        assert list(cert.vertices.complement()) == brute.plain_lexmax_complement(g)
        assert cert.witnesses == brute.plain_smallest_witnesses(g, cert.vertices)

    @pytest.mark.parametrize("p", [Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
    def test_certificates_match_downward_search_on_gnp(self, p):
        for n in range(1, 17):
            for seed in range(3):
                self.assert_matches_downward_search(gnp_random_graph(n, p, seed))

    @pytest.mark.parametrize("parts", [
        [Graph(1), complete_graph(2)],
        [complete_graph(2), Graph(3), path_graph(5)],
        [Graph(1), cycle_graph(5), complete_graph(2), Graph(1)],
        [gnp_random_graph(8, Fraction(1, 2), 1), Graph(2), complete_graph(2)],
        [complete_graph(2), complete_graph(2), star_graph(4), Graph(1)],
    ], ids=["K1+K2", "K2+E3+P5", "K1+C5+K2+K1", "gnp8+E2+K2", "K2+K2+S4+K1"])
    def test_certificates_match_downward_search_on_unions(self, parts):
        g = parts[0]
        for part in parts[1:]:
            g = disjoint_union(g, part).graph
        self.assert_matches_downward_search(g)

    @pytest.mark.parametrize("n,p,seed", [
        (22, Fraction(1, 8), 0),
        (22, Fraction(1, 2), 1),
        (23, Fraction(1, 8), 2),
        (24, Fraction(3, 4), 0),
        (22, Fraction(1, 8), 4),
        (22, Fraction(1, 4), 7),
        (23, Fraction(1, 8), 6),
        (23, Fraction(1, 4), 5),
        (24, Fraction(1, 8), 5),
        (24, Fraction(1, 4), 5),
    ])
    def test_certificates_match_downward_search_above_oracle_range(self, n, p, seed):
        self.assert_matches_downward_search(gnp_random_graph(n, p, seed))

    @pytest.mark.parametrize("n,p,seed,nodes", [
        (16, Fraction(1, 4), 0, 258),
        (16, Fraction(1, 8), 1, 135),
    ])
    def test_zero_pool_cuts_bound_the_search(self, n, p, seed, nodes):
        # a weakened cut still returns every certificate unchanged, so only
        # the number of search nodes entered can show it (without the two
        # zero-pool cuts these graphs take 354 and 245; both passes count)
        assert nodes_entered(gnp_random_graph(n, p, seed)) <= nodes

    def test_sole_witness_cut_bounds_the_search(self):
        # without dropping the neighbours of a member's last witness from
        # the candidates this graph takes 1412 nodes: under this bound, the
        # one-pass search's count, but over the tighter pin below
        assert nodes_entered(gnp_random_graph(24, Fraction(1, 4), 5)) <= 3260

    def test_two_passes_and_pair_cut_bound_the_search(self):
        # the one-pass search takes 3260 nodes here, 2726 with the pair cut
        # alone, 1722 with the two passes alone, 2746 when the value pass
        # keeps the graph's labels, and 1266 when the lex pass starts from
        # no floor
        assert nodes_entered(gnp_random_graph(24, Fraction(1, 4), 5)) <= 1265

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_certificates_match_downward_search_around_two_pass_order(self, seed):
        orders = set()
        for n in range(10, 17):
            for p in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)):
                g = gnp_random_graph(n, p, seed)
                orders.update(len(comp) for comp in g.components())
                self.assert_matches_downward_search(g)
        assert {solver._TWO_PASS_ORDER - 1, solver._TWO_PASS_ORDER} <= orders

    @pytest.mark.parametrize("p", [Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)])
    def test_two_passes_match_one_pass_in_label_order(self, p):
        for n in range(12, 25):
            g = gnp_random_graph(n, p, n)
            one_pass = 0
            for comp in g.components():
                one_pass |= solver._best_complement(g.adj, comp)
            assert gamma_sp(g).vertices.complement().mask == one_pass

    @pytest.mark.parametrize("n,p,seed", [(12, Fraction(1, 4), 0), (16, Fraction(1, 8), 1), (20, Fraction(1, 2), 2)])
    def test_floor_and_cap_give_the_lex_first_maximum(self, n, p, seed):
        g = gnp_random_graph(n, p, seed)
        for comp in g.components():
            best = solver._best_complement(g.adj, comp)
            value = best.bit_count()
            assert solver._best_complement(g.adj, comp, value - 1, value) == best
            # nothing beats a floor at the value, so no set comes back
            assert solver._best_complement(g.adj, comp, value, value + 1) == 0

    def test_lost_value_raises(self, monkeypatch):
        search = solver._best_complement
        monkeypatch.setattr(
            solver, "_best_complement", lambda adj, comp, floor=0, cap=None: 0 if cap else search(adj, comp)
        )
        with pytest.raises(RuntimeError, match="lost the value 6"):
            gamma_sp(path_graph(12))

    def test_lost_value_raises_without_asserts(self):
        stderr = solve_under_optimisation(
            "search = solver._best_complement\n"
            "solver._best_complement = lambda adj, comp, floor=0, cap=None: 0 if cap else search(adj, comp)",
            "solver.gamma_sp(path_graph(12))",
        )
        assert "RuntimeError: super domination search lost the value 6" in stderr

    def test_certificates_match_oracles_on_graph_atlas(self):
        # every graph on 1..7 vertices, up to isomorphism
        nx = pytest.importorskip("networkx")
        atlas = [Graph(h.number_of_nodes(), list(h.edges())) for h in nx.graph_atlas_g()[1:]]
        assert len(atlas) == 1252
        for g in atlas:
            assert gamma_sp(g).value == gamma_sp_bruteforce(g), g.edges()
            self.assert_matches_downward_search(g)

    def test_component_decomposition_additivity(self):
        g1 = cycle_graph(5)
        g2 = gnp_random_graph(6, Fraction(1, 2), 9)
        combined = disjoint_union(g1, g2).graph
        assert gamma_sp(combined).value == gamma_sp(g1).value + gamma_sp(g2).value
        assert gamma_sp(combined).value == gamma_sp_bruteforce(combined)

    def test_invalid_search_result_raises(self, monkeypatch):
        monkeypatch.setattr(solver, "_best_complement", lambda adj, comp: sum(1 << v for v in comp))
        with pytest.raises(RuntimeError, match="invalid complement"):
            gamma_sp(path_graph(3))

    def test_invalid_search_result_raises_without_asserts(self):
        stderr = solve_under_optimisation(
            "solver._best_complement = lambda adj, comp: sum(1 << v for v in comp)", "solver.gamma_sp(path_graph(3))"
        )
        assert "RuntimeError: super domination search returned an invalid complement" in stderr

    @given(graphs())
    @settings(deadline=None)
    def test_matches_plain_set_oracle(self, g):
        assert gamma_sp(g).value == brute.plain_min_super_dom(g)

    @given(graphs(max_n=7))
    @settings(deadline=None, max_examples=40)
    def test_monotone_certificate_smoke(self, g):
        cert = gamma_sp(g)
        for u in cert.vertices.complement():
            grown = set(cert.vertices) | {u}
            wit = super_domination_witnesses(g, grown)
            if wit is not None:
                outside = VertexSet(g.n, grown).complement()
                for uu, vv in wit.items():
                    assert g.adj[vv] & outside.mask == 1 << uu


@st.composite
def relabellings(draw, max_n=10):
    """A graph, a vertex permutation pi, and the graph with u relabelled pi[u]."""
    g = draw(graphs(max_n=max_n))
    pi = draw(st.permutations(range(g.n)))
    return g, pi, Graph(g.n, [(pi[u], pi[v]) for u, v in g.edges()])


class TestRelabelling:
    """Metamorphic checks: the numbers are graph invariants, so relabelling
    the vertices must not change them, and a relabelled certificate must
    certify the relabelled graph."""

    @given(relabellings())
    @settings(deadline=None)
    def test_values_unchanged(self, case):
        g, _, h = case
        assert gamma_sp(h).value == gamma_sp(g).value
        assert gamma(h).value == gamma(g).value

    @given(relabellings())
    @settings(deadline=None)
    def test_relabelled_certificates_stay_valid(self, case):
        g, pi, h = case
        assert super_domination_witnesses(h, [pi[v] for v in gamma_sp(g).vertices]) is not None
        assert is_dominating(h, [pi[v] for v in gamma(g).vertices])


class TestUnion:
    """Metamorphic check: components are solved apart, so the certificates
    of G ⊔ H are G's joined with H's shifted by G.n."""

    @given(graphs(), graphs())
    @settings(deadline=None)
    def test_certificates_join(self, g, h):
        joined = disjoint_union(g, h).graph
        cg, ch, cu = gamma_sp(g), gamma_sp(h), gamma_sp(joined)
        assert list(cu.vertices) == list(cg.vertices) + [g.n + v for v in ch.vertices]
        assert cu.witnesses == {**cg.witnesses, **{g.n + u: g.n + v for u, v in ch.witnesses.items()}}
        assert list(gamma(joined).vertices) == list(gamma(g).vertices) + [g.n + v for v in gamma(h).vertices]


def _certificates(g):
    sp, dom = gamma_sp(g), gamma(g)
    return list(sp.vertices), sp.witnesses, list(dom.vertices)


def _oracle_certificates(g):
    outside = brute.plain_lexmin_max_complement(g)
    inside = [v for v in range(g.n) if v not in outside]
    return inside, brute.plain_smallest_witnesses(g, inside), brute.plain_lexmin_dom(g)


class TestInPlace:
    """Each component is searched on the graph's own masks: neither solver
    builds a graph, whether its input is connected or not."""

    @pytest.mark.parametrize("g", [
        Graph(1), path_graph(7), cycle_graph(6), friendship_graph(3),
        complete_bipartite_graph(2, 3), gnp_random_graph(9, Fraction(1, 2), seed=4),
        Graph(3), disjoint_union(disjoint_union(path_graph(4), cycle_graph(5)).graph, Graph(1)).graph,
        disjoint_union(Graph(2), friendship_graph(1)).graph,
        Graph(7, [(0, 2), (2, 5), (1, 4), (4, 6)]),  # two P_3 with interleaved labels, and K_1
    ], ids=repr)
    def test_solvers_build_no_graph(self, g, monkeypatch):
        expected = _oracle_certificates(g)
        split = []
        components = Graph.components

        def refuse(*args, **kwargs):
            raise AssertionError("a solver built a graph")

        monkeypatch.setattr(Graph, "__init__", refuse)
        monkeypatch.setattr(Graph, "_of", classmethod(refuse))
        monkeypatch.setattr(Graph, "components", lambda self: split.append(self) or components(self))
        assert _certificates(g) == expected
        assert split == [g, g]  # one split per solve, by each solver


class TestBruteforce:
    def test_examples(self):
        assert gamma_sp_bruteforce(cycle_graph(4)) == 2
        assert gamma_sp_bruteforce(path_graph(2)) == 1

    def test_hard_guard(self):
        with pytest.raises(SizeGuardError):
            gamma_sp_bruteforce(Graph(17))

    def test_agrees_on_family_grid(self):
        grid = [path_graph(n) for n in range(1, 11)]
        grid += [cycle_graph(n) for n in range(3, 11)]
        grid += [complete_graph(n) for n in range(1, 9)]
        grid += [star_graph(n) for n in range(1, 9)]
        grid += [friendship_graph(n) for n in range(1, 5)]
        for g in grid:
            assert gamma_sp(g).value == gamma_sp_bruteforce(g)

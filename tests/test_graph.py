import itertools
import random
import re

import pytest
from hypothesis import given

from conftest import graphs
from superdom import (
    EdgeListError,
    Graph,
    SizeGuardError,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    friendship_graph,
    is_isomorphic,
    path_graph,
    star_graph,
    read_edge_list,
    write_edge_list,
)
from superdom.graph import MAX_ORDER


class TestConstruction:
    def test_path_adjacency(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.n == 3 and g.m == 2
        assert list(g.neighbors(1)) == [0, 2]

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 0)])

    def test_order_ceiling(self):
        assert Graph(MAX_ORDER).n == MAX_ORDER
        with pytest.raises(ValueError, match="maximum order"):
            Graph(10**12)

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            Graph(2, [(0, 2)])

    def test_duplicate_edges_collapse(self):
        g = Graph(2, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            Graph(-1)

    @given(graphs())
    def test_symmetry_and_degree_sum(self, g):
        for v in range(g.n):
            for u in g.neighbors(v):
                assert v in g.neighbors(u)
            assert v not in g.neighbors(v)
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m

    def test_value_semantics(self):
        assert Graph(3, [(0, 1)]) == Graph(3, [(1, 0)])
        assert hash(Graph(3, [(0, 1)])) == hash(Graph(3, [(0, 1)]))
        assert Graph(3, [(0, 1)]) != Graph(3, [(0, 2)])


class TestQueries:
    def test_neighbors_examples(self):
        assert set(path_graph(3).neighbors(1)) == {0, 2}
        assert set(complete_graph(4).neighbors(0)) == {1, 2, 3}
        assert set(star_graph(5).neighbors(0)) == {1, 2, 3, 4, 5}

    @given(graphs())
    def test_neighbors_are_an_ascending_tuple(self, g):
        for v in range(g.n):
            assert g.neighbors(v) == tuple(u for u in range(g.n) if g.adj[v] >> u & 1)

    def test_degree_examples(self):
        assert friendship_graph(3).degree(0) == 6
        assert path_graph(2).degree(0) == 1
        assert complete_graph(6).degree(3) == 5

    def test_out_of_range_queries(self):
        g = path_graph(3)
        for bad in (-1, 3):
            with pytest.raises(IndexError):
                g.neighbors(bad)
            with pytest.raises(IndexError):
                g.degree(bad)

    def test_components(self):
        g = Graph(5, [(0, 2), (1, 4)])
        assert g.components() == [(0, 2), (1, 4), (3,)]
        assert not g.is_connected()
        assert path_graph(4).is_connected()

    @pytest.mark.parametrize("seed", range(4))
    def test_edges_match_a_pair_scan(self, seed):
        rng = random.Random(seed)
        for n in (1, 2, 9, 33, 64, 70):
            for density in (0.0, 0.1, 0.5, 1.0):
                g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density])
                scan = [(u, v) for u in range(n) for v in range(u + 1, n) if g.adj[u] >> v & 1]
                assert g.edges() == scan and len(scan) == g.m


class TestEdgeList:
    def test_parse_path(self):
        assert read_edge_list("3 2\n0 1\n1 2") == path_graph(3)

    def test_parse_single_vertex(self):
        g = read_edge_list("1 0")
        assert g.n == 1 and g.m == 0

    def test_self_loop(self):
        with pytest.raises(EdgeListError, match="self-loop"):
            read_edge_list("2 1\n0 0")

    def test_duplicate_edge_either_orientation(self):
        with pytest.raises(EdgeListError, match="duplicate"):
            read_edge_list("3 2\n0 1\n1 0")

    def test_malformed_header(self):
        with pytest.raises(EdgeListError):
            read_edge_list("3\n0 1")
        with pytest.raises(EdgeListError):
            read_edge_list("a b")

    def test_count_mismatch(self):
        with pytest.raises(EdgeListError):
            read_edge_list("3 2\n0 1")

    def test_index_out_of_range(self):
        with pytest.raises(EdgeListError):
            read_edge_list("2 1\n0 5")

    @given(graphs(max_n=10))
    def test_round_trip(self, g):
        assert read_edge_list(write_edge_list(g)) == g

    def test_guard_refuses_the_header_order(self):
        assert read_edge_list("3 2\n0 1\n1 2", guard=3) == path_graph(3)
        with pytest.raises(SizeGuardError, match="^scan: n=1000000000000 exceeds the size guard of 24$"):
            read_edge_list("1000000000000 0", guard=24, what="scan")

    def test_guard_comes_after_the_body_checks(self):
        with pytest.raises(EdgeListError, match="self-loop"):
            read_edge_list("30 1\n0 0", guard=24, what="scan")

    @pytest.mark.parametrize("text, line", [
        ("12 1\n1_0 2\n", "'1_0 2'"),  # int() would read the edge (10, 2)
        ("3 1\n+1 2\n", "'+1 2'"),
        ("3 1\n1 \u0662\n", "'1 \u0662'"),  # an Arabic-Indic two, which int() also takes
        ("1_2 0\n", "'1_2 0'"),  # int() would read 12 vertices
        ("+3 0\n", "'+3 0'"),
        ("-1 0\n", "'-1 0'"),
    ], ids=["underscore", "plus", "non-ascii-digit", "header-underscore", "header-plus", "header-minus"])
    def test_numbers_are_unsigned_decimal_digits(self, text, line):
        with pytest.raises(EdgeListError, match=f"^malformed (header|edge line) {re.escape(line)}"):
            read_edge_list(text)

    # the characters str.splitlines() and str.split() also break at
    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e"], ids=repr)
    @pytest.mark.parametrize("text, number", [
        ("3{c}1\n0 1\n", 1), ("3 1\n0{c}1\n", 2), ("3 1{c}0 1\n", 1),
    ], ids=["header", "edge", "instead-of-newline"])
    def test_control_characters_are_refused_naming_the_line(self, char, text, number):
        with pytest.raises(EdgeListError, match=f"^line {number}: control character {re.escape(repr(char))}$"):
            read_edge_list(text.format(c=char))

    @pytest.mark.parametrize("text, number, char", [
        ("3 1\n0 1\x00\n", 2, "\x00"),
        ("3 1\n0 1\x1f\n", 2, "\x1f"),
        ("3 1\x7f\n0 1\n", 1, "\x7f"),
        ("3 1\r0 1\r\n", 1, "\r"),  # a \r not ending its line
        ("3 1\n0 1\r\r\n", 2, "\r"),
        ("3 1\n0\x851\n", 2, "\x85"),  # not ASCII, so only from the API
    ], ids=["nul", "unit-separator", "delete", "bare-cr", "double-cr", "next-line"])
    def test_other_control_characters_are_refused(self, text, number, char):
        with pytest.raises(EdgeListError, match=f"^line {number}: control character {re.escape(repr(char))}$"):
            read_edge_list(text)

    def test_line_ends_and_separators(self):
        # \n or \r\n ends a line, spaces and tabs separate, blank lines are skipped
        assert read_edge_list("3 2\r\n\t0\t 1 \r\n \t\r\n\n1  2\r\n") == path_graph(3)


class TestIsomorphism:
    def test_standard_identities(self):
        assert is_isomorphic(cycle_graph(4), complete_bipartite_graph(2, 2))
        assert not is_isomorphic(path_graph(4), star_graph(3))
        assert is_isomorphic(friendship_graph(1), complete_graph(3))

    def test_same_degree_sequence_not_isomorphic(self):
        # both 2-regular on 6 vertices
        two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert not is_isomorphic(cycle_graph(6), two_triangles)

    def test_atlas_pairs_and_relabellings(self):
        # the atlas lists each graph on <= 6 vertices once up to isomorphism,
        # so every same-order pair is non-isomorphic, degree multisets
        # equal or not, and each graph matches a shuffled copy of itself
        nx = pytest.importorskip("networkx")
        atlas = [Graph(h.number_of_nodes(), list(h.edges())) for h in nx.graph_atlas_g() if h.number_of_nodes() <= 6]
        pairs = [(g, h) for g, h in itertools.combinations(atlas, 2) if g.n == h.n]
        assert len(pairs) == 12713
        assert not any(is_isomorphic(g, h) for g, h in pairs)
        for seed, g in enumerate(atlas):
            perm = list(range(g.n))
            random.Random(seed).shuffle(perm)
            assert is_isomorphic(g, Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()]))

    def test_relabeled_graphs(self):
        g = friendship_graph(3)
        perm = [3, 5, 0, 6, 1, 4, 2]
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert is_isomorphic(g, h)

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            is_isomorphic(complete_graph(13), complete_graph(13))
        assert is_isomorphic(complete_graph(13), complete_graph(13), max_n=13)

    def test_equivalence_relation_spot_checks(self):
        pool = [path_graph(4), cycle_graph(4), star_graph(3), complete_graph(4)]
        for g in pool:
            assert is_isomorphic(g, g)
        for g in pool:
            for h in pool:
                assert is_isomorphic(g, h) == is_isomorphic(h, g)
        # transitivity across three relabelings of one graph
        base = cycle_graph(5)
        a = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 0), (0, 1)])
        b = Graph(5, [((u + 2) % 5, (v + 2) % 5) for u, v in base.edges()])
        assert is_isomorphic(base, a) and is_isomorphic(a, b) and is_isomorphic(base, b)

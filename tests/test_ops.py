import tracemalloc

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import (
    edge_list_bouquet,
    edge_list_chain,
    edge_list_contract_clique,
    edge_list_disjoint_union,
    edge_list_odot,
    graphs,
)
from superdom import (
    Graph,
    bouquet,
    chain,
    complete_graph,
    contract_clique,
    disjoint_union,
    friendship_graph,
    gamma_sp,
    is_isomorphic,
    odot,
    path_graph,
    cycle_graph,
    star_graph,
)
from superdom.graph import MAX_ORDER


class TestOdot:
    @pytest.mark.parametrize("k", range(1, 6))
    def test_friendship_center_becomes_star(self, k):
        assert odot(friendship_graph(k), 0) == star_graph(2 * k)

    def test_pendant_is_identity(self):
        g = path_graph(3)
        assert odot(g, 0) == g

    def test_triangle_becomes_path(self):
        assert odot(complete_graph(3), 1) == path_graph(3)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            odot(path_graph(3), 5)

    @given(graphs(), st.data())
    def test_vertex_count_and_edge_drop(self, g, data):
        v = data.draw(st.integers(min_value=0, max_value=g.n - 1))
        inside = sum(
            1 for a, b in g.edges() if (g.adj[v] >> a) & 1 and (g.adj[v] >> b) & 1
        )
        cleared = odot(g, v)
        assert cleared.n == g.n
        assert cleared.m == g.m - inside
        # edges at v survive
        assert cleared.adj[v] == g.adj[v]

    @given(graphs(), st.data())
    def test_idempotent(self, g, data):
        v = data.draw(st.integers(min_value=0, max_value=g.n - 1))
        once = odot(g, v)
        assert odot(once, v) == once


class TestContract:
    def test_path_middle(self):
        assert contract_clique(path_graph(3), 1) == complete_graph(2)

    def test_cycle4(self):
        assert contract_clique(cycle_graph(4), 0) == complete_graph(3)

    def test_star_center(self):
        assert contract_clique(star_graph(3), 0) == complete_graph(3)

    def test_pendant_degenerates_to_deletion(self):
        g = path_graph(4)
        assert contract_clique(g, 3) == path_graph(3)

    @given(graphs(min_n=2), st.data())
    def test_vertex_count(self, g, data):
        v = data.draw(st.integers(min_value=0, max_value=g.n - 1))
        assert contract_clique(g, v).n == g.n - 1

    def test_neighbors_form_clique(self):
        g = star_graph(5)
        h = contract_clique(g, 0)
        assert h == complete_graph(5)


class TestUnion:
    def test_two_singletons(self):
        res = disjoint_union(Graph(1), Graph(1))
        assert res.graph == Graph(2)
        assert res.vertex_maps == ((0,), (1,))
        assert res.merged == ()

    def test_counts_and_components(self):
        res = disjoint_union(path_graph(3), cycle_graph(3))
        assert res.graph.n == 6 and res.graph.m == 5
        assert len(res.graph.components()) == 2

    def test_additivity_example(self):
        res = disjoint_union(path_graph(3), path_graph(3))
        assert gamma_sp(res.graph).value == 4


def assert_rebuilds(r: Graph) -> None:
    """``r`` is what the validating constructor builds from its own edges:
    symmetric, loop-free, and with the right edge count."""
    rebuilt = Graph(r.n, r.edges())
    assert r == rebuilt and r.m == rebuilt.m


class TestMaskSurgeries:
    """The mask surgeries equal the edge-list constructions, at every vertex."""

    @given(graphs(max_n=10))
    def test_odot(self, g):
        for v in range(g.n):
            r = odot(g, v)
            assert r == edge_list_odot(g, v)
            assert_rebuilds(r)

    @given(graphs(max_n=10))
    def test_contract_clique(self, g):
        for v in range(g.n):
            r = contract_clique(g, v)
            assert r == edge_list_contract_clique(g, v)
            assert_rebuilds(r)

    @given(graphs(max_n=10), graphs(max_n=10))
    def test_disjoint_union(self, g, h):
        r = disjoint_union(g, h).graph
        assert r == edge_list_disjoint_union(g, h)
        assert_rebuilds(r)

    def test_empty_operands(self):
        assert disjoint_union(Graph(0), path_graph(3)).graph == path_graph(3)
        assert disjoint_union(path_graph(3), Graph(0)).graph == path_graph(3)
        assert contract_clique(Graph(1), 0) == Graph(0)


@st.composite
def connected_graphs(draw, max_n=6):
    """A connected graph on 1..max_n vertices: a random spanning tree under
    a random labelling, plus random extra edges."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    label = draw(st.permutations(range(n)))
    edges = [(label[draw(st.integers(min_value=0, max_value=v - 1))], label[v]) for v in range(1, n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        edges += draw(st.lists(st.sampled_from(pairs)))
    return Graph(n, edges)


def attach_vertices(g: Graph):
    """Either end of ``g``'s labels, or any vertex."""
    return st.sampled_from((0, g.n - 1)) | st.integers(min_value=0, max_value=g.n - 1)


@st.composite
def chain_specs(draw):
    """One to four (graph, x, y) parts, x == y in about half of them."""
    spec = []
    for g in draw(st.lists(connected_graphs(), min_size=1, max_size=4)):
        x = draw(attach_vertices(g))
        spec.append((g, x, draw(st.just(x) | attach_vertices(g))))
    return spec


P3, C4 = path_graph(3), cycle_graph(4)


class TestCompositionReference:
    """``chain`` and ``bouquet`` on masks equal the edge-list construction
    they replaced: the graph, the vertex maps and the merged vertices."""

    @staticmethod
    def check(spec):
        res = chain(spec)
        assert tuple(res) == edge_list_chain(spec)
        assert_rebuilds(res.graph)
        hubs = [(g, x) for g, x, _ in spec]
        res = bouquet(hubs)
        assert tuple(res) == edge_list_bouquet(hubs)
        assert_rebuilds(res.graph)

    @given(chain_specs())
    def test_random_connected_parts(self, spec):
        self.check(spec)

    @pytest.mark.parametrize("spec", [
        [(C4, 1, 3)],
        [(Graph(1), 0, 0)],
        [(Graph(1), 0, 0), (Graph(1), 0, 0), (Graph(1), 0, 0)],
        [(P3, 0, 2), (Graph(1), 0, 0), (C4, 3, 0), (P3, 2, 2), (P3, 0, 0)],
        [(P3, 2, 0), (C4, 0, 3), (C4, 3, 3), (P3, 1, 2)],
    ], ids=["single", "single_vertex", "vertices", "ends_and_vertex", "ends"])
    def test_edge_cases(self, spec):
        self.check(spec)


class TestMaxOrder:
    """Every derived graph is held to ``MAX_ORDER``, with the constructor's message."""

    MESSAGE = rf"^vertex count {2 * MAX_ORDER} exceeds the maximum order of {MAX_ORDER}$"

    def test_oversized_union_is_refused(self):
        with pytest.raises(ValueError, match=self.MESSAGE):
            disjoint_union(Graph(MAX_ORDER), Graph(MAX_ORDER))

    def test_masks_above_the_order_are_refused(self):
        with pytest.raises(ValueError, match=rf"^vertex count {MAX_ORDER + 1} exceeds the maximum order"):
            Graph._of((0,) * (MAX_ORDER + 1))
        assert Graph._of((0,) * MAX_ORDER) == Graph(MAX_ORDER)

    def test_oversized_chain_keeps_its_message(self):
        half = Graph(MAX_ORDER // 2 + 1)
        with pytest.raises(ValueError, match=rf"^vertex count {MAX_ORDER + 1} exceeds the maximum order of {MAX_ORDER}$"):
            chain([(half, 0, 0), (half, 0, 0)])
        with pytest.raises(ValueError, match=self.MESSAGE):
            bouquet([(Graph(MAX_ORDER), 0), (Graph(MAX_ORDER), 0), (Graph(2), 0)])


class TestOrderBeforeMasks:
    """A union, chain or bouquet above ``MAX_ORDER`` is refused before any
    mask is built.  Each part is a path on H vertices, just over half the
    bound, whose masks take about 4 MB; building the result's would take
    14 MB or more, and refusing it first stays far under the 64 KiB bound."""

    H = MAX_ORDER // 2 + 1

    @pytest.fixture(scope="class")
    def half(self):
        return path_graph(self.H)

    @pytest.mark.parametrize("order,compose", [
        (2 * H, lambda g: disjoint_union(g, g)),
        (2 * H - 1, lambda g: chain([(g, 0, 1), (g, 0, 1)])),
        (3 * H - 2, lambda g: chain([(g, 0, 1)] * 3)),
        (2 * H - 1, lambda g: bouquet([(g, 0)] * 2)),
        (3 * H - 2, lambda g: bouquet([(g, 1)] * 3)),
    ], ids=["union", "chain2", "chain3", "bouquet2", "bouquet3"])
    def test_refused_under_a_small_peak(self, half, order, compose):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=rf"^vertex count {order} exceeds the maximum order of {MAX_ORDER}$"):
                compose(half)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestChain:
    def test_two_paths_make_star(self):
        res = chain([(path_graph(3), 1, 1), (path_graph(3), 1, 1)])
        assert is_isomorphic(res.graph, star_graph(4))
        assert res.graph.n == 5
        assert len(res.merged) == 1

    def test_friendship_chain(self):
        res = chain([(friendship_graph(4), 0, 0), (friendship_graph(5), 0, 0)])
        assert res.graph.n == 19
        assert res.graph == friendship_graph(9)

    def test_single_part_identity(self):
        g = cycle_graph(5)
        res = chain([(g, 0, 3)])
        assert res.graph == g
        assert res.vertex_maps == (tuple(range(5)),)
        assert res.merged == ()

    def test_merged_indices_consistent(self):
        parts = [(path_graph(3), 0, 2), (cycle_graph(4), 1, 3), (path_graph(2), 0, 1)]
        res = chain(parts)
        assert res.graph.n == 3 + 4 + 2 - 2
        for i in range(len(parts) - 1):
            y = parts[i][2]
            x = parts[i + 1][1]
            assert res.vertex_maps[i][y] == res.vertex_maps[i + 1][x] == res.merged[i]

    def test_coincident_attach_vertices_allowed(self):
        res = chain([(path_graph(2), 1, 1), (path_graph(2), 0, 0), (path_graph(2), 1, 1)])
        assert res.graph.n == 2 + 1 + 1

    def test_attach_index_error(self):
        with pytest.raises(IndexError):
            chain([(path_graph(3), 0, 7)])

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            chain([])

    @given(st.lists(graphs(min_n=1, max_n=5), min_size=1, max_size=4), st.data())
    def test_order_formula(self, parts, data):
        spec = []
        for g in parts:
            x = data.draw(st.integers(min_value=0, max_value=g.n - 1))
            y = data.draw(st.integers(min_value=0, max_value=g.n - 1))
            spec.append((g, x, y))
        res = chain(spec)
        assert res.graph.n == sum(g.n for g in parts) - (len(parts) - 1)


class TestBouquet:
    def test_friendship_copies(self):
        res = bouquet([(friendship_graph(2), 0), (friendship_graph(2), 0)])
        assert res.graph == friendship_graph(4)

    def test_edges_make_star(self):
        res = bouquet([(path_graph(2), 0)] * 4)
        assert res.graph == star_graph(4)

    def test_two_part_bouquet_equals_chain(self):
        g1, g2 = cycle_graph(4), path_graph(3)
        b = bouquet([(g1, 2), (g2, 1)])
        c = chain([(g1, 0, 2), (g2, 1, 0)])
        assert b.graph == c.graph

    def test_three_parts_exact_output(self):
        # the hub is the first part's x (index 2, the first part keeps its
        # labels); the other vertices get fresh indices in part order
        res = bouquet([(path_graph(3), 2), (cycle_graph(4), 1), (path_graph(2), 0)])
        assert res.vertex_maps == ((0, 1, 2), (3, 2, 4, 5), (2, 6))
        assert res.merged == (2,)
        assert res.graph.n == 7
        assert res.graph.edges() == [(0, 1), (1, 2), (2, 3), (2, 4), (2, 6), (3, 5), (4, 5)]

    def test_single_part_keeps_its_hub(self):
        g = cycle_graph(5)
        res = bouquet([(g, 3)])
        assert res.graph == g
        assert res.vertex_maps == (tuple(range(5)),)
        assert res.merged == (3,)

    def test_attach_index_error(self):
        with pytest.raises(IndexError, match=r"^attach vertex 4 out of range for part 1 \(n=3\)$"):
            bouquet([(path_graph(2), 0), (path_graph(3), 4)])

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="^bouquet needs at least one part$"):
            bouquet([])

    def test_merged_single_hub(self):
        res = bouquet([(path_graph(3), 2), (cycle_graph(3), 0), (path_graph(2), 1)])
        assert res.merged == (2,)
        for i, (_, x) in enumerate([(path_graph(3), 2), (cycle_graph(3), 0), (path_graph(2), 1)]):
            assert res.vertex_maps[i][x] == 2

    @given(st.lists(graphs(min_n=1, max_n=5), min_size=1, max_size=4), st.data())
    def test_order_formula(self, parts, data):
        spec = [(g, data.draw(st.integers(min_value=0, max_value=g.n - 1))) for g in parts]
        res = bouquet(spec)
        assert res.graph.n == sum(g.n for g in parts) - (len(parts) - 1)

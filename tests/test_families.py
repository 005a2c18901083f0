from fractions import Fraction
from hashlib import blake2b

import hypothesis.strategies as st
import pytest
from hypothesis import given

from superdom import (
    build_family,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    friendship_graph,
    gnp_random_graph,
    is_isomorphic,
    path_graph,
    star_graph,
)


@pytest.mark.parametrize("n", range(1, 51))
def test_path_order_size(n):
    g = path_graph(n)
    assert (g.n, g.m) == (n, n - 1)


@pytest.mark.parametrize("n", range(3, 51))
def test_cycle_order_size(n):
    g = cycle_graph(n)
    assert (g.n, g.m) == (n, n)


@pytest.mark.parametrize("n", range(1, 51))
def test_complete_order_size(n):
    g = complete_graph(n)
    assert (g.n, g.m) == (n, n * (n - 1) // 2)


@pytest.mark.parametrize("a,b", [(a, b) for a in range(1, 11) for b in range(a, 11)])
def test_complete_bipartite_order_size(a, b):
    g = complete_bipartite_graph(a, b)
    assert (g.n, g.m) == (a + b, a * b)


@pytest.mark.parametrize("n", range(1, 51))
def test_star_order_size(n):
    g = star_graph(n)
    assert (g.n, g.m) == (n + 1, n)


@pytest.mark.parametrize("n", range(1, 51))
def test_friendship_order_size(n):
    g = friendship_graph(n)
    assert (g.n, g.m) == (2 * n + 1, 3 * n)


def test_friendship_structure():
    g = friendship_graph(2)
    assert g.n == 5 and g.m == 6
    assert g.degree(0) == 4
    for i in (1, 2):
        a, b = 2 * i - 1, 2 * i
        assert b in g.neighbors(a) and a in g.neighbors(0) and b in g.neighbors(0)


def test_complete_bipartite_degrees():
    g = complete_bipartite_graph(2, 3)
    assert [g.degree(v) for v in range(g.n)] == [3, 3, 2, 2, 2]


def test_star_is_complete_bipartite():
    assert is_isomorphic(star_graph(7), complete_bipartite_graph(1, 7))


@pytest.mark.parametrize(
    "builder,bad",
    [
        (path_graph, 0),
        (cycle_graph, 2),
        (complete_graph, 0),
        (star_graph, 0),
        (friendship_graph, 0),
    ],
)
def test_domain_errors(builder, bad):
    with pytest.raises(ValueError):
        builder(bad)


def test_complete_bipartite_domain():
    with pytest.raises(ValueError):
        complete_bipartite_graph(0, 3)


class TestGnp:
    def test_p_zero_and_one(self):
        assert gnp_random_graph(5, 0, 42).m == 0
        assert gnp_random_graph(5, 1, 42) == complete_graph(5)

    def test_determinism(self):
        a = gnp_random_graph(8, Fraction(1, 2), 7)
        b = gnp_random_graph(8, Fraction(1, 2), 7)
        assert a == b

    def test_seed_sensitivity(self):
        a = gnp_random_graph(8, Fraction(1, 2), 7)
        b = gnp_random_graph(8, Fraction(1, 2), 8)
        assert a != b

    def test_golden_stream(self):
        # frozen draw for (n=6, p=1/2, seed=1): locks the documented
        # keyed-BLAKE2b pair stream against accidental reordering
        g = gnp_random_graph(6, Fraction(1, 2), 1)
        assert g.edges() == [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (2, 4), (2, 5)]

    def test_p_validation(self):
        with pytest.raises(ValueError):
            gnp_random_graph(5, Fraction(3, 2), 0)
        with pytest.raises(ValueError):
            gnp_random_graph(5, -1, 0)

    def test_string_and_tuple_probabilities(self):
        assert gnp_random_graph(6, "1/2", 1) == gnp_random_graph(6, (1, 2), 1)

    @given(
        st.integers(0, 14),
        st.sampled_from([Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]),
        st.integers(-(2 ** 70), -1) | st.just(0) | st.integers(1, 2 ** 20) | st.integers(2 ** 64, 2 ** 70),
    )
    def test_matches_a_freshly_keyed_hash_per_pair(self, n, p, seed):
        # the documented stream, each pair hashed with its own keyed BLAKE2b
        key = (seed % 2 ** 64).to_bytes(8, "little")
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        draws = [blake2b(t.to_bytes(8, "little"), key=key, digest_size=8).digest() for t in range(len(pairs))]
        expected = [e for e, d in zip(pairs, draws) if int.from_bytes(d, "little") * p.denominator < p.numerator << 64]
        assert gnp_random_graph(n, p, seed).edges() == expected


class TestBuildFamily:
    def test_dispatch(self):
        inst = build_family("friendship", (3,))
        assert inst.graph == friendship_graph(3)
        assert inst.distinguished == {"center": 0}
        assert inst.label() == "friendship(3)"

    def test_gnp_params_include_seed(self):
        inst = build_family("gnp_random", (6, 1, 2, 1))
        assert inst.graph == gnp_random_graph(6, Fraction(1, 2), 1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_family("grid", (3,))

"""The one JSON writer against ``json.dumps(..., sort_keys=True, indent=2)``."""

import json
from enum import IntEnum
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from superdom.jsontext import dumps, quote

# The value types the package writes: dicts with str keys, lists, str, bool
# and int, with control characters, any code point, and ints of any size.
_values = st.recursive(
    st.booleans()
    | st.integers()
    | st.integers(min_value=-(10 ** 60), max_value=10 ** 60)
    | st.text()
    | st.text(st.characters(max_codepoint=0x1F)),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4) | st.text(), inner, max_size=4),
    max_leaves=20,
)


class _Colour(IntEnum):
    RED = 3


class _Label(str):
    def __str__(self):
        return "not the string's own text"


def iter_items(items):
    """The items of ``items`` as a generator."""
    return (item for item in items)


def _stdlib(value):
    return json.dumps(value, sort_keys=True, indent=2)


class TestDumps:
    @given(_values)
    def test_equals_the_stdlib_encoder(self, value):
        assert dumps(value) == _stdlib(value)

    @pytest.mark.parametrize("value", [
        {}, [], [{}], {"a": []}, {"b": {"c": [[], {}]}},
        True, False, [True, 1, False, 0], -1, 2 ** 100, -(2 ** 100),
        "", "\u00e9\u4e2d\U0001f600", "\x00\x1f\n\t\"\\",
        {"\u00e9": 1, "e": 2, "\x01": 3, "": 4},
        2 ** 64, -(2 ** 64) - 1, {"%": 1, "%d": 2, "%%": [3], "a%s": {"%": True}},
        {"a": True, "b": 1, "c": False, "d": 0},
        # subclasses, which miss the exact-type tests and take the isinstance ones
        _Colour.RED, [_Colour.RED, True, 3, False, 0], _Label("v\u00e9"), {_Label("k"): _Label("v"), "j": 1},
    ], ids=repr)
    def test_edge_values(self, value):
        assert dumps(value) == _stdlib(value)

    @given(st.lists(_values, max_size=6))
    def test_writes_a_generator_as_the_list_of_its_items(self, items):
        assert dumps(iter_items(items)) == _stdlib(items)
        assert dumps({"a": 1, "rows": iter_items(items), "z": [iter_items(items)]}) == _stdlib(
            {"a": 1, "rows": items, "z": [items]})

    def test_empty_generator(self):
        assert dumps(iter_items([])) == "[]"
        assert dumps({"rows": iter_items([])}) == _stdlib({"rows": []})

    @pytest.mark.parametrize("value", [
        1.5, Fraction(1, 2), {1: 2}, {"a": [0.0]}, None, (1, 2), {"a": 1, 2: 3},
        (), {1}, set(), frozenset(), range(2), {"a": 1}.keys(), b"ab",
    ], ids=repr)
    def test_refuses_what_the_package_never_writes(self, value):
        with pytest.raises(TypeError):
            dumps(value)

    def test_refuses_other_iterators_and_what_a_generator_never_holds(self):
        for value in (iter([1]), map(int, "1"), {"a": iter_items([0.5])}):
            with pytest.raises(TypeError):
                dumps(value)


class TestQuote:
    @given(st.text(st.characters(min_codepoint=0, max_codepoint=0x10FFFF, exclude_categories=("Cs",))))
    def test_escapes_as_json_does(self, text):
        assert quote(text) == json.dumps(text)

    @pytest.mark.parametrize("text", [
        "", "gnp(n=7,p=1/2,seed=3)", "%d", " ~", "\x7f", "\x00\x08\x0c\x1f", "\"", "\\", "\u00e9",
        "\U0001f600", "\U0010ffff", "\ud800",
    ], ids=ascii)
    def test_edge_strings(self, text):
        assert quote(text) == json.dumps(text)

"""The one JSON writer against ``json.dumps(..., sort_keys=True, indent=2)``."""

import json
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
    ], ids=repr)
    def test_edge_values(self, value):
        assert dumps(value) == _stdlib(value)

    @pytest.mark.parametrize("value", [
        1.5, Fraction(1, 2), {1: 2}, {"a": [0.0]}, None, (1, 2), {"a": 1, 2: 3},
    ], ids=repr)
    def test_refuses_what_the_package_never_writes(self, value):
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

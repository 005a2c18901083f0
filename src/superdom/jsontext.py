"""The one JSON writer of the commands and the ``verify`` report.

:func:`dumps` writes what ``json.dumps(value, sort_keys=True, indent=2)``
writes, for the only types the package prints: dicts with str keys,
lists, str, bool and int, an int or str subclass written as its value,
and a generator written as the list of its items.  Anything else,
tuples and sets among it, is a ``TypeError``, so no other bytes are
silently written.  :func:`quote` writes a string as it is when it needs
no escape and leaves every other string to the standard library,
imported only then; nothing a solve prints needs escaping, so a solve
never loads ``json``.
"""

from functools import lru_cache
from types import GeneratorType


def quote(text: str) -> str:
    """``text`` as a JSON string literal, escaped as ``json`` escapes it."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return '"' + text + '"'  # not an f-string, which would call a str subclass's __format__
    from json.encoder import encode_basestring_ascii

    return encode_basestring_ascii(text)


# a report repeats a handful of keys thousands of times
_key = lru_cache(maxsize=1024)(quote)


def dumps(value, pad: str = "\n") -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` writes it
    when nested at ``pad``, a generator as ``list(value)``.  Each level
    joins its own items, so no list of every token is ever held, and a
    generator is read once with only its items' texts held."""
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is str:
        return quote(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, str):
        return quote(value)
    inner = pad + "  "
    # an f-string copies a level's joined text once, where each + copies it again
    if isinstance(value, dict):
        items = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"JSON key {key!r} is not a str")
            items.append(f"{_key(key)}: {dumps(value[key], inner)}")
        return f"{{{inner}{(',' + inner).join(items)}{pad}}}" if items else "{}"
    if isinstance(value, (list, GeneratorType)):
        items = [dumps(item, inner) for item in value]
        return f"[{inner}{(',' + inner).join(items)}{pad}]" if items else "[]"
    raise TypeError(f"value {value!r} of type {type(value).__name__} is not serialisable")

"""The one JSON writer of the commands and the ``verify`` report.

:func:`dumps` writes what ``json.dumps(value, sort_keys=True, indent=2)``
writes, for the only types the package prints: dicts with str keys,
lists, str, bool and int.  Anything else is a ``TypeError``, so no other
bytes are silently written.  :func:`quote` writes a string as it is when
it needs no escape and leaves every other string to the standard
library, imported only then; nothing a solve prints needs escaping, so a
solve never loads ``json``.
"""


def quote(text: str) -> str:
    """``text`` as a JSON string literal, escaped as ``json`` escapes it."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    from json.encoder import encode_basestring_ascii

    return encode_basestring_ascii(text)


def dumps(value, pad: str = "\n") -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` writes it
    when nested at ``pad``.  Each level joins its own items, so no list of
    every token is ever held."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, str):
        return quote(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"JSON key {key!r} is not a str")
            items.append(quote(key) + ": " + dumps(value[key], inner))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([dumps(item, inner) for item in value]) + pad + "]"
    raise TypeError(f"value {value!r} of type {type(value).__name__} is not serialisable")

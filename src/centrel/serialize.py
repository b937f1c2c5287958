"""One renderer per output format for report values.

Each chooses by the value's type.  An exact rational (``Fraction``) is "p/q"
text or a float; ``None``, ``bool``, ``int`` and ``str`` have one form per
format.  JSON also renders lists item by item, dicts key by key, and report
records (anything with a ``FIELDS`` table) as objects with one key per field,
in table order.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_string


def json_text(x, exact: bool = True) -> str:
    """JSON text of ``x``, written straight from the values: the bytes of
    ``json.dumps(..., indent=2)`` on the same value with each Fraction
    replaced by {"exact": "p/q", "value": float}, or by the bare float when
    ``exact`` is off."""
    out: list[str] = []
    _json(x, exact, "\n", out)
    return "".join(out)


def _json(x, exact: bool, nl: str, out: list[str]) -> None:
    """Append the JSON text of ``x`` to ``out``; ``nl`` is a newline plus the
    indent of the line that ``x`` starts on."""
    if isinstance(x, str):
        out.append(_json_string(x))
    elif x is None:
        out.append("null")
    elif x is True:
        out.append("true")
    elif x is False:
        out.append("false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, Fraction):  # p / q is float(x): finite, or OverflowError
        p, q = x.as_integer_ratio()
        if exact:
            inner = nl + "  "
            text = p if q == 1 else f"{p}/{q}"  # str(x)
            out.append(f'{{{inner}"exact": "{text}",{inner}"value": {p / q!r}{nl}}}')
        else:
            out.append(repr(p / q))
    elif hasattr(x, "FIELDS"):
        _json_object([(name, getattr(x, name)) for name in x.FIELDS], exact, nl, out)
    elif isinstance(x, dict):
        _json_object(x.items(), exact, nl, out)
    elif isinstance(x, list):
        if not x:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for value in x:
            out.append(sep)
            _json(value, exact, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _json_object(pairs, exact: bool, nl: str, out: list[str]) -> None:
    """Append a JSON object of the (str key, value) ``pairs`` to ``out``."""
    if not pairs:
        out.append("{}")
        return
    inner = nl + "  "
    sep = "{" + inner
    for key, value in pairs:
        out.append(f"{sep}{_json_string(key)}: ")
        _json(value, exact, inner, out)
        sep = "," + inner
    out.append(nl + "}")


def csv_value(x) -> str:
    """CSV text: a Fraction as a float with 12 significant digits, booleans
    in lower case, None as the empty field."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, Fraction):
        return f"{float(x):.12g}"
    return str(x)


def csv_table(names, records) -> list[str]:
    """CSV lines: a header of field names, then one row per record."""
    return [",".join(names)] + [",".join(csv_value(getattr(r, name)) for name in names)
                                for r in records]


def human_value(x, exact: bool = True) -> str:
    """Human text: "p/q" for a Fraction when ``exact``, "undefined" for None,
    and the CSV text otherwise."""
    if x is None:
        return "undefined"
    if exact and isinstance(x, Fraction):
        return str(x)
    return csv_value(x)

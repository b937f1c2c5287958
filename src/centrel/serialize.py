"""One renderer per output format for report values.

Each chooses by the value's type.  An exact rational (``Fraction``) is "p/q"
text or a float; ``None``, ``bool``, ``int`` and ``str`` have one form per
format.  JSON also renders lists item by item and report records (anything
with a ``FIELDS`` table) as objects with one key per field, in table order.
"""

from __future__ import annotations

from fractions import Fraction


def json_value(x, exact: bool = True):
    """JSON form: a Fraction is {"exact": "p/q", "value": float}, or a bare
    float when ``exact`` is off."""
    if isinstance(x, Fraction):
        return {"exact": str(x), "value": float(x)} if exact else float(x)
    if hasattr(x, "FIELDS"):
        return {name: json_value(getattr(x, name), exact) for name in x.FIELDS}
    if isinstance(x, list):
        return [json_value(v, exact) for v in x]
    return x


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

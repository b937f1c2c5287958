"""Shared JSON/CSV value rendering: exact rationals plus floating views."""

from __future__ import annotations

from fractions import Fraction


def rational_str(x) -> str:
    """Exact "p/q" (or plain integer) text for a rational value."""
    if isinstance(x, bool):
        return str(x).lower()
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def rational_json(x, exact: bool = True):
    """JSON view of a number: {"exact": "p/q", "value": float}, or a bare
    float when ``exact`` is off."""
    if x is None:
        return None
    if isinstance(x, bool):
        return x
    if not exact:
        return float(x)
    return {"exact": rational_str(x), "value": float(x)}


def fmt_sig12(x) -> str:
    """Floating text with 12 significant digits (CSV convention)."""
    return f"{float(x):.12g}"

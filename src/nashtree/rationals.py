"""Parsing and formatting of exact rationals as used in all text formats."""

from __future__ import annotations

import re
from fractions import Fraction

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$", re.ASCII)


def parse_rational(token: str) -> Fraction:
    """Parse `p` or `p/q` (q > 0) into a Fraction.

    Raises ValueError on malformed tokens or a zero denominator.
    """
    m = _RATIONAL_RE.match(token)
    if not m:
        raise ValueError(f"malformed rational {token!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"zero denominator in rational {token!r}")
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    """Render a Fraction reduced, as `p` for integers and `p/q` otherwise."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"

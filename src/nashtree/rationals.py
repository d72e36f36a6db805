"""Parsing and formatting of exact rationals as used in all text formats.

Exact values are `Rational`: an `int` when whole, a `Fraction` otherwise,
never a `float`. An int compares and hashes equal to the equal Fraction
and does both in C; `int / int` is a float, so every division of exact
values needs a Fraction operand.
"""

from __future__ import annotations

import re
from fractions import Fraction

Rational = int | Fraction

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$", re.ASCII)


def parse_rational(token: str) -> Rational:
    """Parse `p` or `p/q` (q > 0) into an int when the reduced value is
    whole (`3`, `6/2`, `-0`) and a Fraction otherwise.

    Raises ValueError on malformed tokens or a zero denominator.
    """
    m = _RATIONAL_RE.match(token)
    if not m:
        raise ValueError(f"malformed rational {token!r}")
    num = int(m.group(1))
    if m.group(2) is None:
        return num
    den = int(m.group(2))
    if den == 0:
        raise ValueError(f"zero denominator in rational {token!r}")
    value = Fraction(num, den)
    return value.numerator if value.denominator == 1 else value


def format_rational(value: Rational) -> str:
    """Render an int or a Fraction reduced, as `p` when whole and `p/q`
    otherwise."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"

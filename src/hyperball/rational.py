"""Exact rational scalars and their "p/q" wire format.

All quantities in this package (distances, radii, slack parameters,
interpolation times) are `fractions.Fraction` values.  Nothing is ever
rounded: predicates compare rationals exactly, so a verdict is a theorem
about the instance, not about a floating point shadow of it.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError


def parse_rational(value: object) -> Fraction:
    """Parse an int or a "p/q" / "p" string into a Fraction.

    Floats are rejected: accepting them would smuggle binary rounding into
    exact predicates.
    """
    if isinstance(value, bool):
        raise ParseError(f"not a rational literal: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        text = value.strip()
        num_str, sep, den_str = text.partition("/")
        try:
            num = int(num_str)
            den = int(den_str) if sep else 1
        except ValueError:
            raise ParseError(f"not a rational literal: {value!r}") from None
        if den == 0:
            raise ParseError(f"zero denominator: {value!r}")
        return Fraction(num, den)
    raise ParseError(f"not a rational literal: {value!r}")


def format_rational(value: Fraction | int) -> str:
    """Serialize as "p/q" (always with an explicit denominator)."""
    frac = Fraction(value)
    return f"{frac.numerator}/{frac.denominator}"

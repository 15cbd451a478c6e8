"""Scalar helpers shared by the numeric modules.

Values are either exact rationals (``fractions.Fraction``, ints are coerced)
or binary64 floats.  A value list is "rational" only if every entry is exact;
one float anywhere demotes the whole list.
"""

from __future__ import annotations

from fractions import Fraction

RATIONAL = "rational"
FLOAT = "float"


def coerce_values(values):
    """Return ``(tuple_of_values, kind)`` with a uniform scalar kind."""
    vals = list(values)
    if any(isinstance(v, float) for v in vals):
        return tuple(float(v) for v in vals), FLOAT
    return tuple(v if isinstance(v, Fraction) else Fraction(v) for v in vals), RATIONAL


def is_integral(alpha) -> bool:
    """True when the exponent is a nonnegative integer in disguise."""
    if isinstance(alpha, int):
        return alpha >= 0
    if isinstance(alpha, Fraction):
        return alpha.denominator == 1 and alpha >= 0
    if isinstance(alpha, float):
        return alpha >= 0 and alpha.is_integer()
    return False


def pow_scalar(value, alpha):
    """``value ** alpha`` with the conventions 0**0 = 1 and 0**a = 0 for a > 0.

    Exact when ``alpha`` is integral and ``value`` rational; float otherwise.
    """
    if alpha < 0:
        raise ValueError("exponent must be nonnegative")
    if value == 0:
        if alpha == 0:
            return Fraction(1) if not isinstance(value, float) else 1.0
        return Fraction(0) if not isinstance(value, float) else 0.0
    if is_integral(alpha):
        return value ** int(alpha)
    return float(value) ** float(alpha)

"""Scalar helpers shared by the numeric modules.

Values are either exact rationals (``fractions.Fraction``, ints are coerced)
or finite binary64 floats.  A value list is "rational" only if every entry is
exact; one float anywhere demotes the whole list.
"""

from __future__ import annotations

import math
import numbers
from decimal import Decimal
from fractions import Fraction

from .errors import BudgetExceeded, DomainViolation

RATIONAL = "rational"
FLOAT = "float"

# exact k-th powers of a table are refused above this many bits in all
POWER_BIT_BUDGET = 1 << 26


def coerce_values(values):
    """Return ``(tuple_of_values, kind)`` with a uniform scalar kind.

    A NaN or infinite float raises DomainViolation.
    """
    vals = list(values)
    if any(isinstance(v, float) for v in vals):
        out = tuple(float(v) for v in vals)
        if not all(map(math.isfinite, out)):
            bad = next(v for v in out if not math.isfinite(v))
            raise DomainViolation(f"values must be finite, got {bad}")
        return out, FLOAT
    return tuple(v if isinstance(v, Fraction) else Fraction(v) for v in vals), RATIONAL


def check_tolerance(tol):
    """Return ``tol`` when it is a finite, nonnegative number; a NaN, infinite
    or negative tolerance would decide verdicts, so it raises DomainViolation."""
    try:
        ok = math.isfinite(tol) and tol >= 0
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise DomainViolation(f"tolerance must be finite and nonnegative, got {tol!r}")
    return tol


def check_m(m):
    """``int(m)`` for a positive integer, integral floats and numpy integers included."""
    if not (is_integral(m) and m >= 1):
        raise DomainViolation("m must be a positive integer")
    return int(m)


def is_integral(alpha) -> bool:
    """True when the exponent is a nonnegative integer in disguise (numpy
    integers and integral floats and Fractions included)."""
    if isinstance(alpha, numbers.Integral):
        return alpha >= 0
    if isinstance(alpha, Fraction):
        return alpha.denominator == 1 and alpha >= 0
    if isinstance(alpha, float):
        return alpha >= 0 and alpha.is_integer()
    return False


def pow_scalar(value, alpha):
    """``value ** alpha`` with the conventions 0**0 = 1 and 0**a = 0 for a > 0.

    Exact when ``alpha`` is integral and ``value`` rational; float otherwise.
    The package powers whole tables with ``_kernel._power``; this per-entry
    form is the reference the tests check that kernel against.
    """
    if alpha < 0:
        raise DomainViolation("exponent must be nonnegative")
    if value == 0:
        zero = Fraction(0) if is_integral(alpha) and not isinstance(value, float) else 0.0
        return zero + 1 if alpha == 0 else zero
    if is_integral(alpha):
        return value ** int(alpha)
    return float(value) ** float(alpha)


def check_power_size(count, k, bits):
    """Refuse ``count`` exact k-th powers of integers of up to ``bits`` bits
    when their size, about count * k * bits bits, exceeds POWER_BIT_BUDGET.
    Called before any power is taken."""
    size = count * k * bits
    if size > POWER_BIT_BUDGET:
        # Decimal formats ints beyond the float range too (k may be int(1e308))
        raise BudgetExceeded(
            f"{count} exact powers with exponent {Decimal(k):.3g} need about {Decimal(size):.3g} bits,"
            f" over the budget of {POWER_BIT_BUDGET}"
        )

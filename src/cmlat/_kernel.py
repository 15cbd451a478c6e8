"""The subset kernel: zeta and Mobius transforms over the 2^n bit masks.

:func:`subset_sums` and :func:`subset_mobius` are the package's only subset
transform (Yates' per-bit pass); `randset`, `cm` and `scan` call them.  They
live here, apart from `randset`, so that a module which needs the transform
loads no random-subset code.

A table over the 2^n masks stays one dense array from the parsed document to
the verdict, in one of two forms:

- float laws: a float64 array;
- exact laws: integer numerators over their least common denominator D, as
  int64 while every partial sum of a transform provably fits (largest
  magnitude times the table length below 2^63), as Python ints in an object
  array otherwise.  An integral power is num**k over D**k, and verdicts
  compare the integers.

Python scalars (floats, Fractions) are built only at the API boundary.  The
pointwise float power calls libm once per entry (`math.pow`) rather than
numpy's vectorised version: numpy's SIMD pow can differ from libm in the
last place, and a verdict must not depend on how numpy was built.  The
divisibility-set scan (`scan._min_q`) does not use it: it raises its grid
with numpy's `**`, so its q can differ in the last bits from
`randset.power_exists` at the same alpha.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from typing import NamedTuple

import numpy as np

from ._scalars import FLOAT, check_power_size, coerce_values

_INT64_LIMIT = 1 << 63


def _per_bit(a, ground_n, op):
    """Yates' pass, in place, over the last axis of ``a`` (length 2^ground_n);
    leading axes are a batch of independent tables.  ``a`` must be
    C-contiguous: the passes write through reshaped views."""
    for i in range(ground_n):
        v = a.reshape(a.shape[:-1] + (-1, 2, 1 << i))  # v[..., 1, :] holds the masks with bit i set
        op(v[..., 1, :], v[..., 0, :], out=v[..., 1, :])
    return a


class _Dense(NamedTuple):
    """A table over all masks: float64 ``values`` (``den`` is None), or
    integer numerators over the common denominator ``den``."""

    values: np.ndarray
    den: int | None = None


def _numerators(fractions):
    """Exact values as integer numerators over their least common denominator."""
    den = math.lcm(*{v.denominator for v in fractions})
    return [v.numerator * (den // v.denominator) for v in fractions], den


def _int_dtype(nums, size):
    """int64 when a subset transform over ``size`` integers no larger in
    magnitude than those of ``nums`` cannot overflow (every partial sum is at
    most size times the largest), else object, for Python ints."""
    return np.int64 if max(map(abs, nums), default=0) * size < _INT64_LIMIT else object


def _magnitude(a):
    return max(int(a.max()), -int(a.min())) if a.size else 0


def _dense_of(vals, kind) -> _Dense:
    """Dense form of a tuple from :func:`coerce_values`."""
    if kind == FLOAT:
        return _Dense(np.array(vals, dtype=float))
    nums, den = _numerators(vals)
    return _Dense(np.array(nums, dtype=_int_dtype(nums, len(nums))), den)


def _transform(a, ground_n, op):
    """One subset transform of a dense array, in a C-contiguous copy.

    Int64 tables cannot overflow: :func:`_int_dtype` admits only tables whose
    every partial sum fits, and a partial Mobius sum of D**k times a law's
    containment table raised to k is D**k times a probability of the k-fold
    union's law, so it lies in [0, D**k], which :func:`_int_power` bounds.
    """
    return _per_bit(a.copy(order="C"), ground_n, op)


def _to_scalar(d: _Dense, v):
    """One entry of ``d`` as a Python float or Fraction."""
    return float(v) if d.den is None else Fraction(int(v), d.den)


def _to_scalars(d: _Dense) -> list:
    """Every entry of ``d`` as Python floats or Fractions."""
    if d.den is None:
        return d.values.tolist()
    den, zero = d.den, Fraction(0)
    return [Fraction(v, den) if v else zero for v in d.values.tolist()]


def _floats(d: _Dense) -> np.ndarray:
    """``d`` as float64, each entry the correctly rounded value of num/den
    (as ``float(Fraction)`` rounds it)."""
    if d.den is None:
        return d.values
    if d.values.dtype == np.int64 and d.den < 1 << 53 and _magnitude(d.values) < 1 << 53:
        return d.values / d.den  # both operands exact in binary64: one rounding
    return np.array([v / d.den for v in d.values.tolist()])  # Python int division rounds once


def _float_power(values, alpha) -> np.ndarray:
    """values**alpha entry by entry through libm (0**0 = 1)."""
    # + 0.0 turns -0.0 into 0.0, whose odd powers are 0.0 as 0**k is
    return np.fromiter(map(math.pow, (values + 0.0).tolist(), repeat(float(alpha))), float, len(values))


def _int_power(d: _Dense, k) -> _Dense:
    """Exact d**k as numerators over den**k; int64 while the powers fit."""
    values = d.values
    check_power_size(len(values), k, d.den.bit_length())
    if values.dtype == np.int64 and k * _magnitude(values).bit_length() < 63:
        return _Dense(values**k, d.den**k)
    return _Dense(values.astype(object) ** k, d.den**k)


def _list_transform(values, ground_n, op):
    vals, kind = coerce_values(values)
    d = _dense_of(vals, kind)
    return _to_scalars(_Dense(_transform(d.values, ground_n, op), d.den))


def subset_sums(values, ground_n):
    """Zeta transform: out[B] = sum of values[A] over A inside B.

    List in, list out: floats when any entry is a float, else Fractions
    (computed on integer numerators over a common denominator).
    """
    return _list_transform(values, ground_n, np.add)


def subset_mobius(values, ground_n):
    """Inverse of :func:`subset_sums`."""
    return _list_transform(values, ground_n, np.subtract)

"""The subset kernel: zeta and Mobius transforms over the 2^n bit masks, and
the one table form that `randset` and `cm` compute on.

:func:`_transform` is the package's only subset transform (Yates' per-bit
pass); :func:`subset_sums` and :func:`subset_mobius` are its list form.  They
live here, apart from `randset`, so that a module which needs the transform
loads no random-subset code.

A law, void functional, lattice function or weight table is a
:class:`_Table`: its values are coerced once, to one dense array.  A table
computed from another holds only that array; its public tuple of Python
scalars is built on first read (:class:`_Lazy`), so a command that reports
a few entries converts only those.  Float values are a float64 array.  Exact
values are integer numerators over their least common denominator D: int64
while every partial sum of a transform provably fits (largest magnitude
times the table length below 2^63), Python ints in an object array
otherwise.  Verdicts compare the integers.

Every float power is libm's ``pow``: :func:`_float_power` is one
``np.float_power`` call, which numpy computes with ``pow`` (it has no SIMD
loop for it, unlike ``**``), so the scan and `randset.power_exists` get the
same q.  The exponential is libm's ``exp``.  A float that overflows in
:func:`_floats` or :func:`_float_power` raises DomainViolation.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from ._scalars import FLOAT, RATIONAL, check_power_size, coerce_values, is_integral
from .errors import DomainViolation

_INT64_LIMIT = 1 << 63
CHUNK_ROWS = 1024  # rows per chunk of a written table


def _per_bit(a, ground_n, op):
    """Yates' pass, in place, over the last axis of ``a`` (length 2^ground_n);
    leading axes are a batch of independent tables.  ``a`` must be
    C-contiguous: the passes write through reshaped views."""
    for i in range(ground_n):
        v = a.reshape(a.shape[:-1] + (-1, 2, 1 << i))  # v[..., 1, :] holds the masks with bit i set
        op(v[..., 1, :], v[..., 0, :], out=v[..., 1, :])
    return a


class _Dense(NamedTuple):
    """A dense table: float64 ``values`` (``den`` is None), or integer
    numerators over the common denominator ``den``."""

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


def _lowest_terms(d: _Dense) -> _Dense:
    """Exact ``d`` over the least common denominator of its values, in the
    dtype :func:`_coerce` gives them: the table coerced from its Fractions."""
    g = math.gcd(d.den, int(np.gcd.reduce(d.values)))
    values = d.values // g
    return _Dense(values.astype(_int_dtype([_magnitude(values)], len(values))), d.den // g)


def _coerce(values):
    """The tuple of :func:`coerce_values` and its dense form."""
    vals, kind = coerce_values(values)
    if kind == FLOAT:
        return vals, _Dense(np.array(vals, dtype=float))
    nums, den = _numerators(vals)
    return vals, _Dense(np.array(nums, dtype=_int_dtype(nums, len(nums))), den)


def _placed(d: _Dense, masks, size) -> _Dense:
    """The table of ``size`` entries with the i-th value of ``d`` at masks[i]
    and zero elsewhere, in the form :func:`_coerce` gives it."""
    table = np.zeros(size, dtype=float if d.den is None else _int_dtype([_magnitude(d.values)], size))
    table[masks] = d.values
    return _Dense(table, d.den)


class _Lazy:
    """Base of a frozen dataclass whose field ``_FIELD``, a tuple of Python
    scalars, may be held only as the dense ``_dense``: the tuple is then
    built, and kept, the first time the field is read.  Dataclass ``==``,
    ``hash``, ``repr`` and ``replace`` read the field, so they agree with
    those of the instance built from the tuple."""

    _FIELD = "values"

    def __getattr__(self, name):  # called only when the attribute is missing
        d = self.__dict__.get("_dense")
        if name != self._FIELD or d is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        values = tuple(_to_scalars(d))
        object.__setattr__(self, name, values)
        return values

    @classmethod
    def _lazy(cls, d: _Dense, **fields):
        """The instance with the other ``fields`` given and ``_FIELD`` held as ``d``."""
        obj = cls.__new__(cls)
        for name, value in fields.items():
            object.__setattr__(obj, name, value)
        object.__setattr__(obj, "_dense", d)
        return obj


class _Table(_Lazy):
    """Base of a frozen dataclass whose field ``_FIELD`` holds a table of
    values, kept as the dense ``_dense``; ``_HEAD`` names its other field.  A
    subclass adds only its validation, ``_check()``."""

    _HEAD = "n"

    def __post_init__(self):
        vals, d = _coerce(getattr(self, self._FIELD))
        object.__setattr__(self, self._FIELD, vals)
        object.__setattr__(self, "_dense", d)
        self._check()

    @classmethod
    def _from_dense(cls, head, d: _Dense):
        """The table of ``d``; its tuple is built on first read."""
        table = cls._lazy(d, **{cls._HEAD: head})
        table._check()
        return table

    def _scalar(self, index):
        """One entry, as the tuple would give it, without building the tuple."""
        d = self._dense
        return _to_scalar(d, d.values[operator.index(index)])

    @property
    def kind(self):
        return FLOAT if self._dense.den is None else RATIONAL


def _transform(a, ground_n, op):
    """One subset transform of a dense array, in a C-contiguous copy.

    Int64 tables cannot overflow: :func:`_coerce` and :func:`_power` make
    them only under the rule of :func:`_int_dtype`, and a table made by a
    transform is transformed again only by the inverse (weights to function,
    void table to law, law to containment table), whose partial sums are
    partial transforms of the first table.
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
    if d.values.dtype == np.int64:
        if d.den < 1 << 53 and _magnitude(d.values) < 1 << 53:
            return d.values / d.den  # both operands exact in binary64: one rounding
        k = d.den.bit_length() - 1
        if d.den == 1 << k and k <= 1022:
            # the conversion is the one rounding; no nonzero num/2^k is below
            # 2^-1022, the least normal float, so the scaling is exact
            return np.ldexp(d.values.astype(float), -k)
    try:
        return np.array([v / d.den for v in d.values.tolist()])  # Python int division rounds once
    except OverflowError:
        raise DomainViolation("a value exceeds the float range") from None


@np.errstate(over="raise")
def _float_power(values, alpha, out=None) -> np.ndarray:
    """values**alpha through libm's pow (0**0 = 1), for a scalar alpha or a
    column of exponents; + 0.0 turns -0.0 into 0.0, whose odd powers are 0.0.
    With ``out`` (``values`` itself, for a scalar alpha) the powers are
    written there, with no temporary array."""
    try:
        base = np.add(values, 0.0, out=out)
        return np.float_power(base, np.asarray(alpha, dtype=float), out=out)
    except (FloatingPointError, OverflowError):
        raise DomainViolation("a power or its exponent exceeds the float range") from None


def _exp(values) -> np.ndarray:
    """exp(values) entry by entry through libm, in the float64 array ``values``."""
    for chunk in np.split(values, range(CHUNK_ROWS, len(values), CHUNK_ROWS)):
        chunk[:] = list(map(math.exp, chunk.tolist()))
    return values


def _power(d: _Dense, alpha, overwrite=False) -> _Dense:
    """d**alpha entry by entry (0**0 = 1), alpha finite and >= 0.  Exact d
    and an integral alpha = k give numerators over den**k, refused first by
    :func:`check_power_size` at the bits of the larger of den and the largest
    numerator, and int64 while every partial sum of their transform fits;
    any other pair gives floats, computed in place in the float copy of an
    exact d, and in d's own array when ``overwrite`` is set."""
    if isinstance(alpha, float) and not math.isfinite(alpha) or alpha < 0:
        raise DomainViolation(f"exponent must be finite and nonnegative, got {alpha}")
    if d.den is None or not is_integral(alpha):
        base = _floats(d)
        return _Dense(_float_power(base, alpha, out=base if overwrite or d.den is not None else None))
    k, values = int(alpha), d.values
    bits = _magnitude(values).bit_length()
    check_power_size(len(values), k, max(d.den.bit_length(), bits))
    if values.dtype == np.int64 and k * bits + len(values).bit_length() <= 63:
        return _Dense(values**k, d.den**k)
    return _Dense(values.astype(object) ** k, d.den**k)


def _product(a: _Dense, b: _Dense) -> _Dense:
    """a * b entry by entry over the shorter length: floats when either is
    float, else exact, multiplied as Python ints and then put in lowest
    terms and in :func:`_coerce`'s dtype."""
    k = min(len(a.values), len(b.values))
    if a.den is None or b.den is None:
        return _Dense(_floats(a)[:k] * _floats(b)[:k])
    return _lowest_terms(_Dense(a.values[:k].astype(object) * b.values[:k], a.den * b.den))


def _list_transform(values, ground_n, op):
    d = _coerce(values)[1]
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

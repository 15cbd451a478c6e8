"""Difference calculus for completely monotone functions on finite lattices.

A nonnegative function f is completely monotone (c.m.) when every iterated
difference  D_{x_k}...D_{x_1} f(x) = sum over subsets J of (-1)^|J| f(x v V_J)
is nonnegative.  On a finite lattice this is equivalent to nonnegativity of
the weights p with f(x) = sum_{y >= x} p(y), which is what `is_cm` checks;
`is_cm_bruteforce` sweeps the raw definition and serves as the independent
oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._kernel import _Dense, _numerators, _to_scalars, subset_mobius, subset_sums
from ._scalars import (
    FLOAT,
    RATIONAL,
    check_power_size,
    check_tolerance,
    coerce_values,
    is_integral,
    pow_scalar,
)
from .errors import (
    BudgetExceeded,
    DomainViolation,
    ElementOutOfRange,
    FormatError,
    NegativeValue,
    NoSharpnessNeeded,
    NotASublattice,
    NotCmInput,
    NotDistributive,
    ValueOutOfUnitInterval,
    _ensure,
    _read_document,
)
from .lattice import BooleanLattice, FiniteLattice, _subset_joins, d_max, is_distributive, verify_distinct_joins

DEFAULT_REL_TOL = 1e-9
RECONSTRUCT_CLAMP = 1e-12
BRUTEFORCE_BUDGET = 10**7


@dataclass(frozen=True)
class LatticeFunction:
    """Nonnegative function on a lattice, exact-rational or float valued."""

    lattice: FiniteLattice
    values: tuple

    def __init__(self, lattice, values, _clamp=0.0):
        vals, kind = coerce_values(values)
        if len(vals) != lattice.n:
            raise DomainViolation(f"expected {lattice.n} values, got {len(vals)}")
        if kind == FLOAT and _clamp:
            vals = tuple(0.0 if -_clamp <= v < 0 else v for v in vals)
        low = min(vals) if vals else 0
        if low < 0:
            raise NegativeValue(f"function value {low} is negative")
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "values", vals)

    @property
    def kind(self):
        return RATIONAL if all(not isinstance(v, float) for v in self.values) else FLOAT

    def max_value(self):
        return max(self.values)

    def __call__(self, x):
        return self.values[x]


@dataclass(frozen=True)
class WeightFunction:
    """Weights p (possibly negative) with f(x) = sum_{y >= x} p(y)."""

    lattice: FiniteLattice
    weights: tuple

    def __init__(self, lattice, weights):
        vals, _ = coerce_values(weights)
        if len(vals) != lattice.n:
            raise DomainViolation(f"expected {lattice.n} weights, got {len(vals)}")
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "weights", vals)

    @property
    def kind(self):
        return RATIONAL if all(not isinstance(v, float) for v in self.weights) else FLOAT


@dataclass(frozen=True)
class CmWitness:
    """Certificate for a non-c.m. verdict.

    ``covering`` is the tuple of elements covering ``element``; the iterated
    difference of the function over that tuple at ``element`` equals the
    negative weight (``delta_value`` re-evaluates it from the definition).
    """

    element: int
    weight: object
    covering: tuple
    delta_value: object


@dataclass(frozen=True)
class CmVerdict:
    is_cm: bool
    indeterminate: bool
    min_weight: object
    witness: CmWitness | None
    tol: float

    def __bool__(self):
        return self.is_cm


def delta(f: LatticeFunction, args, base) -> object:
    """Iterated difference D_{args[k]}...D_{args[1]} f(base).

    Inclusion-exclusion over all subsets J of args at base v (join of J);
    an empty args tuple returns f(base).
    """
    lat = f.lattice
    lat.check_element(base)
    args = tuple(args)
    for a in args:
        lat.check_element(a)
    total = 0
    for mask, j in enumerate(_subset_joins(lat, base, args)):
        total += -f.values[j] if bin(mask).count("1") & 1 else f.values[j]
    return total


def mobius_weights(f: LatticeFunction) -> WeightFunction:
    """Weights from the top-down recursion p(x) = f(x) - sum_{y > x} p(y).

    Exact in rational mode; Boolean lattices use the superset Mobius
    transform, which computes the same weights in O(n 2^n).  Other lattices
    solve the recursion over their order table (:func:`_solve_weights`).
    """
    lat = f.lattice
    if isinstance(lat, BooleanLattice):
        # top ^ mask reverses the index order, so a superset transform is the
        # subset transform of the reversed values
        return WeightFunction(lat, subset_mobius(f.values[::-1], lat.ground_n)[::-1])
    return WeightFunction(lat, _solve_weights(lat._leq, f.values))


def _solve_weights(leq, values) -> list:
    """Weights p with values[x] = sum of p(y) over y >= x, for the boolean
    order table ``leq`` (``leq[x, y]`` iff x <= y), as Python scalars.

    Solved one up-set size at a time: elements of equal size are incomparable,
    and every y > x has a smaller up-set, so a level needs only earlier ones.
    """
    d = _dense(values)
    p = np.zeros_like(d.values)
    size = leq.sum(axis=1)
    order = np.argsort(size, kind="stable")
    for level in np.split(order, np.flatnonzero(np.diff(size[order])) + 1):
        strict = leq[level]
        strict[np.arange(len(level)), level] = False
        p[level] = d.values[level] - _up_sums(strict, p)
    return _to_scalars(d._replace(values=p))


def reconstruct(p: WeightFunction) -> LatticeFunction:
    """Function g(x) = sum_{y >= x} p(y); raises NegativeValue if any g < 0."""
    lat = p.lattice
    if isinstance(lat, BooleanLattice):
        g = subset_sums(p.weights[::-1], lat.ground_n)[::-1]
    else:
        d = _dense(p.weights)
        g = _to_scalars(d._replace(values=_up_sums(lat._leq, d.values)))
    return LatticeFunction(lat, g, _clamp=RECONSTRUCT_CLAMP)


def _dense(values) -> _Dense:
    """Float values as float64; exact ones as Python-int numerators over their
    least common denominator, in an object array that :func:`_up_sums` adds
    without overflow."""
    if any(isinstance(v, float) for v in values):
        return _Dense(np.array(values, dtype=float))
    nums, den = _numerators(values)
    return _Dense(np.array(nums, dtype=object), den)


def _up_sums(rows, values):
    """For each boolean row, the sum of ``values`` over its True entries.

    Floats are added left to right in ascending index, as a scalar loop
    starting from 0 adds them, so every result is bitwise that loop's; rows go
    64 at a time to bound the dense temporaries.
    """
    if values.dtype == object:
        return np.array([sum(values[row]) for row in rows], dtype=object)
    sums = [np.cumsum(np.where(rows[i:i + 64], values, 0.0), axis=1)[:, -1]
            for i in range(0, len(rows), 64)]
    # 0 + (-0.0) is 0.0 in the scalar loop; cumsum keeps a lone -0.0
    return np.concatenate(sums) + 0.0


def is_cm(f: LatticeFunction, tol=None) -> CmVerdict:
    """Complete-monotonicity verdict via Mobius weights.

    Rational mode is exact.  In float mode a weight below -tol refutes; any
    weight inside [-tol, tol] flags the verdict as indeterminate rather than
    silently rounding (default tol = 1e-9 * max f).
    """
    if tol is not None:
        check_tolerance(tol)
    p = mobius_weights(f)
    rational = f.kind == RATIONAL and p.kind == RATIONAL
    if tol is None:
        tol = 0 if rational else DEFAULT_REL_TOL * float(max(f.max_value(), 1e-300))
    worst = min(range(f.lattice.n), key=lambda x: p.weights[x])
    min_weight = p.weights[worst]
    if rational:
        bad = min_weight < 0
        indeterminate = False
    else:
        bad = min_weight < -tol
        indeterminate = not bad and any(-tol <= w <= tol for w in p.weights)
    witness = None
    if bad:
        covering = f.lattice.covers(worst)
        witness = CmWitness(worst, min_weight, covering, delta(f, covering, worst))
        if rational:
            # the weight IS the iterated difference over the covering tuple
            _ensure(witness.delta_value == min_weight, "weight and iterated difference disagree")
    return CmVerdict(not bad, indeterminate, min_weight, witness, float(tol))


def is_cm_bruteforce(f: LatticeFunction, max_len=None) -> bool:
    """Oracle from the raw definition: sweep iterated differences directly.

    Checks every tuple of distinct elements up to ``max_len`` at every base
    point (order is immaterial in the inclusion-exclusion sum, so unordered
    combinations suffice), within BRUTEFORCE_BUDGET difference evaluations.
    Independent of the Mobius route on purpose.
    """
    lat = f.lattice
    n = lat.n
    if max_len is None:
        max_len = n
    cost = sum(math.comb(n, k) * (1 << k) for k in range(max_len + 1))
    if cost > BRUTEFORCE_BUDGET:
        raise BudgetExceeded(f"{cost} difference evaluations exceed budget {BRUTEFORCE_BUDGET}")
    rational = f.kind == RATIONAL
    cutoff = 0 if rational else -DEFAULT_REL_TOL * float(max(f.max_value(), 1e-300))
    values = f.values
    for k in range(max_len + 1):
        for combo in itertools.combinations(lat.elements, k):
            joins = [lat.bottom] * (1 << k)
            for mask in range(1, 1 << k):
                low = mask & -mask
                joins[mask] = lat.join(joins[mask ^ low], combo[low.bit_length() - 1])
            for base in lat.elements:
                total = values[base]
                for mask in range(1, 1 << k):
                    v = values[lat.join(base, joins[mask])]
                    total += -v if bin(mask).count("1") & 1 else v
                if total < cutoff:
                    return False
    return True


def power(f: LatticeFunction, alpha) -> LatticeFunction:
    """Pointwise power with 0**0 = 1; stays rational for integral exponents.

    An exact power whose size would exceed the budget of
    :func:`check_power_size` raises BudgetExceeded before it is taken.
    """
    if isinstance(alpha, float) and not math.isfinite(alpha):
        raise DomainViolation(f"exponent must be finite, got {alpha}")
    if alpha < 0:
        raise DomainViolation("exponent must be nonnegative")
    if f.kind == RATIONAL and is_integral(alpha):
        bits = max(max(v.numerator.bit_length(), v.denominator.bit_length()) for v in f.values)
        check_power_size(len(f.values), int(alpha), bits)
    return LatticeFunction(f.lattice, [pow_scalar(v, alpha) for v in f.values])


def cm_power_threshold_check(f: LatticeFunction, alpha) -> CmVerdict:
    """Verdict for f**alpha given c.m. f.

    For integral alpha, or alpha >= d_max - 1, the verdict must be positive;
    anything else indicates an implementation bug and raises InvariantViolation.
    """
    if not is_cm(f).is_cm:
        raise NotCmInput("input function is not completely monotone")
    verdict = is_cm(power(f, alpha))
    if is_integral(alpha) or alpha >= d_max(f.lattice) - 1:
        _ensure(verdict.is_cm, f"power {alpha} of a c.m. function must stay c.m. at or above the threshold")
    return verdict


def sharpness_witness(L: FiniteLattice) -> LatticeFunction:
    """A c.m. function whose powers fail below the d_max - 1 threshold.

    Requires a distributive lattice.  Picks a base element of maximal cover
    degree d, identifies the 2^d subset-join sublattice above it, plants the
    uniform-singleton void functional there through its weights, and
    reconstructs on the whole lattice (the zero-extension mechanism).
    """
    if not is_distributive(L):
        raise NotDistributive("sharpness construction needs a distributive lattice")
    degrees = [len(L.covers(x)) for x in L.elements]
    d = max(degrees)
    if d < 2:
        raise NoSharpnessNeeded("chain lattice: every power of a c.m. function is c.m.")
    x = degrees.index(d)
    covs = L.covers(x)
    weights = [Fraction(0)] * L.n
    for j in range(d):
        # join of all covers except the j-th: carries mass 1/d
        others = [covs[i] for i in range(d) if i != j]
        y = L.join_many([x, *others]) if others else x
        weights[y] += Fraction(1, d)
    distinct, _ = verify_distinct_joins(L, x)
    _ensure(distinct, "subset joins must be distinct on a distributive lattice")
    return reconstruct(WeightFunction(L, weights))


def extend_cm(L: FiniteLattice, sub_values) -> LatticeFunction:
    """Extend a c.m. function from a sublattice to all of L.

    ``sub_values`` maps element indices of L (a join/meet closed subset) to
    the function values.  The weights on the sublattice are zero-extended to
    L and reconstructed; the result restricts back to the input exactly in
    rational mode.
    """
    sub = sorted(sub_values)
    if not sub:
        raise NotASublattice("empty subset")
    inset = set(sub)
    for a in sub:
        L.check_element(a)
    for a, b in itertools.combinations(sub, 2):
        if L.join(a, b) not in inset:
            raise NotASublattice(f"join of {a} and {b} escapes the subset")
        if L.meet(a, b) not in inset:
            raise NotASublattice(f"meet of {a} and {b} escapes the subset")
    vals, kind = coerce_values([sub_values[a] for a in sub])
    fvals = dict(zip(sub, vals))
    # the weights within the sublattice (it is itself a lattice)
    p = _solve_weights(np.array([[L.leq(a, b) for b in sub] for a in sub], dtype=bool), vals)
    tol = 0 if kind == RATIONAL else DEFAULT_REL_TOL * float(max(max(vals), 1e-300))
    worst = min(p)
    if worst < -tol:
        raise NotCmInput(f"function is not c.m. on the sublattice (weight {worst})")
    weights = [0] * L.n
    for a, w in zip(sub, p):
        weights[a] = w
    g = reconstruct(WeightFunction(L, weights))
    for a in sub:
        if kind == RATIONAL:
            same = g.values[a] == fvals[a]
        else:
            same = abs(g.values[a] - fvals[a]) <= 1e-12 * max(1.0, abs(fvals[a]))
        _ensure(same, f"extension changed the value at {a}: {g.values[a]} != {fvals[a]}")
    return g


def poisson_accompany(f: LatticeFunction, m: int) -> LatticeFunction:
    """Accompanying infinitely divisible function exp(-m (1 - f**(1/m))).

    Defined for f with values in [0, 1]; when f is m-divisible the result's
    k-th roots are c.m. for every k (compound-Poisson structure).
    """
    if m < 1:
        raise DomainViolation("m must be a positive integer")
    if any(v < 0 or v > 1 for v in f.values):
        raise ValueOutOfUnitInterval("accompaniment needs values in [0, 1]")
    vals = [math.exp(-m * (1.0 - math.pow(float(v), 1.0 / m))) for v in f.values]
    return LatticeFunction(f.lattice, vals)


def pointwise_product(f: LatticeFunction, g: LatticeFunction) -> LatticeFunction:
    if f.lattice is not g.lattice and f.lattice.n != g.lattice.n:
        raise DomainViolation("functions live on different lattices")
    return LatticeFunction(f.lattice, [a * b for a, b in zip(f.values, g.values)])


# --- text exchange format ---------------------------------------------------

def format_function_text(f: LatticeFunction, lattice_name="") -> str:
    """Serialize as a 'lattice <name>' header plus 'index value' lines."""
    lines = [f"lattice {lattice_name or f.lattice.name or '-'}"]
    for x in f.lattice.elements:
        lines.append(f"{x} {f.values[x]}")
    return "\n".join(lines) + "\n"


def parse_function_text(text: str, lattice: FiniteLattice) -> LatticeFunction:
    """Parse the function exchange format against a known lattice."""
    values = parse_partial_function_text(text, lattice)
    if len(values) != lattice.n:
        raise FormatError(f"expected values for all {lattice.n} elements")
    return LatticeFunction(lattice, [values[x] for x in lattice.elements])


def parse_partial_function_text(text: str, lattice: FiniteLattice) -> dict:
    """Like :func:`parse_function_text` but values may cover only a subset of
    the elements (the sublattice-extension input)."""
    records = _read_document(text, "function", "'index value'", (int, Fraction))
    lineno, header = next(records)
    if not header.startswith("lattice"):
        raise FormatError("expected a 'lattice <name>' header", line=lineno)
    values = {}
    for lineno, (idx, val) in records:
        if not 0 <= idx < lattice.n:
            raise FormatError(f"index {idx} out of range", line=lineno)
        if idx in values:
            raise FormatError(f"duplicate index {idx}", line=lineno)
        values[idx] = val
    if not values:
        raise FormatError("empty function document", line=1)
    return values


def write_function_file(f: LatticeFunction, path, lattice_name=""):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_function_text(f, lattice_name))


def read_function_file(path, lattice: FiniteLattice) -> LatticeFunction:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_function_text(fh.read(), lattice)

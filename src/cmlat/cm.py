"""Difference calculus for completely monotone functions on finite lattices.

A nonnegative function f is completely monotone (c.m.) when every iterated
difference  D_{x_k}...D_{x_1} f(x) = sum over subsets J of (-1)^|J| f(x v V_J)
is nonnegative.  On a finite lattice this is equivalent to nonnegativity of
the weights p with f(x) = sum_{y >= x} p(y), which is what `is_cm` checks;
`is_cm_bruteforce` sweeps the raw definition and serves as the independent
oracle.  Functions and weights are tables of :mod:`cmlat._kernel`, whose
powers, exponential and subset transform this module computes with.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._kernel import (
    _coerce,
    _Dense,
    _exp,
    _float_power,
    _floats,
    _placed,
    _power,
    _Table,
    _to_scalar,
    _to_scalars,
    _transform,
)
from ._scalars import RATIONAL, check_m, check_tolerance, is_integral
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
from .lattice import BooleanLattice, FiniteLattice, _subset_joins, d_max, is_distributive

DEFAULT_REL_TOL = 1e-9
RECONSTRUCT_CLAMP = 1e-12
BRUTEFORCE_BUDGET = 10**7


@dataclass(frozen=True)
class LatticeFunction(_Table):
    """Nonnegative function on a lattice, exact-rational or float valued."""

    lattice: FiniteLattice
    values: tuple

    _HEAD = "lattice"

    def _check(self):
        d = self._dense
        if len(d.values) != self.lattice.n:
            raise DomainViolation(f"expected {self.lattice.n} values, got {len(d.values)}")
        low = d.values.min(initial=0)
        if low < 0:
            raise NegativeValue(f"function value {_to_scalar(d, low)} is negative")

    def max_value(self):
        return self._scalar(np.argmax(self._dense.values))

    def __call__(self, x):
        return self._scalar(x)


@dataclass(frozen=True)
class WeightFunction(_Table):
    """Weights p (possibly negative) with f(x) = sum_{y >= x} p(y)."""

    lattice: FiniteLattice
    weights: tuple

    _HEAD = "lattice"
    _FIELD = "weights"

    def _check(self):
        size = len(self._dense.values)
        if size != self.lattice.n:
            raise DomainViolation(f"expected {self.lattice.n} weights, got {size}")


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
    d = f._dense
    values = _to_scalars(d._replace(values=d.values[_subset_joins(lat, base, args)]))
    total = 0
    for mask, v in enumerate(values):
        total += -v if bin(mask).count("1") & 1 else v
    return total


def mobius_weights(f: LatticeFunction) -> WeightFunction:
    """Weights from the top-down recursion p(x) = f(x) - sum_{y > x} p(y).

    Exact in rational mode; Boolean lattices use the superset Mobius
    transform, which computes the same weights in O(n 2^n).  Other lattices
    solve the recursion over their order table (:func:`_solve_weights`).
    """
    lat, d = f.lattice, f._dense
    if isinstance(lat, BooleanLattice):
        # top ^ mask reverses the index order, so a superset transform is the
        # subset transform of the reversed values
        p = _transform(d.values[::-1], lat.ground_n, np.subtract)[::-1]
        return WeightFunction._from_dense(lat, d._replace(values=p))
    return WeightFunction._from_dense(lat, _solve_weights(lat._leq, d))


def _python_ints(d: _Dense) -> np.ndarray:
    """Exact numerators as Python ints: sums over an order table are unbounded."""
    return d.values if d.den is None else d.values.astype(object)


def _solve_weights(leq, d: _Dense) -> _Dense:
    """Weights p with d[x] = sum of p(y) over y >= x, for the boolean order
    table ``leq`` (``leq[x, y]`` iff x <= y), in the form of ``d``.

    Solved one up-set size at a time: elements of equal size are incomparable,
    and every y > x has a smaller up-set, so a level needs only earlier ones.
    """
    values = _python_ints(d)
    p = np.zeros_like(values)
    size = leq.sum(axis=1)
    order = np.argsort(size, kind="stable")
    for level in np.split(order, np.flatnonzero(np.diff(size[order])) + 1):
        strict = leq[level]
        strict[np.arange(len(level)), level] = False
        p[level] = values[level] - _up_sums(strict, p)
    return d._replace(values=p)


def reconstruct(p: WeightFunction) -> LatticeFunction:
    """Function g(x) = sum_{y >= x} p(y); raises NegativeValue if any g < 0.
    Float values in [-RECONSTRUCT_CLAMP, 0) are rounding and become 0."""
    lat, d = p.lattice, p._dense
    if isinstance(lat, BooleanLattice):
        g = _transform(d.values[::-1], lat.ground_n, np.add)[::-1]
    else:
        g = _up_sums(lat._leq, _python_ints(d))
    if d.den is None:
        g = np.where((-RECONSTRUCT_CLAMP <= g) & (g < 0), 0.0, g)
    return LatticeFunction._from_dense(lat, d._replace(values=g))


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
    p = mobius_weights(f)  # of the kind of f
    rational = f.kind == RATIONAL
    if tol is None:
        tol = 0 if rational else DEFAULT_REL_TOL * float(max(f.max_value(), 1e-300))
    weights = p._dense.values
    worst = int(np.argmin(weights))
    min_weight = p._scalar(worst)
    bad = min_weight < (0 if rational else -tol)
    indeterminate = not (rational or bad) and bool(np.any((-tol <= weights) & (weights <= tol)))
    witness = None
    if bad:
        covering = f.lattice.covers(worst)
        witness = CmWitness(worst, min_weight, covering, delta(f, covering, worst))
        if rational:
            # the weight IS the iterated difference over the covering tuple
            _ensure(witness.delta_value == min_weight, "weight and iterated difference disagree")
    return CmVerdict(not bad, indeterminate, min_weight, witness, float(tol))


def is_cm_bruteforce(f: LatticeFunction) -> bool:
    """Oracle from the raw definition: sweep iterated differences directly.

    Checks every tuple of distinct elements at every base point (order is
    immaterial in the inclusion-exclusion sum, so unordered combinations
    suffice), within BRUTEFORCE_BUDGET difference evaluations.
    Independent of the Mobius route on purpose.
    """
    lat = f.lattice
    n = lat.n
    cost = sum(math.comb(n, k) * (1 << k) for k in range(n + 1))
    if cost > BRUTEFORCE_BUDGET:
        raise BudgetExceeded(f"{cost} difference evaluations exceed budget {BRUTEFORCE_BUDGET}")
    rational = f.kind == RATIONAL
    cutoff = 0 if rational else -DEFAULT_REL_TOL * float(max(f.max_value(), 1e-300))
    values = f.values
    for k in range(n + 1):
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
    """Pointwise power with 0**0 = 1; stays rational for integral exponents
    of exact values, and is float otherwise.

    An exact power whose size would exceed the kernel's power budget raises
    BudgetExceeded before it is taken; a float overflow, DomainViolation.
    """
    return LatticeFunction._from_dense(f.lattice, _power(f._dense, alpha))


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
    d = d_max(L)
    if d < 2:
        raise NoSharpnessNeeded("chain lattice: every power of a c.m. function is c.m.")
    x = next(x for x in L.elements if len(L.covers(x)) == d)
    # distributive: the 2^d joins are distinct, so 2^d <= n <= 2^20 = SUBSET_JOIN_BUDGET
    joins = _subset_joins(L, x, L.covers(x))
    _ensure(len(set(joins)) == len(joins), "subset joins must be distinct on a distributive lattice")
    # the join of all covers except the j-th carries mass 1/d
    tops = [joins[(1 << d) - 1 ^ 1 << j] for j in range(d)]
    return reconstruct(WeightFunction._from_dense(L, _placed([Fraction(1, d)] * d, tops, L.n)))


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
    vals, d = _coerce([sub_values[a] for a in sub])
    fvals = dict(zip(sub, vals))
    # the weights within the sublattice (it is itself a lattice)
    p = _solve_weights(np.array([[L.leq(a, b) for b in sub] for a in sub], dtype=bool), d)
    exact = d.den is not None
    tol = 0 if exact else DEFAULT_REL_TOL * float(max(max(vals), 1e-300))
    worst = p.values.min()
    if worst < -tol:
        raise NotCmInput(f"function is not c.m. on the sublattice (weight {_to_scalar(p, worst)})")
    weights = np.zeros(L.n, dtype=p.values.dtype)
    weights[sub] = p.values
    g = reconstruct(WeightFunction._from_dense(L, p._replace(values=weights)))
    for a in sub:
        slack = 0 if exact else 1e-12 * max(1.0, abs(fvals[a]))
        changed = f"extension changed the value at {a}: {g.values[a]} != {fvals[a]}"
        _ensure(abs(g.values[a] - fvals[a]) <= slack, changed)
    return g


def poisson_accompany(f: LatticeFunction, m: int) -> LatticeFunction:
    """Accompanying infinitely divisible function exp(-m (1 - f**(1/m))).

    Defined for f with values in [0, 1]; when f is m-divisible the result's
    k-th roots are c.m. for every k (compound-Poisson structure).
    """
    m = check_m(m)
    if f.max_value() > 1:
        raise ValueOutOfUnitInterval("accompaniment needs values in [0, 1]")
    root = _float_power(_floats(f._dense), 1.0 / m)
    return LatticeFunction._from_dense(f.lattice, _Dense(_exp(-float(m) * (1.0 - root))))


def pointwise_product(f: LatticeFunction, g: LatticeFunction) -> LatticeFunction:
    """f * g pointwise; the two lattices must have the same cover pairs
    (compared element by element: a 2^20 list of them takes about 1 GB)."""
    a, b = f.lattice, g.lattice
    if a is not b and (a.n != b.n or any(a.covers(x) != b.covers(x) for x in a.elements)):
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

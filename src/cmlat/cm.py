"""Difference calculus for completely monotone functions on finite lattices.

A nonnegative function f is completely monotone (c.m.) when every iterated
difference  D_{x_k}...D_{x_1} f(x) = sum over subsets J of (-1)^|J| f(x v V_J)
is nonnegative.  On a finite lattice this is equivalent to nonnegativity of
the weights p with f(x) = sum_{y >= x} p(y), which is what `is_cm` checks;
`is_cm_bruteforce` sweeps the raw definition and serves as the independent
oracle.  Functions and weights are tables of :mod:`cmlat._kernel`, whose
powers and exponential this module computes with; weights and their inverse
come from the lattice's ``_up_transform``, which on an explicit lattice reads
the order and join rows of its join-irreducibles only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

# imported before numpy, so that numpy's import reuses the memory of compiling lattice.py
from .lattice import FiniteLattice, _subset_joins, d_max, from_covers, is_distributive
import numpy as np

from ._kernel import (
    CHUNK_ROWS,
    _coerce,
    _Dense,
    _exp,
    _float_power,
    _floats,
    _placed,
    _power,
    _product,
    _Table,
    _to_scalar,
    _to_scalars,
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
        d = self._dense
        return _to_scalar(d, d.values.max())

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
    """Weights from the top-down recursion p(x) = f(x) - sum_{y > x} p(y):
    the inverse of the lattice's up-sum transform, exact in rational mode."""
    lat, d = f.lattice, f._dense
    return WeightFunction._from_dense(lat, d._replace(values=lat._up_transform(d.values, np.subtract)))


def reconstruct(p: WeightFunction) -> LatticeFunction:
    """Function g(x) = sum_{y >= x} p(y); raises NegativeValue if any g < 0.
    Float values in [-RECONSTRUCT_CLAMP, 0) are rounding and become 0."""
    lat, d = p.lattice, p._dense
    g = lat._up_transform(d.values, np.add)
    if d.den is None:
        g = np.where((-RECONSTRUCT_CLAMP <= g) & (g < 0), 0.0, g)
    return LatticeFunction._from_dense(lat, d._replace(values=g))


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
    min_weight = _to_scalar(p._dense, weights.min())
    bad = min_weight < (0 if rational else -tol)
    # every weight is at least -tol unless bad, so one is within tol iff the least is
    indeterminate = not (rational or bad or min_weight > tol)
    witness = None
    if bad:
        worst = int(np.argmin(weights))
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
    # distributive: the 2^d joins are distinct, so 2^d <= n <= 2^20
    joins = _subset_joins(L, x, L.covers(x))
    _ensure(len(set(joins)) == len(joins), "subset joins must be distinct on a distributive lattice")
    # the join of all covers except the j-th carries mass 1/d
    tops = [joins[(1 << d) - 1 ^ 1 << j] for j in range(d)]
    return reconstruct(WeightFunction._from_dense(L, _placed(_coerce([Fraction(1, d)] * d)[1], tops, L.n)))


def extend_cm(L: FiniteLattice, sub_values) -> LatticeFunction:
    """Extend a c.m. function from a sublattice to all of L.

    ``sub_values`` maps element indices of L (a join/meet closed subset) to
    the function values.  The weights on the sublattice, built from its cover
    pairs by ``from_covers`` (so of at most 4096 elements), are zero-extended
    to L and reconstructed; the result restricts back to the input exactly in
    rational mode.
    """
    sub = sorted(sub_values)
    if not sub:
        raise NotASublattice("empty subset")
    for a in sub:
        L.check_element(a)
    index = {a: i for i, a in enumerate(sub)}
    # the strict up-sets and down-sets of the elements within sub, as bits
    above, below = [0] * len(sub), [0] * len(sub)
    for (i, a), (k, b) in itertools.combinations(enumerate(sub), 2):
        join = L.join(a, b)
        if join not in index:
            raise NotASublattice(f"join of {a} and {b} escapes the subset")
        if L.meet(a, b) not in index:
            raise NotASublattice(f"meet of {a} and {b} escapes the subset")
        if join in (a, b):
            lo, hi = (i, k) if join == b else (k, i)
            above[lo] |= 1 << hi
            below[hi] |= 1 << lo
    # hi covers lo when nothing in sub lies strictly between them
    pairs = [(lo, hi) for lo, up in enumerate(above) for hi in range(len(sub))
             if up >> hi & 1 and not up & below[hi]]
    vals, d = _coerce([sub_values[a] for a in sub])
    fvals = dict(zip(sub, vals))
    # the weights within the sublattice (it is itself a lattice)
    p = d._replace(values=from_covers(len(sub), pairs)._up_transform(d.values, np.subtract))
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
    np.multiply(-float(m), np.subtract(1.0, root, out=root), out=root)  # -m (1 - root), in root
    return LatticeFunction._from_dense(f.lattice, _Dense(_exp(root)))


def pointwise_product(f: LatticeFunction, g: LatticeFunction) -> LatticeFunction:
    """f * g pointwise; the two lattices must have the same cover pairs
    (compared element by element: a 2^20 list of them takes about 1 GB)."""
    a, b = f.lattice, g.lattice
    if a is not b and (a.n != b.n or any(a.covers(x) != b.covers(x) for x in a.elements)):
        raise DomainViolation("functions live on different lattices")
    return LatticeFunction._from_dense(f.lattice, _product(f._dense, g._dense))


# --- text exchange format ---------------------------------------------------

def _function_chunks(f: LatticeFunction, lattice_name=""):
    """The document of :func:`format_function_text`, in chunks of at most
    ``CHUNK_ROWS`` lines, converted from the dense table."""
    d = f._dense
    yield f"lattice {lattice_name or f.lattice.name or '-'}\n"
    for start in range(0, f.lattice.n, CHUNK_ROWS):
        values = _to_scalars(d._replace(values=d.values[start:start + CHUNK_ROWS]))
        yield "".join([f"{x} {v}\n" for x, v in enumerate(values, start)])


def format_function_text(f: LatticeFunction, lattice_name="") -> str:
    """Serialize as a 'lattice <name>' header plus 'index value' lines."""
    return "".join(_function_chunks(f, lattice_name))


def parse_function_text(text, lattice: FiniteLattice) -> LatticeFunction:
    """Parse the function exchange format, a text or an open text file,
    against a known lattice; the table is held dense."""
    values = parse_partial_function_text(text, lattice)
    if len(values) != lattice.n:
        raise FormatError(f"expected values for all {lattice.n} elements")
    return LatticeFunction._from_dense(lattice, _coerce([values[x] for x in lattice.elements])[1])


def parse_partial_function_text(text, lattice: FiniteLattice) -> dict:
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
    """Write :func:`format_function_text`, chunk by chunk."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_function_chunks(f, lattice_name))


def read_function_file(path, lattice: FiniteLattice) -> LatticeFunction:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_function_text(fh, lattice)

"""Random subsets of [n]: distributions, void functionals, fractional powers.

Subsets are encoded as bit masks (element i is bit i).  The void functional
V(K) = P{X and K disjoint} = P{X inside complement of K} connects the two
representations through subset-sum (zeta) transforms, and Mobius inversion
recovers the distribution from V.  The candidate mass of the alpha-th power
is q(A) = sum over B inside A of (-1)^{|A|-|B|} P{X subset B}^alpha; the power
exists exactly when every q(A) clears the tolerance.

Tables over the 2^n masks are dense arrays, float64 or integer numerators
over one denominator, and every transform is one pass of the subset kernel
(:mod:`cmlat._kernel`, whose :func:`subset_sums` and :func:`subset_mobius`
this module re-exports).  Python scalars (floats, Fractions) are built only at
the API boundary: the ``probs``, ``table`` and ``q_values`` tuples.  The
exponential of :func:`poisson_union` calls libm once per entry
(`math.exp`), as the kernel's float power does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._kernel import (
    _Dense,
    _dense_of,
    _float_power,
    _floats,
    _int_dtype,
    _int_power,
    _numerators,
    _to_scalar,
    _to_scalars,
    _transform,
    subset_mobius,
    subset_sums,
)
from ._scalars import FLOAT, RATIONAL, check_tolerance, coerce_values, is_integral
from .errors import (
    DomainViolation,
    FormatError,
    GroundSetMismatch,
    InvalidProbabilityVector,
    NotAVoidFunctional,
    SizeLimitExceeded,
    _read_document,
)

GROUND_CAP = 20
MASS_TOL = 1e-9
SUM_TOL = 1e-12


def mask_sets(masks, n) -> list:
    """Brace notation for each subset mask, elements numbered from 1.

    One lookup table per half of the mask holds the element lists of the
    half values that occur, each element followed by a comma; a mask's set
    is its two entries joined, less the last comma.  ``masks`` is iterated
    three times.
    """
    half = n // 2
    low_bits = (1 << half) - 1

    def lists(values, first, stop):
        return {v: "".join(f"{i + 1}," for i in range(first, stop) if v >> (i - first) & 1) for v in values}

    low = lists({m & low_bits for m in masks}, 0, half)
    high = lists({m >> half for m in masks}, half, n)
    return ["{%s}" % (low[m & low_bits] + high[m >> half])[:-1] for m in masks]


def mask_set(mask, n) -> str:
    """Brace notation for one subset mask (see :func:`mask_sets`)."""
    return mask_sets([mask], n)[0]


@dataclass(frozen=True)
class RandomSubset:
    """Distribution over subsets of [n], indexed by mask."""

    n: int
    probs: tuple

    def __init__(self, n, probs):
        _check_ground(n)
        try:
            vals, kind = coerce_values(probs)
        except DomainViolation as exc:  # a non-finite mass
            raise InvalidProbabilityVector(str(exc)) from exc
        self._fill(n, _dense_of(vals, kind), vals)

    @classmethod
    def _from_dense(cls, n, d: _Dense):
        x = cls.__new__(cls)
        _check_ground(n)
        x._fill(n, d, None)
        return x

    def _fill(self, n, d, vals):
        if len(d.values) != 1 << n:
            raise InvalidProbabilityVector(f"expected {1 << n} masses, got {len(d.values)}")
        low = d.values.min()
        if low < 0:
            raise InvalidProbabilityVector(f"negative mass {_to_scalar(d, low)}")
        vals = tuple(_to_scalars(d)) if vals is None else vals
        if d.den is not None:
            total = int(d.values.sum())
            if total != d.den:
                raise InvalidProbabilityVector(f"masses sum to {Fraction(total, d.den)}, not 1")
        else:
            total = sum(vals)  # left to right, as the masses are listed
            if not abs(total - 1.0) <= SUM_TOL:  # a NaN total fails too
                raise InvalidProbabilityVector(f"masses sum to {total!r}, not 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "probs", vals)
        object.__setattr__(self, "_dense", d)

    @property
    def kind(self):
        return FLOAT if self._dense.den is None else RATIONAL

    def containment_table(self):
        """P{X subset B} for every mask B (the subset-sum transform)."""
        return _to_scalars(_containment(self))


def _check_ground(n):
    if not 1 <= n <= GROUND_CAP:
        raise SizeLimitExceeded(f"ground set must have 1..{GROUND_CAP} points, got {n}")


def _containment(x: RandomSubset) -> _Dense:
    """Dense P{X subset B} for every mask B."""
    d = x._dense
    return _Dense(_transform(d.values, x.n, np.add), d.den)


@dataclass(frozen=True)
class VoidFunctional:
    """Table V(K) = P{X and K disjoint} over all masks K; V(empty) = 1."""

    n: int
    table: tuple

    def __init__(self, n, table):
        vals, kind = coerce_values(table)
        self._fill(n, _dense_of(vals, kind), vals)

    @classmethod
    def _from_dense(cls, n, d: _Dense):
        v = cls.__new__(cls)
        v._fill(n, d, None)
        return v

    def _fill(self, n, d, vals):
        if len(d.values) != 1 << n:
            raise DomainViolation(f"expected {1 << n} entries, got {len(d.values)}")
        _check_void(d)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "table", tuple(_to_scalars(d)) if vals is None else vals)
        object.__setattr__(self, "_dense", d)

    @property
    def kind(self):
        return FLOAT if self._dense.den is None else RATIONAL

    def capacity(self):
        """Capacity functional T = 1 - V."""
        return tuple(1 - v for v in self.table)

    def __call__(self, mask):
        return self.table[mask]


def _check_void(d: _Dense):
    """V(empty) must be 1 (within SUM_TOL for a float table)."""
    v0 = d.values[0]
    if d.den is not None:
        if v0 != d.den:
            raise NotAVoidFunctional(f"V(empty) = {_to_scalar(d, v0)}, must be 1", witness=0)
    elif abs(float(v0) - 1.0) > SUM_TOL:
        raise NotAVoidFunctional(f"V(empty) = {float(v0)!r}, must be 1", witness=0)


@dataclass(frozen=True)
class PowerVerdict:
    """Existence verdict for the alpha-th power of a random subset."""

    exists: bool
    alpha: object
    n: int
    q_values: tuple
    min_q: object
    witness: int | None
    boundary: bool
    tol: float

    def __bool__(self):
        return self.exists

    def distribution(self) -> RandomSubset:
        if not self.exists:
            raise NotAVoidFunctional(
                f"power {self.alpha} does not exist", witness=self.witness, mass=self.min_q
            )
        clamped = [0 if (isinstance(q, float) and -self.tol <= q < 0) else q for q in self.q_values]
        return RandomSubset(self.n, clamped)


# --- core maps --------------------------------------------------------------

def void_functional(x: RandomSubset) -> VoidFunctional:
    """V(K) = P{X inside complement of K}, via one subset-sum transform."""
    w = _containment(x)
    # mask full ^ K sits at the reversed index
    return VoidFunctional._from_dense(x.n, _Dense(w.values[::-1], w.den))


def from_void(v: VoidFunctional, tol=MASS_TOL) -> RandomSubset:
    """Mobius inversion P{X=A} = sum_{B in A} (-1)^{|A|-|B|} V(complement of B).

    Raises NotAVoidFunctional with the witness subset when a mass lands below
    -tol (exact negativity in rational mode); float masses in (-tol, 0) are
    clamped to zero.
    """
    return _invert(v.n, v._dense, check_tolerance(tol))


def _invert(n, v: _Dense, tol) -> RandomSubset:
    """:func:`from_void` on a dense void table."""
    masses = _transform(v.values[::-1], n, np.subtract)
    worst = int(np.argmin(masses))
    if masses[worst] < (-tol if v.den is None else 0):
        mass = _to_scalar(v, masses[worst])
        raise NotAVoidFunctional(
            f"mass {mass} at {mask_set(worst, n)}: not completely monotone", witness=worst, mass=mass
        )
    if v.den is None:
        masses = np.where(masses < 0, 0.0, masses)
    return RandomSubset._from_dense(n, _Dense(masses, v.den))


def power_exists(x: RandomSubset, alpha, tol=MASS_TOL) -> PowerVerdict:
    """Does the random subset with void functional V^alpha exist?

    Evaluates the full candidate-mass table q(A); existence means every q(A)
    is at or above -tol.  Values clamped from (-tol, 0) set the boundary flag
    so exact integer exponents classify as existing.  An exact law and an
    integral alpha give exact Fractions; any other pair gives floats.
    """
    if isinstance(alpha, float) and not math.isfinite(alpha):
        raise DomainViolation(f"alpha must be finite, got {alpha}")
    if alpha < 0:
        raise DomainViolation("alpha must be nonnegative")
    check_tolerance(tol)
    w = _containment(x)
    exact = w.den is not None and is_integral(alpha)
    wa = _int_power(w, int(alpha)) if exact else _Dense(_float_power(_floats(w), alpha))
    q = _Dense(_transform(wa.values, x.n, np.subtract), wa.den)
    worst = int(np.argmin(q.values))
    low = q.values[worst]
    exists = bool(low >= 0 if exact else low >= -tol)
    q_values = tuple(_to_scalars(q))
    min_q = q_values[worst]
    return PowerVerdict(
        exists=exists,
        alpha=alpha,
        n=x.n,
        q_values=q_values,
        min_q=min_q,
        witness=None if exists else worst,
        boundary=(not exact) and exists and min_q < 0,
        tol=float(tol),
    )


def union_iid(x: RandomSubset, m: int) -> RandomSubset:
    """Union of m independent copies: void functional V^m, inverted exactly.

    A float law's V is taken relative to V(empty), its total mass, which it
    meets only up to rounding: the m-th power would otherwise turn that
    rounding into V(empty)^m far from 1 (the same amplification
    :func:`poisson_union` avoids).
    """
    if m < 1 or not is_integral(m):
        raise DomainViolation("m must be a positive integer")
    w = _containment(x)
    v = _Dense(w.values[::-1], w.den)
    if v.den is not None:
        vm = _int_power(v, int(m))
    else:
        vm = _Dense(_float_power(v.values / v.values[0], int(m)))
    _check_void(vm)
    return _invert(x.n, vm, MASS_TOL)


def poisson_union(x: RandomSubset, lam) -> RandomSubset:
    """Union of Poisson(lam) many independent copies: V = exp(lam (V_X - 1)).

    The exponent is taken as lam (V_X(K) - V_X(empty)): V_X(empty) is the
    total mass, which a float law meets only up to rounding, and a large lam
    would otherwise turn that rounding into V(empty) < 1.  Masses that the
    inversion leaves below -MASS_TOL raise NotAVoidFunctional.
    """
    if not math.isfinite(lam):
        raise DomainViolation(f"lambda must be finite, got {lam}")
    if lam <= 0:
        raise DomainViolation("lambda must be positive")
    v = _floats(_containment(x))[::-1]
    exponent = float(lam) * (v - v[0])
    return _invert(x.n, _Dense(np.fromiter(map(math.exp, exponent.tolist()), float, len(v))), MASS_TOL)


def singleton_set(*ps) -> RandomSubset:
    """Distribution with mass p_i on the singleton {i}; the p_i must be
    positive and sum to one."""
    if len(ps) == 1 and not isinstance(ps[0], (int, float, Fraction)):
        ps = tuple(ps[0])
    n = len(ps)
    if n < 1:
        raise InvalidProbabilityVector("need at least one point")
    vals, kind = coerce_values(ps)
    if min(vals) <= 0:
        raise InvalidProbabilityVector("singleton masses must be positive")
    total = sum(vals)
    bad = total != 1 if kind == RATIONAL else abs(total - 1.0) > SUM_TOL
    if bad:
        raise InvalidProbabilityVector(f"masses sum to {total}, not 1")
    _check_ground(n)  # before the 2^n table is allocated
    probs = [vals[0] * 0] * (1 << n)
    for i, p in enumerate(vals):
        probs[1 << i] = p
    return RandomSubset(n, probs)


def uniform_singleton(n: int) -> RandomSubset:
    """Uniform random singleton on [n]."""
    _check_ground(n)  # before the n masses are allocated
    return singleton_set(*([Fraction(1, n)] * n))


def void_distance(x: RandomSubset, y: RandomSubset) -> float:
    """Sup distance between void functionals over all 2^n compact sets."""
    if x.n != y.n:
        raise GroundSetMismatch(f"ground sets differ: {x.n} vs {y.n}")
    return float(np.abs(_floats(_containment(x)) - _floats(_containment(y))).max())


def is_m_divisible(x: RandomSubset, m: int) -> PowerVerdict:
    """Existence verdict for the 1/m-th power, at tolerance MASS_TOL."""
    if m < 1 or not is_integral(m):
        raise DomainViolation("m must be a positive integer")
    m = int(m)
    return power_exists(x, Fraction(1, m) if m == 1 else 1.0 / m)


def _levy_measure(x: RandomSubset):
    """The Levy measure of X on [n] minus its fixed part, or None if X has none.

    The fixed part F is the intersection of the atoms.  When P{X = F} > 0,
    returns ``(sets, nu)``: nu[j] is the subset-Mobius transform of
    log P{X subset F union B} over B inside [n] minus F, taken at the set
    sets[j] (a mask disjoint from F).  nu[0] is minus the total intensity.
    """
    d = x._dense
    fixed = int(np.bitwise_and.reduce(np.flatnonzero(d.values)))
    if not d.values[fixed]:
        return None
    sets = np.zeros(1, dtype=np.int64)
    for i in range(x.n):
        if not fixed >> i & 1:
            sets = np.concatenate([sets, sets | 1 << i])
    w = _floats(_containment(x))[fixed | sets]  # at least P{X = F} > 0
    return sets, _transform(np.log(w), len(sets).bit_length() - 1, np.subtract)


def is_infinitely_divisible(x: RandomSubset) -> bool:
    """Is V_X^alpha a void functional for every alpha > 0?

    Exactly when X is its fixed part F (the intersection of its atoms, which
    must itself be an atom) united with a Poisson union whose intensity is
    the Levy measure nu of :func:`_levy_measure`: nu(A) >= -MASS_TOL on every
    nonempty A.  A negative nu(A) fails the power at small alpha, where
    q(F union A, alpha) = alpha nu(A) + O(alpha^2).
    """
    levy = _levy_measure(x)
    return levy is not None and bool(levy[1][1:].min(initial=0.0) >= -MASS_TOL)


# --- text exchange format -----------------------------------------------------

def format_distribution_text(x: RandomSubset) -> str:
    """Serialize as 'n' then 'mask probability' lines (zero masses skipped)."""
    lines = [str(x.n)]
    for mask, p in enumerate(x.probs):
        if p != 0:
            lines.append(f"{mask} {p}")
    return "\n".join(lines) + "\n"


def _read_mask_lines(text: str, document: str, value_name: str, number):
    """Read an 'n' then 'mask value' document.

    Returns n and an iterator of (line number, mask, value); the header and
    its range are checked here, before the caller allocates a 2^n table.
    ``number`` parses a value and raises ValueError or ZeroDivisionError on
    bad input.
    """
    records = _read_document(text, document, f"'mask {value_name}'", (int, number), "ground-set size")
    lineno, n = next(records)
    if not 1 <= n <= GROUND_CAP:
        raise FormatError(f"ground-set size {n} out of range", line=lineno)

    def entries():
        for lineno, (mask, value) in records:
            if not 0 <= mask < (1 << n):
                raise FormatError(f"mask {mask} out of range", line=lineno)
            yield lineno, mask, value

    return n, entries()


def parse_distribution_text(text: str) -> RandomSubset:
    """Distribution document: 'n' then 'mask probability' lines.

    Only the listed masks are summed (a mask listed twice gets both masses);
    the dense table is filled once, from the exact total's verdict: masses
    summing to 1 stay exact, decimal prints of binary64 masses become floats.
    """
    n, entries = _read_mask_lines(text, "distribution", "probability", Fraction)
    listed = {}
    for _, mask, p in entries:
        listed[mask] = listed.get(mask, 0) + p
    total = sum(listed.values())
    masks = list(listed)
    if total != 1 and abs(float(total) - 1.0) <= SUM_TOL:
        # decimal prints of binary64 masses: keep them, but as floats
        law = _Dense(np.zeros(1 << n))
        law.values[masks] = [float(p) for p in listed.values()]
    else:
        nums, den = _numerators(listed.values())
        law = _Dense(np.zeros(1 << n, dtype=_int_dtype(nums, 1 << n)), den)
        law.values[masks] = nums
    try:
        return RandomSubset._from_dense(n, law)
    except InvalidProbabilityVector as exc:
        raise FormatError(str(exc)) from exc


def _void_value(text: str):
    # a decimal print of a binary64 table reads back as the floats it prints,
    # so the float tolerance band applies to it
    if not any(c in text for c in ".eE"):
        return Fraction(text)
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def parse_void_text(text: str) -> VoidFunctional:
    """Void-functional document: 'n' then one 'mask value' line per mask.

    Values written with '.', 'e' or 'E' are binary64 floats; integers and
    'p/q' values stay exact.
    """
    n, entries = _read_mask_lines(text, "void-functional", "value", _void_value)
    table = [None] * (1 << n)
    for lineno, mask, value in entries:
        if table[mask] is not None:
            raise FormatError(f"duplicate mask {mask}", line=lineno)
        table[mask] = value
    missing = [i for i, v in enumerate(table) if v is None]
    if missing:
        raise FormatError(f"missing entries for masks {missing[:4]}...")
    return VoidFunctional(n, table)


def write_distribution_file(x: RandomSubset, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_distribution_text(x))


def read_distribution_file(path) -> RandomSubset:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_distribution_text(fh.read())

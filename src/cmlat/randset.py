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
the API boundary: a computed table builds its ``probs``, ``table`` or
``q_values`` tuple on first read, and a command that reports a verdict, a
witness or the nonzero masses converts only those entries.  The pointwise
powers and the exponential of :func:`poisson_union` are the kernel's, which
use libm's ``pow`` and ``exp``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._kernel import (CHUNK_ROWS, _coerce, _Dense, _exp, _floats, _Lazy, _lowest_terms, _per_bit, _placed,
                      _power, _Table, _to_scalar, _to_scalars, _transform, subset_mobius, subset_sums)
from ._scalars import check_m, check_tolerance
from .errors import (DomainViolation, FormatError, GroundSetMismatch, InvalidProbabilityVector,
                     NotAVoidFunctional, SizeLimitExceeded, _read_document)

GROUND_CAP = 20
MASS_TOL = 1e-9
SUM_TOL = 1e-12


def mask_set_texts(n):
    """The function from an iterable of int masks of [n] to the list of their
    brace notations, elements numbered from 1.

    Lookups built once here hold the texts of every half of a mask: the low
    half's elements after the opening brace, and the high half's before the
    closing one, with a leading comma for use after a nonempty low half.  A
    mask's set is one low text and one high text joined.
    """
    half = n // 2
    low_bits = (1 << half) - 1

    def lists(first, stop):
        texts = [[]]
        for i in range(first, stop):  # the values with bit i - first set follow those without
            texts += [t + [str(i + 1)] for t in texts]
        return [",".join(t) for t in texts]

    highs = lists(half, n)
    low = ["{" + t for t in lists(0, half)]
    high_alone = [t + "}" for t in highs]
    high_after = ["," * bool(t) + t + "}" for t in highs]

    def sets(masks) -> list:
        return [low[m & low_bits] + (high_after if m & low_bits else high_alone)[m >> half] for m in masks]

    return sets


def mask_sets(masks, n) -> list:
    """Brace notation for each subset mask (see :func:`mask_set_texts`)."""
    return mask_set_texts(n)(masks)


def mask_set(mask, n) -> str:
    """Brace notation for one subset mask (see :func:`mask_set_texts`)."""
    return mask_sets([mask], n)[0]


@dataclass(frozen=True)
class RandomSubset(_Table):
    """Distribution over subsets of [n], indexed by mask."""

    n: int
    probs: tuple

    _FIELD = "probs"

    def __post_init__(self):
        try:
            super().__post_init__()
        except DomainViolation as exc:  # a non-finite mass
            raise InvalidProbabilityVector(str(exc)) from exc

    def _check(self):
        n, d = self.n, self._dense
        _check_ground(n)
        if len(d.values) != 1 << n:
            raise InvalidProbabilityVector(f"expected {1 << n} masses, got {len(d.values)}")
        low = d.values.min()
        if low < 0:
            raise InvalidProbabilityVector(f"negative mass {_to_scalar(d, low)}")
        if d.den is not None:
            total = int(d.values.sum())
            if total != d.den:
                raise InvalidProbabilityVector(f"masses sum to {Fraction(total, d.den)}, not 1")
        else:
            # left to right, as the masses are listed (adding a zero changes no sum)
            masses = d.values[d.values != 0]
            total = float(np.cumsum(masses)[-1]) if masses.size else 0.0
            if not abs(total - 1.0) <= SUM_TOL:  # a NaN total fails too
                raise InvalidProbabilityVector(f"masses sum to {total!r}, not 1")

    def containment_table(self):
        """P{X subset B} for every mask B (the subset-sum transform)."""
        return _to_scalars(_containment(self))


def _check_ground(n):
    if not 1 <= n <= GROUND_CAP:
        raise SizeLimitExceeded(f"ground set must have 1..{GROUND_CAP} points, got {n}")


def _containment(x: RandomSubset, spend=False) -> _Dense:
    """Dense P{X subset B} for every mask B, in x's own table if ``spend``."""
    d = x._dense
    return _Dense((_per_bit if spend else _transform)(d.values, x.n, np.add), d.den)


@dataclass(frozen=True)
class VoidFunctional(_Table):
    """Table V(K) = P{X and K disjoint} over all masks K; V(empty) = 1."""

    n: int
    table: tuple

    _FIELD = "table"

    def _check(self):
        d = self._dense
        if len(d.values) != 1 << self.n:
            raise DomainViolation(f"expected {1 << self.n} entries, got {len(d.values)}")
        _check_void(d)

    def capacity(self):
        """Capacity functional T = 1 - V."""
        return tuple(1 - v for v in self.table)

    def __call__(self, mask):
        return self._scalar(mask)


def _check_void(d: _Dense):
    """V(empty) must be 1 (within SUM_TOL for a float table)."""
    v0 = d.values[0]
    if d.den is not None:
        if v0 != d.den:
            raise NotAVoidFunctional(f"V(empty) = {_to_scalar(d, v0)}, must be 1", witness=0)
    elif abs(float(v0) - 1.0) > SUM_TOL:
        raise NotAVoidFunctional(f"V(empty) = {float(v0)!r}, must be 1", witness=0)


@dataclass(frozen=True)
class PowerVerdict(_Lazy):
    """Existence verdict for the alpha-th power of a random subset.

    :func:`power_exists` keeps the dense q table: ``q_values`` is built on
    first read."""

    exists: bool
    alpha: object
    n: int
    q_values: tuple
    min_q: object
    witness: int | None
    boundary: bool
    tol: float

    _FIELD = "q_values"

    def __bool__(self):
        return self.exists

    def distribution(self) -> RandomSubset:
        """The law of the power: the q table, float masses in [-tol, 0)
        clamped to zero, exact masses over their least common denominator."""
        if not self.exists:
            raise NotAVoidFunctional(
                f"power {self.alpha} does not exist", witness=self.witness, mass=self.min_q
            )
        q = self._dense
        if q.den is None:
            q = _Dense(np.where((q.values < 0) & (q.values >= -self.tol), 0.0, q.values))
        else:
            q = _lowest_terms(q)
        return RandomSubset._from_dense(self.n, q)


# --- core maps --------------------------------------------------------------
# _invert, _power_q, _union and _poisson overwrite the containment table w.

def void_functional(x: RandomSubset) -> VoidFunctional:
    """V(K) = P{X inside complement of K}, via one subset-sum transform."""
    w = _containment(x)
    # mask full ^ K sits at the reversed index
    return VoidFunctional._from_dense(x.n, _Dense(w.values[::-1], w.den))


def from_void(v: VoidFunctional) -> RandomSubset:
    """Mobius inversion P{X=A} = sum_{B in A} (-1)^{|A|-|B|} V(complement of B).

    Raises NotAVoidFunctional with the witness subset when a mass lands below
    -MASS_TOL (exact negativity in rational mode); float masses in
    (-MASS_TOL, 0) are clamped to zero.
    """
    return _invert(v.n, v._dense._replace(values=v._dense.values[::-1].copy()))


def _invert(n, w: _Dense) -> RandomSubset:
    """:func:`from_void` on w, V at the complement of each mask."""
    masses = _per_bit(w.values, n, np.subtract)
    worst = int(np.argmin(masses))
    if masses[worst] < (-MASS_TOL if w.den is None else 0):
        mass = _to_scalar(w, masses[worst])
        raise NotAVoidFunctional(
            f"mass {mass} at {mask_set(worst, n)}: not completely monotone", witness=worst, mass=mass
        )
    if w.den is None:
        masses[masses < 0] = 0.0
    return RandomSubset._from_dense(n, _Dense(masses, w.den))


def power_exists(x: RandomSubset, alpha, tol=MASS_TOL) -> PowerVerdict:
    """Does the random subset with void functional V^alpha exist?

    Evaluates the full candidate-mass table q(A); existence means every q(A)
    is at or above -tol.  Values clamped from (-tol, 0) set the boundary flag
    so exact integer exponents classify as existing.  An exact law and an
    integral alpha give exact Fractions; any other pair gives floats.
    """
    return _power_q(x.n, _containment(x), alpha, tol)


def _power_q(n, w: _Dense, alpha, tol) -> PowerVerdict:
    check_tolerance(tol)
    w = _power(w, alpha, overwrite=True)
    exact = w.den is not None
    q = _Dense(_per_bit(w.values, n, np.subtract), w.den)
    worst = int(np.argmin(q.values))
    low = q.values[worst]
    exists = bool(low >= 0 if exact else low >= -tol)
    min_q = _to_scalar(q, low)
    return PowerVerdict._lazy(q, exists=exists, alpha=alpha, n=n, min_q=min_q, tol=float(tol),
                              witness=None if exists else worst, boundary=(not exact) and exists and min_q < 0)


def union_iid(x: RandomSubset, m: int) -> RandomSubset:
    """Union of m independent copies: void functional V^m, inverted exactly.

    A float law's V is taken relative to V(empty), its total mass, which it
    meets only up to rounding: the m-th power would otherwise turn that
    rounding into V(empty)^m far from 1 (the same amplification
    :func:`poisson_union` avoids).
    """
    return _union(x.n, _containment(x), m)


def _union(n, w: _Dense, m) -> RandomSubset:
    # V(empty) is w[-1]: w is V reversed
    m = check_m(m)
    if w.den is None:
        np.divide(w.values, w.values[-1], out=w.values)
    w = _power(w, m, overwrite=True)
    _check_void(w._replace(values=w.values[::-1]))
    return _invert(n, w)


def poisson_union(x: RandomSubset, lam) -> RandomSubset:
    """Union of Poisson(lam) many independent copies: V = exp(lam (V_X - 1)).

    The exponent is taken as lam (V_X(K) - V_X(empty)): V_X(empty) is the
    total mass, which a float law meets only up to rounding, and a large lam
    would otherwise turn that rounding into V(empty) < 1.  Masses that the
    inversion leaves below -MASS_TOL raise NotAVoidFunctional.
    """
    return _poisson(x.n, _containment(x), lam)


def _poisson(n, w: _Dense, lam) -> RandomSubset:
    if not math.isfinite(lam):
        raise DomainViolation(f"lambda must be finite, got {lam}")
    if lam <= 0:
        raise DomainViolation("lambda must be positive")
    v = _floats(w)
    v -= v[-1]
    v *= float(lam)
    return _invert(n, _Dense(_exp(v)))


def singleton_set(*ps) -> RandomSubset:
    """Distribution with mass p_i on the singleton {i}; the p_i must be
    positive and sum to one."""
    if len(ps) == 1 and not isinstance(ps[0], (int, float, Fraction)):
        ps = tuple(ps[0])
    n = len(ps)
    if n < 1:
        raise InvalidProbabilityVector("need at least one point")
    vals, d = _coerce(ps)
    if min(vals) <= 0:
        raise InvalidProbabilityVector("singleton masses must be positive")
    total = sum(vals)
    bad = total != 1 if d.den is not None else abs(total - 1.0) > SUM_TOL
    if bad:
        raise InvalidProbabilityVector(f"masses sum to {total}, not 1")
    _check_ground(n)  # before the 2^n table is allocated
    return RandomSubset._from_dense(n, _placed(d, 1 << np.arange(n), 1 << n))


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
    m = check_m(m)
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

def _atoms(x: RandomSubset):
    """The masks of the nonzero masses, ascending, as an int array."""
    return np.flatnonzero(x._dense.values)


def _distribution_chunks(x: RandomSubset):
    """The distribution document of :func:`format_distribution_text`, in
    chunks of at most ``CHUNK_ROWS`` lines, converted from the dense table."""
    d, masks = x._dense, _atoms(x)
    yield f"{x.n}\n"
    for start in range(0, len(masks), CHUNK_ROWS):
        chunk = masks[start:start + CHUNK_ROWS]
        masses = _to_scalars(_Dense(d.values[chunk], d.den))
        yield "".join([f"{mask} {p}\n" for mask, p in zip(chunk.tolist(), masses)])


def format_distribution_text(x: RandomSubset) -> str:
    """Serialize as 'n' then 'mask probability' lines (zero masses skipped)."""
    return "".join(_distribution_chunks(x))


def _read_mask_lines(text, document: str, value_name: str, number):
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


def parse_distribution_text(text) -> RandomSubset:
    """Distribution document, a text or an open text file: 'n' then 'mask
    probability' lines.

    Only the listed masks are summed (a mask listed twice gets both masses);
    the dense table is filled once, from the exact total's verdict: masses
    summing to 1 stay exact, decimal prints of binary64 masses become floats.
    """
    n, entries = _read_mask_lines(text, "distribution", "probability", Fraction)
    listed = {}
    for _, mask, p in entries:
        listed[mask] = listed.get(mask, 0) + p
    masses = list(listed.values())
    total = sum(masses)
    if total != 1 and abs(float(total) - 1.0) <= SUM_TOL:
        # decimal prints of binary64 masses: keep them, but as floats
        masses = [float(p) for p in masses]
    try:
        return RandomSubset._from_dense(n, _placed(_coerce(masses)[1], list(listed), 1 << n))
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


def parse_void_text(text) -> VoidFunctional:
    """Void-functional document, a text or an open text file: 'n' then one
    'mask value' line per mask.

    Values written with '.', 'e' or 'E' are binary64 floats; integers and
    'p/q' values stay exact.  The table is held dense.
    """
    n, entries = _read_mask_lines(text, "void-functional", "value", _void_value)
    floats, seen, exact = np.zeros(1 << n), bytearray(1 << n), None
    for lineno, mask, value in entries:
        if seen[mask]:
            raise FormatError(f"duplicate mask {mask}", line=lineno)
        seen[mask] = 1
        if isinstance(value, float):
            floats[mask] = value
            continue
        exact = exact or [None] * (1 << n)
        exact[mask] = value
    if 0 in seen:
        raise FormatError(f"missing entries for masks {[m for m in range(1 << n) if not seen[m]][:4]}...")
    if exact and None not in exact:  # no float: the table stays exact
        return VoidFunctional._from_dense(n, _coerce(exact)[1])
    for mask, value in enumerate(exact or ()):  # one float makes the whole table float
        if value is not None:
            floats[mask] = float(value)
    return VoidFunctional._from_dense(n, _Dense(floats))


def write_distribution_file(x: RandomSubset, path):
    """Write :func:`format_distribution_text`, chunk by chunk."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_distribution_chunks(x))


def read_distribution_file(path) -> RandomSubset:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_distribution_text(fh)

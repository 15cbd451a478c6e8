"""Random subsets of [n]: distributions, void functionals, fractional powers.

Subsets are encoded as bit masks (element i is bit i).  The void functional
V(K) = P{X and K disjoint} = P{X inside complement of K} connects the two
representations through subset-sum (zeta) transforms, and Mobius inversion
recovers the distribution from V.  The candidate mass of the alpha-th power
is q(A) = sum over B inside A of (-1)^{|A|-|B|} P{X subset B}^alpha; the power
exists exactly when every q(A) clears the tolerance.

:func:`subset_sums` and :func:`subset_mobius` are the package's only subset
transform (Yates' per-bit pass); `cm` and `scan` call them too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._scalars import FLOAT, RATIONAL, coerce_values, is_integral, pow_scalar
from .errors import (
    BudgetExceeded,
    FormatError,
    GroundSetMismatch,
    InvalidProbabilityVector,
    NotAVoidFunctional,
    SizeLimitExceeded,
)

GROUND_CAP = 20
MASS_TOL = 1e-9
SUM_TOL = 1e-12


def _per_bit(values, ground_n, op):
    # float64 when every entry is a float; otherwise Python objects, so
    # Fractions and big ints stay exact
    if all(isinstance(v, float) for v in values):
        a = np.array(values, dtype=float)
    else:
        a = np.array(values, dtype=object)
    for i in range(ground_n):
        v = a.reshape(-1, 2, 1 << i)  # v[:, 1, :] holds the masks with bit i set
        op(v[:, 1, :], v[:, 0, :], out=v[:, 1, :])
    return a.tolist()


def subset_sums(values, ground_n):
    """Zeta transform: out[B] = sum of values[A] over A inside B."""
    return _per_bit(values, ground_n, np.add)


def subset_mobius(values, ground_n):
    """Inverse of :func:`subset_sums`."""
    return _per_bit(values, ground_n, np.subtract)


def mask_set(mask, n) -> str:
    """Brace notation for a subset mask, elements numbered from 1."""
    return "{" + ",".join(str(i + 1) for i in range(n) if mask >> i & 1) + "}"


@dataclass(frozen=True)
class RandomSubset:
    """Distribution over subsets of [n], indexed by mask."""

    n: int
    probs: tuple

    def __init__(self, n, probs):
        if not 1 <= n <= GROUND_CAP:
            raise SizeLimitExceeded(f"ground set must have 1..{GROUND_CAP} points, got {n}")
        vals, kind = coerce_values(probs)
        if len(vals) != 1 << n:
            raise InvalidProbabilityVector(f"expected {1 << n} masses, got {len(vals)}")
        low = min(vals)
        if low < 0:
            raise InvalidProbabilityVector(f"negative mass {low}")
        total = sum(vals)
        if kind == RATIONAL:
            if total != 1:
                raise InvalidProbabilityVector(f"masses sum to {total}, not 1")
        elif abs(total - 1.0) > SUM_TOL:
            raise InvalidProbabilityVector(f"masses sum to {total!r}, not 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "probs", vals)

    @property
    def kind(self):
        return RATIONAL if all(not isinstance(v, float) for v in self.probs) else FLOAT

    def containment_table(self):
        """P{X subset B} for every mask B (the subset-sum transform)."""
        return subset_sums(self.probs, self.n)


@dataclass(frozen=True)
class VoidFunctional:
    """Table V(K) = P{X and K disjoint} over all masks K; V(empty) = 1."""

    n: int
    table: tuple

    def __init__(self, n, table):
        vals, kind = coerce_values(table)
        if len(vals) != 1 << n:
            raise ValueError(f"expected {1 << n} entries, got {len(vals)}")
        if kind == RATIONAL:
            if vals[0] != 1:
                raise NotAVoidFunctional(f"V(empty) = {vals[0]}, must be 1", witness=0)
        elif abs(vals[0] - 1.0) > SUM_TOL:
            raise NotAVoidFunctional(f"V(empty) = {vals[0]!r}, must be 1", witness=0)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "table", vals)

    @property
    def kind(self):
        return RATIONAL if all(not isinstance(v, float) for v in self.table) else FLOAT

    def capacity(self):
        """Capacity functional T = 1 - V."""
        return tuple(1 - v for v in self.table)

    def __call__(self, mask):
        return self.table[mask]


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
    # mask full ^ K sits at the reversed index
    return VoidFunctional(x.n, x.containment_table()[::-1])


def from_void(v: VoidFunctional, tol=MASS_TOL) -> RandomSubset:
    """Mobius inversion P{X=A} = sum_{B in A} (-1)^{|A|-|B|} V(complement of B).

    Raises NotAVoidFunctional with the witness subset when a mass lands below
    -tol (exact negativity in rational mode); float masses in (-tol, 0) are
    clamped to zero.
    """
    masses = subset_mobius(v.table[::-1], v.n)
    rational = v.kind == RATIONAL
    cutoff = 0 if rational else -tol
    worst = min(range(len(masses)), key=lambda a: masses[a])
    if masses[worst] < cutoff:
        raise NotAVoidFunctional(
            f"mass {masses[worst]} at {mask_set(worst, v.n)}: not completely monotone",
            witness=worst,
            mass=masses[worst],
        )
    if not rational:
        masses = [0.0 if m < 0 else m for m in masses]
    return RandomSubset(v.n, masses)


def power_exists(x: RandomSubset, alpha, tol=MASS_TOL) -> PowerVerdict:
    """Does the random subset with void functional V^alpha exist?

    Evaluates the full candidate-mass table q(A); existence means every q(A)
    is at or above -tol.  Values clamped from (-tol, 0) set the boundary flag
    so exact integer exponents classify as existing.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    w = x.containment_table()
    wa = [pow_scalar(t, alpha) for t in w]
    q = subset_mobius(wa, x.n)
    rational = all(not isinstance(t, float) for t in q)
    worst = min(range(len(q)), key=lambda a: q[a])
    min_q = q[worst]
    exists = min_q >= 0 if rational else min_q >= -tol
    boundary = (not rational) and exists and min_q < 0
    return PowerVerdict(
        exists=exists,
        alpha=alpha,
        n=x.n,
        q_values=tuple(q),
        min_q=min_q,
        witness=None if exists else worst,
        boundary=boundary,
        tol=float(tol),
    )


def union_iid(x: RandomSubset, m: int) -> RandomSubset:
    """Union of m independent copies: void functional V^m, inverted exactly."""
    if m < 1 or not is_integral(m):
        raise ValueError("m must be a positive integer")
    v = void_functional(x)
    vm = VoidFunctional(x.n, [pow_scalar(t, int(m)) for t in v.table])
    return from_void(vm)


def poisson_union(x: RandomSubset, lam) -> RandomSubset:
    """Union of Poisson(lam) many independent copies: V = exp(lam (V_X - 1)).

    The result is infinitely divisible; the inversion cannot produce negative
    mass, so a failure here is asserted rather than reported.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    v = void_functional(x)
    table = [math.exp(float(lam) * (float(t) - 1.0)) for t in v.table]
    try:
        return from_void(VoidFunctional(x.n, table))
    except NotAVoidFunctional as exc:  # pragma: no cover - mathematically impossible
        raise AssertionError(f"poisson union produced negative mass: {exc}") from exc


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
    probs = [vals[0] * 0] * (1 << n)
    for i, p in enumerate(vals):
        probs[1 << i] = p
    return RandomSubset(n, probs)


def uniform_singleton(n: int) -> RandomSubset:
    """Uniform random singleton on [n]."""
    return singleton_set(*([Fraction(1, n)] * n))


def void_distance(x: RandomSubset, y: RandomSubset) -> float:
    """Sup distance between void functionals over all 2^n compact sets."""
    if x.n != y.n:
        raise GroundSetMismatch(f"ground sets differ: {x.n} vs {y.n}")
    vx = void_functional(x).table
    vy = void_functional(y).table
    return max(abs(float(a) - float(b)) for a, b in zip(vx, vy))


def is_m_divisible(x: RandomSubset, m: int, tol=MASS_TOL) -> PowerVerdict:
    """Existence verdict for the 1/m-th power."""
    if m < 1 or not is_integral(m):
        raise ValueError("m must be a positive integer")
    m = int(m)
    return power_exists(x, Fraction(1, m) if m == 1 else 1.0 / m, tol=tol)


def is_infinitely_divisible(x: RandomSubset, m_max: int = 16, tol=MASS_TOL) -> bool:
    """Approximate test: 1/m powers for m = 1..m_max plus the pairwise
    necessary condition V(K union K') >= V(K) V(K')."""
    if x.n > 10:
        raise BudgetExceeded("pairwise condition sweep is 4^n; ground set too large")
    if not all(is_m_divisible(x, m, tol=tol).exists for m in range(1, m_max + 1)):
        return False
    v = void_functional(x).table
    for k1 in range(1 << x.n):
        for k2 in range(1 << x.n):
            if float(v[k1 | k2]) < float(v[k1]) * float(v[k2]) - tol:
                return False
    return True


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
    ``number`` parses a value and raises ValueError on bad input.
    """
    lines = (
        (lineno, raw.split("#", 1)[0].strip()) for lineno, raw in enumerate(text.splitlines(), start=1)
    )
    lines = ((lineno, line) for lineno, line in lines if line)
    header = next(lines, None)
    if header is None:
        raise FormatError(f"empty {document} document", line=1)
    lineno, line = header
    fields = line.split()
    if len(fields) != 1:
        raise FormatError("expected the ground-set size alone", line=lineno)
    try:
        n = int(fields[0])
    except ValueError:
        raise FormatError(f"bad ground-set size {fields[0]!r}", line=lineno) from None
    if not 1 <= n <= GROUND_CAP:
        raise FormatError(f"ground-set size {n} out of range", line=lineno)

    def entries():
        for lineno, line in lines:
            fields = line.split()
            if len(fields) != 2:
                raise FormatError(f"expected 'mask {value_name}'", line=lineno)
            try:
                mask = int(fields[0])
                value = number(fields[1])
            except (ValueError, ZeroDivisionError):
                raise FormatError(f"bad entry {line!r}", line=lineno) from None
            if not 0 <= mask < (1 << n):
                raise FormatError(f"mask {mask} out of range", line=lineno)
            yield lineno, mask, value

    return n, entries()


def parse_distribution_text(text: str) -> RandomSubset:
    n, entries = _read_mask_lines(text, "distribution", "probability", Fraction)
    masses = [Fraction(0)] * (1 << n)
    for _, mask, p in entries:
        masses[mask] += p
    total = sum(masses)
    if total != 1 and abs(float(total) - 1.0) <= SUM_TOL:
        # decimal prints of binary64 masses: keep them, but as floats
        masses = [float(m) for m in masses]
    try:
        return RandomSubset(n, masses)
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

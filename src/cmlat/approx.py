"""Quantitative approximation of m-divisible objects by infinitely divisible ones.

The accompaniment bound is the scalar fact sup_{0<=t<=1} |t^m - e^{m(t-1)}|
= t_m^{m-1} - t_m^m with -log(t_m)/(1 - t_m) = m/(m-1); m times the gap
decreases to 2/e^2.  The lower bound comes from the two-point random set
with P{empty} = 1 - 1/m and mass 1/(2m) on each of two singletons: its m-fold
union violates the necessary condition V({a,b}) >= V({a}) V({b}) by at least
1/(4em), which pins liminf m psi_m >= 1/(4 sqrt(e) (2 + sqrt(e))).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cache

from .cm import LatticeFunction, extend_cm, poisson_accompany, power
from .errors import ChainLattice, DomainViolation, _ensure
from .lattice import FiniteLattice
from .randset import RandomSubset, poisson_union, union_iid, void_distance

LOWER_BOUND_CONSTANT = 1.0 / (4.0 * math.sqrt(math.e) * (2.0 + math.sqrt(math.e)))
LIMIT_M_TIMES_GAP = 2.0 / math.e**2
SEPARATION_SCAN_CAP = 10**4
ROUNDED_POWER_DIGITS = 640


def sup_gap_argmax(m: int) -> float:
    """The t in (0, 1) maximizing |t^m - e^{m(t-1)}|, for m >= 2.

    Solves -log(t)/(1-t) = m/(m-1).  Solved in the variable u = 1 - t (the
    equation is perfectly conditioned there) by bisection plus Newton polish,
    so the residual stays at roundoff even for large m.
    """
    if m < 2:
        raise DomainViolation("the critical-point equation needs m >= 2")
    target = m / (m - 1.0)

    def g(u):
        # -log(1-u)/u, increasing from 1 at u=0+ to +inf at u=1-
        return -math.log1p(-u) / u

    lo, hi = 1e-12, 1.0 - 1e-12
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if g(mid) < target:
            lo = mid
        else:
            hi = mid
    u = 0.5 * (lo + hi)
    for _ in range(4):
        # g'(u) = (u/(1-u) + log1p(-u)) / u^2
        deriv = (u / (1.0 - u) + math.log1p(-u)) / (u * u)
        step = (g(u) - target) / deriv
        new = u - step
        if 0.0 < new < 1.0:
            u = new
    return 1.0 - u


def _golden_max(fn, lo, hi):
    """Golden-section maximizer for a unimodal function on [lo, hi], to width 1e-12."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > 1e-12:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    x = 0.5 * (a + b)
    return x, fn(x)


def scalar_gap(t: float, m: int) -> float:
    return abs(t**m - math.exp(m * (t - 1.0)))


def _direct_max(fn, lo, hi):
    """Independent maximizer: 2048-cell grid scan, golden refinement at the peak.

    The plain golden section is unreliable here because the integrand is
    numerically flat (zero) over most of [0, 1] for large m.
    """
    cells = 2048
    step = (hi - lo) / cells
    best_i = max(range(cells + 1), key=lambda i: fn(lo + i * step))
    a = max(lo, lo + (best_i - 1) * step)
    b = min(hi, lo + (best_i + 1) * step)
    x, val = _golden_max(fn, a, b)
    return x, max(val, fn(lo), fn(hi))


def sup_gap(m: int) -> float:
    """sup over t in [0, 1] of |t^m - e^{m(t-1)}|.

    Closed form t_m^{m-1} - t_m^m for m >= 2; direct maximization for m = 1
    (the critical-point equation degenerates there and the sup sits at t = 0
    with value 1/e).  A grid-plus-golden-section maximization cross-validates
    the closed form.
    """
    if m < 1:
        raise DomainViolation("m must be a positive integer")
    if m == 1:
        value = _direct_max(lambda t: scalar_gap(t, 1), 0.0, 1.0)[1]
    else:
        t = sup_gap_argmax(m)
        value = t ** (m - 1) - t**m
    if m > 1:
        _, direct = _direct_max(lambda t: scalar_gap(t, m), 0.0, 1.0)
        _ensure(abs(value - direct) <= 1e-9 * max(1.0, value), f"sup_gap({m}): {value} != direct {direct}")
    return value


@dataclass(frozen=True)
class WitnessReport:
    """Achieved accompaniment distance against the scalar bound."""

    m: int
    distance: float
    bound: float
    within_bound: bool


def upper_bound_witness(x: RandomSubset, m: int) -> WitnessReport:
    """Distance from the m-fold union to its Poisson accompaniment.

    d(X_m, Y) <= sup_gap(m) holds pointwise through t = V_X(K); this is the
    whole upper-bound mechanism and the inequality must never fail.
    """
    xm = union_iid(x, m)
    y = poisson_union(x, m)
    distance = void_distance(xm, y)
    bound = sup_gap(m)
    ok = distance <= bound + 1e-12
    _ensure(ok, f"accompaniment distance {distance} exceeded the bound {bound}")
    return WitnessReport(m=m, distance=distance, bound=bound, within_bound=ok)


@dataclass(frozen=True)
class ApproxReport:
    """Ingredients of the two-sided 1/m rate for approximating m-divisible sets."""

    m: int
    t_m: float | None
    sup_gap: float
    m_times_gap: float
    lower_witness: RandomSubset
    necessary_condition_slack: float
    separation: float
    separation_bound: float
    separation_holds: bool
    lower_constant: float
    m_threshold: int | None
    notes: tuple

    def __post_init__(self):
        _ensure(0.0 < self.m_times_gap < 1.0, f"m * sup_gap = {self.m_times_gap} must lie in (0, 1)")


def two_point_set(m: int) -> RandomSubset:
    """P{empty} = 1 - 1/m, mass 1/(2m) on each of two singletons."""
    return RandomSubset(
        2, [1 - Fraction(1, m), Fraction(1, 2 * m), Fraction(1, 2 * m), Fraction(0)]
    )


def _rounded_power(k: int, m: int) -> float:
    """(1 - 1/k)^m rounded to the nearest float, as ``float(Fraction)`` rounds it.

    Evaluated as exp(m log(1 - 1/k)) in `Decimal` with an error interval; the
    precision doubles until both ends of the interval round to one float.  A
    value on a tie between two floats never settles, so past
    ``ROUNDED_POWER_DIGITS`` the exact power decides.
    """
    if k == 1:
        return 0.0
    digits = 40
    while digits <= ROUNDED_POWER_DIGITS:
        with localcontext() as ctx:
            ctx.prec = digits
            y = (Decimal(k - 1) / k).ln() * m
            value = y.exp()
            # each operation errs by at most half a unit u in the last digit:
            # |y - m log(1 - 1/k)| <= u (m + |y|), and exp turns that into a
            # relative error; err is twice the bound, for the two products below
            u = Decimal(10) ** (1 - digits)
            err = 2 * u * (m + abs(y) + 1)
            lo, hi = float(value * (1 - err)), float(value * (1 + err))
        if lo == hi:
            return lo
        digits *= 2
    return float(Fraction(k - 1, k) ** m)


@cache
def separation_threshold() -> int | None:
    """Smallest m0 with (1-1/(2m))^{2m} - (1-1/m)^m >= 1/(4em) for all m in
    [m0, SEPARATION_SCAN_CAP]; scanned because the asymptotic argument alone
    gives no value, once per process."""
    good_from = None
    for m in range(SEPARATION_SCAN_CAP, 0, -1):
        sep = (1 - 1 / (2 * m)) ** (2 * m) - (1 - 1 / m) ** m
        if sep >= 1 / (4 * math.e * m):
            good_from = m
        else:
            break
    return good_from


def lower_bound_witness(m: int) -> ApproxReport:
    """Evaluate the lower-bound contradiction ingredients at a given m.

    (i) the two-point witness X and its m-fold union X_m, whose necessary
    condition V({a,b}) - V({a}) V({b}) is strictly violated; (ii) the 1/(4em)
    separation with its threshold m0 from scanning; (iii) the limiting
    constant 1/(4 sqrt(e) (2 + sqrt(e))).
    """
    if m < 1:
        raise DomainViolation("m must be a positive integer")
    x = two_point_set(m)
    # the union's void functional is V**m, with V(ab) = 1 - 1/m and
    # V(a) = V(b) = 1 - 1/(2m)
    single = _rounded_power(2 * m, m)
    slack = _rounded_power(m, m) - single * single
    separation = (1 - 1 / (2 * m)) ** (2 * m) - (1 - 1 / m) ** m
    bound = 1 / (4 * math.e * m)
    gap = sup_gap(m)
    notes = [
        "necessary condition V(ab) >= V(a) V(b) is violated by the m-fold union",
        "separation uses the corrected orientation (1-1/(2m))^{2m} - (1-1/m)^m",
    ]
    return ApproxReport(
        m=m,
        t_m=sup_gap_argmax(m) if m >= 2 else None,
        sup_gap=gap,
        m_times_gap=m * gap,
        lower_witness=x,
        necessary_condition_slack=slack,
        separation=separation,
        separation_bound=bound,
        separation_holds=separation >= bound,
        lower_constant=LOWER_BOUND_CONSTANT,
        m_threshold=separation_threshold(),
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class SquareWitnessReport:
    """Accompaniment distance for the four-point sublattice construction."""

    m: int
    square: tuple
    base: LatticeFunction
    divisible_power: LatticeFunction
    accompaniment: LatticeFunction
    distance: float
    bound: float
    within_bound: bool
    necessary_condition_slack: float


def lattice_square_witness(lat: FiniteLattice, m: int) -> SquareWitnessReport:
    """Build the (1, 1-1/2m, 1-1/2m, 1-1/m) function on a square sublattice,
    extend it, and measure its m-th power against the Poisson accompaniment.

    The slack reported is g^m(a) g^m(d) - g^m(b) g^m(c) on the square, the
    same scalar quantities as for the two-point random set.
    """
    if m < 1:
        raise DomainViolation("m must be a positive integer")
    square = None
    for b in lat.elements:
        for c in range(b + 1, lat.n):
            if not lat.leq(b, c) and not lat.leq(c, b):
                square = (lat.meet(b, c), b, c, lat.join(b, c))
                break
        if square:
            break
    if square is None:
        raise ChainLattice("every pair is comparable; the question degenerates")
    a, b, c, d = square
    f_vals = {
        a: Fraction(1),
        b: 1 - Fraction(1, 2 * m),
        c: 1 - Fraction(1, 2 * m),
        d: 1 - Fraction(1, m),
    }
    g = extend_cm(lat, f_vals)
    gm = power(g, m)
    acc = poisson_accompany(gm, m)
    distance = max(abs(float(u) - float(v)) for u, v in zip(gm.values, acc.values))
    bound = sup_gap(m)
    ok = distance <= bound + 1e-12
    _ensure(ok, f"lattice accompaniment distance {distance} exceeded {bound}")
    slack = float(gm.values[a]) * float(gm.values[d]) - float(gm.values[b]) * float(gm.values[c])
    return SquareWitnessReport(
        m=m,
        square=square,
        base=g,
        divisible_power=gm,
        accompaniment=acc,
        distance=distance,
        bound=bound,
        within_bound=ok,
        necessary_condition_slack=slack,
    )

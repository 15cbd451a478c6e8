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
import sys
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cache

from ._scalars import check_m
from .cm import LatticeFunction, extend_cm, poisson_accompany, power
from .errors import ChainLattice, DomainViolation, SizeLimitExceeded, _ensure
from .lattice import FiniteLattice
from .randset import RandomSubset, poisson_union, union_iid, void_distance

LOWER_BOUND_CONSTANT = 1.0 / (4.0 * math.sqrt(math.e) * (2.0 + math.sqrt(math.e)))
LIMIT_M_TIMES_GAP = 2.0 / math.e**2
SEPARATION_SCAN_CAP = 10**4
ROUNDED_POWER_DIGITS = 640


def _check_float_m(m) -> int:
    """``check_m`` for the scalar bound, which takes m as a float: an m past
    the float range raises SizeLimitExceeded."""
    m = check_m(m)
    if m > sys.float_info.max:
        raise SizeLimitExceeded(f"m = {Decimal(m):.3g} exceeds the float range of the scalar bound")
    return m


def _log_excess(u: float) -> float:
    """-log(1-u)/u - 1 for 0 < u < 1, increasing from 0 to +inf.  For u <= 1/2
    it is the series sum_{k>=1} u^k/(k+1) of positive terms, summed by Horner
    to 2^-55 of its first, so it does not cancel for small u."""
    if u > 0.5:
        return -math.log1p(-u) / u - 1.0
    total = 0.0
    for k in range(math.ceil(55 / -math.log2(u)) + 1, 1, -1):
        total = u * (1.0 / k + total)
    return total


def _sup_gap_u(m: int) -> float:
    """u = 1 - t_m, the root of -log(1-u)/u - 1 = 1/(m-1) for m >= 2.

    The left side lies between u/2 and u/(2(1-u)), so the root lies in
    [2/(m+1), 2/(m-1)]; bisection halves that bracket, scaled to 1/m, down
    to adjacent floats."""
    if m < 2:
        raise DomainViolation("the critical-point equation needs m >= 2")
    target = 1.0 / (m - 1)
    lo, hi = 2.0 / (m + 1), min(2.0 / (m - 1), 1.0 - 2.0**-53)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if _log_excess(mid) < target:
            lo = mid
        else:
            hi = mid


def sup_gap_argmax(m: int) -> float:
    """The t in (0, 1) maximizing |t^m - e^{m(t-1)}|, for m >= 2: the root of
    -log(t)/(1-t) = m/(m-1), solved in u = 1 - t (see ``_sup_gap_u``)."""
    return 1.0 - _sup_gap_u(_check_float_m(m))


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

    Closed form t_m^{m-1} - t_m^m = u (1-u)^{m-1} for m >= 2, with u = 1 - t_m,
    taken as u exp((m-1) log1p(-u)) so that it does not cancel for large m;
    direct maximization for m = 1 (the critical-point equation degenerates
    there and the sup sits at t = 0 with value 1/e).  A grid-plus-golden-
    section maximization cross-validates the closed form.
    """
    m = _check_float_m(m)
    if m == 1:
        value = _direct_max(lambda t: scalar_gap(t, 1), 0.0, 1.0)[1]
    else:
        u = _sup_gap_u(m)
        value = u * math.exp((m - 1) * math.log1p(-u))
    if m > 1:
        # searched in s = m (1 - t): the gap at s is at most e^{-s}, far below
        # the tolerance past s = 64, and a grid over t misses a peak of width 1/m
        _, direct = _direct_max(lambda s: scalar_gap(1.0 - s / m, m), 0.0, min(m, 64))
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
    m = check_m(m)
    return RandomSubset(
        2, [1 - Fraction(1, m), Fraction(1, 2 * m), Fraction(1, 2 * m), Fraction(0)]
    )


def _rounded_sum(terms, cut=0):
    """(s rounded to the nearest float, s >= cut) for s = sum c (1 - 1/k)^m
    over ``terms`` (c, k, m) with m >= 1, as ``float(Fraction)`` rounds s.

    Each power is exp(m log(1 - 1/k)) in `Decimal`.  Each operation errs by at
    most half a unit u in the last digit, so |y - m log(1 - 1/k)| <= u (m + |y|),
    and exp makes that a relative error; err doubles the bound, for the sum and
    the interval's ends.  The precision doubles until both ends round to one
    float on one side of ``cut``; a value on a tie between two floats never
    settles, so past ``ROUNDED_POWER_DIGITS`` the exact sum decides."""
    digits = 40
    while digits <= ROUNDED_POWER_DIGITS:
        with localcontext() as ctx:
            ctx.prec = digits
            u = Decimal(10) ** (1 - digits)
            total = err = Decimal(0)
            for c, k, m in terms:
                if k > 1:  # else the power is 0
                    y = (Decimal(k - 1) / k).ln() * m
                    v = y.exp()
                    total, err = total + c * v, err + 2 * u * (m + abs(y) + 2) * v
            lo, hi = total - err, total + err
        if float(lo) == float(hi) and (lo >= cut or hi < cut):
            return float(lo), bool(lo >= cut)
        digits *= 2
    exact = sum(c * Fraction(k - 1, k) ** m for c, k, m in terms)
    return float(exact), exact >= cut


def _rounded_power(k: int, m: int) -> float:
    """(1 - 1/k)^m rounded to the nearest float, as ``float(Fraction)`` rounds it."""
    return _rounded_sum([(1, k, m)])[0]


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
    m = _check_float_m(m)
    x = two_point_set(m)
    # the union's void functional is V**m, with V(ab) = 1 - 1/m and
    # V(a) = V(b) = 1 - 1/(2m)
    single = _rounded_power(2 * m, m)
    slack = _rounded_power(m, m) - single * single
    bound = 1 / (4 * math.e * m)
    # the difference cancels about log10(m) digits, which float64 cannot spare
    separation, holds = _rounded_sum([(1, 2 * m, 2 * m), (-1, m, m)], bound)
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
        separation_holds=holds,
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
    m = check_m(m)
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

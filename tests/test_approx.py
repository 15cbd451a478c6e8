import math
import random
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from cmlat.approx import (
    LIMIT_M_TIMES_GAP,
    LOWER_BOUND_CONSTANT,
    _rounded_power,
    lattice_square_witness,
    lower_bound_witness,
    scalar_gap,
    separation_threshold,
    sup_gap,
    sup_gap_argmax,
    two_point_set,
    upper_bound_witness,
)
from cmlat.cm import LatticeFunction, is_cm, poisson_accompany, power
from cmlat.errors import BudgetExceeded, ChainLattice, DomainViolation, SizeLimitExceeded
from cmlat.lattice import boolean_lattice, chain_lattice, diamond_lattice, materialize
from cmlat.randset import RandomSubset, is_m_divisible, union_iid, uniform_singleton, void_functional


def residual(m, t):
    return abs(-math.log(t) / (1.0 - t) - m / (m - 1.0))


def random_subset(n, rng, denom=64):
    cuts = sorted(rng.randint(0, denom) for _ in range((1 << n) - 1))
    masses = []
    prev = 0
    for c in cuts:
        masses.append(Fraction(c - prev, denom))
        prev = c
    masses.append(Fraction(denom - prev, denom))
    return RandomSubset(n, masses)


# --- critical point and gap -----------------------------------------------------


def test_t2_value():
    t = sup_gap_argmax(2)
    assert t == pytest.approx(0.2032, abs=5e-4)
    assert residual(2, t) <= 1e-12


def test_residuals_small_across_m():
    for m in (2, 3, 10, 100, 1000, 10000):
        assert residual(m, sup_gap_argmax(m)) <= 1e-12, m


def test_asymptotic_t_m():
    assert abs(sup_gap_argmax(1000) - (1 - 2 / 1000)) <= 5e-6
    # m (1 - t_m) -> 2
    seq = [m * (1 - sup_gap_argmax(m)) for m in (100, 1000, 10000, 100000)]
    assert seq[-1] == pytest.approx(2.0, abs=1e-3)
    assert all(abs(a - 2.0) >= abs(b - 2.0) - 1e-12 for a, b in zip(seq, seq[1:]))


def test_sup_gap_m1_is_1_over_e():
    assert sup_gap(1) == pytest.approx(1.0 / math.e, abs=1e-9)
    assert scalar_gap(0.0, 1) == pytest.approx(1.0 / math.e)


def test_sup_gap_closed_form_matches_direct_max():
    for m in (2, 3, 7, 50, 400):
        gap = sup_gap(m)  # cross-check against golden section is built in
        grid = max(scalar_gap(i / 20000, m) for i in range(20001))
        assert gap == pytest.approx(grid, abs=1e-7)


def test_m_times_gap_limit():
    assert 10000 * sup_gap(10000) == pytest.approx(LIMIT_M_TIMES_GAP, rel=0.01)
    values = [m * sup_gap(m) for m in (1, 2, 5, 10, 100, 1000, 10000)]
    assert all(0 < v < 1 for v in values)
    # decreasing toward 2/e^2 in the scanned range (reported, asserted here)
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] >= LIMIT_M_TIMES_GAP


def reference_sup_gap(m):
    """u (1-u)^(m-1) at the root u of -log(1-u)/u = m/(m-1), bisected in
    `Decimal` with enough digits to hold 1 - u."""
    with localcontext() as ctx:
        ctx.prec = len(str(m)) + 40
        target = Decimal(m) / (m - 1)
        lo, hi = Decimal(2) / (m + 1), min(Decimal(2) / (m - 1), Decimal("0.999"))
        for _ in range(90):
            mid = (lo + hi) / 2
            if -(1 - mid).ln() / mid < target:
                lo = mid
            else:
                hi = mid
        return float(lo * ((m - 1) * (1 - lo).ln()).exp())


@pytest.mark.parametrize("m", [2, 3, 5, 10, 10**4, 10**7, 10**13, 10**16, 10**100, 10**300])
def test_sup_gap_is_the_decimal_reference(m):
    # t^(m-1) - t^m cancelled from m ~ 10^13 and read 0.0 from 10^16
    assert sup_gap(m) == pytest.approx(reference_sup_gap(m), rel=1e-15, abs=0)


def test_m_times_gap_approaches_the_limit_for_every_power_of_ten():
    for k in range(301):
        m_gap = 10**k * sup_gap(10**k)
        assert 0 < m_gap < 1, k
        if k >= 13:
            assert abs(m_gap - LIMIT_M_TIMES_GAP) <= 1e-12, k
    # a grid over t missed the peak of width 1/m and refused 10^7 and 10^8
    for k in (7, 8, 16, 300):
        report = lower_bound_witness(10**k)
        assert report.m_times_gap == 10**k * report.sup_gap


@pytest.mark.parametrize("fn", [sup_gap, sup_gap_argmax, lower_bound_witness])
def test_m_past_the_float_range_is_refused(fn):
    with pytest.raises(SizeLimitExceeded, match="exceeds the float range"):
        fn(10**400)


# --- accompaniment upper bound -----------------------------------------------------


def test_upper_bound_witness_two_point():
    for m in (1, 2, 10, 100):
        rep = upper_bound_witness(two_point_set(max(m, 1)), m)
        assert rep.within_bound
        assert rep.distance <= rep.bound + 1e-12


def test_upper_bound_witness_random():
    rng = random.Random(41)
    for _ in range(25):
        x = random_subset(4, rng)
        for m in (2, 10, 50):
            rep = upper_bound_witness(x, m)
            assert rep.within_bound


def test_upper_bound_distance_zero_for_sure_empty():
    x = RandomSubset(2, [1, 0, 0, 0])
    rep = upper_bound_witness(x, 5)
    assert rep.distance == pytest.approx(0.0, abs=1e-15)


# --- lower bound ingredients ---------------------------------------------------------


def test_lower_constant_value():
    assert LOWER_BOUND_CONSTANT == pytest.approx(0.041557755081, abs=1e-12)
    assert LOWER_BOUND_CONSTANT == pytest.approx(
        1 / (4 * math.sqrt(math.e) * (2 + math.sqrt(math.e))), abs=0
    )


def test_two_point_union_violates_necessary_condition():
    for m in (1, 2, 7, 100):
        rep = lower_bound_witness(m)
        assert rep.necessary_condition_slack < 0
        want = (1 - 1 / m) ** m - (1 - 1 / (2 * m)) ** (2 * m)
        assert rep.necessary_condition_slack == pytest.approx(want, abs=1e-12)


def test_separation_holds_from_m0():
    m0 = separation_threshold()
    assert m0 is not None and m0 <= 200
    for m in (m0, m0 + 1, 50, 1000):
        rep = lower_bound_witness(m)
        assert rep.separation_holds
        assert rep.separation >= rep.separation_bound


def test_separation_scaled_limit():
    # m * separation decreases to 1/(4e)
    vals = [m * ((1 - 1 / (2 * m)) ** (2 * m) - (1 - 1 / m) ** m) for m in (10, 100, 1000, 10000)]
    assert vals[-1] == pytest.approx(1 / (4 * math.e), rel=1e-3)
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_report_invariants():
    rep = lower_bound_witness(1000)
    assert rep.sup_gap == pytest.approx(rep.t_m ** 999 - rep.t_m ** 1000, abs=1e-12)
    assert 0 < rep.m_times_gap < 1
    # sandwich at m = 1000: C <= (witnessed lower scale) and upper within limit + slack
    assert rep.m_times_gap <= LIMIT_M_TIMES_GAP + 0.05
    assert 1000 * abs(rep.necessary_condition_slack) >= LOWER_BOUND_CONSTANT * (1 - 0.1)


# --- lattice square witness ------------------------------------------------------------


def test_square_witness_on_boolean2():
    lat = materialize(boolean_lattice(2))
    rep = lattice_square_witness(lat, 10)
    assert rep.square == (0, 1, 2, 3)
    assert rep.within_bound
    # matches the random-set computation on n = 2 exactly
    xm = union_iid(two_point_set(10), 10)
    v = void_functional(xm)
    assert float(rep.divisible_power.values[1]) == pytest.approx(float(v(0b01)))
    assert float(rep.divisible_power.values[3]) == pytest.approx(float(v(0b11)))


def test_square_witness_on_diamond():
    rep = lattice_square_witness(diamond_lattice(3), 5)
    assert rep.distance <= sup_gap(5) + 1e-12
    assert is_cm(rep.base).is_cm
    assert rep.necessary_condition_slack < 0
    # the extension really is m-divisible: its m-th root is the c.m. base
    assert is_cm(power(rep.divisible_power, 1 / 5)).is_cm


def test_square_witness_rejects_chains():
    with pytest.raises(ChainLattice):
        lattice_square_witness(chain_lattice(6), 3)


# --- the union route as an oracle for the slack ----------------------------------


@pytest.mark.parametrize("m", [1, 2, 7, 100, 1000])
def test_slack_equals_the_union_route(m):
    """The m-fold union's masses, summed back into its void functional, give
    V**m exactly, so the slack taken from V**m directly is the same float."""
    v = void_functional(union_iid(two_point_set(m), m))
    want = float(v(0b11)) - float(v(0b01)) * float(v(0b10))
    assert lower_bound_witness(m).necessary_condition_slack == want


def test_slack_needs_no_exact_power_budget():
    """m = 10**6 is over the exact-power budget that union_iid keeps; the
    slack takes its powers as rounded floats, so it returns at once."""
    m = 10**6
    with pytest.raises(BudgetExceeded):
        union_iid(two_point_set(m), m)
    separation_threshold()  # the cached scan is not the slack's cost
    start = time.perf_counter()
    rep = lower_bound_witness(m)
    assert time.perf_counter() - start < 0.1
    # (1 - 1/m)^m - (1 - 1/(2m))^(2m) = -1/(4em) + O(1/m^2)
    assert rep.necessary_condition_slack == pytest.approx(-1 / (4 * math.e * m), rel=1e-5)


def test_rounded_power_is_the_rounded_exact_power():
    for m in range(1, 2001):
        for k in (m, 2 * m):
            assert _rounded_power(k, m) == float(Fraction(k - 1, k) ** m), (k, m)


# --- the separation, from one Decimal interval ---------------------------------


def _separation_60_digits(m):
    with localcontext() as ctx:
        ctx.prec = 60
        return (1 - Decimal(1) / (2 * m)) ** (2 * m) - (1 - Decimal(1) / m) ** m


@pytest.mark.parametrize("m", [5 * 10**5, 10**6, 10**9])
def test_separation_holds_where_the_float_difference_cancelled(m):
    """The float difference read separation_holds: false at m = 5e5 and a
    negative separation at m = 1e9; the true margins are +2.3e-13 and +5.7e-20."""
    rep = lower_bound_witness(m)
    want = _separation_60_digits(m)
    assert rep.separation_holds
    assert abs(Decimal(rep.separation) - want) <= Decimal("1e-15") * want
    assert rep.separation >= rep.separation_bound


def test_separation_is_the_rounded_exact_difference():
    for m in list(range(1, 300)) + [1000, 4096, 10**4]:
        exact = Fraction(2 * m - 1, 2 * m) ** (2 * m) - Fraction(m - 1, m) ** m
        rep = lower_bound_witness(m)
        assert rep.separation == float(exact), m
        assert rep.separation_holds == (exact >= rep.separation_bound), m


# --- one rule for m ------------------------------------------------------------

B2 = boolean_lattice(2)
B2_FUNCTION = LatticeFunction(B2, [1, Fraction(1, 2), Fraction(1, 2), Fraction(1, 4)])
M_TAKERS = {
    "union_iid": lambda m: union_iid(uniform_singleton(2), m),
    "is_m_divisible": lambda m: is_m_divisible(uniform_singleton(2), m),
    "poisson_accompany": lambda m: poisson_accompany(B2_FUNCTION, m),
    "sup_gap": sup_gap,
    "two_point_set": two_point_set,
    "lower_bound_witness": lower_bound_witness,
    "lattice_square_witness": lambda m: lattice_square_witness(B2, m),
}


@pytest.mark.parametrize("m", [0, -1, 2.5, math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(M_TAKERS))
def test_m_must_be_a_positive_integer(name, m):
    with pytest.raises(DomainViolation, match="^m must be a positive integer$"):
        M_TAKERS[name](m)


@pytest.mark.parametrize("m", [2.0, np.int64(2)], ids=["float", "numpy"])
@pytest.mark.parametrize("name", sorted(M_TAKERS))
def test_integral_m_is_the_integer(name, m):
    assert M_TAKERS[name](m) == M_TAKERS[name](2)

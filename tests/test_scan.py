import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cmlat import scan
from cmlat.errors import BudgetExceeded, DomainViolation
from cmlat.randset import RandomSubset, poisson_union, singleton_set, uniform_singleton
from cmlat.scan import (
    ExponentialPolynomial,
    IntervalSet,
    construct_multi_interval,
    power_difference_profile,
    q_poly,
    scan_S,
    schur_gradient_check,
    sign_change_bound,
    simplex_form,
    singleton_alternating_sum,
)


def example2(p):
    return RandomSubset(2, [0, p, 1 - p, 0])


def random_singleton(n, rng):
    raw = [rng.randint(1, 9) for _ in range(n)]
    total = sum(raw)
    return singleton_set(*[Fraction(r, total) for r in raw])


# --- exponential polynomials --------------------------------------------------


def test_canonicalization_merges_and_sorts():
    poly = ExponentialPolynomial([(1, Fraction(1, 2)), (2, Fraction(3, 4)), (-1, Fraction(2, 4))])
    assert poly.terms == ((2, Fraction(3, 4)),)
    with pytest.raises(DomainViolation):
        ExponentialPolynomial([(1, 0)])


def test_evaluate():
    poly = ExponentialPolynomial([(1, 1), (-2, Fraction(1, 2))])
    assert poly(1) == pytest.approx(0.0)
    assert poly(2) == pytest.approx(0.5)
    grid = poly.grid_values(np.array([1.0, 2.0]))
    assert grid == pytest.approx([0.0, 0.5])


def test_q_poly_uniform_singleton_full_set():
    poly = q_poly(uniform_singleton(3), 0b111)
    assert poly.terms == (
        (1, Fraction(1)),
        (-3, Fraction(2, 3)),
        (3, Fraction(1, 3)),
    )


def test_q_poly_empty_and_example2():
    sure_empty = RandomSubset(2, [1, 0, 0, 0])
    assert q_poly(sure_empty, 0).terms == ((1, Fraction(1)),)  # constant one
    # zero containment probabilities are dropped (0**0 handled outside)
    assert q_poly(uniform_singleton(2), 0).terms == ()
    p = Fraction(1, 3)
    poly = q_poly(example2(p), 0b11)
    assert poly.terms == ((1, Fraction(1)), (-1, Fraction(2, 3)), (-1, Fraction(1, 3)))


def test_sign_change_bound():
    p = Fraction(1, 3)
    assert sign_change_bound(q_poly(example2(p), 0b11)) == 1
    assert sign_change_bound(ExponentialPolynomial([(1, 1)])) == 0
    # bottom weight of the diamond example: 1 - 3 (3/8)^a + 2 (3/16)^a
    h = ExponentialPolynomial([(1, 1), (-3, Fraction(3, 8)), (2, Fraction(3, 16))])
    assert sign_change_bound(h) == 2


def test_sign_changes_bound_zero_count():
    # the bound dominates the number of grid-detected zero crossings
    rng = random.Random(3)
    for n in (2, 3, 4):
        x = random_singleton(n, rng)
        for mask in range(1 << n):
            if bin(mask).count("1") < 2:
                continue
            poly = q_poly(x, mask)
            grid = [i * 0.01 for i in range(1, 800)]
            vals = [poly(a) for a in grid]
            crossings = sum(
                1
                for a, b in zip(vals, vals[1:])
                if (a < -1e-12 and b > 1e-12) or (a > 1e-12 and b < -1e-12)
            )
            assert crossings <= sign_change_bound(poly)


# --- scan_S -------------------------------------------------------------------


def component_signature(result: IntervalSet):
    points = tuple(round(p, 6) for p in result.points())
    intervals = tuple((round(a, 6), round(b, 6)) for a, b in result.intervals())
    return points, intervals


def test_scan_singleton_structure():
    result = scan_S(singleton_set(*[Fraction(1, 4)] * 4), 5.0)
    points, intervals = component_signature(result)
    assert points == (0.0, 1.0, 2.0)
    assert len(intervals) == 1
    lo, hi = intervals[0]
    assert lo == pytest.approx(3.0, abs=0.02)
    assert hi == 5.0


def test_scan_random_singletons_structure():
    rng = random.Random(11)
    for n in (3, 4):
        x = random_singleton(n, rng)
        result = scan_S(x, n + 1.0)
        points, intervals = component_signature(result)
        assert points == tuple(float(j) for j in range(n - 1))
        assert len(intervals) == 1
        assert intervals[0][0] == pytest.approx(n - 1, abs=0.02)
        assert intervals[0][1] == n + 1.0


def test_scan_example2_half():
    result = scan_S(example2(Fraction(1, 2)), 3.0)
    points, intervals = component_signature(result)
    assert points == (0.0,)
    assert len(intervals) == 1
    assert intervals[0][0] == pytest.approx(1.0, abs=1e-6)
    assert intervals[0][1] == 3.0


def test_scan_poisson_is_full_interval():
    rng = random.Random(5)
    base = random_singleton(3, rng)
    x = poisson_union(base, 1.3)
    result = scan_S(x, 3.0)
    points, intervals = component_signature(result)
    assert points == ()
    assert intervals == ((0.0, 3.0),)


def test_scan_integers_always_covered():
    rng = random.Random(17)
    for _ in range(5):
        n = rng.choice([2, 3, 4])
        raw = [rng.randint(0, 8) for _ in range(1 << n)]
        if sum(raw) == 0:
            continue
        x = RandomSubset(n, [Fraction(r, sum(raw)) for r in raw])
        result = scan_S(x, 4.0)
        for j in range(5):
            assert result.covers(j), (x.probs, j)


def test_scan_rejects_bad_domain():
    for T, step in ((-1.0, 0.01), (math.inf, 0.01), (math.nan, 0.01), (4.0, math.nan), (4.0, math.inf)):
        with pytest.raises(DomainViolation):
            scan_S(uniform_singleton(2), T, step)
    with pytest.raises(BudgetExceeded):  # T/step grid points, checked before allocation
        scan_S(uniform_singleton(2), 4.0, 1e-9)


def test_scan_step_missing_integers_still_covers_them():
    # 0.03 never lands on 1.0; the isolated point must be force-included
    result = scan_S(uniform_singleton(3), 2.5, step=0.03)
    points, intervals = component_signature(result)
    assert 1.0 in points and 0.0 in points
    assert intervals[0][0] == pytest.approx(2.0, abs=0.06)


def reference_min_q(x):
    """The per-mask evaluation the scan replaced: min over |A| >= 2 of
    q_poly(x, A) on each alpha, ties to the lowest mask."""
    masks = [m for m in range(1 << x.n) if bin(m).count("1") >= 2]
    polys = [q_poly(x, m) for m in masks]

    def min_q(w, alphas):
        table = np.vstack([p.grid_values(alphas) for p in polys])
        pick = np.argmin(table, axis=0)
        return table[pick, np.arange(len(alphas))], np.array(masks)[pick]

    return min_q


def oracle_laws():
    rng = random.Random(29)
    for n in (3, 4, 5, 6, 7):
        yield random_singleton(n, rng), n + 1.0
    yield example2(Fraction(1, 2)), 3.0
    yield poisson_union(random_singleton(3, rng), 1.3), 3.0
    yield construct_multi_interval(6, 3).x, 7.0


def grid_rows(grid):
    """The scan's grid arrays (alpha, min_q, argmin) as rows of Python scalars."""
    return list(zip(*(column.tolist() for column in grid)))


@pytest.mark.parametrize("x, T", list(oracle_laws()))
def test_scan_matches_per_mask_oracle(monkeypatch, x, T):
    got, got_grid = scan._scan(x, T, 0.01)
    got_rows = grid_rows(got_grid)
    monkeypatch.setattr(scan, "SCAN_BLOCK_BYTES", 7 * 8 << x.n)  # 7 rows a block, a ragged last one
    assert grid_rows(scan._scan(x, T, 0.01)[1]) == got_rows
    monkeypatch.setattr(scan, "_min_q", reference_min_q(x))
    want, want_grid = scan._scan(x, T, 0.01)
    want_rows = grid_rows(want_grid)
    assert [(c.lo, c.hi, c.is_point) for c in got.components] == [
        (c.lo, c.hi, c.is_point) for c in want.components
    ]
    for c, d in zip(got.components, want.components):
        assert abs(c.margin - d.margin) <= 1e-12
    assert [r[0] for r in got_rows] == [r[0] for r in want_rows]
    for (alpha, value, mask), (_, ref_value, ref_mask) in zip(got_rows, want_rows):
        assert abs(value - ref_value) <= 1e-12, alpha
        if mask != ref_mask:  # a tie between two masks, up to rounding
            assert abs(q_poly(x, mask)(alpha) - ref_value) <= 1e-12, alpha


def test_scan_sure_empty_set_is_whole_domain():
    x = RandomSubset(2, [1, 0, 0, 0])
    result = scan_S(x, 2.0)
    assert component_signature(result) == ((), ((0.0, 2.0),))


# --- simplex form and identities -----------------------------------------------


def test_simplex_form_frozen_value():
    assert simplex_form([0.3, 0.3], 1.5) == pytest.approx(-0.0544659, abs=1e-6)


def test_simplex_form_boundary_vanishes():
    rng = random.Random(7)
    for n in (2, 3, 4):
        alpha = n - 0.5
        for _ in range(50):
            # faces: one coordinate zero, or coordinates summing to one
            pt = [rng.uniform(0, 0.4) for _ in range(n)]
            pt[rng.randrange(n)] = 0.0
            while sum(pt) > 1:
                pt = [v / 2 for v in pt]
            assert abs(simplex_form(pt, alpha)) <= 1e-12
            w = [rng.uniform(0.05, 1.0) for _ in range(n)]
            pt2 = [v / sum(w) for v in w]
            assert abs(simplex_form(pt2, alpha)) <= 1e-12


def test_simplex_form_interior_negative():
    rng = random.Random(9)
    for n in (2, 3, 4):
        alpha = n - 0.5
        for _ in range(50):
            w = [rng.uniform(0.05, 1.0) for _ in range(n)]
            scale = rng.uniform(0.2, 0.95) / sum(w)
            pt = [v * scale for v in w]
            assert simplex_form(pt, alpha) < 0


def test_singleton_sum_matches_simplex_form():
    rng = random.Random(13)
    for n in (2, 3, 4, 5, 6):
        x = random_singleton(n, rng)
        p = [float(x.probs[1 << i]) for i in range(n)]
        for alpha in (n - 1.5, n - 0.5):
            if alpha <= 0:
                continue
            g = singleton_alternating_sum(p, alpha)
            f = simplex_form(p[:-1], alpha)
            assert g == pytest.approx(f, abs=1e-12 * max(1.0, abs(g)))


def test_singleton_sum_vanishes_at_one():
    rng = random.Random(15)
    for _ in range(10):
        x = random_singleton(2, rng)
        p = [x.probs[0b01], x.probs[0b10]]
        assert singleton_alternating_sum(p, 1) == pytest.approx(0.0, abs=1e-14)


def test_domain_checks():
    with pytest.raises(DomainViolation):
        simplex_form([0.6, 0.6], 1.5)
    with pytest.raises(DomainViolation):
        singleton_alternating_sum([0.5, 0.4], 1.5)  # does not sum to one
    with pytest.raises(DomainViolation):
        singleton_alternating_sum([0.5, -0.5, 1.0], 1.5)


def test_singleton_sum_tolerates_float_masses_like_singleton_set():
    # off by more than SUM_TOL: bad input, as singleton_set says
    with pytest.raises(DomainViolation, match="masses sum to"):
        singleton_alternating_sum([0.5, 0.5 + 1e-10], 1.5)
    # within SUM_TOL the simplex-form identity holds up to the sum's error
    g = singleton_alternating_sum([0.5, 0.5 + 5e-13], 3.7)
    assert g == pytest.approx(1 - 2 * 0.5**3.7, abs=1e-11)


# --- Schur condition -------------------------------------------------------------


def test_schur_check_positive_example():
    assert schur_gradient_check([0.4, 0.2], 1.5) > 0


def test_schur_check_matches_analytic_derivative():
    # for n = 2 the gradient difference is alpha (h(x1) - h(x2)) with
    # h(y) = y^(a-1) + (1-y)^(a-1)
    alpha = 1.5
    x1, x2 = 0.4, 0.2

    def h(y):
        return y ** (alpha - 1) + (1 - y) ** (alpha - 1)

    want = (x1 - x2) * alpha * (h(x1) - h(x2))
    got = schur_gradient_check([x1, x2], alpha)
    assert got == pytest.approx(want, rel=1e-5)


def test_schur_check_random_points():
    rng = random.Random(19)
    for n in (2, 3, 4):
        alpha = n - 0.5
        done = 0
        while done < 30:
            w = [rng.uniform(0.05, 1.0) for _ in range(n)]
            scale = rng.uniform(0.3, 0.9) / sum(w)
            pt = [v * scale for v in w]
            if abs(pt[0] - pt[1]) < 1e-3:
                continue
            val = schur_gradient_check(pt, alpha)
            assert val > 0, (n, pt)
            half = schur_gradient_check(pt, alpha, h=0.5e-6 * min(min(pt), 1 - sum(pt)))
            assert half == pytest.approx(val, rel=0.05)
            done += 1


def test_schur_check_domain_errors():
    with pytest.raises(DomainViolation):
        schur_gradient_check([0.3, 0.3], 1.5)  # x1 == x2
    with pytest.raises(DomainViolation):
        schur_gradient_check([0.4, 0.2], 2.5)  # alpha outside (1, 2)
    with pytest.raises(DomainViolation):
        schur_gradient_check([0.8, 0.4], 1.5)  # outside the simplex


@pytest.mark.parametrize("point", [[1e308, 1e308, 1], [0.2, float("nan"), 0.1], [0.2, 0.1, float("inf")]])
def test_schur_check_rejects_coordinates_outside_unit_interval(point):
    # [1e308, 1e308, 1] once overflowed inside fsum before the domain check
    with pytest.raises(DomainViolation):
        schur_gradient_check(point, 2.5)


def test_majorization_consequence():
    assert simplex_form([0.4, 0.2], 1.5) < simplex_form([0.5, 0.1], 1.5)


# --- power difference profile ------------------------------------------------------


def test_profile_uniform_ones():
    report = power_difference_profile([1, 1, 1], [0.5, 1.5, 2.5, 3.5])
    assert report.integer_values[0] == (1, pytest.approx(0.0, abs=1e-12))
    grid = dict(report.grid_values)
    assert grid[1.5] == pytest.approx(3**1.5 - 3 * 2**1.5 + 3, abs=1e-12)
    assert grid[1.5] == pytest.approx(-0.28913, abs=1e-5)
    assert grid[2.5] >= 0
    # the full-set sum is negative only on the last gap (1, 2); at 0.5 the
    # smaller subsets carry the non-existence, not this polynomial
    assert grid[0.5] == pytest.approx(3**0.5 - 3 * 2**0.5 + 3, abs=1e-12)
    assert grid[0.5] > 0
    negs = dict(report.negatives)
    assert 1.5 in negs and 2.5 not in negs and 0.5 not in negs


def test_profile_unnormalized_weights():
    report = power_difference_profile([0.3, 1.7, 2.2, 0.9], [j + 0.5 for j in range(4)])
    assert len(report.integer_values) == 3
    assert all(a < 3 for a, _ in report.negatives)


def test_profile_rejects_nonpositive():
    with pytest.raises(DomainViolation):
        power_difference_profile([1, 0], [0.5])

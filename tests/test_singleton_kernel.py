"""The singleton family on the subset kernel, against the per-mask loops it
replaced.

Each ``_loop_*`` function below is the earlier pure-Python evaluation, one
mask at a time, kept here as the reference: the kernel's pass must give the
same bits, the same report and the same errors.  The singleton law's
full-set sum, which ``simplex_form`` evaluates, is checked against the
``q_poly`` oracle's submask walk instead.
"""

import json
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlat import scan
from cmlat._kernel import _coerce
from cmlat.errors import CmlatError, DomainViolation, SizeLimitExceeded
from cmlat.randset import RandomSubset, singleton_set, subset_sums, uniform_singleton
from cmlat.scan import construct_multi_interval, q_poly, schur_gradient_check, simplex_form

# --- the per-mask references -------------------------------------------------


def _loop_simplex_form(x, alpha):
    vals = list(x)
    n = len(vals)
    if any(v < 0 for v in vals) or sum(vals) > 1 + 1e-12:
        raise DomainViolation("point must satisfy x_i >= 0 and sum <= 1")
    singletons = [0.0] * (1 << n)
    for i, v in enumerate(vals):
        singletons[1 << i] = float(v)
    sums = subset_sums(singletons, n)
    terms = [1.0]
    a = float(alpha)
    for mask in range(1, 1 << n):
        k = bin(mask).count("1")
        s = min(sums[mask], 1.0)
        sgn_pos = -1.0 if (n + 1 - k) & 1 else 1.0
        sgn_com = -1.0 if k & 1 else 1.0
        terms.append(sgn_pos * s**a + sgn_com * (1.0 - s) ** a)
    return math.fsum(terms)


def _loop_singleton_set(vals):
    probs = [vals[0] * 0] * (1 << len(vals))
    for i, p in enumerate(vals):
        probs[1 << i] = p
    return RandomSubset(len(vals), probs)


def _loop_midpoint_negatives(law, level):
    for j in range(0, law.n - level - 1):
        alpha = j + 0.5
        vals = {
            b: math.fsum(c * w**alpha for c, w in zip(law.coefs[b, law.n - b :].tolist(), law.w[law.n - b :]))
            for b in range(2, law.n + 1)
        }
        best_b = min(vals, key=vals.get)
        yield {"alpha": alpha, "size": best_b, "value": vals[best_b]}, vals[best_b] < -scan.CERT_MARGIN


def _outcome(fn, *args):
    """The repr of the value (bit-exact for floats), or the error's type and text."""
    try:
        return repr(fn(*args))
    except CmlatError as exc:
        return f"{type(exc).__name__}: {exc}"


def _assert_same_table(got, want):
    assert got._dense.values.dtype == want._dense.values.dtype
    assert got._dense.den == want._dense.den
    assert got._dense.values.tolist() == want._dense.values.tolist()
    assert got == want


# --- strategies ----------------------------------------------------------------

exact = st.booleans()
counts = st.lists(st.integers(1, 10**6), min_size=1, max_size=10)


def _masses(raw, rational, extra=0):
    total = sum(raw) + extra
    return [Fraction(r, total) if rational else r / total for r in raw]


def _alphas(n):
    return st.one_of(st.integers(1, 2 * n), st.floats(0.01, 2.0 * n))


# --- bit identity --------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=10), st.integers(0, 10**6), exact, st.data())
def test_simplex_form_is_the_per_mask_loop(raw, extra, rational, data):
    if not any(raw) and not extra:
        extra = 1
    x = _masses(raw, rational, extra)
    alpha = data.draw(_alphas(len(x)))
    assert _outcome(simplex_form, x, alpha) == _outcome(_loop_simplex_form, x, alpha)


def _full_set_sum(p, alpha):
    """The singleton law's full-set sum from the simplex form, and the
    q_poly oracle's value with the scale sum_B P{X in B}^alpha of its terms."""
    n = len(p)
    singletons = [0.0] * (1 << n)
    for i, v in enumerate(p):
        singletons[1 << i] = float(v)
    scale = math.fsum(np.power(subset_sums(singletons, n), float(alpha)).tolist())
    return simplex_form(p[:-1], alpha), q_poly(singleton_set(*p), (1 << n) - 1)(alpha), max(1.0, scale)


@settings(max_examples=150, deadline=None)
@given(counts.filter(lambda raw: len(raw) >= 2), exact, st.data())
def test_alternating_sum_is_the_per_mask_loop(raw, rational, data):
    # the simplex form at p_1..p_{n-1} against the oracle's submask walk
    p = _masses(raw, rational)
    alpha = data.draw(_alphas(len(p)))
    value, oracle, scale = _full_set_sum(p, alpha)
    assert abs(value - oracle) <= 1e-12 * scale, (value, oracle)


def _loop_profile(p, alpha):
    """sum_B (-1)^(n-|B|) (sum_{i in B} p_i)^alpha, one mask at a time, and the
    scale sum_B (sum_{i in B} p_i)^alpha of its terms."""
    n = len(p)
    terms, sizes = [], []
    for mask in range(1, 1 << n):
        s = float(sum(p[i] for i in range(n) if mask >> i & 1)) ** float(alpha)
        terms.append(-s if (n - bin(mask).count("1")) & 1 else s)
        sizes.append(s)
    return math.fsum(terms), max(1.0, math.fsum(sizes))


@settings(max_examples=100, deadline=None)
@given(st.one_of(counts, st.lists(st.integers(1, 3), min_size=1, max_size=10)).filter(lambda raw: len(raw) >= 2),
       exact, st.lists(st.floats(-1.0, 12.0), max_size=5), st.data())
def test_profile_is_the_per_mask_loop(raw, rational, grid, data):
    # counts of 1..3 repeat, so many subsets share a sum; the profile of the
    # singleton sum is zero at the integers 1..n-1 and >= 0 beyond n-1
    p = _masses(raw, rational)
    n = len(p)
    for j in range(1, n):
        zero = simplex_form(p[:-1], j)
        assert abs(zero) <= 1e-9 * _loop_profile(p, j)[1], (j, zero)
    for alpha in grid + [data.draw(st.integers(1, n + 1))]:
        if alpha <= 0:
            continue
        value = simplex_form(p[:-1], alpha)
        want, scale = _loop_profile(p, alpha)
        assert abs(value - want) <= 1e-12 * scale, (alpha, value, want)
        if alpha > n - 1:
            assert value >= -1e-9 * scale, (alpha, value)


@pytest.mark.parametrize("w", [[1] * 12, [0.25] * 12, [1, 2] * 7], ids=["ones", "quarters", "pairs"])
def test_profile_of_repeated_weights_is_the_per_mask_loop(w):
    # many subsets share a sum, so the oracle's terms merge
    total = sum(w)
    p = [v / total if isinstance(v, float) else Fraction(v, total) for v in w]
    n = len(p)
    for alpha in (n - 1.5, n - 0.5, 2.25):
        value, oracle, scale = _full_set_sum(p, alpha)
        assert abs(value - oracle) <= 1e-12 * scale, (alpha, value, oracle)
    assert _full_set_sum(p, n - 1.5)[0] < 0  # the last gap (n - 2, n - 1)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.integers(1, 100), st.integers(1, 2**62)), min_size=1, max_size=10), exact)
def test_singleton_set_is_the_table_of_its_masses(raw, rational):
    # large counts put the common denominator near and past int64 at 2^n entries
    p = _masses(raw, rational)
    _assert_same_table(singleton_set(*p), _loop_singleton_set(p))


def test_singleton_set_switches_to_python_ints_at_its_table_size():
    # numerators below 2^63 / 3 but not below 2^63 / 8: int64 for the three
    # masses alone, Python ints for the eight entries of the table
    tiny = Fraction(1, 2**62)
    p = [tiny, Fraction(1, 2) - tiny, Fraction(1, 2)]
    got = singleton_set(*p)
    assert got._dense.values.dtype == object
    _assert_same_table(got, _loop_singleton_set(p))


@pytest.mark.parametrize("top, dtype", [(2**63 // 3 - 1, np.int64), (2**63 // 3 + 1, object)])
def test_set_sums_stay_int64_while_n_sums_fit(top, dtype):
    # a set sum adds at most n = 3 values, so the bound is 3 times the largest, not 8
    vals = [top, 1, top - 5]
    got = scan._set_sums(_coerce(vals)[1])
    assert got.values.dtype == dtype and got.den == 1
    assert got.values.tolist() == subset_sums([0, vals[0], vals[1], 0, vals[2], 0, 0, 0], 3)


@pytest.mark.parametrize("n", [1, 2, 7, 12])
def test_uniform_singleton_is_the_table_of_its_masses(n):
    _assert_same_table(uniform_singleton(n), _loop_singleton_set([Fraction(1, n)] * n))


@pytest.mark.parametrize("n,k", [(5, 3), (6, 3), (6, 4), (8, 3)])
def test_multi_interval_is_the_per_mask_construction(n, k, monkeypatch):
    cert = construct_multi_interval(n, k)
    _assert_same_table(cert.x, RandomSubset(n, [cert.size_masses[bin(m).count("1")] for m in range(1 << n)]))
    monkeypatch.setattr(scan, "_midpoint_negatives", _loop_midpoint_negatives)
    want = construct_multi_interval(n, k)
    assert (cert.epsilons, cert.size_masses, cert.delta) == (want.epsilons, want.size_masses, want.delta)
    assert json.dumps(cert.items, sort_keys=True) == json.dumps(want.items, sort_keys=True)


# --- caps and finite exponents -------------------------------------------------

CAPPED = {
    "simplex_form": lambda n: simplex_form([Fraction(1, 2 * n)] * n, 1.5),
    "schur_gradient_check": lambda n: schur_gradient_check([0.02] + [0.01] * (n - 1), n - 0.5),
}


@pytest.mark.parametrize("n", [21, 30])
@pytest.mark.parametrize("name", sorted(CAPPED))
def test_ground_sets_above_the_cap_are_refused_before_any_table(name, n):
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitExceeded, match=f"ground set must have 1..20 points, got {n}"):
            CAPPED[name](n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_non_finite_exponents_are_domain_errors(alpha):
    for call in (
        lambda: simplex_form([0.3, 0.3], alpha),
        lambda: simplex_form([Fraction(1, 3)] * 2, alpha),
        lambda: schur_gradient_check([0.3, 0.2], alpha),
    ):
        with pytest.raises(DomainViolation):
            call()


BEYOND_FLOATS = {
    "simplex_form": lambda alpha: simplex_form([0.3, 0.3], alpha),
}


@pytest.mark.parametrize("alpha", [10**400, Fraction(10**400, 3)])
@pytest.mark.parametrize("name", sorted(BEYOND_FLOATS))
def test_exponents_beyond_the_float_range_are_domain_errors(name, alpha):
    # float(10**400) would raise an untyped OverflowError
    with pytest.raises(DomainViolation, match="got a value beyond the float range"):
        BEYOND_FLOATS[name](alpha)


def test_the_largest_float_exponent_is_not_refused_as_out_of_range():
    # the bound itself is a finite float: it passes the range check
    assert math.isfinite(simplex_form([0.3, 0.3], int(sys.float_info.max)))


def test_twenty_points_are_still_accepted():
    # the singleton law on 20 points, and a point of the simplex in 20 coordinates
    p = [Fraction(1, 20)] * 20
    assert simplex_form(p[:-1], 18.5) < 0
    assert simplex_form([Fraction(1, 21)] * 20, 19.5) < 0

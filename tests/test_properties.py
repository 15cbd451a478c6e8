"""Property-based checks over exact rationals."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlat.cm import LatticeFunction, delta, is_cm, mobius_weights, reconstruct
from cmlat.lattice import diamond_lattice, pentagon_lattice
from cmlat.randset import RandomSubset, power_exists, subset_mobius, subset_sums
from cmlat.scan import ExponentialPolynomial, scan_S

fractions = st.fractions(min_value=-8, max_value=8, max_denominator=16)
nonneg_fractions = st.fractions(min_value=0, max_value=8, max_denominator=16)

DIAMOND = diamond_lattice(3)
PENTAGON = pentagon_lattice()


@settings(max_examples=60, deadline=None)
@given(st.lists(fractions, min_size=16, max_size=16))
def test_subset_transforms_are_mutually_inverse(vals):
    assert subset_mobius(subset_sums(vals, 4), 4) == vals
    assert subset_sums(subset_mobius(vals, 4), 4) == vals


def reference_subset_sums(values, ground_n):
    """The per-bit loop the numpy kernel replaced, kept as its oracle."""
    out = list(values)
    for i in range(ground_n):
        bit = 1 << i
        for mask in range(len(out)):
            if mask & bit:
                out[mask] += out[mask ^ bit]
    return out


def reference_subset_mobius(values, ground_n):
    out = list(values)
    for i in range(ground_n):
        bit = 1 << i
        for mask in range(len(out)):
            if mask & bit:
                out[mask] -= out[mask ^ bit]
    return out


def tables(elements):
    return st.integers(0, 8).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(elements, min_size=1 << n, max_size=1 << n))
    )


@settings(max_examples=60, deadline=None)
@given(tables(st.floats(min_value=-1e6, max_value=1e6)))
def test_float_kernel_is_bitwise_the_reference_loop(table):
    n, vals = table
    for kernel, reference in ((subset_sums, reference_subset_sums), (subset_mobius, reference_subset_mobius)):
        got = kernel(vals, n)
        assert type(got) is list and all(type(v) is float for v in got)
        assert [v.hex() for v in got] == [v.hex() for v in reference(vals, n)]


big = st.one_of(
    st.integers(min_value=2**70, max_value=2**90),
    st.fractions(min_value=2**70, max_value=2**90, max_denominator=1000),
)


@settings(max_examples=40, deadline=None)
@given(tables(big))
def test_exact_kernel_keeps_big_values(table):
    n, vals = table
    sums = subset_sums(vals, n)
    assert sums == reference_subset_sums(vals, n)
    assert subset_mobius(sums, n) == vals


@settings(max_examples=40, deadline=None)
@given(st.lists(nonneg_fractions, min_size=5, max_size=5), st.lists(nonneg_fractions, min_size=5, max_size=5))
def test_delta_is_linear(f_vals, g_vals):
    f = LatticeFunction(DIAMOND, f_vals)
    g = LatticeFunction(DIAMOND, g_vals)
    h = LatticeFunction(DIAMOND, [a + b for a, b in zip(f_vals, g_vals)])
    for args in ([], [1], [1, 2], [1, 2, 3]):
        for base in DIAMOND.elements:
            assert delta(h, args, base) == delta(f, args, base) + delta(g, args, base)


@settings(max_examples=40, deadline=None)
@given(st.lists(nonneg_fractions, min_size=5, max_size=5))
def test_delta_is_symmetric_in_arguments(vals):
    f = LatticeFunction(PENTAGON, vals)
    for base in PENTAGON.elements:
        assert delta(f, [1, 3], base) == delta(f, [3, 1], base)
        assert delta(f, [1, 2, 3], base) == delta(f, [3, 2, 1], base)


@settings(max_examples=40, deadline=None)
@given(st.lists(nonneg_fractions, min_size=5, max_size=5))
def test_weights_reconstruct_roundtrip_pentagon(vals):
    f = LatticeFunction(PENTAGON, vals)
    assert reconstruct(mobius_weights(f)).values == f.values


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(fractions, st.fractions(min_value=Fraction(1, 16), max_value=2, max_denominator=16)),
        max_size=8,
    )
)
def test_polynomial_canonicalization(terms):
    poly = ExponentialPolynomial(terms)
    again = ExponentialPolynomial(poly.terms)
    assert again.terms == poly.terms  # idempotent
    shuffled = ExponentialPolynomial(list(reversed(terms)))
    assert shuffled.terms == poly.terms  # order independent
    bases = [b for _, b in poly.terms]
    assert bases == sorted(bases, reverse=True)
    assert len(set(bases)) == len(bases)
    assert all(c != 0 for c, _ in poly.terms)
    # exact evaluation at alpha = 1 matches the raw term sum
    raw = sum(c * b for c, b in terms)
    assert poly(1) == pytest.approx(float(raw), abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=9), min_size=4, max_size=4).filter(lambda l: sum(l) > 0))
def test_integer_powers_produce_distributions(raw):
    total = sum(raw)
    x = RandomSubset(2, [Fraction(r, total) for r in raw])
    for k in (0, 1, 2, 3):
        verdict = power_exists(x, k)
        assert verdict.exists
        assert sum(verdict.q_values) == 1
        assert min(verdict.q_values) >= 0


def test_single_point_ground_set():
    x = RandomSubset(1, [Fraction(1, 3), Fraction(2, 3)])
    for alpha in (0.3, 1.7, 5):
        assert power_exists(x, alpha).exists
    result = scan_S(x, 2.0)
    assert [(c.lo, c.hi) for c in result.components] == [(0.0, 2.0)]

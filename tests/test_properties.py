"""Property-based checks over exact rationals."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmlat._kernel import _per_bit
from cmlat._scalars import pow_scalar
from cmlat.cm import LatticeFunction, delta, is_cm, mobius_weights, reconstruct
from cmlat.errors import InvalidProbabilityVector, NotAVoidFunctional
from cmlat.lattice import diamond_lattice, pentagon_lattice
from cmlat.randset import (
    MASS_TOL,
    SUM_TOL,
    RandomSubset,
    VoidFunctional,
    from_void,
    poisson_union,
    power_exists,
    subset_mobius,
    subset_sums,
    union_iid,
    void_functional,
)
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


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda rows: tables(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=rows, max_size=rows))
))
def test_batched_kernel_is_bitwise_row_by_row(table):
    # the scan transforms a (rows, 2^n) block at once; each row must be the list kernel's answer
    n, columns = table
    block = np.array(columns, dtype=float).T.copy()
    for op, kernel in ((np.add, subset_sums), (np.subtract, subset_mobius)):
        got = _per_bit(block.copy(), n, op)
        want = [kernel(row, n) for row in block.tolist()]
        assert [[v.hex() for v in row] for row in got.tolist()] == [[v.hex() for v in row] for row in want]


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


# --- dense law paths against the per-entry definitions --------------------------
#
# The oracles below are the definitions evaluated one entry at a time: the list
# loops above for the transforms, pow_scalar (or math.exp) for the pointwise
# maps, and min over a Python range for the witness.


def hexes(values):
    return [v.hex() for v in values]


def reference_power(x, alpha):
    """q table and least mask of V^alpha from the definition."""
    w = reference_subset_sums(list(x.probs), x.n)
    q = reference_subset_mobius([pow_scalar(t, alpha) for t in w], x.n)
    return q, min(range(len(q)), key=q.__getitem__)


def reference_invert(table, n, tol=MASS_TOL):
    """Masses of a void table, or the witness mask of a negative one."""
    masses = reference_subset_mobius(list(table[::-1]), n)
    worst = min(range(len(masses)), key=masses.__getitem__)
    exact = not isinstance(masses[worst], float)
    if masses[worst] < (0 if exact else -tol):
        return worst
    return masses if exact else [0.0 if m < 0 else m for m in masses]


def check_float_inversion(table, n, invert):
    """``invert()`` must give the reference's masses bitwise, or its error."""
    want = reference_invert(table, n)
    if abs(table[0] - 1.0) > SUM_TOL:
        with pytest.raises(NotAVoidFunctional) as info:
            invert()
        assert info.value.witness == 0
    elif isinstance(want, int):
        with pytest.raises(NotAVoidFunctional) as info:
            invert()
        assert info.value.witness == want
    elif not abs(sum(want) - 1.0) <= SUM_TOL:
        with pytest.raises(InvalidProbabilityVector):
            invert()
    else:
        assert hexes(invert().probs) == hexes(want)


@st.composite
def float_laws(draw):
    n = draw(st.integers(1, 6))
    weights = draw(
        st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(1e-3, 1.0)), min_size=1 << n, max_size=1 << n).filter(any)
    )
    total = math.fsum(weights)
    return RandomSubset(n, [wt / total for wt in weights])


exponents = st.one_of(st.just(0.0), st.integers(0, 8).map(float), st.floats(0, 10))


@settings(max_examples=80, deadline=None)
@given(float_laws(), exponents, st.integers(1, 4), st.sampled_from([0.5, 2.5, 1e3, 1e20]))
def test_float_law_paths_are_bitwise_the_per_entry_reference(x, alpha, m, lam):
    n = x.n
    void = reference_subset_sums(list(x.probs), n)[::-1]
    assert hexes(void_functional(x).table) == hexes(void)

    q, worst = reference_power(x, alpha)
    verdict = power_exists(x, alpha)
    assert hexes(verdict.q_values) == hexes(q)
    assert verdict.min_q.hex() == q[worst].hex()
    assert verdict.exists == (q[worst] >= -MASS_TOL)
    assert verdict.witness == (None if verdict.exists else worst)
    assert verdict.boundary == (verdict.exists and q[worst] < 0)

    check_float_inversion(void, n, lambda: from_void(void_functional(x)))
    powered = [pow_scalar(t, alpha) for t in void]
    if abs(powered[0] - 1.0) <= SUM_TOL:
        check_float_inversion(powered, n, lambda: from_void(VoidFunctional(n, powered)))
    # V(empty) is the float total mass; the union's V^m and the Poisson
    # exponent are measured relative to it
    check_float_inversion([pow_scalar(t / void[0], m) for t in void], n, lambda: union_iid(x, m))
    poisson = [math.exp(lam * (t - void[0])) for t in void]
    check_float_inversion(poisson, n, lambda: poisson_union(x, lam))


@st.composite
def exact_laws(draw):
    n = draw(st.integers(1, 5))
    bound = draw(st.sampled_from([9, 2**25, 2**60, 2**70]))
    weights = draw(st.lists(st.one_of(st.just(0), st.integers(1, bound)), min_size=1 << n, max_size=1 << n).filter(any))
    total = sum(weights)
    return RandomSubset(n, [Fraction(wt, total) for wt in weights])


@settings(max_examples=60, deadline=None)
@given(exact_laws(), st.integers(0, 3))
@example(RandomSubset(2, [Fraction(k, 2**30 + 7) for k in (0, 5, 2, 2**30)]), 3)  # D^3 > 2^63 > D
@example(RandomSubset(1, [Fraction(1, 2**54 + 1), Fraction(2**54, 2**54 + 1)]), 3)  # D > 2^53
@example(RandomSubset(2, [Fraction(k, 2**64 + 6) for k in (0, 3, 1, 2**64 + 2)]), 2)  # D > 2^63
@example(RandomSubset(2, [Fraction(k, 2**64 + 6) for k in (0, 3, 1, 2**64 + 2)]), 0)
def test_exact_law_paths_are_the_fraction_reference(x, k):
    n = x.n
    void = reference_subset_sums(list(x.probs), n)[::-1]
    v = void_functional(x)
    assert v.table == tuple(void) and all(type(t) is Fraction for t in v.table)
    assert from_void(v).probs == x.probs

    q, worst = reference_power(x, k)
    for alpha in (k, float(k)):
        verdict = power_exists(x, alpha)
        assert verdict.q_values == tuple(q)
        assert all(type(t) is Fraction for t in verdict.q_values)
        assert verdict.min_q == q[worst] and verdict.exists == (q[worst] >= 0)
        assert verdict.witness == (None if verdict.exists else worst)

    m = max(k, 1)
    assert union_iid(x, m).probs == tuple(reference_invert([t**m for t in void], n))

    # a non-integral exponent leaves the exact path: floats of the exact table
    w = [float(t) for t in void[::-1]]
    q = reference_subset_mobius([pow_scalar(t, 0.5) for t in w], n)
    assert hexes(power_exists(x, 0.5).q_values) == hexes(q)
    poisson = [math.exp(2.5 * (float(t) - 1.0)) for t in void]
    check_float_inversion(poisson, n, lambda: poisson_union(x, 2.5))

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlat._scalars import coerce_values, pow_scalar
from cmlat.errors import (
    CmlatError,
    DomainViolation,
    InsufficientLength,
    InvariantViolation,
    SearchBudgetExceeded,
    _ensure,
)
from cmlat.moments import (
    DIFF_TOL_REL,
    ORDER_CAP,
    PSD_BAD_REL,
    PSD_OK_REL,
    MomentSequence,
    _hankel_sweep,
    finite_diff_cm_check,
    hankel_psd_check,
    two_atom_power_counterexample,
    two_atom_sequence,
)

HALF = Fraction(1, 2)


def geometric(ratio, length):
    return MomentSequence.from_atoms([(1, ratio)], length)


# --- finite differences ---------------------------------------------------------


def test_constant_sequence_is_cm():
    seq = MomentSequence([1] * 12)
    ok, witness = finite_diff_cm_check(seq, 8)
    assert ok and witness is None


def test_geometric_sequence_differences():
    seq = geometric(HALF, 16)
    ok, _ = finite_diff_cm_check(seq, 12)
    assert ok
    # ((-D)^k a)_j = (1/2)^(j+k) exactly
    row = list(seq.values)
    for _ in range(3):
        row = [a - b for a, b in zip(row, row[1:])]
    assert row[0] == HALF**3 and row[2] == HALF**5


def test_power_of_two_atom_fails_differences():
    # the 1.5 power needs a deep table: all differences up to order 16 stay
    # nonnegative at this truncation; the first violation sits at order 20
    seq = two_atom_sequence(0.5, 17).power(1.5)
    ok, _ = finite_diff_cm_check(seq, 16)
    assert ok
    seq = two_atom_sequence(0.5, 21).power(1.5)
    ok, witness = finite_diff_cm_check(seq, 20)
    assert not ok and witness == (20, 0)
    # the 0.5 power fails shallow
    seq = two_atom_sequence(0.5, 11).power(0.5)
    ok, witness = finite_diff_cm_check(seq, 10)
    assert not ok and witness == (6, 0)


def test_diff_needs_enough_terms():
    with pytest.raises(InsufficientLength):
        finite_diff_cm_check(MomentSequence([1, 1]), 5)


def test_atoms_validated():
    with pytest.raises(DomainViolation):
        MomentSequence.from_atoms([(1, 2)], 4)  # location outside [0, 1]
    with pytest.raises(DomainViolation):
        MomentSequence([1, -1])


# --- hankel checks ---------------------------------------------------------------


def test_hankel_layout():
    seq = MomentSequence(list(range(1, 8)))
    verdict = hankel_psd_check(seq, 3)
    h = np.array([[1, 2, 3], [2, 3, 4], [3, 4, 5]], dtype=float)
    assert verdict.trace == 9.0
    assert verdict.min_eigenvalue == float(np.linalg.eigh(h)[0][0])
    with pytest.raises(InsufficientLength):
        hankel_psd_check(MomentSequence([1, 1]), 3)
    with pytest.raises(DomainViolation):
        hankel_psd_check(seq, 0)


def test_genuine_moments_are_psd():
    seq = MomentSequence.from_atoms([(HALF, HALF), (Fraction(1, 3), Fraction(3, 4))], 20)
    for n in range(1, 10):
        verdict = hankel_psd_check(seq, n)
        assert verdict.psd, n


def test_integer_powers_are_psd():
    for alpha in (2, 3):
        seq = two_atom_sequence(HALF, 20).power(alpha)
        for n in range(2, 9):
            assert hankel_psd_check(seq, n).psd, (alpha, n)


def test_product_of_moment_sequences_passes_both_checks():
    a = two_atom_sequence(HALF, 16)
    b = MomentSequence.from_atoms([(Fraction(1, 4), Fraction(1, 3)), (Fraction(3, 4), 1)], 16)
    prod = a.pointwise_product(b)
    ok, _ = finite_diff_cm_check(prod, 12)
    assert ok
    for n in range(2, 8):
        assert hankel_psd_check(prod, n).psd


def test_half_power_fails_at_order_four():
    seq = two_atom_sequence(0.5, 7).power(1.5)
    verdict = hankel_psd_check(seq, 4)
    assert not verdict.psd and not verdict.indeterminate
    assert verdict.min_eigenvalue < -1e-8 * verdict.trace
    v = verdict.vector
    h = [[seq.values[i + j] for j in range(4)] for i in range(4)]
    quad = sum(v[i] * h[i][j] * v[j] for i in range(4) for j in range(4))
    assert quad < 0


# --- counterexample sweeps --------------------------------------------------------


def test_counterexample_alpha_15():
    cert = two_atom_power_counterexample(0.5, 1.5)
    assert cert.order == 4
    assert cert.decisive
    assert cert.min_eigenvalue < -1e-8 * cert.trace


def test_counterexample_alpha_05():
    cert = two_atom_power_counterexample(0.5, 0.5)
    assert cert.order == 3
    assert cert.decisive


def test_counterexample_order_matches_threshold():
    # expected failing order <= ceil(alpha) + 2
    for alpha in (0.5, 1.5, 2.5):
        cert = two_atom_power_counterexample(0.5, alpha)
        assert cert.order <= math.ceil(alpha) + 2, (alpha, cert.order)


def test_counterexample_rejects_bad_args():
    with pytest.raises(DomainViolation):
        two_atom_power_counterexample(0.5, 2)
    with pytest.raises(DomainViolation):
        two_atom_power_counterexample(1.5, 0.5)


def laplace_bridge(y, alpha):
    """The continuous bridge: g(t) = (1 + e^{-ty})/2 sampled at the integers is
    the two-atom sequence at x = e^{-y}, so its certificate refutes g^alpha."""
    return two_atom_power_counterexample(math.exp(-y), alpha)


def test_laplace_bridge_ln2_matches_direct():
    bridge = laplace_bridge(math.log(2.0), 1.5)
    direct = two_atom_power_counterexample(0.5, 1.5)
    assert bridge.x == direct.x == 0.5
    assert bridge.order == direct.order
    assert bridge.min_eigenvalue == pytest.approx(direct.min_eigenvalue, rel=1e-12)


def test_laplace_bridge_y1():
    cert = laplace_bridge(1.0, 2.5)
    assert cert.order <= 5
    assert cert.min_eigenvalue < 0
    cert3 = two_atom_sequence(math.exp(-1.0), 33).power(3)
    assert all(hankel_psd_check(cert3, n).psd for n in range(2, 17))


def test_laplace_rejects_bad_y():
    # y <= 0 puts x = e^{-y} at or above 1
    for y in (-1.0, 0.0):
        with pytest.raises(DomainViolation):
            laplace_bridge(y, 1.5)


def test_counterexample_beyond_its_order_cap_is_a_budget_error():
    # at alpha = 7.3 the first failing order is ceil(alpha) + 2 = 10
    with pytest.raises(SearchBudgetExceeded, match="up to order 5"):
        two_atom_power_counterexample(0.5, 7.3, order_cap=5)


# --- the dense table against the per-entry routes ---------------------------------
# A sequence is coerced once and powered, multiplied, differenced and sectioned
# on its dense table; the references below are the per-entry loops, over the
# values coerced by `coerce_values` and powered by `pow_scalar`, that the
# module used before, and must agree bit for bit.


def _bits(value):
    """Floats by their bits, tuples entry by entry, anything else as it is."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(map(_bits, value))
    return value


def _outcome(fn, *args):
    try:
        return _bits(fn(*args))
    except CmlatError as exc:
        return type(exc).__name__, str(exc)


def _reference_values(values):
    return coerce_values(values)[0]


def _reference_power(values, alpha):
    return _reference_values([pow_scalar(v, alpha) for v in _reference_values(values)])


def _reference_diff(values, max_order):
    vals, kind = coerce_values(values)
    if len(vals) < max_order + 1:
        raise InsufficientLength(f"need {max_order + 1} terms, have {len(vals)}")
    scale = max((abs(float(v)) for v in vals), default=0.0)
    tol = 0 if kind == "rational" else DIFF_TOL_REL * max(1.0, scale)
    row = list(vals)
    for k in range(max_order + 1):
        for j, v in enumerate(row):
            if v < -tol:
                return False, (k, j)
        row = [a - b for a, b in zip(row, row[1:])]
        if not row:
            break
    return True, None


def _rebuilt_verdict(x, alpha, order):
    """The order-``order`` verdict as each order of the sweep once rebuilt it: a
    fresh two-atom sequence of 2 order - 1 terms powered entry by entry, and its
    section read from nested lists."""
    terms = [sum(w * pow_scalar(t, k) for w, t in ((0.5, 1.0), (0.5, x))) for k in range(2 * order - 1)]
    a = _reference_power(terms, alpha)
    h = np.array([[float(a[i + j]) for j in range(order)] for i in range(order)], dtype=float)
    eigvals, eigvecs = np.linalg.eigh(h)
    lam, trace = float(eigvals[0]), float(np.trace(h))
    scale = max(trace, 1e-300)
    psd, violated = lam >= -PSD_OK_REL * scale, lam < -PSD_BAD_REL * scale
    vector = None
    if not psd:
        v = eigvecs[:, 0]
        if float(v @ h @ v) < 0:
            vector = tuple(float(t) for t in v)
        if violated:
            _ensure(vector is not None, "certificate vector must witness the violation")
    return order, lam, trace, vector, psd, not psd and not violated


def _rebuilt_counterexample(x, alpha, order_cap):
    for order in range(2, order_cap + 1):
        order, lam, trace, vector, psd, indeterminate = _rebuilt_verdict(x, alpha, order)
        if not psd and vector is not None:
            return order, lam, trace, vector, not indeterminate
    raise SearchBudgetExceeded(f"no Hankel violation up to order {order_cap}")


def _counterexample(x, alpha, order_cap):
    cert = two_atom_power_counterexample(x, alpha, order_cap)
    return cert.order, cert.min_eigenvalue, cert.trace, cert.vector, cert.decisive


def _laplace(y, alpha):
    cert = laplace_bridge(y, alpha)
    return cert.order, cert.min_eigenvalue, cert.trace, cert.vector, cert.decisive


def _sweep(x, alpha, order_cap):
    return tuple((v.order, v.min_eigenvalue, v.trace, v.vector, v.psd, v.indeterminate)
                 for v in _hankel_sweep(x, alpha, order_cap))


INTERIOR = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
FRACTIONAL = st.floats(0.01, 30.0).filter(lambda a: not a.is_integer())


@settings(max_examples=60, deadline=None)
@given(INTERIOR, FRACTIONAL, st.integers(2, ORDER_CAP))
def test_sweep_is_the_per_order_rebuild(x, alpha, order_cap):
    assert _outcome(_counterexample, x, alpha, order_cap) == _outcome(_rebuilt_counterexample, x, alpha, order_cap)


@settings(max_examples=30, deadline=None)
@given(INTERIOR, st.integers(1, 30), st.integers(2, ORDER_CAP))
def test_integral_sweep_is_the_per_order_rebuild(x, alpha, order_cap):
    want = [_rebuilt_verdict(x, alpha, order) for order in range(2, order_cap + 1)]
    assert _outcome(_sweep, x, alpha, order_cap) == _bits(tuple(want))


@settings(max_examples=30, deadline=None)
@given(st.floats(1e-3, 5.0), st.floats(0.01, 8.0).filter(lambda a: not a.is_integer()))
def test_laplace_bridge_is_the_per_order_rebuild(y, alpha):
    assert _outcome(_laplace, y, alpha) == _outcome(_rebuilt_counterexample, math.exp(-y), alpha, ORDER_CAP)


ENTRIES = st.one_of(
    st.integers(0, 2**70),
    st.fractions(min_value=0, max_denominator=10**6),
    st.floats(0.0, 1e6),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(ENTRIES, max_size=24), st.integers(0, 24), st.sampled_from([0, 1, 2, 0.5, 1.5, 2.0, 3.3]))
def test_differences_and_powers_are_the_per_entry_loops(values, max_order, alpha):
    seq = MomentSequence(values)
    assert _bits(seq.values) == _bits(_reference_values(values))
    assert seq.kind == coerce_values(values)[1]
    assert _outcome(finite_diff_cm_check, seq, max_order) == _outcome(_reference_diff, values, max_order)
    powered = seq.power(alpha)
    want = _reference_power(values, alpha)
    assert _bits(powered.values) == _bits(want)
    # an empty list has no entry to carry the kind: it has the kind of a zero's power
    assert powered.kind == coerce_values(want or [pow_scalar(Fraction(0), alpha)])[1]
    assert _outcome(finite_diff_cm_check, powered, max_order) == _outcome(_reference_diff, want, max_order)


@pytest.mark.parametrize("zero, alpha, want", [
    (Fraction(0), 0, Fraction(1)), (Fraction(0), 2.0, Fraction(0)), (Fraction(0), 0.5, 0.0),
    (Fraction(0), Fraction(1, 2), 0.0), (0.0, 0, 1.0), (0.0, 2, 0.0), (0.0, 0.5, 0.0),
])
def test_pow_scalar_of_zero_is_exact_only_at_integral_exponents(zero, alpha, want):
    got = pow_scalar(zero, alpha)
    assert type(got) is type(want) and got == want


@settings(max_examples=150, deadline=None)
@given(st.lists(ENTRIES, max_size=16), st.lists(ENTRIES, max_size=16))
def test_product_is_the_per_entry_product(a, b):
    prod = MomentSequence(a).pointwise_product(MomentSequence(b))
    want = _reference_values([u * v for u, v in zip(_reference_values(a), _reference_values(b))])
    assert _bits(prod.values) == _bits(want)
    d = prod._dense
    if d.den is not None:
        # lowest terms, int64 only where a transform of the table would fit
        assert (d.values.dtype == np.int64) == (max(map(abs, d.values.tolist()), default=0) * len(d.values) < 2**63)
        assert d.den == math.lcm(*(Fraction(v).denominator for v in want))


def test_product_of_large_numerators_switches_to_python_ints():
    big = MomentSequence([2**40, 2**40 + 1, 3])
    prod = big.pointwise_product(big)
    assert prod._dense.values.dtype == object
    assert prod.values == (2**80, (2**40 + 1) ** 2, 9)
    assert prod.kind == "rational"


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(ENTRIES, st.one_of(st.fractions(0, 1), st.floats(0.0, 1.0))), max_size=3),
       st.integers(0, 20))
def test_atoms_give_the_power_sums_once(atoms, length):
    seq = MomentSequence.from_atoms(atoms, length)
    want = _reference_values([sum(w * pow_scalar(x, k) for w, x in atoms) for k in range(length)])
    assert _bits(seq.values) == _bits(want)
    assert seq.atoms == tuple(atoms)
    assert MomentSequence(seq.values, atoms) == seq


def test_values_given_with_atoms_are_checked():
    assert MomentSequence([1, HALF, Fraction(1, 4)], [(1, HALF)]).atoms == ((1, HALF),)
    with pytest.raises(InvariantViolation, match="moment 2 disagrees"):
        MomentSequence([1, HALF, Fraction(1, 3)], [(1, HALF)])
    with pytest.raises(InvariantViolation, match="moment 1 disagrees"):
        MomentSequence([1.0, 0.6], [(1, 0.5)])
    with pytest.raises(DomainViolation, match="atoms need"):
        MomentSequence([1, 1], [(1, 2)])

"""The one float power route: libm's pow, vectorised by `_kernel._float_power`.

Every vectorised float power of the package goes through `_float_power`, so a
numpy build whose `float_power` stops calling libm fails here instead of
silently moving verdicts; the scan and `power_exists` then share every bit.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmlat import scan
from cmlat._kernel import _Dense, _float_power, _floats, _per_bit, _power
from cmlat.cm import LatticeFunction, power
from cmlat.errors import DomainViolation
from cmlat.lattice import chain_lattice
from cmlat.randset import RandomSubset, _containment, power_exists

SPECIAL_BASES = [0.0, -0.0, 5e-324, 1e-310, 1 - 2**-53, 1.0, 1 + 2**-52, 2.0, 10.0, 1e10]
EXPONENTS = [0.0, 1e-3, 1 / 3, 0.5, 2.0, 3.0, 7.3, 14.3, 30.0]
BASES = st.one_of(
    st.sampled_from(SPECIAL_BASES),
    st.floats(0.0, 1.0),
    st.floats(1.0, 1e10),
)


def _libm(base, alpha):
    return math.pow(base + 0.0, alpha)


def _same_bits(a, b):
    return np.array_equal(np.asarray(a, dtype=float).view(np.uint64), np.asarray(b, dtype=float).view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(st.lists(BASES, min_size=1, max_size=64), st.sampled_from(EXPONENTS) | st.floats(0.0, 30.0))
def test_table_power_is_libm_pow_bit_for_bit(bases, alpha):
    got = _float_power(np.array(bases), alpha)
    assert _same_bits(got, [_libm(b, alpha) for b in bases])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(BASES, min_size=1, max_size=32),
    st.lists(st.sampled_from(EXPONENTS) | st.floats(0.0, 30.0), min_size=1, max_size=8),
)
def test_block_power_is_libm_pow_bit_for_bit(bases, alphas):
    got = _float_power(np.array(bases), np.array(alphas)[:, None])
    assert got.shape == (len(alphas), len(bases))
    assert _same_bits(got, [[_libm(b, a) for b in bases] for a in alphas])


def test_every_special_base_at_every_listed_exponent():
    got = _float_power(np.array(SPECIAL_BASES), np.array(EXPONENTS)[:, None])
    assert _same_bits(got, [[_libm(b, a) for b in SPECIAL_BASES] for a in EXPONENTS])
    assert _same_bits(_float_power(np.array([-0.0]), 3.0), [0.0])  # -0.0 counts as 0.0
    assert _same_bits(_float_power(np.array([0.0]), 0.0), [1.0])  # 0**0 = 1


def test_scan_rows_equal_power_exists_bit_for_bit(monkeypatch):
    """The q block of `scan._min_q` is `power_exists`' q table, bit for bit,
    for 20 random 256-mass float laws on n = 8 at alpha = 7.3."""
    blocks = []

    def keep(a, ground_n, op):
        out = _per_bit(a, ground_n, op)
        blocks.append(out.copy())  # _min_q overwrites its |A| < 2 entries
        return out

    monkeypatch.setattr(scan, "_per_bit", keep)
    rng = np.random.default_rng(5)
    sizes = np.array([bin(mask).count("1") for mask in range(256)])
    for _ in range(20):
        p = rng.random(256)
        x = RandomSubset(8, (p / p.sum()).tolist())
        blocks.clear()
        low, mask = scan._min_q(_floats(_containment(x)), np.array([7.3]))
        (row,) = blocks[0]
        want = np.array(power_exists(x, 7.3).q_values)
        assert _same_bits(row[sizes >= 2], want[sizes >= 2])
        assert low[0] == want[sizes >= 2].min() and want[mask[0]] == low[0]


@pytest.mark.parametrize("values", [(1e300, 1.0), (10**400, 1)], ids=["float 1e300", "exact 1e400"])
def test_power_overflow_is_a_domain_violation(values):
    f = LatticeFunction(chain_lattice(2), values)
    with pytest.raises(DomainViolation, match="float range"):
        power(f, 1.5)


def test_power_overflow_warns_nothing():
    f = LatticeFunction(chain_lattice(2), [1e300, 1.0])
    with warnings.catch_warnings(), np.errstate(over="warn"):
        warnings.simplefilter("error")  # a numpy RuntimeWarning would fail here
        with pytest.raises(DomainViolation):
            power(f, 1.5)


@pytest.mark.parametrize("alpha", [-1.0, math.nan, math.inf, -math.inf])
def test_one_exponent_check_for_every_power(alpha):
    x = RandomSubset(2, [0.25] * 4)
    f = LatticeFunction(chain_lattice(2), [1.0, 0.5])
    message = "exponent must be finite and nonnegative"
    with pytest.raises(DomainViolation, match=message):
        power_exists(x, alpha)
    with pytest.raises(DomainViolation, match=message):
        power(f, alpha)


# --- exact tables to floats ------------------------------------------------------

NUMERATORS = st.one_of(
    st.integers(-(2**63) + 1, 2**63 - 1),
    st.integers(2**63 - 2**12, 2**63 - 1),
    st.integers(-(2**63) + 1, -(2**63) + 2**12),
    st.integers(-(2**54), 2**54),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(NUMERATORS, min_size=1, max_size=32),
       st.one_of(st.sampled_from([0, 1, 52, 53, 54, 1021, 1022, 1023, 1024, 1100]), st.integers(0, 1100)))
@example([2**62 + 2**10 + 1, -(2**62) - 2**10 - 1], 1085)  # converted then scaled, it would round twice
def test_int64_over_a_power_of_two_is_float_of_fraction(nums, k):
    """One rounding, in the int64-to-float64 conversion: the scaling by 2^-k
    is exact up to k = 1022, and above it the Python division still rounds once."""
    got = _floats(_Dense(np.array(nums, dtype=np.int64), 1 << k))
    assert _same_bits(got, [float(Fraction(v, 1 << k)) for v in nums])


@settings(max_examples=100, deadline=None)
@given(st.lists(NUMERATORS, min_size=1, max_size=16), st.integers(1, 2**70))
def test_int64_over_any_denominator_is_float_of_fraction(nums, den):
    got = _floats(_Dense(np.array(nums, dtype=np.int64), den))
    assert _same_bits(got, [float(Fraction(v, den)) for v in nums])


# --- numpy integer exponents --------------------------------------------------------


@pytest.mark.parametrize("k", [np.int64(2), np.int32(2), np.uint8(2)], ids=["int64", "int32", "uint8"])
def test_numpy_integer_exponent_is_the_integer(k):
    f = LatticeFunction(chain_lattice(3), [1, Fraction(1, 3), Fraction(1, 7)])
    assert power(f, k) == power(f, 2) and power(f, k).kind == "rational"
    x = RandomSubset(2, [Fraction(1, 4), Fraction(1, 4), Fraction(1, 8), Fraction(3, 8)])
    got, want = power_exists(x, k), power_exists(x, 2)
    assert got.min_q == want.min_q and type(got.min_q) is Fraction
    assert got.q_values == want.q_values and got.exists == want.exists
    d = f._dense
    for a, b in zip(_power(d, k), _power(d, 2)):
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
    assert _power(d, k).values.dtype == _power(d, 2).values.dtype

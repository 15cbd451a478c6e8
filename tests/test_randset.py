import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlat.errors import (
    BudgetExceeded,
    DomainViolation,
    FormatError,
    GroundSetMismatch,
    InvalidProbabilityVector,
    NotAVoidFunctional,
    SizeLimitExceeded,
)
from cmlat.randset import (
    RandomSubset,
    VoidFunctional,
    format_distribution_text,
    from_void,
    is_infinitely_divisible,
    is_m_divisible,
    mask_set,
    parse_distribution_text,
    parse_void_text,
    poisson_union,
    power_exists,
    singleton_set,
    subset_mobius,
    subset_sums,
    uniform_singleton,
    union_iid,
    void_distance,
    void_functional,
)


def example2(p):
    """P{X={1}} = p, P{X={2}} = 1-p on the two-point ground set."""
    return RandomSubset(2, [0, p, 1 - p, 0])


def two_point(m):
    """The near-empty two-point set driving the lower approximation bound."""
    return RandomSubset(2, [1 - Fraction(1, m), Fraction(1, 2 * m), Fraction(1, 2 * m), 0])


def random_rational_subset(n, rng, denom=64):
    cuts = sorted(rng.randint(0, denom) for _ in range((1 << n) - 1))
    masses = []
    prev = 0
    for c in cuts:
        masses.append(Fraction(c - prev, denom))
        prev = c
    masses.append(Fraction(denom - prev, denom))
    return RandomSubset(n, masses)


# --- construction ------------------------------------------------------------


def test_validation():
    with pytest.raises(InvalidProbabilityVector):
        RandomSubset(1, [Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(InvalidProbabilityVector):
        RandomSubset(1, [-0.25, 1.25])
    with pytest.raises(InvalidProbabilityVector):
        RandomSubset(1, [math.nan, 1.0])
    with pytest.raises(SizeLimitExceeded):
        RandomSubset(25, [1])
    with pytest.raises(InvalidProbabilityVector):
        singleton_set(Fraction(1, 2), Fraction(1, 3))
    with pytest.raises(InvalidProbabilityVector):
        singleton_set(0, 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entries_rejected(bad):
    with pytest.raises(InvalidProbabilityVector) as info:
        RandomSubset(2, [0.25, bad, 0.25, 0.5])
    assert isinstance(info.value.__cause__, DomainViolation)
    with pytest.raises(DomainViolation):
        VoidFunctional(2, [1.0, bad, 0.5, 0.2])


def test_uniform_singleton_equals_explicit():
    assert uniform_singleton(4).probs == singleton_set(*([Fraction(1, 4)] * 4)).probs


# --- void functional ----------------------------------------------------------


def test_void_example2():
    p = Fraction(1, 3)
    v = void_functional(example2(p))
    assert v.table == (Fraction(1), 1 - p, p, Fraction(0))
    assert v.capacity() == (Fraction(0), p, 1 - p, Fraction(1))


def test_void_of_empty_set_is_one():
    x = RandomSubset(3, [1] + [0] * 7)
    assert void_functional(x).table == (Fraction(1),) * 8


def test_void_uniform_singleton():
    v = void_functional(uniform_singleton(3))
    for k in range(8):
        assert v(k) == 1 - Fraction(bin(k).count("1"), 3)


def test_void_monotone():
    rng = random.Random(2)
    for n in (2, 3, 4):
        for _ in range(20):
            v = void_functional(random_rational_subset(n, rng))
            for k in range(1 << n):
                for i in range(n):
                    if not k >> i & 1:
                        assert v(k) >= v(k | 1 << i)


def test_singleton_set_example():
    v = void_functional(singleton_set(Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)))
    assert v(0b001) == Fraction(4, 5)


# --- inversion -----------------------------------------------------------------


def test_from_void_constant_one():
    x = from_void(VoidFunctional(2, [1, 1, 1, 1]))
    assert x.probs[0] == 1


def test_from_void_recovers_example2():
    p = Fraction(2, 7)
    assert from_void(void_functional(example2(p))).probs == example2(p).probs


def test_from_void_rejects_sqrt_table():
    r = 0.5**0.5
    with pytest.raises(NotAVoidFunctional) as exc:
        from_void(VoidFunctional(2, [1.0, r, r, 0.0]))
    assert exc.value.witness == 0b11
    assert exc.value.mass == pytest.approx(1 - math.sqrt(2), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.randoms(use_true_random=False))
def test_roundtrip_random(n, pyrng):
    x = random_rational_subset(n, pyrng)
    assert from_void(void_functional(x)).probs == x.probs


def test_roundtrip_n10():
    rng = random.Random(44)
    x = random_rational_subset(10, rng, denom=1000)
    assert from_void(void_functional(x)).probs == x.probs


# --- powers -----------------------------------------------------------------------


def test_power_alpha_one_is_identity():
    rng = random.Random(5)
    x = random_rational_subset(3, rng)
    verdict = power_exists(x, 1)
    assert verdict.exists
    assert verdict.q_values == x.probs
    assert sum(verdict.q_values) == 1


def test_power_uniform_singleton_gap():
    verdict = power_exists(uniform_singleton(3), 1.5)
    assert not verdict.exists
    assert verdict.witness == 0b111
    want = 1 - 3 * (2 / 3) ** 1.5 + 3 * (1 / 3) ** 1.5
    assert verdict.q_values[0b111] == pytest.approx(want, abs=1e-12)
    assert verdict.min_q == pytest.approx(-0.0556429, abs=1e-6)


def test_power_at_or_above_threshold():
    for n in (2, 3, 4, 5):
        x = uniform_singleton(n)
        for alpha in (n - 1, n - 0.5, float(n), 3 * n):
            assert power_exists(x, alpha).exists, (n, alpha)


def test_power_below_threshold_uniform():
    for n in (2, 3, 4, 5):
        x = uniform_singleton(n)
        for j in range(n - 1):
            assert not power_exists(x, j + 0.5).exists, (n, j)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_power_exists_rejects_non_finite_exponent(alpha):
    with pytest.raises(DomainViolation):
        power_exists(uniform_singleton(3), alpha)


def test_exact_powers_over_budget_refused():
    rng = random.Random(41)
    x = random_rational_subset(8, rng)
    with pytest.raises(BudgetExceeded):
        power_exists(x, 10**7)
    with pytest.raises(BudgetExceeded):
        union_iid(x, 10**8)
    # float laws take no exact powers
    y = RandomSubset(8, [float(p) for p in x.probs])
    assert power_exists(y, 1e7).exists


def test_rational_law_with_fractional_exponent_gives_floats():
    verdict = power_exists(uniform_singleton(2), 1.5)
    assert all(type(q) is float for q in verdict.q_values)
    assert verdict.q_values[0] == 0.0 and type(verdict.min_q) is float


def test_dense_law_smoke_n20():
    # 256 atoms on a 20-point ground set: parse the document and decide
    rng = random.Random(43)
    atoms = rng.sample(range(1, 1 << 20), 256)
    weights = [rng.uniform(0.5, 1.5) for _ in atoms]
    total = math.fsum(weights)
    text = "20\n" + "".join(f"{a} {w / total!r}\n" for a, w in zip(atoms, weights))
    x = parse_distribution_text(text)
    assert x.kind == "float" and len(x.probs) == 1 << 20
    verdict = power_exists(x, 19.5)  # alpha >= n - 1: the power exists
    assert verdict.exists and len(verdict.q_values) == 1 << 20


def test_integer_powers_always_exist():
    rng = random.Random(7)
    for n in (2, 3, 4):
        for _ in range(10):
            x = random_rational_subset(n, rng)
            for k in range(5):
                verdict = power_exists(x, k)
                assert verdict.exists
                assert sum(verdict.q_values) == 1


def test_power_semigroup_spotcheck():
    rng = random.Random(11)
    for _ in range(40):
        x = random_rational_subset(3, rng)
        alphas = sorted(rng.uniform(0.1, 4.0) for _ in range(2))
        a, b = alphas
        if power_exists(x, a).exists and power_exists(x, b).exists:
            assert power_exists(x, a + b).exists


def test_power_distribution_roundtrip():
    x = uniform_singleton(3)
    verdict = power_exists(x, 2)
    y = verdict.distribution()
    vx = void_functional(x).table
    vy = void_functional(y).table
    assert vy == tuple(t**2 for t in vx)
    with pytest.raises(NotAVoidFunctional):
        power_exists(x, 1.5).distribution()


# --- unions ------------------------------------------------------------------------


def test_union_one_copy():
    rng = random.Random(13)
    x = random_rational_subset(3, rng)
    assert union_iid(x, 1).probs == x.probs


def test_union_example2_pair():
    x = example2(Fraction(1, 2))
    u = union_iid(x, 2)
    assert u.probs == (0, Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))


def test_union_two_point_proof_values():
    m = 3
    u = union_iid(two_point(m), m)
    v = void_functional(u)
    assert v(0b01) == (1 - Fraction(1, 2 * m)) ** m
    assert v(0b11) == (1 - Fraction(1, m)) ** m


def test_union_matches_void_power():
    rng = random.Random(17)
    for _ in range(10):
        x = random_rational_subset(3, rng)
        for m in (2, 3, 5):
            left = void_functional(union_iid(x, m)).table
            right = tuple(t**m for t in void_functional(x).table)
            assert left == right


def test_union_is_m_divisible_by_construction():
    rng = random.Random(19)
    for _ in range(10):
        x = random_rational_subset(3, rng)
        for m in (2, 3):
            assert is_m_divisible(union_iid(x, m), m).exists


# --- poisson union -------------------------------------------------------------------


def test_poisson_of_empty_is_empty():
    x = RandomSubset(2, [1, 0, 0, 0])
    y = poisson_union(x, 3.0)
    assert y.probs[0] == pytest.approx(1.0)


def test_poisson_two_point_invariant_value():
    # lam = m makes m (V - 1) = -1/2 at a singleton, independent of m
    for m in (2, 5, 17):
        y = poisson_union(two_point(m), m)
        assert void_functional(y)(0b01) == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_poisson_void_is_exponential_form():
    rng = random.Random(23)
    x = random_rational_subset(3, rng)
    lam = 1.7
    vy = void_functional(poisson_union(x, lam)).table
    vx = void_functional(x).table
    for a, b in zip(vy, vx):
        assert a == pytest.approx(math.exp(lam * (float(b) - 1.0)), rel=1e-12)


def test_poisson_huge_rate_on_float_rounded_law():
    # seven masses of 0.1428571428571428 sum to 1 - 4e-16 in binary64; a large
    # rate used to turn that rounding into V(empty) < 1 and an AssertionError
    x = RandomSubset(3, [0.0] + [0.1428571428571428] * 7)
    assert void_functional(x)(0) < 1.0
    for lam in (1e5, 1e20):
        y = poisson_union(x, lam)
        assert void_functional(y)(0) == 1.0
    # every atom is hit almost surely: the union is the whole support
    assert y.probs[0b111] == 1.0 and sum(y.probs) == 1.0


def test_union_large_m_on_float_rounded_law():
    # the masses sum to 1 - 1.1e-16 in binary64; V(empty)^m used to leave the
    # 1e-12 band around 1 once m (1 - V(empty)) did, and union_iid refused the law
    x = RandomSubset(2, [0.0, 2e-6, 0.999995, 3e-6])
    assert void_functional(x)(0) < 1.0
    y = union_iid(x, 10**5)
    assert void_functional(y)(0) == 1.0
    # element 1 is missed by all m copies with probability 0.999995^m
    assert y.probs[0b10] == pytest.approx(0.999995 ** 10**5, rel=1e-9)
    assert y.probs[0b11] == pytest.approx(1 - 0.999995 ** 10**5, rel=1e-9)
    assert y.probs[0b00] == y.probs[0b01] == 0.0


def test_poisson_is_infinitely_divisible():
    rng = random.Random(29)
    x = random_rational_subset(3, rng)
    y = poisson_union(x, 2.5)
    assert is_infinitely_divisible(y, m_max=64)


# --- divisibility -----------------------------------------------------------------------


def test_example2_not_two_divisible():
    verdict = is_m_divisible(example2(Fraction(1, 2)), 2)
    assert not verdict.exists
    assert verdict.q_values[0b11] == pytest.approx(1 - math.sqrt(2), abs=1e-12)


def test_union_not_infinitely_divisible():
    m = 4
    u = union_iid(two_point(m), m)
    assert not is_infinitely_divisible(u, m_max=8)


# --- distance ------------------------------------------------------------------------------


def test_distance_zero_and_mismatch():
    x = uniform_singleton(3)
    assert void_distance(x, x) == 0
    with pytest.raises(GroundSetMismatch):
        void_distance(x, uniform_singleton(2))


def test_distance_empty_vs_uniform():
    x = RandomSubset(2, [1, 0, 0, 0])
    assert void_distance(x, uniform_singleton(2)) == pytest.approx(1.0)


def test_distance_union_vs_poisson_bounded():
    # |t^m - exp(m(t-1))| <= sup over [0,1], applied pointwise
    for m in (2, 5, 20):
        x = two_point(m)
        xm = union_iid(x, m)
        y = poisson_union(x, m)
        sup = max(
            abs(t**m - math.exp(m * (t - 1.0))) for t in [i / 10000 for i in range(10001)]
        )
        assert void_distance(xm, y) <= sup + 1e-12


# --- helpers and format ----------------------------------------------------------------------


def test_mask_set_notation():
    assert mask_set(0b101, 3) == "{1,3}"
    assert mask_set(0, 3) == "{}"


def test_subset_transforms_invert():
    rng = random.Random(31)
    vals = [Fraction(rng.randint(-5, 5)) for _ in range(16)]
    assert subset_mobius(subset_sums(vals, 4), 4) == vals


def test_void_document_header_checked_before_allocation():
    with pytest.raises(FormatError, match="out of range") as info:
        parse_void_text("21\n")
    assert info.value.line == 1


def test_void_document_number_rule():
    v = parse_void_text("1\n0 1\n1 1/2\n")
    assert v.table == (1, Fraction(1, 2)) and v.kind == "rational"
    v = parse_void_text("1\n0 1\n1 5e-1\n")
    assert v.table == (1.0, 0.5) and v.kind == "float"
    for bad in ("1e999", "1/0"):
        with pytest.raises(FormatError, match="bad entry") as info:
            parse_void_text(f"1\n0 1\n1 {bad}\n")
        assert info.value.line == 3


def test_distribution_format_roundtrip():
    rng = random.Random(37)
    x = random_rational_subset(3, rng)
    back = parse_distribution_text(format_distribution_text(x))
    assert back.probs == x.probs and back.n == x.n


def test_distribution_format_errors():
    with pytest.raises(FormatError) as exc:
        parse_distribution_text("2\n9 0.5\n")
    assert exc.value.line == 2
    with pytest.raises(FormatError):
        parse_distribution_text("2\n0 0.5\n")  # masses do not sum to 1
    with pytest.raises(FormatError):
        parse_distribution_text("")

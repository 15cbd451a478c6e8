import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
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
    MASS_TOL,
    RandomSubset,
    VoidFunctional,
    _levy_measure,
    format_distribution_text,
    from_void,
    is_infinitely_divisible,
    is_m_divisible,
    mask_set,
    mask_sets,
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
    write_distribution_file,
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


def test_ground_set_size_checked_before_allocation():
    # 21 singleton masses once filled a 2^21-entry list (16 MiB) before the cap check
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitExceeded):
            singleton_set(*[Fraction(1, 21)] * 21)
        with pytest.raises(SizeLimitExceeded):
            uniform_singleton(10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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
    assert is_infinitely_divisible(y)


# --- divisibility -----------------------------------------------------------------------


def test_example2_not_two_divisible():
    verdict = is_m_divisible(example2(Fraction(1, 2)), 2)
    assert not verdict.exists
    assert verdict.q_values[0b11] == pytest.approx(1 - math.sqrt(2), abs=1e-12)


def test_union_not_infinitely_divisible():
    m = 4
    u = union_iid(two_point(m), m)
    assert not is_infinitely_divisible(u)


# --- infinite divisibility ------------------------------------------------------------------


def sampled_infinite_divisibility(x, m_max=16):
    """The former sampled test, kept as an oracle of necessary conditions: the
    1/m powers for m = 1..m_max and V(K union K') >= V(K) V(K'), to MASS_TOL."""
    if not all(is_m_divisible(x, m).exists for m in range(1, m_max + 1)):
        return False
    v = [float(t) for t in void_functional(x).table]
    size = 1 << x.n
    return all(v[k1 | k2] >= v[k1] * v[k2] - MASS_TOL for k1 in range(size) for k2 in range(size))


def law_of_levy(n, nu):
    """The float law with w(B) = exp(-sum of nu(A) over nonempty A not inside B)."""
    w = [math.exp(-sum(v for a, v in nu.items() if a & ~b)) for b in range(1 << n)]
    return RandomSubset(n, subset_mobius(w, n))


def x_nu():
    """0.3 on singletons, 0.5 on pairs, -0.004 on {0, 1, 2}: every mass is
    nonnegative, yet the powers fail for alpha in (0, 0.0033)."""
    sizes = {1: 0.3, 2: 0.5, 3: -0.004}
    return law_of_levy(3, {a: sizes[bin(a).count("1")] for a in range(1, 8)})


def test_negative_levy_intensity_is_not_infinitely_divisible():
    x = x_nu()
    assert min(x.probs) > 0.03
    assert not power_exists(x, 0.001).exists
    assert not is_infinitely_divisible(x)
    sets, nu = _levy_measure(x)
    deciding = int(np.argmin(nu[1:])) + 1  # the nonempty set of least intensity
    assert sets[deciding] == 0b111
    assert nu[deciding] == pytest.approx(-0.004, abs=1e-12)


def test_uniform_singleton_has_no_fixed_atom():
    # the atoms {i} meet in the empty set, which is no atom once n >= 2
    assert is_infinitely_divisible(uniform_singleton(1))
    for n in range(2, 21):
        assert not is_infinitely_divisible(uniform_singleton(n)), n


def test_fixed_part_is_split_off():
    # every atom contains element 2 (mask 0b100); the free part is a Poisson union on {0, 1, 3}
    rng = random.Random(31)
    y = poisson_union(random_rational_subset(3, rng), 1.5)

    def with_fixed(mask):
        return (mask & 0b11) | (mask >> 2 << 3) | 0b100

    probs = [0.0] * 16
    for mask, p in enumerate(y.probs):
        probs[with_fixed(mask)] = p
    x = RandomSubset(4, probs)
    sets, nu = _levy_measure(x)
    assert len(nu) == 8 and not any(sets & 0b100)
    _, want = _levy_measure(y)
    assert [with_fixed(m) ^ 0b100 for m in range(8)] == sets.tolist()
    assert np.abs(nu - want).max() < 1e-12
    assert is_infinitely_divisible(x)
    # a fixed element above a free part with no atom at the fixed part, or above X_nu
    probs = [0, 0, 0, 0, 0, 0.5, 0.5, 0]
    assert not is_infinitely_divisible(RandomSubset(3, probs))
    assert _levy_measure(RandomSubset(3, probs)) is None
    probs = [0.0] * 16
    for mask, p in enumerate(x_nu().probs):
        probs[mask | 0b1000] = p
    assert not is_infinitely_divisible(RandomSubset(4, probs))
    # a deterministic set is its own fixed part
    assert is_infinitely_divisible(RandomSubset(2, [0, 0, 1, 0]))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.randoms(use_true_random=False),
    st.floats(min_value=0.1, max_value=5.0),
    st.booleans(),
)
def test_poisson_unions_are_infinitely_divisible(n, pyrng, lam, exact):
    x = random_rational_subset(n, pyrng)
    if not exact:
        x = RandomSubset(n, [float(p) for p in x.probs])
    y = poisson_union(x, lam)
    assert is_infinitely_divisible(y)
    sets, nu = _levy_measure(y)  # the empty set is an atom of y: no fixed part
    assert sets.tolist() == list(range(1 << n))
    want = np.array([lam * float(p) for p in x.probs])
    assert np.abs(nu[1:] - want[1:]).max() <= 1e-9


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(-5, 100), min_size=(1 << n) - 1, max_size=(1 << n) - 1))
    )
)
def test_sampled_oracle_accepts_every_accepted_law(case):
    # intensities in steps of 1e-3: a negative one lies far outside the MASS_TOL band
    n, steps = case
    try:
        x = law_of_levy(n, {a: k / 1000 for a, k in enumerate(steps, start=1)})
    except InvalidProbabilityVector:  # a negative mass: no law
        return
    assert is_infinitely_divisible(x) == (min(steps) >= 0)
    if is_infinitely_divisible(x):
        assert sampled_infinite_divisibility(x)


def test_n20_float_law_decided_quickly():
    rng = random.Random(47)
    atoms = rng.sample(range(1, 1 << 20), 256)
    weights = [rng.uniform(0.5, 1.5) for _ in atoms]
    total = math.fsum(weights)
    x = parse_distribution_text("20\n" + "".join(f"{a} {w / total!r}\n" for a, w in zip(atoms, weights)))
    y = poisson_union(x, 3.0)
    start = time.perf_counter()
    assert is_infinitely_divisible(y)
    assert time.perf_counter() - start < 0.5


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


def one_line_mask_set(mask, n):
    """The set notation as one comprehension: the oracle for mask_sets."""
    return "{" + ",".join(str(i + 1) for i in range(n) if mask >> i & 1) + "}"


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 20).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=40))))
def test_mask_sets_match_the_one_line_notation(case):
    n, masks = case
    masks = [0, *masks, (1 << n) - 1]
    assert mask_sets(masks, n) == [one_line_mask_set(m, n) for m in masks]
    assert mask_set(masks[-1], n) == one_line_mask_set(masks[-1], n)


@pytest.mark.parametrize("n", range(1, 13))
def test_mask_sets_of_every_mask(n):
    assert mask_sets(range(1 << n), n) == [one_line_mask_set(m, n) for m in range(1 << n)]


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


@pytest.mark.parametrize("atoms", [1, 1024, 1025, 3000])
@pytest.mark.parametrize("kind", ["float", "exact"])
def test_distribution_file_is_the_formatted_text(tmp_path, atoms, kind):
    rng = random.Random(atoms)
    weights = [0] * (1 << 12)
    for mask in rng.sample(range(1 << 12), atoms):
        weights[mask] = rng.randint(1, 9)
    total = sum(weights)
    x = RandomSubset(12, [w / total if kind == "float" else Fraction(w, total) for w in weights])
    path = tmp_path / "law.dist"
    write_distribution_file(x, path)
    text = format_distribution_text(x)
    assert path.read_bytes() == text.encode()
    assert text == "12\n" + "".join(f"{m} {p}\n" for m, p in enumerate(x.probs) if p)


def test_distribution_format_errors():
    with pytest.raises(FormatError) as exc:
        parse_distribution_text("2\n9 0.5\n")
    assert exc.value.line == 2
    with pytest.raises(FormatError):
        parse_distribution_text("2\n0 0.5\n")  # masses do not sum to 1
    with pytest.raises(FormatError):
        parse_distribution_text("")
    # the void-functional document is read by the same reader
    for parse, kind in ((parse_distribution_text, "distribution"), (parse_void_text, "void-functional")):
        for empty in ("", "# nothing\n  \n"):
            with pytest.raises(FormatError, match=f"empty {kind} document") as exc:
                parse(empty)
            assert exc.value.line == 1
        with pytest.raises(FormatError, match="expected 'mask") as exc:
            parse("1\n0 1\n\n1 0 0\n")
        assert exc.value.line == 4
    x = parse_distribution_text("2 # points\n1 1/2 # {1}\n2 1/2#{2}\n")
    assert x.probs == (0, Fraction(1, 2), Fraction(1, 2), 0)
    v = parse_void_text("1  # n\n0 1 # empty set\n1 1/2#\n")
    assert v.table == (1, Fraction(1, 2))


@pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan, -1e-9])
def test_tolerance_must_be_finite_and_nonnegative(tol):
    # an infinite tolerance once let the 1.5-th power of the uniform singleton exist
    with pytest.raises(DomainViolation):
        power_exists(uniform_singleton(3), 1.5, tol=tol)

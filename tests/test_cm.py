import functools
import math
import os
import random
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlat import cm as cm_module
from cmlat._kernel import subset_mobius, subset_sums
from cmlat._scalars import POWER_BIT_BUDGET, is_integral, pow_scalar
from cmlat.cm import (
    CmVerdict,
    LatticeFunction,
    WeightFunction,
    delta,
    extend_cm,
    format_function_text,
    is_cm,
    is_cm_bruteforce,
    mobius_weights,
    parse_function_text,
    pointwise_product,
    poisson_accompany,
    power,
    reconstruct,
    sharpness_witness,
)
from cmlat.errors import (
    BudgetExceeded,
    DomainViolation,
    FormatError,
    NegativeValue,
    NoSharpnessNeeded,
    NotASublattice,
    NotCmInput,
    NotDistributive,
    ValueOutOfUnitInterval,
    _ensure,
)
from cmlat.lattice import (
    BooleanLattice,
    boolean_lattice,
    catalog,
    chain_lattice,
    d_max,
    diamond_lattice,
    from_covers,
    is_distributive,
    pentagon_lattice,
    product_lattice,
    materialize,
)
from cmlat.moments import MomentSequence
from test_lattice import closure_lattices

B2 = boolean_lattice(2)
DIAMOND = diamond_lattice(3)


def example2_void(p):
    """Void functional of the two-point set from the running example."""
    return LatticeFunction(B2, [Fraction(1), 1 - p, p, Fraction(0)])


def random_weights(lat, rng, zero_chance=0.3):
    return WeightFunction(
        lat,
        [
            Fraction(0) if rng.random() < zero_chance else Fraction(rng.randint(1, 12), rng.randint(1, 4))
            for _ in lat.elements
        ],
    )


def random_function(lat, rng):
    return LatticeFunction(
        lat, [Fraction(rng.randint(0, 12), rng.randint(1, 4)) for _ in lat.elements]
    )


# --- delta ------------------------------------------------------------------


def test_delta_zero_args_is_evaluation():
    f = example2_void(Fraction(1, 3))
    for x in B2.elements:
        assert delta(f, [], x) == f.values[x]


def test_delta_example2_closed_form():
    # D_{1}D_{2} f^a(empty) = 1 - p^a - (1-p)^a
    for p in [Fraction(1, 3), Fraction(1, 2), Fraction(2, 5)]:
        for alpha in [Fraction(1), Fraction(2), 0.5, 1.7]:
            f = power(example2_void(p), alpha)
            got = delta(f, [0b01, 0b10], 0b00)
            want = 1 - pow(float(p), float(alpha)) - pow(float(1 - p), float(alpha))
            assert got == pytest.approx(want, abs=1e-12)


def test_delta_half_power_value():
    f = power(example2_void(Fraction(1, 2)), 0.5)
    assert delta(f, [1, 2], 0) == pytest.approx(1 - math.sqrt(2), abs=1e-12)


# --- mobius weights and reconstruct ------------------------------------------


def test_constant_function_weights():
    lat = diamond_lattice(3)
    f = LatticeFunction(lat, [Fraction(7, 2)] * lat.n)
    p = mobius_weights(f)
    assert p.weights[lat.top] == Fraction(7, 2)
    assert all(p.weights[x] == 0 for x in lat.elements if x != lat.top)


def test_example2_weights_are_point_masses():
    f = example2_void(Fraction(1, 3))
    p = mobius_weights(f)
    # masks: 0=empty, 1={1}, 2={2}, 3={1,2}; mass sits at outcome complements
    assert p.weights == (Fraction(0), Fraction(2, 3), Fraction(1, 3), Fraction(0))


def test_reconstruct_counts_up_sets():
    ones = WeightFunction(DIAMOND, [1, 1, 1, 1, 1])
    g = reconstruct(ones)
    assert g.values == (Fraction(5), Fraction(2), Fraction(2), Fraction(2), Fraction(1))


def test_reconstruct_top_indicator():
    lat = chain_lattice(4)
    p = WeightFunction(lat, [0, 0, 0, 1])
    assert reconstruct(p).values == (Fraction(1),) * 4


def test_reconstruct_rejects_negative_results():
    lat = chain_lattice(3)
    with pytest.raises(NegativeValue):
        reconstruct(WeightFunction(lat, [0, -1, 0]))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=0, max_value=8), min_size=5, max_size=5))
def test_roundtrip_diamond(vals):
    f = LatticeFunction(DIAMOND, vals)
    assert reconstruct(mobius_weights(f)).values == f.values


def test_roundtrip_catalog_random():
    rng = random.Random(7)
    for lat in catalog(max_size=16):
        for _ in range(10):
            f = random_function(lat, rng)
            assert reconstruct(mobius_weights(f)).values == f.values


def test_roundtrip_float_mode():
    rng = random.Random(3)
    for lat in catalog(max_size=16):
        f = LatticeFunction(lat, [rng.random() * 5 for _ in lat.elements])
        back = reconstruct(mobius_weights(f))
        for a, b in zip(back.values, f.values):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def up_set(lat, x):
    """All y >= x, ascending by index."""
    return [y for y in lat.elements if lat.leq(x, y)]


def reference_mobius_weights(f):
    """The top-down up-set loop the level-wise solve replaced, kept as its
    oracle: every y > x has a smaller up-set, so it is solved before x."""
    lat = f.lattice
    p = [0] * lat.n
    for x in sorted(lat.elements, key=lambda x: (len(up_set(lat, x)), x)):
        above = 0
        for y in up_set(lat, x):
            if y != x:
                above += p[y]
        p[x] = f.values[x] - above
    return p


def reference_reconstruct(p):
    lat = p.lattice
    return [sum(p.weights[y] for y in up_set(lat, x)) for x in lat.elements]


def exactly(table):
    """The table of the same values as Fractions: a float table's exact twin."""
    return type(table)(table.lattice, [Fraction(v) for v in getattr(table, table._FIELD)])


def assert_near_exact(got, want, scale):
    """Floats of an explicit lattice's passes against the exact results of the
    same floats: within 1e-13 * scale, the largest value of the input."""
    assert all(isinstance(v, float) for v in got)
    assert max(abs(Fraction(a) - b) for a, b in zip(got, want)) <= Fraction(1e-13) * Fraction(scale)


def explicit_lattices():
    return catalog() + [
        product_lattice(diamond_lattice(3), pentagon_lattice()),
        product_lattice(chain_lattice(4), product_lattice(diamond_lattice(4), chain_lattice(2))),
        product_lattice(materialize(boolean_lattice(2)), chain_lattice(5)),
    ]


def test_generic_mobius_matches_reference_loop():
    rng = random.Random(29)
    for lat in explicit_lattices():
        for _ in range(3):
            exact = LatticeFunction(
                lat, [Fraction(rng.randint(0, 40), rng.randint(1, 12)) for _ in lat.elements]
            )
            assert list(mobius_weights(exact).weights) == reference_mobius_weights(exact)
            floats = LatticeFunction(lat, [rng.uniform(0.0, 9.0) for _ in lat.elements])
            got = mobius_weights(floats).weights
            assert_near_exact(got, reference_mobius_weights(exactly(floats)), floats.max_value())
            verdict = is_cm(floats)
            assert verdict.min_weight == min(got)
            assert verdict.is_cm == (min(got) >= -verdict.tol)


def test_generic_reconstruct_matches_reference_loop():
    rng = random.Random(31)
    for lat in explicit_lattices():
        exact = random_weights(lat, rng)
        assert list(reconstruct(exact).values) == reference_reconstruct(exact)
        floats = WeightFunction(lat, [rng.uniform(0.0, 3.0) for _ in lat.elements])
        want = reference_reconstruct(exactly(floats))
        assert_near_exact(reconstruct(floats).values, want, max(want))


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.sampled_from(catalog()), closure_lattices()), st.randoms(use_true_random=False))
def test_up_transform_matches_the_reference_loops(lat, rng):
    exact = LatticeFunction(lat, [Fraction(rng.randint(0, 40), rng.randint(1, 12)) for _ in lat.elements])
    assert list(mobius_weights(exact).weights) == reference_mobius_weights(exact)
    weights = random_weights(lat, rng)
    assert list(reconstruct(weights).values) == reference_reconstruct(weights)
    # forward then inverse gives back the input, signed numerators included
    values = np.array([rng.randint(-50, 50) for _ in lat.elements])
    assert lat._up_transform(lat._up_transform(values, np.add), np.subtract).tolist() == values.tolist()
    floats = LatticeFunction(lat, [rng.uniform(0.0, 9.0) for _ in lat.elements])
    assert_near_exact(mobius_weights(floats).weights, reference_mobius_weights(exactly(floats)), floats.max_value())


# --- is_cm and the brute-force oracle ----------------------------------------


def test_constant_is_cm():
    f = LatticeFunction(DIAMOND, [2] * 5)
    assert is_cm(f).is_cm
    assert is_cm_bruteforce(f)


def test_example2_half_power_not_cm():
    f = power(example2_void(Fraction(1, 2)), 0.5)
    verdict = is_cm(f)
    assert not verdict.is_cm
    w = verdict.witness
    assert w.element == 0  # the empty set
    assert w.weight == pytest.approx(1 - math.sqrt(2), abs=1e-12)
    assert w.delta_value == pytest.approx(w.weight, abs=1e-12)
    assert not is_cm_bruteforce(f)
    # same witness from the raw definition
    assert delta(f, [1, 2], 0) < 0


def test_reconstruct_of_nonneg_weights_is_cm():
    rng = random.Random(11)
    for lat in catalog(max_size=16):
        f = reconstruct(random_weights(lat, rng))
        assert is_cm(f).is_cm


def test_bruteforce_budget_guard():
    from cmlat.errors import BudgetExceeded

    f = LatticeFunction(chain_lattice(30), [30 - x for x in range(30)])
    with pytest.raises(BudgetExceeded):
        is_cm_bruteforce(f)


def test_oracle_equivalence_sample():
    rng = random.Random(23)
    for lat in catalog(max_size=6):
        for _ in range(25):
            f = random_function(lat, rng)
            assert is_cm(f).is_cm == is_cm_bruteforce(f), (lat.name, f.values)


def test_cm_implies_monotone():
    rng = random.Random(5)
    for lat in catalog(max_size=16):
        f = reconstruct(random_weights(lat, rng))
        for x in lat.elements:
            for y in up_set(lat, x):
                assert f.values[x] >= f.values[y]


def test_product_of_cm_is_cm():
    rng = random.Random(13)
    for lat in catalog(max_size=16):
        f = reconstruct(random_weights(lat, rng))
        g = reconstruct(random_weights(lat, rng))
        assert is_cm(pointwise_product(f, g)).is_cm


# --- powers -------------------------------------------------------------------


def test_power_identity_and_constant():
    f = example2_void(Fraction(1, 3))
    assert power(f, 1).values == f.values
    assert power(f, 0).values == (Fraction(1),) * 4  # 0**0 = 1 convention
    assert power(f, 2).kind == "rational"
    assert power(f, 2.0).kind == "rational"  # integral float exponents stay exact


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_power_rejects_non_finite_exponent(alpha):
    with pytest.raises(DomainViolation):
        power(example2_void(Fraction(1, 3)), alpha)


def test_exact_power_over_budget_refused():
    from cmlat.errors import BudgetExceeded

    f = example2_void(Fraction(1, 3))
    with pytest.raises(BudgetExceeded):
        power(f, 10**8)
    assert power(f, 3).kind == "rational"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_values_rejected(bad):
    lat = boolean_lattice(2)
    with pytest.raises(DomainViolation):
        LatticeFunction(lat, [1.0, bad, 0.5, 0.2])
    with pytest.raises(DomainViolation):
        WeightFunction(lat, [0.5, bad, 0.25, 0.25])


def test_integer_powers_stay_cm():
    rng = random.Random(17)
    for lat in catalog(max_size=16):
        f = reconstruct(random_weights(lat, rng))
        for k in (2, 3):
            assert is_cm(power(f, k)).is_cm


def cm_power_threshold_check(f, alpha):
    """The verdict for f**alpha given c.m. f, checking the theorem: at an
    integral alpha, or alpha >= d_max - 1, the power stays c.m.  A failure is
    an InvariantViolation, which ``python -O`` keeps."""
    if not cm_module.is_cm(f).is_cm:
        raise NotCmInput("input function is not completely monotone")
    verdict = cm_module.is_cm(cm_module.power(f, alpha))
    if is_integral(alpha) or alpha >= d_max(f.lattice) - 1:
        _ensure(verdict.is_cm, f"power {alpha} of a c.m. function must stay c.m. at or above the threshold")
    return verdict


def test_threshold_check_diamond():
    rng = random.Random(19)
    f = reconstruct(random_weights(DIAMOND, rng, zero_chance=0.0))
    assert cm_power_threshold_check(f, 2.5).is_cm  # 2.5 >= d_max - 1 = 2


def test_threshold_exponent_grid():
    # integers 1..5 plus {d-1, d-0.5, d, 2d} keep c.m. functions c.m.
    rng = random.Random(20)
    for lat in catalog(max_size=16):
        d = d_max(lat)
        f = reconstruct(random_weights(lat, rng))
        for alpha in (1, 2, 3, 4, 5, d - 1, d - 0.5, d, 2 * d):
            assert cm_power_threshold_check(f, alpha).is_cm, (lat.name, alpha)


def test_threshold_check_rejects_non_cm_input():
    f = power(example2_void(Fraction(1, 2)), 0.5)
    with pytest.raises(NotCmInput):
        cm_power_threshold_check(f, 2)


def test_uniform_singleton_below_threshold_not_cm():
    lat = boolean_lattice(4)
    f = sharpness_witness(materialize(lat))
    verdict = cm_power_threshold_check(f, 2.5)  # non-integer, below d_max - 1 = 3
    assert not verdict.is_cm


def test_example3_weights_power_family():
    # weights (0, 1/4, 1/4, 1/4, 1/4) on the three-atom diamond
    f = reconstruct(WeightFunction(DIAMOND, [0, Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)]))
    assert f.values == (Fraction(1), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 4))
    for alpha in (1, 1.25, 1.5, 2):
        assert is_cm(power(f, alpha)).is_cm, alpha
    # below one the bottom weight h(alpha) goes negative
    half = is_cm(power(f, 0.5))
    assert not half.is_cm
    assert half.witness.element == DIAMOND.bottom
    want = 1 - 3 * 0.5**0.5 + 2 * 0.25**0.5
    assert half.witness.weight == pytest.approx(want, abs=1e-12)


# --- sharpness witness ---------------------------------------------------------


def test_sharpness_on_boolean_is_uniform_singleton_void():
    lat = materialize(boolean_lattice(3))
    f = sharpness_witness(lat)
    for mask in lat.elements:
        assert f.values[mask] == Fraction(3 - bin(mask).count("1"), 3)
    assert is_cm(f).is_cm
    assert not is_cm(power(f, 1.5)).is_cm


def test_sharpness_needs_distributive():
    with pytest.raises(NotDistributive):
        sharpness_witness(DIAMOND)


def test_sharpness_vacuous_on_chains():
    with pytest.raises(NoSharpnessNeeded):
        sharpness_witness(chain_lattice(5))


def test_sharpness_on_product():
    lat = product_lattice(chain_lattice(2), materialize(boolean_lattice(2)))
    assert d_max(lat) == 3
    f = sharpness_witness(lat)
    assert is_cm(f).is_cm
    assert not is_cm(power(f, 1.5)).is_cm
    rng = random.Random(29)
    for _ in range(10):
        alpha = rng.uniform(0.05, 1.95)
        if abs(alpha - 1) < 0.05:
            continue
        assert not is_cm(power(f, alpha)).is_cm, alpha


def test_sharpness_across_distributive_catalog():
    rng = random.Random(33)
    for lat in catalog():
        d = d_max(lat)
        if d < 2 or not is_distributive(lat):
            continue
        f = sharpness_witness(lat)
        assert is_cm(f).is_cm
        assert not is_cm(power(f, d - 1.5)).is_cm, lat.name
        for _ in range(10):
            alpha = rng.uniform(0.05, d - 1 - 0.05)
            if abs(alpha - round(alpha)) < 0.05:
                continue
            assert not is_cm(power(f, alpha)).is_cm, (lat.name, alpha)


def parent_sharpness_witness(L):
    """The witness as the degree-list loop built it: a reduce of ``join`` per
    planted element and a Fraction weight list of ``L.n`` entries."""
    degrees = [len(L.covers(x)) for x in L.elements]
    d = max(degrees)
    x = degrees.index(d)
    covs = L.covers(x)
    weights = [Fraction(0)] * L.n
    for j in range(d):
        weights[functools.reduce(L.join, [c for i, c in enumerate(covs) if i != j], x)] += Fraction(1, d)
    return reconstruct(WeightFunction(L, weights))


def sharpness_lattices():
    square = from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)], name="square")
    factors = [chain_lattice(2), chain_lattice(3), chain_lattice(4), square]
    rng = random.Random(43)
    products = []
    while len(products) < 10:
        picked = [rng.choice(factors) for _ in range(rng.randint(2, 3))]
        if math.prod(f.n for f in picked) <= 96:
            products.append(functools.reduce(product_lattice, picked))
    explicit = [lat for lat in catalog() + products if is_distributive(lat) and d_max(lat) >= 2]
    return explicit + [boolean_lattice(n) for n in range(2, 13)]


def test_sharpness_witness_is_the_degree_list_loops_bit_for_bit():
    for lat in sharpness_lattices():
        got, want = sharpness_witness(lat), parent_sharpness_witness(lat)
        assert np.array_equal(got._dense.values, want._dense.values), lat.name
        assert got._dense.values.dtype == want._dense.values.dtype, lat.name
        assert got._dense.den == want._dense.den, lat.name
        assert got == want, lat.name


def test_sharpness_witness_memory_on_boolean_16():
    lat = boolean_lattice(16)
    tracemalloc.start()
    try:
        sharpness_witness(lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * 2**20, peak


# --- sublattice extension -------------------------------------------------------


def test_extend_identity():
    rng = random.Random(31)
    f = reconstruct(random_weights(DIAMOND, rng))
    g = extend_cm(DIAMOND, {x: f.values[x] for x in DIAMOND.elements})
    assert g.values == f.values


def test_extend_square_into_boolean3():
    lat = materialize(boolean_lattice(3))
    m = 5
    square = {0b000: Fraction(1), 0b001: 1 - Fraction(1, 2 * m), 0b010: 1 - Fraction(1, 2 * m), 0b011: 1 - Fraction(1, m)}
    g = extend_cm(lat, square)
    for mask, v in square.items():
        assert g.values[mask] == v
    assert is_cm(g).is_cm


def test_extend_chain_inside_diamond():
    sub = {DIAMOND.bottom: Fraction(9, 10), 1: Fraction(1, 2), DIAMOND.top: Fraction(1, 10)}
    g = extend_cm(DIAMOND, sub)
    assert is_cm(g).is_cm
    assert g.values[DIAMOND.bottom] == Fraction(9, 10)


def test_extend_rejects_open_subset():
    # two atoms without their join/meet
    with pytest.raises(NotASublattice):
        extend_cm(DIAMOND, {1: 1, 2: 1})


def test_extend_rejects_non_cm():
    with pytest.raises(NotCmInput):
        extend_cm(DIAMOND, {DIAMOND.bottom: Fraction(1, 2), 1: Fraction(1), DIAMOND.top: Fraction(1, 2)})


def test_extend_float_mode():
    sub = {0b000: 1.0, 0b001: 0.9, 0b010: 0.9, 0b011: 0.8}
    lat = materialize(boolean_lattice(3))
    g = extend_cm(lat, sub)
    assert g.kind == "float"
    for mask, v in sub.items():
        assert g.values[mask] == pytest.approx(v, abs=1e-12)
    assert is_cm(g).is_cm


def reference_sublattice_weights(L, sub_values):
    """The recursion extend_cm ran on its own before it shared the generic
    solve, kept as its oracle: top-down by up-set size within the
    sublattice, each sum over the elements above in ascending index order."""
    sub = sorted(sub_values)
    order = sorted(sub, key=lambda a: (sum(1 for b in sub if L.leq(a, b)), a))
    p = {}
    for a in order:
        above = sum(p[b] for b in sub if b != a and L.leq(a, b))
        p[a] = sub_values[a] - above
    return p


def intervals_and_chains(lat):
    """Sublattices of ``lat``: every interval [a, b] and every chain {a, b}."""
    for a in lat.elements:
        for b in lat.elements:
            if a != b and lat.leq(a, b):
                yield [z for z in lat.elements if lat.leq(a, z) and lat.leq(z, b)]
                yield [a, b]


def test_extend_weights_match_reference_recursion():
    rng = random.Random(37)
    for lat in catalog(max_size=8):
        for sub in intervals_and_chains(lat):
            up = {a: [b for b in sub if lat.leq(a, b)] for a in sub}
            exact_w = {a: Fraction(rng.randint(0, 9), rng.randint(1, 6)) for a in sub}
            float_w = {a: rng.uniform(0.0, 3.0) for a in sub}
            cases = [
                {a: sum(exact_w[b] for b in up[a]) for a in sub},  # c.m.
                {a: sum(float_w[b] for b in up[a]) for a in sub},  # c.m.
                {a: rng.uniform(0.0, 2.0) for a in sub},  # mostly not c.m.
            ]
            for values in cases:
                # the exact weights of the same values, floats included
                want = reference_sublattice_weights(lat, {a: Fraction(v) for a, v in values.items()})
                worst = min(want.values())
                floats = isinstance(values[sub[0]], float)
                if worst < (-1e-9 * max(values.values()) if floats else 0):
                    message = "not c.m. on the sublattice" if floats else re.escape(f"(weight {worst})")
                    with pytest.raises(NotCmInput, match=message):
                        extend_cm(lat, values)
                    continue
                weights = [0] * lat.n
                for a, w in want.items():
                    weights[a] = w
                g = extend_cm(lat, values).values
                h = reconstruct(WeightFunction(lat, weights)).values
                if floats:
                    assert_near_exact(g, h, max(values.values()))
                else:
                    assert g == h


# --- accompaniment ---------------------------------------------------------------


def test_accompany_fixes_ones():
    f = LatticeFunction(DIAMOND, [1] * 5)
    g = poisson_accompany(f, 4)
    assert all(v == pytest.approx(1.0, abs=1e-15) for v in g.values)


def test_accompany_constant_matches_scalar_form():
    for m in (1, 3, 10):
        t = 0.7
        f = LatticeFunction(chain_lattice(3), [t] * 3)
        g = poisson_accompany(f, m)
        want = math.exp(m * (t ** (1 / m) - 1))
        assert g.values[0] == pytest.approx(want, rel=1e-12)


def test_accompany_rejects_out_of_range():
    f = LatticeFunction(chain_lattice(2), [2, 1])
    with pytest.raises(ValueOutOfUnitInterval):
        poisson_accompany(f, 2)


def test_accompany_of_divisible_is_infinitely_divisible():
    rng = random.Random(37)
    w = random_weights(DIAMOND, rng, zero_chance=0.0)
    total = sum(w.weights)
    base = reconstruct(WeightFunction(DIAMOND, [v / total for v in w.weights]))
    f = power(base, 3)  # 3-divisible by construction, values in [0, 1]
    g = poisson_accompany(f, 3)
    for k in (2, 3, 5, 8):
        assert is_cm(power(g, 1 / k)).is_cm, k


# --- exchange format --------------------------------------------------------------


def test_function_format_roundtrip():
    f = example2_void(Fraction(2, 7))
    text = format_function_text(f, "b2")
    back = parse_function_text(text, B2)
    assert back.values == f.values


def test_function_file_is_written_in_chunks(tmp_path):
    # the exact B12 function to the power 11: a 300 KB document of Fractions,
    # which took 1.6 MiB traced when the whole text was built first
    lat = boolean_lattice(12)
    rng = random.Random(3)
    g = reconstruct(WeightFunction(lat, [rng.randint(1, 9) for _ in lat.elements]))
    f = power(LatticeFunction(lat, [v / g.values[0] for v in g.values]), 11)
    path = tmp_path / "f11.fn"
    tracemalloc.start()
    try:
        cm_module.write_function_file(f, path, "boolean:12")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**18, peak
    lines = [f"{x} {v}\n" for x, v in enumerate(f.values)]
    assert path.read_text(encoding="utf-8") == "".join(["lattice boolean:12\n", *lines])


def test_function_format_errors():
    with pytest.raises(FormatError):
        parse_function_text("0 1\n", B2)
    with pytest.raises(FormatError) as exc:
        parse_function_text("lattice b2\n0 1\n0 2\n1 0\n3 0\n", B2)
    assert exc.value.line == 3
    with pytest.raises(FormatError):
        parse_function_text("lattice b2\n0 1\n", B2)
    for empty in ("", "# nothing\n\n", "lattice b2 # no values\n"):
        with pytest.raises(FormatError, match="empty function document") as exc:
            parse_function_text(empty, B2)
        assert exc.value.line == 1
    with pytest.raises(FormatError, match="expected 'index value'") as exc:
        parse_function_text("lattice b2\n0 1\n# skip\n1 1 1\n", B2)
    assert exc.value.line == 4
    with pytest.raises(FormatError, match="bad entry") as exc:
        parse_function_text("lattice b2\n0 1\n1 1/0\n", B2)
    assert exc.value.line == 3
    text = "lattice b2  # header\n0 1 # top\n1 1/2\n2 1/2#\n3 1/4 # bottom\n"
    assert parse_function_text(text, B2).values == (1, Fraction(1, 2), Fraction(1, 2), Fraction(1, 4))


@pytest.mark.parametrize("tol", [math.nan, math.inf, -0.5])
def test_is_cm_rejects_non_finite_or_negative_tolerance(tol):
    # weight -0.7 at the middle element: a NaN tolerance once passed it as c.m.
    f = LatticeFunction(chain_lattice(3), [1.0, 0.2, 0.9])
    with pytest.raises(DomainViolation):
        is_cm(f, tol=tol)
    assert not is_cm(f).is_cm


def test_threshold_check_still_raises_under_python_O(run_optimized):
    # the theorem check is an InvariantViolation, not an assert that -O strips
    script = f"""
import sys
sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})
from fractions import Fraction
from cmlat import cm
from cmlat.errors import InvariantViolation
from cmlat.lattice import chain_lattice
from test_cm import cm_power_threshold_check

if sys.flags.optimize != 1:
    sys.exit("not running under -O")
f = cm.LatticeFunction(chain_lattice(3), [1, Fraction(1, 2), Fraction(1, 4)])
cm.power = lambda f, alpha: cm.LatticeFunction(f.lattice, [1, Fraction(1, 4), Fraction(1, 2)])
try:
    cm_power_threshold_check(f, 2)
except InvariantViolation:
    print("raised")
else:
    print("returned")
"""
    proc = run_optimized(script)
    assert proc.stdout.strip() == "raised", proc.stderr


def test_pointwise_product_needs_the_same_cover_pairs():
    chain = LatticeFunction(chain_lattice(4), [1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)])
    square = LatticeFunction(from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)]), [1, 0.5, 0.5, 0.25])
    with pytest.raises(DomainViolation, match="different lattices"):
        pointwise_product(chain, square)
    with pytest.raises(DomainViolation, match="different lattices"):
        pointwise_product(square, chain)
    other = LatticeFunction(chain_lattice(4), [1, 1, Fraction(1, 2), 0])  # built separately
    assert pointwise_product(chain, other).values == (1, Fraction(1, 2), Fraction(1, 8), 0)
    b2 = LatticeFunction(boolean_lattice(2), [1, 0.5, 0.5, 0.25])
    assert pointwise_product(b2, square).values == (1.0, 0.25, 0.25, 0.0625)


def _rescanned_kind(values):
    return "rational" if all(not isinstance(v, float) for v in values) else "float"


@pytest.mark.parametrize("values", [
    [1, Fraction(1, 2), Fraction(1, 3), 0],
    [1.0, 0.5, 0.25, 0.0],
    [1, 0.5, Fraction(1, 4), 0],
])
def test_stored_kind_matches_a_rescan_of_the_values(values):
    lat = boolean_lattice(2)
    f = LatticeFunction(lat, values)
    functions = [f, power(f, 2), power(f, 0.5), reconstruct(mobius_weights(f))]
    for g in functions:
        assert g.kind == _rescanned_kind(g.values)
    for p in [WeightFunction(lat, values), mobius_weights(f)]:
        assert p.kind == _rescanned_kind(p.weights)
    for seq in [MomentSequence(values), MomentSequence(values).power(3)]:
        assert seq.kind == _rescanned_kind(seq.values)


# --- the dense route against the per-entry routes ------------------------------------
# power, mobius_weights, reconstruct and poisson_accompany compute on the
# kernel's dense tables; the oracles are the per-entry scalar loops and the
# list transforms they replaced, and must agree bitwise.


def scalar_keys(values):
    """Floats by their bits (0.0 and -0.0 differ), exact values as Fractions."""
    return [v.hex() if isinstance(v, float) else Fraction(v) for v in values]


def oracle_power(f, alpha):
    """pow_scalar per entry; float unless the values are exact and alpha integral."""
    values = [pow_scalar(v, alpha) for v in f.values]
    return values if f.kind == "rational" and is_integral(alpha) else [float(v) for v in values]


def oracle_weights(f):
    lat = f.lattice
    if isinstance(lat, BooleanLattice):
        return subset_mobius(list(f.values[::-1]), lat.ground_n)[::-1]
    p = reference_sublattice_weights(lat, dict(enumerate(f.values)))
    return [p[x] for x in lat.elements]


def oracle_reconstruct(p):
    lat = p.lattice
    if isinstance(lat, BooleanLattice):
        g = subset_sums(list(p.weights[::-1]), lat.ground_n)[::-1]
    else:
        g = [sum(p.weights[y] for y in lat.elements if lat.leq(x, y)) for x in lat.elements]
    return [0.0 if isinstance(v, float) and -cm_module.RECONSTRUCT_CLAMP <= v < 0 else v for v in g]


def explicit_floats(table):
    return table.kind == "float" and not isinstance(table.lattice, BooleanLattice)


def assert_reconstruct_matches_oracle(p):
    """Bit for bit, but for floats on an explicit lattice, which are held to
    the exact sums of the same floats."""
    got = reconstruct(p).values
    if explicit_floats(p):
        want = oracle_reconstruct(exactly(p))
        assert_near_exact(got, want, max(want))
    else:
        assert scalar_keys(got) == scalar_keys(oracle_reconstruct(p))


def oracle_accompany(f, m):
    return [math.exp(-m * (1.0 - math.pow(float(v), 1.0 / m))) for v in f.values]


DENSE_LATTICES = [*catalog(max_size=16), *(boolean_lattice(k) for k in range(1, 7))]
VALUE_KINDS = {
    "exact": lambda rng: Fraction(rng.randint(0, 12), rng.randint(1, 4)),
    "float": lambda rng: rng.uniform(0.0, 2.0),
    "unit exact": lambda rng: Fraction(rng.randint(0, 6), 6),
    "unit float": lambda rng: rng.choice([0.0, 1.0, rng.random()]),
    # squares near 2^62: int64 holds them, but not their transform's sums
    "large exact": lambda rng: rng.randrange(1 << 30, 1 << 31),
}


@pytest.mark.parametrize("lat", DENSE_LATTICES, ids=lambda lat: f"{lat.name}-{lat.n}")
@pytest.mark.parametrize("kind", VALUE_KINDS)
def test_dense_route_matches_the_per_entry_route(lat, kind):
    rng = random.Random(f"{lat.name}-{lat.n}-{kind}")
    for _ in range(4):
        f = LatticeFunction(lat, [VALUE_KINDS[kind](rng) for _ in lat.elements])
        for alpha in (0, 1, 2, 3, 2.0, 0.5, 1.7):
            g = power(f, alpha)
            want = oracle_power(f, alpha)
            assert scalar_keys(g.values) == scalar_keys(want), alpha
            assert g.kind == LatticeFunction(lat, want).kind
            p = mobius_weights(g)
            if explicit_floats(g):
                assert_near_exact(p.weights, oracle_weights(exactly(g)), g.max_value())
            else:
                assert scalar_keys(p.weights) == scalar_keys(oracle_weights(g)), alpha
            assert p.kind == g.kind
            if min(p.weights) >= 0:
                assert_reconstruct_matches_oracle(p)
        assert_reconstruct_matches_oracle(WeightFunction(lat, [abs(VALUE_KINDS[kind](rng)) for _ in lat.elements]))
        if kind.startswith("unit"):
            for m in range(1, 6):
                acc = poisson_accompany(f, m)
                assert acc.kind == "float"
                assert scalar_keys(acc.values) == scalar_keys(oracle_accompany(f, m)), m


def test_power_of_an_all_zero_exact_function_follows_the_exponent():
    f = LatticeFunction(B2, [0, 0, 0, 0])
    half = power(f, 0.5)
    assert half.kind == "float" and scalar_keys(half.values) == scalar_keys([0.0] * 4)
    assert power(f, 0).kind == "rational" and power(f, 0).values == (1,) * 4
    assert power(f, 2).kind == "rational" and power(f, 2).values == (0,) * 4


def test_exact_power_budget_counts_the_larger_of_numerator_and_denominator():
    big = LatticeFunction(chain_lattice(2), [2**64, 1])  # 65-bit numerators over 1
    over = POWER_BIT_BUDGET // (2 * 65) + 1
    with pytest.raises(BudgetExceeded, match=re.escape(f"about {Decimal(2 * 65 * over):.3g} bits")):
        power(big, over)
    assert power(big, 1000).values == (2**64000, 1)
    # sixteen small fractions over one 65-bit common denominator
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
    bits = math.prod(primes).bit_length()
    f = LatticeFunction(boolean_lattice(4), [Fraction(1, p) for p in primes])
    with pytest.raises(BudgetExceeded):
        power(f, POWER_BIT_BUDGET // (16 * bits) + 1)
    assert power(f, 100).values == tuple(Fraction(1, p**100) for p in primes)

import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlat import cm as cm_module
from cmlat.cm import (
    CmVerdict,
    LatticeFunction,
    WeightFunction,
    cm_power_threshold_check,
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
    DomainViolation,
    FormatError,
    NegativeValue,
    NoSharpnessNeeded,
    NotASublattice,
    NotCmInput,
    NotDistributive,
    ValueOutOfUnitInterval,
)
from cmlat.lattice import (
    boolean_lattice,
    catalog,
    chain_lattice,
    d_max,
    diamond_lattice,
    pentagon_lattice,
    product_lattice,
    materialize,
)

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


def reference_mobius_weights(f):
    """The top-down up_set loop the level-wise solve replaced, kept as its oracle."""
    lat = f.lattice
    p = [0] * lat.n
    for x in lat.mobius_order():
        above = 0
        for y in lat.up_set(x):
            if y != x:
                above += p[y]
        p[x] = f.values[x] - above
    return p


def reference_reconstruct(p):
    lat = p.lattice
    return [sum(p.weights[y] for y in lat.up_set(x)) for x in lat.elements]


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
            got, want = mobius_weights(floats).weights, reference_mobius_weights(floats)
            # the level-wise solve adds in the loop's order, so the floats are
            # the loop's bit for bit, well inside 1e-12 * max f
            assert list(got) == want, lat.name
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12 * floats.max_value()
            verdict = is_cm(floats)
            assert verdict.min_weight == min(want)
            assert verdict.is_cm == (min(want) >= -verdict.tol)


def test_generic_reconstruct_matches_reference_loop():
    rng = random.Random(31)
    for lat in explicit_lattices():
        exact = random_weights(lat, rng)
        assert list(reconstruct(exact).values) == reference_reconstruct(exact)
        floats = WeightFunction(lat, [rng.uniform(0.0, 3.0) for _ in lat.elements])
        assert list(reconstruct(floats).values) == reference_reconstruct(floats), lat.name


# --- is_cm and the brute-force oracle ----------------------------------------


def test_constant_is_cm():
    f = LatticeFunction(DIAMOND, [2] * 5)
    assert is_cm(f).is_cm
    assert is_cm_bruteforce(f, 5)


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
        is_cm_bruteforce(f, 30)


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
            for y in lat.up_set(x):
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
    from cmlat.lattice import is_distributive

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
                want = reference_sublattice_weights(lat, values)
                got = cm_module._solve_weights(
                    np.array([[lat.leq(a, b) for b in sub] for a in sub]), [values[a] for a in sub]
                )
                assert got == [want[a] for a in sub], (lat.name, sub)
                if isinstance(got[0], float):
                    assert [v.hex() for v in got] == [want[a].hex() for a in sub], (lat.name, sub)
                worst = min(want.values())
                tol = 0 if isinstance(worst, Fraction) else 1e-9 * max(values.values())
                if worst < -tol:
                    with pytest.raises(NotCmInput, match=re.escape(f"(weight {worst})")):
                        extend_cm(lat, values)
                    continue
                weights = [0] * lat.n
                for a, w in want.items():
                    weights[a] = w
                g = extend_cm(lat, values).values
                h = reconstruct(WeightFunction(lat, weights)).values
                assert g == h
                if isinstance(g[0], float):
                    assert [v.hex() for v in g] == [v.hex() for v in h]


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


def test_threshold_check_still_raises_under_python_O():
    # the theorem check is an InvariantViolation, not an assert that -O strips
    script = """
import sys
from fractions import Fraction
from cmlat import cm
from cmlat.errors import InvariantViolation
from cmlat.lattice import chain_lattice

if sys.flags.optimize != 1:
    sys.exit("not running under -O")
f = cm.LatticeFunction(chain_lattice(3), [1, Fraction(1, 2), Fraction(1, 4)])
cm.power = lambda f, alpha: cm.LatticeFunction(f.lattice, [1, Fraction(1, 4), Fraction(1, 2)])
try:
    cm.cm_power_threshold_check(f, 2)
except InvariantViolation:
    print("raised")
else:
    print("returned")
"""
    src = os.path.dirname(os.path.dirname(cm_module.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env)
    assert proc.stdout.strip() == "raised", proc.stderr

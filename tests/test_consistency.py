"""Cross-module consistency: the same mathematics through independent routes."""

import random
from fractions import Fraction

import pytest

from cmlat.cm import LatticeFunction, WeightFunction, is_cm, mobius_weights, power, reconstruct
from cmlat.lattice import boolean_lattice, materialize
from cmlat.randset import RandomSubset, power_exists, void_functional
from cmlat.scan import construct_multi_interval, q_poly, scan_S


def random_rational_subset(n, rng, denom=64):
    cuts = sorted(rng.randint(0, denom) for _ in range((1 << n) - 1))
    masses = []
    prev = 0
    for c in cuts:
        masses.append(Fraction(c - prev, denom))
        prev = c
    masses.append(Fraction(denom - prev, denom))
    return RandomSubset(n, masses)


def test_power_existence_equals_cm_of_void_power():
    # route 1: subset Mobius inversion of the containment powers
    # route 2: lattice Mobius weights of V^alpha on the Boolean lattice
    rng = random.Random(61)
    for n in (2, 3, 4):
        lat = boolean_lattice(n)
        for _ in range(15):
            x = random_rational_subset(n, rng)
            v = LatticeFunction(lat, void_functional(x).table)
            for alpha in (0.4, 1.3, n - 1.2, n - 0.3, float(n), 2, 5):
                if alpha < 0:
                    continue
                route1 = power_exists(x, alpha).exists
                route2 = is_cm(power(v, alpha)).is_cm
                assert route1 == route2, (n, x.probs, alpha)


def test_void_weights_are_outcome_masses():
    # the weight of V at K equals P{X = complement of K}
    rng = random.Random(67)
    for n in (2, 3):
        lat = boolean_lattice(n)
        full = (1 << n) - 1
        for _ in range(10):
            x = random_rational_subset(n, rng)
            v = LatticeFunction(lat, void_functional(x).table)
            w = mobius_weights(v)
            for mask in range(1 << n):
                assert w.weights[mask] == x.probs[full ^ mask]


def test_boolean_mobius_dispatch_matches_generic():
    rng = random.Random(71)
    for k in range(1, 6):
        implicit = boolean_lattice(k)
        explicit = materialize(implicit)
        for exact in (True, False):
            for _ in range(4):
                if exact:
                    vals = [Fraction(rng.randint(0, 9), rng.randint(1, 3)) for _ in range(1 << k)]
                else:
                    vals = [rng.uniform(0.0, 9.0) for _ in range(1 << k)]
                fast = mobius_weights(LatticeFunction(implicit, vals))
                slow = mobius_weights(LatticeFunction(explicit, vals))
                back_fast = reconstruct(WeightFunction(implicit, fast.weights))
                back_slow = reconstruct(WeightFunction(explicit, fast.weights))
                if exact:
                    assert fast.weights == slow.weights
                    assert back_fast.values == back_slow.values == tuple(vals)
                else:
                    # the generic recursion adds in another order
                    assert fast.weights == pytest.approx(slow.weights, abs=1e-9)
                    assert back_fast.values == pytest.approx(back_slow.values, abs=1e-9)


def test_scan_components_match_pointwise_existence():
    rng = random.Random(73)
    for _ in range(6):
        x = random_rational_subset(3, rng)
        result = scan_S(x, 3.5)
        for alpha in [0.25, 0.75, 1.3, 1.7, 2.2, 2.8, 3.3]:
            inside = result.covers(alpha)
            exists = power_exists(x, alpha).exists
            # skip the hairline around refined endpoints
            near_edge = any(
                min(abs(alpha - c.lo), abs(alpha - c.hi)) < 0.03 for c in result.components
            )
            if not near_edge:
                assert inside == exists, (x.probs, alpha)


def test_certificate_polynomials_match_q_poly():
    cert = construct_multi_interval(4, 2)
    x = cert.x
    # q(A) depends only on |A|; compare the exchangeable table with q_poly
    for b, mask in ((2, 0b0011), (3, 0b0111), (4, 0b1111)):
        poly = q_poly(x, mask)
        for alpha in (0.5, 1.5, 2.3, 2.7, 3.5):
            direct = poly(alpha)
            verdict = power_exists(x, alpha)
            assert verdict.q_values[mask] == pytest.approx(direct, rel=1e-9, abs=1e-12)
        other = q_poly(x, 0b1100 if b == 2 else (0b1110 if b == 3 else 0b1111))
        assert poly.terms == other.terms

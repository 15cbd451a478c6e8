"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is pinned here, not configurable.
"""

import math
import random
import time
from fractions import Fraction

from cmlat.approx import (
    LOWER_BOUND_CONSTANT,
    lower_bound_witness,
    separation_threshold,
    sup_gap,
    sup_gap_argmax,
    upper_bound_witness,
)
from cmlat.cm import (
    LatticeFunction,
    WeightFunction,
    is_cm,
    is_cm_bruteforce,
    power,
    reconstruct,
    sharpness_witness,
)
from cmlat.lattice import catalog, d_max, diamond_lattice, is_distributive
from cmlat.moments import (
    hankel_psd_check,
    laplace_power_counterexample,
    two_atom_power_counterexample,
    two_atom_sequence,
)
from cmlat.randset import RandomSubset, power_exists, singleton_set, uniform_singleton
from cmlat.scan import construct_multi_interval, scan_S, schur_gradient_check, simplex_form, singleton_alternating_sum


def _report(name, failures, t0, budget):
    elapsed = time.perf_counter() - t0
    status = "PASS" if not failures and elapsed < budget else "FAIL"
    print(f"[{status}] {name} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert elapsed < budget, f"{name} exceeded its runtime budget: {elapsed:.1f}s"
    assert not failures, f"{name}: {failures[:5]}"


def _random_rational_function(lat, rng):
    return LatticeFunction(lat, [Fraction(rng.randint(0, 12), rng.randint(1, 4)) for _ in lat.elements])


def _random_cm_function(lat, rng, zero_chance=0.3):
    weights = [
        Fraction(0) if rng.random() < zero_chance else Fraction(rng.randint(1, 12), rng.randint(1, 4))
        for _ in lat.elements
    ]
    return reconstruct(WeightFunction(lat, weights))


def _random_subset(n, rng, denom=64):
    cuts = sorted(rng.randint(0, denom) for _ in range((1 << n) - 1))
    masses = []
    prev = 0
    for c in cuts:
        masses.append(Fraction(c - prev, denom))
        prev = c
    masses.append(Fraction(denom - prev, denom))
    return RandomSubset(n, masses)


def test_criterion_1_oracle_equivalence():
    """Mobius-weight verdicts match the brute-force difference sweep."""
    t0 = time.perf_counter()
    rng = random.Random(101)
    failures = []
    lattices = catalog(max_size=6)
    assert len(lattices) >= 8
    for lat in lattices:
        for i in range(100):
            f = (
                _random_rational_function(lat, rng)
                if i % 2 == 0
                else _random_cm_function(lat, rng)
            )
            fast = is_cm(f).is_cm
            brute = is_cm_bruteforce(f)
            if fast != brute:
                failures.append((lat.name, f.values, fast, brute))
    _report("criterion 1: oracle equivalence over the catalog", failures, t0, 120)


def test_criterion_2_power_existence_threshold():
    """Powers exist at and above n-1; the uniform singleton fails below."""
    t0 = time.perf_counter()
    rng = random.Random(202)
    failures = []
    for n in range(2, 7):
        for _ in range(200):
            x = _random_subset(n, rng)
            for alpha in (n - 1, n - 0.5, n, 3 * n):
                verdict = power_exists(x, alpha)
                if not verdict.exists or float(verdict.min_q) < -1e-9:
                    failures.append((n, alpha, x.probs, verdict.min_q))
    for n in range(2, 7):
        x = uniform_singleton(n)
        for j in range(n - 1):
            verdict = power_exists(x, j + 0.5)
            if verdict.exists or verdict.min_q >= -1e-6:
                failures.append(("sharpness", n, j + 0.5, verdict.min_q))
    _report("criterion 2: existence at the n-1 threshold and sharpness", failures, t0, 60)


def test_criterion_3_singleton_full_structure():
    """Singleton-supported laws have S_X = {0..n-2} plus the ray [n-1, oo)."""
    t0 = time.perf_counter()
    rng = random.Random(303)
    failures = []
    for n in range(3, 7):
        for _ in range(20):
            raw = [rng.randint(1, 9) for _ in range(n)]
            p = [Fraction(r, sum(raw)) for r in raw]
            result = scan_S(singleton_set(*p), n + 1.0, step=0.01)
            points = result.points()
            intervals = result.intervals()
            want_points = tuple(float(j) for j in range(n - 1))
            ok = (
                len(intervals) == 1
                and points == want_points
                and abs(intervals[0][0] - (n - 1)) <= 0.02
                and intervals[0][1] == n + 1.0
            )
            if not ok:
                failures.append((n, p, points, intervals))
    _report("criterion 3: full divisibility-set structure for singleton laws", failures, t0, 180)


def test_criterion_4_power_threshold_on_lattices():
    """Powers of c.m. functions above d_max - 1; sharpness strictly below."""
    t0 = time.perf_counter()
    rng = random.Random(404)
    failures = []
    for lat in catalog():
        dm = d_max(lat)
        for _ in range(50):
            f = _random_cm_function(lat, rng)
            for alpha in (1, 2, 3, 4, dm - 1, dm + 0.5):
                if not is_cm(power(f, alpha)).is_cm:
                    failures.append((lat.name, alpha, f.values))
    for lat in catalog():
        if d_max(lat) >= 3 and is_distributive(lat):
            f = sharpness_witness(lat)
            verdict = is_cm(power(f, d_max(lat) - 1.5))
            if verdict.is_cm or not verdict.witness.weight < -1e-8:
                failures.append(("sharpness", lat.name, verdict.min_weight))
    # three-atom diamond with weights (0, 1/4, 1/4, 1/4, 1/4)
    diamond = diamond_lattice(3)
    f = reconstruct(WeightFunction(diamond, [0] + [Fraction(1, 4)] * 4))
    for alpha in (1, 1.25, 1.5, 2):
        if not is_cm(power(f, alpha)).is_cm:
            failures.append(("diamond", alpha))
    h_half = 1 - 3 * 0.5**0.5 + 2 * 0.25**0.5
    bottom_weight = is_cm(power(f, 0.5)).min_weight
    if not (h_half < 0 and abs(bottom_weight - h_half) <= 1e-12):
        failures.append(("diamond h(0.5)", h_half, bottom_weight))
    _report("criterion 4: lattice power threshold and sharpness witnesses", failures, t0, 120)


def test_criterion_5_approximation_constants():
    """Critical points, the 2/e^2 limit, accompaniment and lower bounds."""
    t0 = time.perf_counter()
    rng = random.Random(505)
    failures = []
    for m in range(2, 10001):
        t = sup_gap_argmax(m)
        if abs(-math.log(t) / (1 - t) - m / (m - 1)) > 1e-12:
            failures.append(("residual", m))
            break
    limit = 2 / math.e**2
    if abs(10**4 * sup_gap(10**4) - limit) > 0.01 * limit:
        failures.append(("limit", 10**4 * sup_gap(10**4)))
    for _ in range(100):
        x = _random_subset(4, rng)
        for m in (2, 10, 100):
            rep = upper_bound_witness(x, m)
            if not rep.within_bound:
                failures.append(("upper", m, x.probs))
    want_c = 1 / (4 * math.sqrt(math.e) * (2 + math.sqrt(math.e)))
    if abs(LOWER_BOUND_CONSTANT - want_c) > 1e-12:
        failures.append(("constant", LOWER_BOUND_CONSTANT))
    m0 = separation_threshold()
    if m0 is None or m0 > 200:
        failures.append(("m0", m0))
    rep = lower_bound_witness(100)
    if not (rep.separation_holds and rep.necessary_condition_slack < 0):
        failures.append(("witness", rep))
    _report("criterion 5: approximation-rate constants and witnesses", failures, t0, 120)


def test_criterion_6_multi_interval_certificates():
    """Constructed laws whose divisibility sets have k components."""
    t0 = time.perf_counter()
    failures = []
    for n, k in ((4, 2), (5, 2), (5, 3)):
        cert = construct_multi_interval(n, k)
        if not cert.items["item1_pattern_exact"]:
            failures.append((n, k, "item1"))
        wits = cert.items["item4_interior_negatives"]
        if [w["j"] for w in wits] != list(range(n - k, n - 1)):
            failures.append((n, k, "item4 j-range"))
        for w in wits:
            if not (w["value"] < -1e-6 and w["j"] < w["alpha"] < w["j"] + 1):
                failures.append((n, k, "item4", w))
        for w in cert.items["item5_positivity_near_integers"]:
            if not w["min_r"] > 1e-6:
                failures.append((n, k, "item5", w))
        for w in cert.items["item3_existence_windows"]:
            if not w["min_q"] >= -1e-9:
                failures.append((n, k, "item3", w))
        for w in cert.items["item2_midpoint_negatives"]:
            if not w["value"] < -1e-6:
                failures.append((n, k, "item2", w))
    _report("criterion 6: multi-component divisibility certificates", failures, t0, 300)


def test_criterion_7_simplex_form_numerics():
    """Interior negativity, boundary vanishing, Schur positivity, identity."""
    t0 = time.perf_counter()
    rng = random.Random(707)
    failures = []
    for n in (2, 3, 4):
        alpha = n - 0.5
        for _ in range(100):
            w = [rng.uniform(0.05, 1.0) for _ in range(n)]
            scale = rng.uniform(0.15, 0.95) / sum(w)
            interior = [v * scale for v in w]
            if not simplex_form(interior, alpha) < 0:
                failures.append(("interior", n, interior))
            face = list(interior)
            face[rng.randrange(n)] = 0.0
            simplex_face = [v / sum(w) for v in w]
            if abs(simplex_form(face, alpha)) > 1e-12:
                failures.append(("face", n, face))
            if abs(simplex_form(simplex_face, alpha)) > 1e-12:
                failures.append(("sum-one face", n, simplex_face))
        done = 0
        while done < 100:
            w = [rng.uniform(0.05, 1.0) for _ in range(n)]
            scale = rng.uniform(0.2, 0.9) / sum(w)
            pt = [v * scale for v in w]
            if abs(pt[0] - pt[1]) < 1e-3:
                continue
            if not schur_gradient_check(pt, alpha) > 0:
                failures.append(("schur", n, pt))
            done += 1
    rng2 = random.Random(708)
    for n in (2, 3, 4, 5, 6):
        raw = [rng2.randint(1, 9) for _ in range(n)]
        p = [r / sum(raw) for r in raw]
        for alpha in (n - 1.5, n - 0.5):
            if alpha <= 0:
                continue
            g = singleton_alternating_sum(p, alpha)  # asserts the identity internally
            f = simplex_form(p[:-1], alpha)
            if abs(g - f) > 1e-12 * max(1.0, abs(g)):
                failures.append(("identity", n, alpha))
    _report("criterion 7: simplex-form negativity, boundary and Schur checks", failures, t0, 120)


def test_criterion_8_hankel_counterexamples():
    """Two-atom fractional powers violate Hankel positivity; integers pass."""
    t0 = time.perf_counter()
    failures = []
    cert = two_atom_power_counterexample(0.5, 1.5)
    if cert.order != 4 or not cert.min_eigenvalue < -1e-8 * cert.trace:
        failures.append(("order", cert.order, cert.min_eigenvalue))
    for alpha in (1, 2, 3):
        seq = two_atom_sequence(Fraction(1, 2), 20).power(alpha)
        for n in range(2, 9):
            if not hankel_psd_check(seq, n).psd:
                failures.append(("integer", alpha, n))
    bridge = laplace_power_counterexample(math.log(2.0), 1.5)
    if bridge.order != cert.order or abs(bridge.min_eigenvalue - cert.min_eigenvalue) > 1e-12:
        failures.append(("bridge", bridge.order, bridge.min_eigenvalue))
    _report("criterion 8: moment-sequence power counterexamples", failures, t0, 30)

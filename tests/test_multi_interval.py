import functools
import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from cmlat.errors import DomainViolation, SearchFailed
from cmlat.randset import power_exists
from cmlat.scan import (
    COARSE_LADDER_LEN,
    DELTA_LADDER,
    ExponentialPolynomial,
    construct_multi_interval,
)


def test_parameter_validation():
    with pytest.raises(DomainViolation):
        construct_multi_interval(3, 2)
    with pytest.raises(DomainViolation):
        construct_multi_interval(5, 4)  # k > n - 2
    with pytest.raises(DomainViolation):
        construct_multi_interval(5, 1)


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (5, 3)])
def test_certificates(n, k):
    cert = construct_multi_interval(n, k)
    assert cert.n == n and cert.k == k
    assert len(cert.epsilons) == k - 1
    assert cert.delta > 0

    # item 1: the mass pattern is exact (zero iff empty or 1 < |A| <= n-k+1)
    assert cert.items["item1_pattern_exact"]
    for s, mass in enumerate(cert.size_masses):
        if s == 1 or s >= n - k + 2:
            assert mass > 0
        else:
            assert mass == 0
    assert sum(math.comb(n, s) * m for s, m in enumerate(cert.size_masses)) == 1

    # the emitted distribution is exchangeable and matches the size masses
    for mask in range(1 << n):
        assert cert.x.probs[mask] == cert.size_masses[bin(mask).count("1")]

    # item 2: no existence at non-integer alpha <= n-k-1
    for w in cert.items["item2_midpoint_negatives"]:
        assert w["value"] < -1e-6
        assert not power_exists(cert.x, w["alpha"]).exists

    # item 3: existence on [j, j+delta)
    for w in cert.items["item3_existence_windows"]:
        assert w["min_q"] >= -1e-9
        j = w["j"]
        for frac in (0.0, 0.5, 0.99):
            alpha = j + frac * cert.delta
            assert power_exists(cert.x, alpha, tol=1e-8).exists, (j, alpha)

    # item 4: a genuine dip inside every required (j, j+1)
    js = [w["j"] for w in cert.items["item4_interior_negatives"]]
    assert js == list(range(n - k, n - 1))
    for w in cert.items["item4_interior_negatives"]:
        assert w["value"] < -1e-6
        assert w["j"] < w["alpha"] < w["j"] + 1
        verdict = power_exists(cert.x, w["alpha"])
        assert not verdict.exists
        assert verdict.min_q == pytest.approx(w["value"], rel=1e-9, abs=1e-12)

    # item 5: large sets stay positive near every integer
    for w in cert.items["item5_positivity_near_integers"]:
        assert w["min_r"] > 1e-6


def test_mass_pattern_is_checked_under_python_O():
    # the invariant is not an assert: python -O keeps it
    script = (
        "from fractions import Fraction\n"
        "from cmlat.errors import InvariantViolation\n"
        "from cmlat.randset import uniform_singleton\n"
        "from cmlat.scan import MultiIntervalCertificate\n"
        "masses = (0, Fraction(1, 4), 0, 0, 0)  # size 4 must be charged for k = 2\n"
        "try:\n"
        "    MultiIntervalCertificate(4, 2, (), 0.1, masses, uniform_singleton(4), {})\n"
        "except InvariantViolation as exc:\n"
        "    print(__debug__, exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False mass pattern violated at size 4\n"


def test_epsilons_are_exact_halvings():
    cert = construct_multi_interval(4, 2)
    for eps in cert.epsilons:
        assert isinstance(eps, Fraction)
        assert eps.numerator == 1 and (eps.denominator & (eps.denominator - 1)) == 0


def test_power_structure_beyond_threshold():
    cert = construct_multi_interval(4, 2)
    for alpha in (3.0, 3.5, 4.0, 7.3):
        assert power_exists(cert.x, alpha).exists


def test_wide_deltas_preferred_when_available():
    assert construct_multi_interval(4, 2).delta >= 0.02
    assert construct_multi_interval(5, 3).delta >= 0.001


def test_larger_ground_sets():
    for n, k in ((6, 3), (6, 4), (7, 3)):
        cert = construct_multi_interval(n, k)
        assert cert.items["item1_pattern_exact"]
        assert all(w["value"] < -1e-6 for w in cert.items["item4_interior_negatives"])


# --- oracle: the search that evaluates every r_b polynomial afresh per delta ------------
#
# Each delta tried builds the r_b as canonical ExponentialPolynomials from the
# exact size masses and evaluates them with their own grid_values and __call__
# on list-built grids; construct_multi_interval evaluates each law once.  The
# two must agree bit for bit: same eps chain, same delta, same report bytes,
# same certify-call count.


def _r_polys(n, size_masses):
    """r_b polynomials, one per subset size b = 2..n (q(A) depends on |A| only)."""
    w = [sum(math.comb(b, s) * size_masses[s] for s in range(b + 1)) for b in range(n + 1)]
    polys = {}
    for b in range(2, n + 1):
        terms = [((-1) ** ((b - a) & 1) * math.comb(b, a), w[a]) for a in range(b + 1) if w[a] > 0]
        polys[b] = ExponentialPolynomial(terms)
    return polys


@functools.lru_cache(maxsize=None)
def _oracle_grid(lo, hi, step, include_hi=False):
    step = min(step, max((hi - lo) / 8, 1e-9))
    count = max(1, int(math.ceil((hi - lo) / step)))
    pts = [lo + i * step for i in range(count)]
    if include_hi:
        pts.append(hi)
    return np.array([p for p in pts if lo <= p <= hi + 1e-15], dtype=float)


def _oracle_certify(polys, n, level, size_masses, delta, grid_step, margin=1e-6, exist_tol=1e-9):
    report = {}
    pattern = all((size_masses[s] > 0) == (s == 1 or s >= n - level + 2) for s in range(n + 1))
    report["item1_pattern_exact"] = pattern
    ok = pattern
    mids = []
    for j in range(0, n - level - 1):
        alpha = j + 0.5
        best_b = min(polys, key=lambda b: polys[b](alpha))
        mids.append({"alpha": alpha, "size": best_b, "value": polys[best_b](alpha)})
        ok &= mids[-1]["value"] < -margin
    report["item2_midpoint_negatives"] = mids
    exist = []
    for j in range(n - level, n - 1):
        alphas = _oracle_grid(float(j), float(j) + delta, grid_step)
        worst = min(min(float(v) for v in polys[b].grid_values(alphas)) for b in polys)
        exist.append({"j": j, "delta": delta, "min_q": worst})
        ok &= worst >= -exist_tol
    report["item3_existence_windows"] = exist
    wits = []
    for j in range(n - level, n - 1):
        alphas = _oracle_grid(float(j) + grid_step, float(j) + 1.0 - grid_step, grid_step, include_hi=True)
        best = None
        for b, poly in polys.items():
            vals = poly.grid_values(alphas)
            i = int(np.argmin(vals))
            if best is None or vals[i] < best["value"]:
                best = {"j": j, "alpha": float(alphas[i]), "size": b, "value": float(vals[i])}
        wits.append(best)
        ok &= best["value"] < -margin
    report["item4_interior_negatives"] = wits
    near = []
    for j in range(1, n - 1):
        lo = max(grid_step, float(j) - delta)
        alphas = _oracle_grid(lo, float(j) + delta, grid_step, include_hi=True)
        for b in range(n - level + 2, n + 1):
            worst = float(np.min(polys[b].grid_values(alphas)))
            near.append({"j": j, "size": b, "min_r": worst})
            ok &= worst > margin
    report["item5_positivity_near_integers"] = near
    return ok, report


def _oracle_search(n, k, grid_step=1e-3):
    """(epsilons, size masses, delta, report), or ("failed", SearchFailed params)."""
    calls = 0
    ladder = DELTA_LADDER[:COARSE_LADDER_LEN]

    def certifies(level, masses):
        nonlocal calls
        polys = _r_polys(n, masses)
        for cand in ladder:
            calls += 1
            if _oracle_certify(polys, n, level, masses, cand, grid_step)[0]:
                return True
        return False

    def make_masses(level, prev, eps):
        if level == 2:
            masses = [Fraction(0)] * (n + 1)
            masses[1] = (1 - eps) / n
            masses[n] = eps
            return masses if masses[1] > 0 else None
        new_size = n - level + 2
        charged = [1] + list(range(new_size + 1, n + 1))
        pos_count = sum(math.comb(n, s) for s in charged)
        out = list(prev)
        for s in charged:
            out[s] -= eps / pos_count
            if out[s] <= 0:
                return None
        out[new_size] = eps / math.comb(n, new_size)
        return out

    def solve(level, prev):
        eps = Fraction(1, 4)
        for _ in range(60):
            masses = make_masses(level, prev, eps)
            if masses is not None and certifies(level, masses):
                if level == k:
                    return [(eps, masses)]
                rest = solve(level + 1, masses)
                if rest is not None:
                    return [(eps, masses)] + rest
            eps /= 2
        return None

    chain = solve(2, None)
    if chain is None:
        ladder = DELTA_LADDER
        chain = solve(2, None)
    if chain is None:
        return "failed", {"n": n, "k": k, "certify_calls": calls}
    masses = chain[-1][1]
    polys = _r_polys(n, masses)
    for cand in DELTA_LADDER:
        ok, report = _oracle_certify(polys, n, k, masses, cand, grid_step)
        if ok:
            return tuple(eps for eps, _ in chain), tuple(masses), cand, report


@pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (6, 3), (6, 4), (7, 3), (7, 4), (8, 3), (8, 4)])
def test_search_matches_per_delta_oracle(n, k):
    want = _oracle_search(n, k)
    if want[0] == "failed":
        with pytest.raises(SearchFailed) as info:
            construct_multi_interval(n, k)
        assert str(info.value) == f"no eps chain certified levels 2..{k} within 60 halvings each"
        assert info.value.params == want[1]
        return
    cert = construct_multi_interval(n, k)
    assert (cert.epsilons, cert.size_masses, cert.delta) == want[:3]
    assert json.dumps(cert.items, sort_keys=True) == json.dumps(want[3], sort_keys=True)

"""Answer checks for every invocation of the benchmark.

Where a theorem fixes the answer, the check compares the decision fields
with it.  The verdicts of `power-exists` and of the `cm` commands are also
compared with least values (min_q, min_weight) that workloads.py computes from
the inputs by transforms of its own, and a negative verdict's certificate is
re-verified from the inputs.  Decision fields are compared, never JSON bytes.
All of this runs outside the timed section.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

MASS_TOL = 1e-9  # the program's existence band for power masses
CM_TOL = 1e-9  # the program's c.m. tolerance, 1e-9 * max f; every function here has max f = 1
FLOAT_TOL = 1e-9
# how far a least value computed here and the program's may differ; a verdict
# on a value this close to -tol may go either way
AGREE = 1e-10
SLIVER_WIDTH = 0.02  # the grid resolution the ray endpoint is allowed
LIMIT_M_TIMES_GAP = 2.0 / math.e**2
LOWER_BOUND_CONSTANT = 1.0 / (4.0 * math.sqrt(math.e) * (2.0 + math.sqrt(math.e)))


@dataclass(frozen=True)
class Outcome:
    """What one invocation returned: exit code, streams and written CSV."""

    code: int
    stdout: bytes
    stderr: bytes
    csv: bytes | None = None

    def result(self):
        return json.loads(self.stdout)["result"]


def num(v):
    """JSON numbers are floats or ints; exact values are strings like '3/17'."""
    return Fraction(v) if isinstance(v, str) else v


def probe_masks(n):
    """Fixed masks K at which void functionals are compared."""
    rng = random.Random(f"probe-{n}")
    full = (1 << n) - 1
    return [0, full, 1, 1 << (n - 1)] + rng.sample(range(1, full), 8)


def mask_set(mask, n):
    return "{" + ",".join(str(i + 1) for i in range(n) if mask >> i & 1) + "}"


def sup_gap(m):
    """sup over t in [0, 1] of |t^m - e^{m(t-1)}| from the critical point."""
    target = m / (m - 1.0)
    lo, hi = 1e-15, 1.0 - 1e-15
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if -math.log1p(-mid) / mid < target:
            lo = mid
        else:
            hi = mid
    t = 1.0 - 0.5 * (lo + hi)
    return t ** (m - 1) - t**m


def _void_from_masses(masses, n):
    """V(K) at the probe masks from a {mask: probability} table."""
    items = list(masses.items())
    exact = any(isinstance(p, Fraction) for _, p in items)
    out = {}
    for k in probe_masks(n):
        hit = [p for a, p in items if not a & k]
        out[k] = sum(hit, Fraction(0)) if exact else math.fsum(hit)
    return out


def _dist_masses(result):
    return {int(k): num(v["probability"]) for k, v in result["distribution"]["masses"].items()}


def _compare(got, want, exact, what):
    if exact:
        return None if got == want else f"{what}: {got} != {want}"
    if abs(float(got) - float(want)) <= FLOAT_TOL:
        return None
    return f"{what}: {got!r} differs from {want!r}"


def _law_is_exact(law):
    return not isinstance(law.masses[0], float)


def _verdict_reason(got, want, exact, tol, what):
    """Compare a reported least value (min_q, min_weight) and the verdict drawn
    from it, got = (value, verdict), with the least value `want` computed here.

    The verdict is "the least value is at or above -tol", with tol 0 when
    exact."""
    got_value, got_ok = got
    if exact:
        if num(got_value) != want:
            return f"{what} {got_value}, expected {want}"
        return None if got_ok == (want >= 0) else f"verdict {got_ok} with {what} {want}"
    if abs(float(num(got_value)) - float(want)) > AGREE:
        return f"{what} {got_value!r}, expected {float(want)!r}"
    if abs(float(want) + tol) > AGREE and got_ok != (float(want) >= -tol):
        return f"verdict {got_ok} with {what} {float(want)!r} and tol {tol}"
    return None


# --- checks, one per command kind -------------------------------------------


def check_power_exists(f, out):
    law, alpha, q = f["law"], f["alpha"], f["q"]
    res = out.result()
    if alpha >= law.n - 1 or float(alpha).is_integer():
        # integer powers and powers at or above n - 1 always exist
        if out.code != 0 or res["exists"] is not True:
            return f"alpha={alpha} must exist (exit {out.code}, exists={res['exists']})"
    exact = isinstance(q[0], Fraction)
    bad = _verdict_reason((res["min_q"], res["exists"]), q.min(), exact, MASS_TOL, "min_q")
    if bad or res["exists"]:
        return bad or (None if out.code == 0 else f"positive verdict with exit {out.code}")
    if out.code != 1:
        return f"negative verdict with exit {out.code}"
    w = res["witness"]["mask"]
    if res["witness"]["set"] != mask_set(w, law.n):
        return f"witness set {res['witness']['set']} does not match mask {w}"
    if not q[w] < -MASS_TOL:
        return f"witness {w}: q = {float(q[w])!r} is not below -tol"
    reported = num(res["witness"]["q"])
    if abs(float(q[w]) - float(reported)) > FLOAT_TOL or reported != num(res["min_q"]):
        return f"witness {w}: reported q {reported!r}, recomputed {q[w]!r}, min_q {res['min_q']}"
    return None


def _check_void_map(f, out, want):
    if out.code != 0:
        return f"exit {out.code}"
    law = f["law"]
    exact = _law_is_exact(law)
    masses = _dist_masses(out.result())
    if min(masses.values()) < 0:
        return "negative mass"
    total = sum(masses.values(), Fraction(0)) if exact else math.fsum(masses.values())
    bad = _compare(total, 1, exact, "total mass")
    if bad:
        return bad
    for k, got in _void_from_masses(masses, law.n).items():
        bad = _compare(got, want(law.void(k)), exact, f"V({k})")
        if bad:
            return bad
    return None


def check_union(f, out):
    # the union of m independent copies has void functional V^m
    return _check_void_map(f, out, lambda v: v ** f["m"])


def check_poisson(f, out):
    return _check_void_map(f, out, lambda v: math.exp(f["lam"] * (float(v) - 1.0)))


def check_void(f, out):
    if out.code != 0:
        return f"exit {out.code}"
    law = f["law"]
    table = out.result()["void"]
    if len(table) != 1 << law.n:
        return f"{len(table)} void entries, expected {1 << law.n}"
    rows = list(csv.reader(io.StringIO(out.csv.decode())))
    if rows[0] != ["mask", "set", "void_probability"] or len(rows) != (1 << law.n) + 1:
        return "CSV header or row count is wrong"
    for k in probe_masks(law.n):
        got = num(table[str(k)]["value"])
        bad = _compare(got, law.void(k), _law_is_exact(law), f"V({k})")
        if bad:
            return bad
        if float(rows[k + 1][2]) != float(got):
            return f"CSV row {k} disagrees with the JSON"
    return None


def check_invert(f, out):
    # invert(void(x)) returns x
    law = f["law"]
    if out.code != 0:
        return f"exit {out.code}: {out.result().get('reason', '')}"
    got = _dist_masses(out.result())
    want = dict(zip(law.atoms, law.masses))
    for mask in set(got) | set(want):
        bad = _compare(got.get(mask, 0), want.get(mask, 0), _law_is_exact(law), f"mass at {mask}")
        if bad:
            return bad
    return None


def check_accompany(f, out):
    if out.code != 0:
        return f"exit {out.code}"
    res = out.result()
    m, fv = f["m"], f["values"]
    acc = [float(v) for v in res["accompaniment"]["values"]]
    if len(acc) != len(fv) or not all(0.0 <= a <= 1.0 for a in acc):
        return "accompaniment values missing or outside [0, 1]"
    bound = sup_gap(m)
    if abs(float(res["scalar_bound"]) - bound) > 1e-12:
        return f"scalar bound {res['scalar_bound']} != {bound}"
    distance = max(abs(a - b) for a, b in zip(fv, acc))
    if distance > bound + 1e-12:
        return f"distance {distance} exceeds the bound {bound}"
    for x in range(0, len(fv), 97):
        want = math.exp(-m * (1.0 - fv[x] ** (1.0 / m)))
        if abs(acc[x] - want) > 1e-12:
            return f"accompaniment at {x}: {acc[x]!r} != {want!r}"
    return None


def check_cm_check(f, out):
    # the documents are superset sums of nonnegative weights: c.m. by construction
    res = out.result()
    if out.code != 0 or res["is_cm"] is not True:
        return f"constructed c.m. function judged not c.m. (exit {out.code})"
    return _verdict_reason((res["min_weight"], res["is_cm"]), f["min_weight"], True, 0, "min_weight")


def _delta(lat, values, base, covering):
    total = 0.0
    for mask in range(1 << len(covering)):
        j = base
        for i, c in enumerate(covering):
            if mask >> i & 1:
                j = lat.join(j, c)
        total += -values[j] if bin(mask).count("1") & 1 else values[j]
    return total


def check_cm_power(f, out):
    alpha, d_max, values = f["alpha"], f["d_max"], f["values"]
    res = out.result()
    powered = [num(v) for v in res["power"]["values"]]
    if len(powered) != len(values):
        return "power has the wrong length"
    for x in range(0, len(values), 37):
        want = values[x] ** alpha if isinstance(alpha, int) else float(values[x]) ** alpha
        if isinstance(alpha, int):
            if powered[x] != want:
                return f"power at {x}: {powered[x]} != {want}"
        elif abs(float(powered[x]) - want) > 1e-12:
            return f"power at {x}: {powered[x]!r} != {want!r}"
    verdict = res["verdict"]
    if isinstance(alpha, int) or alpha >= d_max - 1:
        # integer powers, and powers at or above d_max - 1, of a c.m. function stay c.m.
        if out.code != 0 or verdict["is_cm"] is not True:
            return f"alpha={alpha} must stay c.m. (exit {out.code})"
    bad = _verdict_reason((verdict["min_weight"], verdict["is_cm"]), f["min_weight"],
                          isinstance(alpha, int), CM_TOL, "min_weight")
    if bad or verdict["is_cm"]:
        return bad or (None if out.code == 0 else f"c.m. verdict with exit {out.code}")
    if out.code != 1:
        return f"negative verdict with exit {out.code}"
    lat, cert = f["lattice"], verdict["certificate"]
    e = cert["element"]
    if cert["covering"] != lat.covers(e):
        return f"covering {cert['covering']} is not the cover set of {e}"
    gvals = [float(v) for v in powered]
    d = _delta(lat, gvals, e, cert["covering"])
    weight = float(num(cert["weight"]))
    if not d < -CM_TOL or abs(d - weight) > FLOAT_TOL * max(gvals):
        return f"delta over the covering of {e} is {d!r}, weight {weight!r}"
    return None


def check_lattice(f, out):
    lat = f["lattice"]
    res = out.result()
    if out.code != 0 or res["valid"] is not True:
        return f"valid lattice rejected: {res.get('kind')} {res.get('reason')}"
    want_pairs = sorted([x, y] for x in range(lat.n) for y in lat.covers(x))
    checks = (
        (res["n"], lat.n, "n"),
        (res["d_max"], f["d_max"], "d_max"),
        (res["distributive"], lat.distributive, "distributive"),
        (res["cover_pairs"], want_pairs, "cover pairs"),
    )
    for got, want, what in checks:
        if got != want:
            return f"{what}: {str(got)[:60]} != {str(want)[:60]}"
    return None


def check_s_set(f, out):
    if out.code != 0:
        return f"exit {out.code}"
    return _s_set_reason(f, out.result()["components"], out.csv)


def _s_set_reason(f, comps, csv_bytes):
    # singleton laws: S = {0, ..., n-2} together with [n-1, T]
    n, T = f["n"], f["T"]
    if len(comps) != n:
        return f"{len(comps)} components, expected {n}"
    for j, c in enumerate(comps[:-1]):
        if not (c["point"] and c["lo"] == c["hi"] == j):
            return f"component {j} is {c}, expected the point {j}"
    ray = comps[-1]
    if ray["point"] or abs(ray["lo"] - (n - 1)) > 0.02 or ray["hi"] != T:
        return f"last component {ray}, expected [{n - 1}, {T}]"
    rows = csv_bytes.decode().splitlines()
    if rows[0] != "alpha,min_q,argmin_subset,argmin_set" or len(rows) != round(T / 0.01) + 2:
        return "CSV header or row count is wrong"
    return None


def _is_point_sliver(f, out):
    """Right but for short intervals around integers that should be points."""
    comps = []
    for c in out.result()["components"]:
        j = round(c["lo"])
        if not c["point"] and c["hi"] - c["lo"] < SLIVER_WIDTH and c["lo"] <= j <= c["hi"]:
            c = {**c, "lo": float(j), "hi": float(j), "point": True}
        comps.append(c)
    return out.code == 0 and _s_set_reason(f, comps, out.csv) is None


def check_multi_interval(f, out):
    n, k = f["n"], f["k"]
    if out.code != 0:
        return f"exit {out.code}"
    res = out.result()
    items = res["items"]
    masses = [Fraction(m) for m in res["size_masses"]]
    pattern = all((m > 0) == (s == 1 or s >= n - k + 2) for s, m in enumerate(masses))
    windows, gaps = items["item3_existence_windows"], items["item4_interior_negatives"]
    if not (res["certified"] and items["item1_pattern_exact"] and pattern):
        return "not certified, or the mass pattern is wrong"
    if len(windows) != k - 1 or len(gaps) != k - 1:
        return f"{len(windows)} windows and {len(gaps)} gaps certify {k} components? no"
    if any(w["min_q"] < -MASS_TOL for w in windows) or any(g["value"] >= -1e-6 for g in gaps):
        return "a window or gap fails its margin"
    if any(m["value"] >= -1e-6 for m in items["item2_midpoint_negatives"]):
        return "a midpoint negative fails its margin"
    if any(p["min_r"] <= 1e-6 for p in items["item5_positivity_near_integers"]):
        return "positivity near an integer fails its margin"
    return None


def check_psi(f, out):
    if out.code != 0:
        return f"exit {out.code}"
    res = out.result()
    reports = {r["m"]: r for r in res["reports"]}
    if sorted(reports) != sorted(f["ms"]):
        return "reports for the wrong m"
    top = max(f["ms"])
    if abs(reports[top]["m_times_gap"] - LIMIT_M_TIMES_GAP) > 0.01 * LIMIT_M_TIMES_GAP:
        return f"m * sup_gap at m={top} is {reports[top]['m_times_gap']}, not within 1% of 2/e^2"
    if abs(res["lower_constant"] - LOWER_BOUND_CONSTANT) > 1e-12:
        return "wrong lower-bound constant"
    return None


def check_hankel(f, out):
    if out.code != 1:
        return f"exit {out.code}"
    res = out.result()
    order, v = res["failing_order"], np.array(res["vector"])
    a = ((1.0 + f["x"] ** np.arange(2 * order - 1)) / 2.0) ** f["alpha"]
    h = np.array([[a[i + j] for j in range(order)] for i in range(order)])
    if res["completely_monotone_at_truncation"] is not False or len(v) != order:
        return "verdict or vector shape is wrong"
    value = float(v @ h @ v)
    if not value < 0:
        return f"v^T H v = {value!r} is not negative"
    return None


CHECKS = {
    "power_exists": check_power_exists,
    "union": check_union,
    "poisson": check_poisson,
    "void": check_void,
    "invert": check_invert,
    "accompany": check_accompany,
    "cm_check": check_cm_check,
    "cm_power": check_cm_power,
    "lattice_check": check_lattice,
    "s_set": check_s_set,
    "multi_interval": check_multi_interval,
    "psi": check_psi,
    "hankel": check_hankel,
}

# How each known defect shows; a failure of that invocation that looks different
# is a new defect.
KNOWN_DEFECTS = {
    # scan_S accepts grid points within its 1e-8 margin, so a run of slightly
    # negative points next to an integer becomes a short interval
    "scan-point-sliver": _is_point_sliver,
    # parse_void_text keeps decimals as exact Fractions, so the float band never
    # applies: a rounding-sized negative mass, or V(empty) a rounding away from 1
    "decimal-void-parse": lambda f, out: (
        (out.code == 1 and "not completely monotone" in out.result()["reason"])
        or (out.code == 2 and b"NotAVoidFunctional: V(empty)" in out.stderr)
    ),
    # uint8 matrix products in lattice.py wrap at 256
    "uint8-path-count": lambda f, out: (
        (out.code == 1 and out.result()["kind"] == "NotALattice")
        or (out.code == 2 and b"NotALattice" in out.stderr)
    ),
}


def check(inv, out):
    """Return None for a right answer, else the reason it is wrong."""
    try:
        return CHECKS[inv.check](inv.facts, out)
    except Exception as exc:  # an unreadable answer is a wrong answer
        return f"unreadable answer ({type(exc).__name__}: {exc}); stderr {out.stderr[-200:]!r}"


def is_known_defect(inv, out):
    if inv.known_defect is None:
        return False
    try:
        return bool(KNOWN_DEFECTS[inv.known_defect](inv.facts, out))
    except (ValueError, KeyError):
        return False

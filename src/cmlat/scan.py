"""Structure of the divisibility set S_X = {alpha >= 0 : X_alpha exists}.

The candidate mass q(A) at exponent alpha is an exponential polynomial
sum c_i b_i^alpha in the containment probabilities b_i = P{X subset B}.
This module scans min_A q over an alpha grid to map the interval components
of S_X, bounds root counts by coefficient sign changes, verifies the
simplex-form negativity/boundary facts behind the singleton-support case,
and constructs distributions whose S_X provably has many components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._scalars import coerce_values
from .errors import DomainViolation, SearchFailed
from .randset import RandomSubset, subset_sums

SCAN_MARGIN = 1e-8
REFINE_TOL = 1e-10
EXIST_TOL = 1e-9
CERT_MARGIN = 1e-6
DELTA_LADDER = (
    0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001,
    5e-4, 2e-4, 1e-4, 5e-5, 2e-5, 1e-5, 5e-6, 2e-6, 1e-6,
)
COARSE_LADDER_LEN = 11  # first pass stops at 1e-4; wider windows win when possible
EPS_START = Fraction(1, 4)
MAX_HALVINGS = 60
CERTIFY_BUDGET = 40000


@dataclass(frozen=True)
class ExponentialPolynomial:
    """alpha -> sum c_i * b_i^alpha with positive, pairwise distinct bases.

    Canonical form: equal bases merged, zero coefficients dropped, terms
    sorted by strictly decreasing base.
    """

    terms: tuple

    def __init__(self, terms):
        merged = {}
        for coef, base in terms:
            if base <= 0:
                raise DomainViolation(f"base {base} must be positive")
            merged[base] = merged.get(base, 0) + coef
        canon = tuple(
            (c, b) for b, c in sorted(merged.items(), key=lambda kv: kv[0], reverse=True) if c != 0
        )
        object.__setattr__(self, "terms", canon)

    def __call__(self, alpha) -> float:
        return math.fsum(float(c) * float(b) ** float(alpha) for c, b in self.terms)

    def sign_changes(self) -> int:
        """Sign changes of the coefficients in decreasing-base order.

        Bounds the number of positive zeros of the polynomial (descending
        bases play the role of descending powers in the classical rule).
        """
        signs = [1 if c > 0 else -1 for c, _ in self.terms]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    def grid_values(self, alphas: np.ndarray) -> np.ndarray:
        if not self.terms:
            return np.zeros_like(alphas)
        coefs = np.array([float(c) for c, _ in self.terms])
        bases = np.array([float(b) for _, b in self.terms])
        keep = bases > 0
        coefs, bases = coefs[keep], bases[keep]
        if not len(coefs):
            return np.zeros_like(alphas)
        return coefs @ np.exp(np.outer(np.log(bases), alphas))


def q_poly(x: RandomSubset, a_mask: int) -> ExponentialPolynomial:
    """Candidate-mass polynomial q(A): terms ((-1)^{|A|-|B|}, P{X in B}), B in A.

    Terms with zero containment probability are dropped; they contribute only
    at alpha = 0 where the 0^0 = 1 convention applies outside the polynomial.
    """
    if not 0 <= a_mask < (1 << x.n):
        raise DomainViolation(f"subset mask {a_mask} out of range")
    return _q_from_table(x.containment_table(), a_mask)


def _q_from_table(w, a_mask):
    """q(A) from a containment table w[B] = P{X subset B}."""
    size_a = bin(a_mask).count("1")
    terms = []
    sub = a_mask
    while True:
        if w[sub] > 0:
            sign = -1 if (size_a - bin(sub).count("1")) & 1 else 1
            terms.append((sign, w[sub]))
        if sub == 0:
            break
        sub = (sub - 1) & a_mask
    return ExponentialPolynomial(terms)


def sign_change_bound(poly: ExponentialPolynomial) -> int:
    """Upper bound on the positive zeros of a canonical exponential polynomial."""
    return poly.sign_changes()


# --- interval scan of S_X ------------------------------------------------------


@dataclass(frozen=True)
class IntervalComponent:
    lo: float
    hi: float
    is_point: bool
    margin: float

    def covers(self, alpha, slack=1e-9) -> bool:
        return self.lo - slack <= alpha <= self.hi + slack


@dataclass(frozen=True)
class IntervalSet:
    """Disjoint, sorted components of S_X intersected with the scan domain."""

    components: tuple
    scan_domain: tuple
    grid_step: float

    def covers(self, alpha) -> bool:
        return any(c.covers(alpha) for c in self.components)

    def points(self):
        return tuple(c.lo for c in self.components if c.is_point)

    def intervals(self):
        return tuple((c.lo, c.hi) for c in self.components if not c.is_point)


def scan_S(
    x: RandomSubset,
    T,
    step: float = 0.01,
    margin: float = SCAN_MARGIN,
    refine_tol: float = REFINE_TOL,
) -> IntervalSet:
    """Map S_X over [0, T] by a grid scan of min_A q(A) with refinement.

    Grid points classify as existing when the minimum clears -margin; run
    boundaries are refined by bisection; integers whose neighborhoods are
    negative are force-included as isolated points (they always belong).
    """
    return _scan(x, T, step, margin, refine_tol)[0]


def _scan(x: RandomSubset, T, step, margin=SCAN_MARGIN, refine_tol=REFINE_TOL):
    """The scan behind :func:`scan_S`; also returns the grid rows
    (alpha, min_A q(A), argmin mask), the CSV view.

    One containment table serves every q(A) on the grid and in the refinement.
    """
    if T <= 0 or step <= 0:
        raise DomainViolation("need T > 0 and step > 0")
    w = x.containment_table()
    # q over smaller sets is monotonicity, always >= 0
    masks = [mask for mask in range(1 << x.n) if bin(mask).count("1") >= 2]
    polys = [_q_from_table(w, mask) for mask in masks]

    def min_q(alpha: float) -> float:
        if alpha == 0:
            return 0.0  # X_0 is the empty set; every q vanishes
        return min((p(alpha) for p in polys), default=0.0)

    count = int(round(float(T) / step))
    grid = np.array([i * step for i in range(count + 1)], dtype=float)
    if grid[-1] < float(T) - 1e-12:
        grid = np.append(grid, float(T))
    grid[-1] = float(T)
    if polys:
        table = np.vstack([p.grid_values(grid) for p in polys])
        argmin = np.argmin(table, axis=0)
        vals = table[argmin, np.arange(len(grid))]
        argmin_masks = [masks[i] for i in argmin]
    else:
        vals = np.zeros_like(grid)
        argmin_masks = [0] * len(grid)
    vals[0] = 0.0
    argmin_masks[0] = 0
    rows = [(float(a), float(v), m) for a, v, m in zip(grid, vals, argmin_masks)]
    exists = vals >= -margin

    def _bisect(lo, hi):
        # pred(lo) != pred(hi); returns the transition point to refine_tol
        plo = min_q(lo) >= -margin
        while hi - lo > refine_tol:
            mid = 0.5 * (lo + hi)
            if (min_q(mid) >= -margin) == plo:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    components = []
    i = 0
    npts = len(grid)
    while i < npts:
        if not exists[i]:
            i += 1
            continue
        j = i
        while j + 1 < npts and exists[j + 1]:
            j += 1
        lo = float(grid[i]) if i == 0 else _bisect(float(grid[i - 1]), float(grid[i]))
        hi = float(grid[j]) if j == npts - 1 else _bisect(float(grid[j]), float(grid[j + 1]))
        run_margin = float(np.min(vals[i : j + 1]))
        width_cut = max(step / 2, 4 * refine_tol)
        if hi - lo <= width_cut:
            pos = 0.5 * (lo + hi)
            snapped = round(pos)
            if abs(pos - snapped) <= step and 0 <= snapped <= T and min_q(float(snapped)) >= -margin:
                pos = float(snapped)
            components.append(IntervalComponent(pos, pos, True, run_margin))
        else:
            components.append(IntervalComponent(lo, hi, False, run_margin))
        i = j + 1

    for j in range(int(math.floor(float(T))) + 1):
        if not any(c.covers(j) for c in components):
            mj = min_q(float(j))
            if mj >= -margin:
                components.append(IntervalComponent(float(j), float(j), True, mj))
    components.sort(key=lambda c: c.lo)
    for a, b in zip(components, components[1:]):
        assert a.hi < b.lo, "components must be disjoint and sorted"
    out = IntervalSet(tuple(components), (0.0, float(T)), float(step))
    for j in range(int(math.floor(float(T))) + 1):
        assert out.covers(j), f"integer {j} must belong to S_X"
    return out, rows


# --- simplex forms and Schur condition --------------------------------------------


def simplex_form(x, alpha) -> float:
    """The alternating form 1 + sum over nonempty B of
    [(-1)^{n+1-|B|} s_B^alpha + (-1)^{|B|} (1-s_B)^alpha],  s_B = sum_{i in B} x_i.

    Defined on the closed simplex {x_i >= 0, sum x_i <= 1}; vanishes on its
    boundary and is strictly negative inside for alpha in (n-1, n).
    """
    vals, _ = coerce_values(x)
    n = len(vals)
    if n < 1:
        raise DomainViolation("need at least one coordinate")
    if any(v < 0 for v in vals) or sum(vals) > 1 + 1e-12:
        raise DomainViolation("point must satisfy x_i >= 0 and sum <= 1")
    if alpha <= 0:
        raise DomainViolation("alpha must be positive")
    singletons = [0.0] * (1 << n)
    for i, v in enumerate(vals):
        singletons[1 << i] = float(v)
    sums = subset_sums(singletons, n)
    terms = [1.0]
    a = float(alpha)
    for mask in range(1, 1 << n):
        k = bin(mask).count("1")
        s = min(sums[mask], 1.0)
        sgn_pos = -1.0 if (n + 1 - k) & 1 else 1.0
        sgn_com = -1.0 if k & 1 else 1.0
        terms.append(sgn_pos * s**a + sgn_com * (1.0 - s) ** a)
    return math.fsum(terms)


def singleton_alternating_sum(p, alpha) -> float:
    """Full-ground-set alternating sum sum_B (-1)^{n-|B|} P{X in B}^alpha for a
    singleton-supported X with masses p; strictly negative on the last gap
    (n-2, n-1), zero at the integers up to n-1.

    Internally asserted to equal the simplex form at (p_1, ..., p_{n-1}).
    """
    vals, kind = coerce_values(p)
    n = len(vals)
    if n < 1 or any(v <= 0 for v in vals):
        raise DomainViolation("masses must be positive")
    total = sum(vals)
    bad = total != 1 if kind == "rational" else abs(total - 1.0) > 1e-9
    if bad:
        raise DomainViolation(f"masses sum to {total}, not 1")
    if alpha <= 0:
        raise DomainViolation("alpha must be positive")
    a = float(alpha)
    acc = []
    for mask in range(1, 1 << n):
        s = math.fsum(float(vals[i]) for i in range(n) if mask >> i & 1)
        acc.append((-1.0 if (n - bin(mask).count("1")) & 1 else 1.0) * s**a)
    value = math.fsum(acc)
    if n >= 2:
        check = simplex_form([float(v) for v in vals[:-1]], a)
        scale = max(1.0, math.fsum(abs(t) for t in acc))
        assert abs(value - check) <= 1e-12 * scale, "identity with the simplex form failed"
    return value


def schur_gradient_check(x, alpha, h=None) -> float:
    """Finite-difference Schur-convexity condition
    (x_1 - x_2) (dF/dx_1 - dF/dx_2) for the simplex form; positive on the
    open simplex when x_1 != x_2 and alpha in (n-1, n)."""
    vals = [float(v) for v in x]
    n = len(vals)
    if n < 2:
        raise DomainViolation("need at least two coordinates")
    s = math.fsum(vals)
    if min(vals) <= 0 or s >= 1:
        raise DomainViolation("point must lie in the open simplex")
    if vals[0] == vals[1]:
        raise DomainViolation("condition requires x_1 != x_2")
    if not n - 1 < alpha < n:
        raise DomainViolation(f"alpha must lie in ({n - 1}, {n})")
    room = min(min(vals), 1.0 - s)
    if h is None:
        h = 1e-6 * room
    if not 0 < h < room:
        raise DomainViolation(f"step {h} leaves the domain")

    def shifted(i, sign):
        y = list(vals)
        y[i] += sign * h
        return simplex_form(y, alpha)

    d1 = (shifted(0, +1) - shifted(0, -1)) / (2 * h)
    d2 = (shifted(1, +1) - shifted(1, -1)) / (2 * h)
    return (vals[0] - vals[1]) * (d1 - d2)


@dataclass(frozen=True)
class PowerDifferenceReport:
    """Zeros-at-integers and eventual nonnegativity of the alternating sum
    q(alpha) = sum_A (-1)^{n-|A|} (sum_{i in A} p_i)^alpha for positive p."""

    n: int
    integer_values: tuple
    grid_values: tuple
    negatives: tuple
    tol: float


def power_difference_profile(p, alpha_grid, tol_scale: float = 1e-9) -> PowerDifferenceReport:
    """Evaluate q over the grid; assert |q| small at integers <= n-1 and
    q >= -tol for alpha > n-1; report strictly negative non-integer points."""
    vals, _ = coerce_values(p)
    n = len(vals)
    if n < 1 or any(v <= 0 for v in vals):
        raise DomainViolation("weights must be positive")
    terms = []
    for mask in range(1, 1 << n):
        s = sum(vals[i] for i in range(n) if mask >> i & 1)
        terms.append(((-1) ** ((n - bin(mask).count("1")) & 1), s))
    poly = ExponentialPolynomial(terms)

    def scale_at(alpha):
        return math.fsum(abs(float(c)) * float(b) ** float(alpha) for c, b in poly.terms)

    integer_values = []
    for j in range(1, n):
        qj = poly(j)
        tol = tol_scale * max(1.0, scale_at(j))
        assert abs(qj) <= tol, f"q({j}) = {qj} should vanish"
        integer_values.append((j, qj))
    grid_values = []
    negatives = []
    for alpha in alpha_grid:
        a = float(alpha)
        if a <= 0:
            continue
        qa = poly(a)
        grid_values.append((a, qa))
        tol = tol_scale * max(1.0, scale_at(a))
        if a > n - 1:
            assert qa >= -tol, f"q({a}) = {qa} should be nonnegative beyond n-1"
        elif qa < -tol and abs(a - round(a)) > 1e-12:
            negatives.append((a, qa))
    return PowerDifferenceReport(n, tuple(integer_values), tuple(grid_values), tuple(negatives), tol_scale)


# --- the multi-component construction ----------------------------------------------


@dataclass(frozen=True)
class MultiIntervalCertificate:
    """Constructive evidence that S_X has >= k interval components.

    ``size_masses[s]`` is the per-set probability of each |A| = s (the law is
    exchangeable by construction); ``epsilons`` are the perturbation sizes
    chosen at levels 2..k; ``items`` maps item names to their evidence.
    """

    n: int
    k: int
    epsilons: tuple
    delta: float
    size_masses: tuple
    x: RandomSubset
    items: dict

    def __post_init__(self):
        for s, mass in enumerate(self.size_masses):
            positive = s == 1 or s >= self.n - self.k + 2
            assert (mass > 0) == positive, f"mass pattern violated at size {s}"


def _containment_by_size(n, size_masses):
    """P{X subset B} as a function of |B| for an exchangeable law."""
    return [
        sum(math.comb(b, s) * size_masses[s] for s in range(b + 1)) for b in range(n + 1)
    ]


def _r_polys(n, size_masses):
    """r_b polynomials, one per subset size b = 2..n (q(A) depends on |A| only)."""
    w = _containment_by_size(n, size_masses)
    polys = {}
    for b in range(2, n + 1):
        terms = []
        for a in range(b + 1):
            if w[a] > 0:
                terms.append(((-1) ** ((b - a) & 1) * math.comb(b, a), w[a]))
        polys[b] = ExponentialPolynomial(terms)
    return polys


def _grid(lo, hi, step, include_hi=False):
    step = min(step, max((hi - lo) / 8, 1e-9))  # at least ~8 points per window
    count = max(1, int(math.ceil((hi - lo) / step)))
    pts = [lo + i * step for i in range(count)]
    if include_hi:
        pts.append(hi)
    return np.array([p for p in pts if lo <= p <= hi + 1e-15], dtype=float)


def _certify(n, level, size_masses, delta, grid_step, neg_margin, exist_tol, pos_margin):
    """Check the five structural items for the level-``level`` distribution."""
    polys = _r_polys(n, size_masses)
    report = {}
    ok = True

    pattern = all(
        (size_masses[s] > 0) == (s == 1 or s >= n - level + 2) for s in range(n + 1)
    )
    report["item1_pattern_exact"] = pattern
    ok &= pattern

    mids = []
    for j in range(0, n - level - 1):
        alpha = j + 0.5
        best_b = min(polys, key=lambda b: polys[b](alpha))
        val = polys[best_b](alpha)
        mids.append({"alpha": alpha, "size": best_b, "value": val})
        ok &= val < -neg_margin
    report["item2_midpoint_negatives"] = mids

    exist = []
    for j in range(n - level, n - 1):
        alphas = _grid(float(j), float(j) + delta, grid_step)
        worst = min(min(float(v) for v in polys[b].grid_values(alphas)) for b in polys)
        exist.append({"j": j, "delta": delta, "min_q": worst})
        ok &= worst >= -exist_tol
    report["item3_existence_windows"] = exist

    wits = []
    for j in range(n - level, n - 1):
        alphas = _grid(float(j) + grid_step, float(j) + 1.0 - grid_step, grid_step, include_hi=True)
        best = None
        for b, poly in polys.items():
            vals = poly.grid_values(alphas)
            i = int(np.argmin(vals))
            if best is None or vals[i] < best["value"]:
                best = {"j": j, "alpha": float(alphas[i]), "size": b, "value": float(vals[i])}
        wits.append(best)
        ok &= best is not None and best["value"] < -neg_margin
    report["item4_interior_negatives"] = wits

    near = []
    for j in range(1, n - 1):
        lo = max(grid_step, float(j) - delta)
        alphas = _grid(lo, float(j) + delta, grid_step, include_hi=True)
        for b in range(n - level + 2, n + 1):
            worst = float(np.min(polys[b].grid_values(alphas)))
            near.append({"j": j, "size": b, "min_r": worst})
            ok &= worst > pos_margin
    report["item5_positivity_near_integers"] = near

    return ok, report


def construct_multi_interval(
    n: int,
    k: int,
    grid_step: float = 1e-3,
    eps_start=EPS_START,
    max_halvings: int = MAX_HALVINGS,
    neg_margin: float = CERT_MARGIN,
    exist_tol: float = EXIST_TOL,
    pos_margin: float = CERT_MARGIN,
) -> MultiIntervalCertificate:
    """Build an exchangeable law on [n] whose S_X has >= k interval components.

    Level 2 puts mass (1-eps)/n on singletons and eps on the full set; each
    later level moves eps of mass onto the next smaller set size (total moved
    mass equals eps, subtracted evenly from the currently charged sets).  The
    eps at every level is found by halving until the full item set certifies
    on a grid for some ladder delta (largest first: the negativity windows
    shrink as eps does, so eps and delta are searched jointly); the reported
    delta is the largest value certifying the final distribution.
    """
    if n < 4 or not 2 <= k <= n - 2:
        raise DomainViolation("need n >= 4 and 2 <= k <= n - 2")
    calls = 0
    ladder = DELTA_LADDER[:COARSE_LADDER_LEN]

    def certifies(level, masses):
        nonlocal calls
        for cand in ladder:
            calls += 1
            if calls > CERTIFY_BUDGET:
                raise SearchFailed(
                    "certification budget exhausted",
                    params={"n": n, "k": k, "calls": calls},
                )
            ok, _ = _certify(n, level, masses, cand, grid_step, neg_margin, exist_tol, pos_margin)
            if ok:
                return True
        return False

    def make_masses(level, prev, eps):
        if level == 2:
            masses = [Fraction(0)] * (n + 1)
            masses[1] = (1 - eps) / n
            masses[n] = eps
            return masses if masses[1] > 0 else None
        new_size = n - level + 2
        charged = [1] + [s for s in range(new_size + 1, n + 1)]
        pos_count = sum(math.comb(n, s) for s in charged)
        out = list(prev)
        for s in charged:
            out[s] = out[s] - eps / pos_count
            if out[s] <= 0:
                return None
        out[new_size] = eps / math.comb(n, new_size)
        return out

    def solve(level, prev):
        # depth-first over per-level halvings: a level whose every deeper
        # continuation fails sends the search back here for a smaller eps
        eps = Fraction(eps_start)
        for _ in range(max_halvings):
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
        # retry with the full ladder: deeper levels for larger n need
        # positivity windows below the coarse floor
        ladder = DELTA_LADDER
        chain = solve(2, None)
    if chain is None:
        raise SearchFailed(
            f"no eps chain certified levels 2..{k} within {max_halvings} halvings each",
            params={"n": n, "k": k, "certify_calls": calls},
        )
    epsilons = [eps for eps, _ in chain]
    masses = chain[-1][1]

    delta = None
    final_report = None
    for cand in DELTA_LADDER:
        ok, report = _certify(n, k, masses, cand, grid_step, neg_margin, exist_tol, pos_margin)
        if ok:
            delta = cand
            final_report = report
            break
    assert delta is not None, "final masses certified during the search"

    probs = [Fraction(0)] * (1 << n)
    for mask in range(1 << n):
        probs[mask] = masses[bin(mask).count("1")]
    x = RandomSubset(n, probs)
    total = sum(math.comb(n, s) * masses[s] for s in range(n + 1))
    assert total == 1
    return MultiIntervalCertificate(
        n=n,
        k=k,
        epsilons=tuple(epsilons),
        delta=float(delta),
        size_masses=tuple(masses),
        x=x,
        items=final_report,
    )

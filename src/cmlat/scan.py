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

from ._kernel import _floats, _per_bit, subset_sums
from ._scalars import coerce_values
from .errors import BudgetExceeded, DomainViolation, SearchFailed, _ensure
from .randset import RandomSubset, _containment

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
GRID_POINT_CAP = 10**6
SCAN_BLOCK_BYTES = 4 << 20  # bound on one block of grid rows of q in _scan
COVER_SLACK = 1e-9  # IntervalComponent.covers widens a component by this much
PROFILE_TOL = 1e-9  # power_difference_profile's tolerance, relative to sum |c_i| b_i^alpha


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
    w = x.containment_table()
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

    def covers(self, alpha) -> bool:
        return self.lo - COVER_SLACK <= alpha <= self.hi + COVER_SLACK


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


def scan_S(x: RandomSubset, T, step: float = 0.01) -> IntervalSet:
    """Map S_X over [0, T] by a grid scan of min_A q(A) with refinement.

    Grid points classify as existing when the minimum clears -SCAN_MARGIN;
    run boundaries are refined by bisection to REFINE_TOL; integers whose
    neighborhoods are negative are force-included as isolated points (they
    always belong).
    """
    return _scan(x, T, step)[0]


def _min_q(w, alphas):
    """min over |A| >= 2 of q(A, alpha) and the least mask attaining it, for
    each alpha of a block: q(., alpha) is the subset-Mobius transform of w**alpha.

    ``w`` is the float64 containment table; 0.0**alpha = 0 for alpha > 0.
    """
    n = len(w).bit_length() - 1
    if n < 2:
        return np.zeros(len(alphas)), np.zeros(len(alphas), dtype=int)
    q = _per_bit(w ** alphas[:, None], n, np.subtract)
    # q over smaller sets is monotonicity, always >= 0
    q[:, [0] + [1 << i for i in range(n)]] = np.inf
    masks = np.argmin(q, axis=1)
    return q[np.arange(len(alphas)), masks], masks


def _scan(x: RandomSubset, T, step):
    """The scan behind :func:`scan_S`; also returns the grid rows
    (alpha, min_A q(A), argmin mask), the CSV view.

    One containment table serves the grid (in row blocks of at most
    SCAN_BLOCK_BYTES) and every refinement step (a block of one alpha).
    """
    if not (math.isfinite(T) and math.isfinite(step)):
        raise DomainViolation(f"need finite T and step, got T={T}, step={step}")
    if T <= 0 or step <= 0:
        raise DomainViolation("need T > 0 and step > 0")
    if T / step > GRID_POINT_CAP:
        raise BudgetExceeded(f"grid of T/step = {T / step:.3g} points exceeds cap {GRID_POINT_CAP}")
    w = _floats(_containment(x))

    def min_q(alpha: float) -> float:
        if alpha == 0:
            return 0.0  # X_0 is the empty set; every q vanishes
        return float(_min_q(w, np.array([alpha]))[0][0])

    count = int(round(float(T) / step))
    grid = np.array([i * step for i in range(count + 1)], dtype=float)
    if grid[-1] < float(T) - 1e-12:
        grid = np.append(grid, float(T))
    grid[-1] = float(T)
    vals = np.empty_like(grid)
    argmin_masks = np.empty(len(grid), dtype=int)
    rows_per_block = max(1, SCAN_BLOCK_BYTES // w.nbytes)
    for start in range(0, len(grid), rows_per_block):
        block = slice(start, start + rows_per_block)
        vals[block], argmin_masks[block] = _min_q(w, grid[block])
    vals[0] = 0.0
    argmin_masks[0] = 0
    rows = list(zip(grid.tolist(), vals.tolist(), argmin_masks.tolist()))
    exists = vals >= -SCAN_MARGIN

    def _bisect(lo, hi):
        # pred(lo) != pred(hi); returns the transition point to REFINE_TOL
        plo = min_q(lo) >= -SCAN_MARGIN
        while hi - lo > REFINE_TOL:
            mid = 0.5 * (lo + hi)
            if (min_q(mid) >= -SCAN_MARGIN) == plo:
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
        width_cut = max(step / 2, 4 * REFINE_TOL)
        if hi - lo <= width_cut:
            pos = 0.5 * (lo + hi)
            snapped = round(pos)
            if abs(pos - snapped) <= step and 0 <= snapped <= T and min_q(float(snapped)) >= -SCAN_MARGIN:
                pos = float(snapped)
            components.append(IntervalComponent(pos, pos, True, run_margin))
        else:
            components.append(IntervalComponent(lo, hi, False, run_margin))
        i = j + 1

    for j in range(int(math.floor(float(T))) + 1):
        if not any(c.covers(j) for c in components):
            mj = min_q(float(j))
            if mj >= -SCAN_MARGIN:
                components.append(IntervalComponent(float(j), float(j), True, mj))
    components.sort(key=lambda c: c.lo)
    for a, b in zip(components, components[1:]):
        _ensure(a.hi < b.lo, "components must be disjoint and sorted")
    out = IntervalSet(tuple(components), (0.0, float(T)), float(step))
    for j in range(int(math.floor(float(T))) + 1):
        _ensure(out.covers(j), f"integer {j} must belong to S_X")
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

    Checked internally to equal the simplex form at (p_1, ..., p_{n-1}).
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
        _ensure(abs(value - check) <= 1e-12 * scale, "identity with the simplex form failed")
    return value


def schur_gradient_check(x, alpha, h=None) -> float:
    """Finite-difference Schur-convexity condition
    (x_1 - x_2) (dF/dx_1 - dF/dx_2) for the simplex form; positive on the
    open simplex when x_1 != x_2 and alpha in (n-1, n)."""
    vals = [float(v) for v in x]
    n = len(vals)
    if n < 2:
        raise DomainViolation("need at least two coordinates")
    # coordinates in (0, 1) first: a NaN passes no comparison, and fsum of
    # huge finite coordinates overflows
    if not all(0 < v < 1 for v in vals):
        raise DomainViolation("point must lie in the open simplex")
    s = math.fsum(vals)
    if s >= 1:
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


def power_difference_profile(p, alpha_grid) -> PowerDifferenceReport:
    """Evaluate q over the grid; check |q| small at integers <= n-1 and
    q >= -tol for alpha > n-1; report strictly negative non-integer points.
    Here tol = PROFILE_TOL * max(1, sum |c_i| b_i^alpha)."""
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
        tol = PROFILE_TOL * max(1.0, scale_at(j))
        _ensure(abs(qj) <= tol, f"q({j}) = {qj} should vanish")
        integer_values.append((j, qj))
    grid_values = []
    negatives = []
    for alpha in alpha_grid:
        a = float(alpha)
        if a <= 0:
            continue
        qa = poly(a)
        grid_values.append((a, qa))
        tol = PROFILE_TOL * max(1.0, scale_at(a))
        if a > n - 1:
            _ensure(qa >= -tol, f"q({a}) = {qa} should be nonnegative beyond n-1")
        elif qa < -tol and abs(a - round(a)) > 1e-12:
            negatives.append((a, qa))
    return PowerDifferenceReport(n, tuple(integer_values), tuple(grid_values), tuple(negatives), PROFILE_TOL)


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
            _ensure((mass > 0) == positive, f"mass pattern violated at size {s}")


class _SizeClassLaw:
    """Float evaluation of r_b(alpha) = sum_a (-1)^{b-a} C(b, a) w_a^alpha,
    b = 2..n, for an exchangeable law that charges singletons: q(A) depends on
    b = |A| only, and w_a = P{X subset B} for |B| = a.

    Built once per law.  Rows run a = n..1 (decreasing base), so the terms of
    r_b are the last b rows.
    """

    def __init__(self, n, size_masses):
        _ensure(size_masses[1] > 0, "the law must charge singletons")
        charged = [(s, m) for s, m in enumerate(size_masses) if m]
        self.n = n
        self.size_masses = size_masses
        # w_a summed exactly over the charged sizes, then rounded once
        self.w = [float(sum(math.comb(a, s) * m for s, m in charged if s <= a)) for a in range(n, 0, -1)]
        self.log_w = np.log(self.w)
        self.coefs = {
            b: [(-1.0 if (b - a) & 1 else 1.0) * math.comb(b, a) for a in range(b, 0, -1)]
            for b in range(2, n + 1)
        }
        self.coef_rows = {b: np.array(c) for b, c in self.coefs.items()}

    def value(self, b, alpha: float) -> float:
        """r_b(alpha): an exactly rounded sum of libm powers."""
        return math.fsum(c * w**alpha for c, w in zip(self.coefs[b], self.w[self.n - b :]))

    def grid(self, alphas, sizes) -> np.ndarray:
        """r_b over the grid ``alphas``, one row per b in ``sizes``."""
        powers = np.exp(np.outer(self.log_w, alphas))
        rows = np.empty((len(sizes), len(alphas)))
        for i, b in enumerate(sizes):
            rows[i] = self.coef_rows[b] @ powers[self.n - b :]
        return rows


def _grid(lo, hi, step, include_hi=False):
    step = min(step, max((hi - lo) / 8, 1e-9))  # at least ~8 points per window
    count = max(1, int(math.ceil((hi - lo) / step)))
    pts = lo + np.arange(count) * step
    if include_hi:
        pts = np.append(pts, hi)
    return pts[(lo <= pts) & (pts <= hi + 1e-15)]


# Items 2-5 yield (report entry, whether it holds); _until_failure stops an
# item at its first failing entry, so a failing law costs only what decides it.


def _midpoint_negatives(law, level):
    """Item 2: the least r_b at j + 1/2 is negative, for every j < n - level - 1."""
    for j in range(0, law.n - level - 1):
        alpha = j + 0.5
        vals = {b: law.value(b, alpha) for b in range(2, law.n + 1)}
        best_b = min(vals, key=vals.get)
        yield {"alpha": alpha, "size": best_b, "value": vals[best_b]}, vals[best_b] < -CERT_MARGIN


def _existence_windows(law, level, delta, grid_step):
    """Item 3: every r_b clears -EXIST_TOL on [j, j + delta], for n - level <= j < n - 1."""
    for j in range(law.n - level, law.n - 1):
        worst = float(law.grid(_grid(float(j), float(j) + delta, grid_step), range(2, law.n + 1)).min())
        yield {"j": j, "delta": delta, "min_q": worst}, worst >= -EXIST_TOL


def _interior_negatives(law, level, grid_step):
    """Item 4: some r_b is negative inside (j, j + 1), for n - level <= j < n - 1."""
    sizes = range(2, law.n + 1)
    for j in range(law.n - level, law.n - 1):
        alphas = _grid(float(j) + grid_step, float(j) + 1.0 - grid_step, grid_step, include_hi=True)
        rows = law.grid(alphas, sizes)
        b, i = np.unravel_index(np.argmin(rows), rows.shape)  # least size, then least alpha
        value = float(rows[b, i])
        yield {"j": j, "alpha": float(alphas[i]), "size": sizes[b], "value": value}, value < -CERT_MARGIN


def _positivity_near_integers(law, level, delta, grid_step):
    """Item 5: r_b > CERT_MARGIN within delta of every integer 1..n-2, for b >= n - level + 2."""
    sizes = range(law.n - level + 2, law.n + 1)
    for j in range(1, law.n - 1):
        lo = max(grid_step, float(j) - delta)
        mins = law.grid(_grid(lo, float(j) + delta, grid_step, include_hi=True), sizes).min(axis=1)
        for b, worst in zip(sizes, mins.tolist()):
            yield {"j": j, "size": b, "min_r": worst}, worst > CERT_MARGIN


def _until_failure(checked):
    """The entries up to the first that fails, and whether none did."""
    seen = []
    for entry, holds in checked:
        seen.append(entry)
        if not holds:
            return seen, False
    return seen, True


def _certify(law, level, ladder, grid_step, tick=lambda: None):
    """The first delta of ``ladder`` for which the level-``level`` law passes
    the five structural items, and the report; (None, None) when none does.

    Items 1, 2 and 4 do not depend on delta and are checked once; the first
    failing item ends the check.  ``tick`` is called once per delta of the
    ladder tried, whether or not the fixed items hold.
    """
    n = law.n
    pattern = all(
        (law.size_masses[s] > 0) == (s == 1 or s >= n - level + 2) for s in range(n + 1)
    )
    ok = pattern
    if ok:
        mids, ok = _until_failure(_midpoint_negatives(law, level))
    if ok:
        wits, ok = _until_failure(_interior_negatives(law, level, grid_step))
    for delta in ladder:
        tick()
        if not ok:
            continue
        exist, holds = _until_failure(_existence_windows(law, level, delta, grid_step))
        if not holds:
            continue
        near, holds = _until_failure(_positivity_near_integers(law, level, delta, grid_step))
        if holds:
            return delta, {
                "item1_pattern_exact": pattern,
                "item2_midpoint_negatives": mids,
                "item3_existence_windows": exist,
                "item4_interior_negatives": wits,
                "item5_positivity_near_integers": near,
            }
    return None, None


def construct_multi_interval(n: int, k: int, grid_step: float = 1e-3) -> MultiIntervalCertificate:
    """Build an exchangeable law on [n] whose S_X has >= k interval components.

    Level 2 puts mass (1-eps)/n on singletons and eps on the full set; each
    later level moves eps of mass onto the next smaller set size (total moved
    mass equals eps, subtracted evenly from the currently charged sets).  The
    eps at every level is found by halving, from EPS_START at most
    MAX_HALVINGS times, until the full item set certifies
    on a grid for some ladder delta (largest first: the negativity windows
    shrink as eps does, so eps and delta are searched jointly); the reported
    delta is the largest value certifying the final distribution.  Every
    delta tried counts against CERTIFY_BUDGET.
    """
    if n < 4 or not 2 <= k <= n - 2:
        raise DomainViolation("need n >= 4 and 2 <= k <= n - 2")
    calls = 0
    ladder = DELTA_LADDER[:COARSE_LADDER_LEN]

    def tick():
        nonlocal calls
        calls += 1
        if calls > CERTIFY_BUDGET:
            raise SearchFailed(
                "certification budget exhausted",
                params={"n": n, "k": k, "calls": calls},
            )

    def certifies(level, masses):
        law = _SizeClassLaw(n, masses)
        delta, _ = _certify(law, level, ladder, grid_step, tick)
        return delta is not None

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
        eps = EPS_START
        for _ in range(MAX_HALVINGS):
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
            f"no eps chain certified levels 2..{k} within {MAX_HALVINGS} halvings each",
            params={"n": n, "k": k, "certify_calls": calls},
        )
    epsilons = [eps for eps, _ in chain]
    masses = chain[-1][1]

    law = _SizeClassLaw(n, masses)
    delta, report = _certify(law, k, DELTA_LADDER, grid_step)
    _ensure(delta is not None, "final masses certified during the search")

    probs = [Fraction(0)] * (1 << n)
    for mask in range(1 << n):
        probs[mask] = masses[bin(mask).count("1")]
    x = RandomSubset(n, probs)
    total = sum(math.comb(n, s) * masses[s] for s in range(n + 1))
    _ensure(total == 1, f"size masses sum to {total}, not 1")
    return MultiIntervalCertificate(
        n=n,
        k=k,
        epsilons=tuple(epsilons),
        delta=float(delta),
        size_masses=tuple(masses),
        x=x,
        items=report,
    )

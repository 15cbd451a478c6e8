"""Structure of the divisibility set S_X = {alpha >= 0 : X_alpha exists}.

The candidate mass q(A) at exponent alpha is an exponential polynomial
sum c_i b_i^alpha in the containment probabilities b_i = P{X subset B}.
This module scans min_A q over an alpha grid to map the interval components
of S_X, bounds root counts by coefficient sign changes, verifies the
simplex-form negativity/boundary facts behind the singleton-support case,
and constructs distributions whose S_X provably has many components.
Every power b^alpha is libm's ``pow``; a grid's or a mask table's is one `_kernel._float_power` call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

# imported before numpy, so that numpy's import reuses the memory of compiling randset.py
from .randset import SUM_TOL, RandomSubset, _check_ground, _containment
import numpy as np

from ._kernel import _coerce, _Dense, _float_power, _floats, _int_dtype, _magnitude, _numerators, _per_bit, _to_scalars
from .errors import BudgetExceeded, DomainViolation, SearchFailed, _ensure

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
SCAN_BLOCK_BYTES = 1 << 18  # bound on the rows of q of one _min_q call in _scan
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
        coefs, bases = np.array(self.terms, dtype=float).reshape(-1, 2).T
        return _term_sums(coefs[None], _float_power(bases[:, None], alphas))[0]


def _term_sums(coefs, powers) -> np.ndarray:
    """``coefs @ powers`` for a matrix ``coefs``, each row's terms added in
    the order of the rows of ``powers`` (decreasing base), so the rounding is
    a function of the values alone, not of their memory layout as a BLAS
    product's is.  A zero coefficient adds an exact zero."""
    terms = coefs.T[:, :, None] * powers[:, None, :]
    total = np.zeros(terms.shape[1:])
    for term in terms:
        total += term
    return total


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
    q = _per_bit(_float_power(w, alphas[:, None]), n, np.subtract)
    # q over smaller sets is monotonicity, always >= 0
    q[:, [0] + [1 << i for i in range(n)]] = np.inf
    masks = np.argmin(q, axis=1)
    return q[np.arange(len(alphas)), masks], masks


def _scan(x: RandomSubset, T, step):
    """The scan behind :func:`scan_S`; also returns the grid as three arrays
    (alpha, min_A q(A), argmin mask), the CSV view.

    One containment table serves the grid, the bisection of every run end and
    the integer checks.  Each is one block of alphas, evaluated in chunks whose
    rows of q take at most SCAN_BLOCK_BYTES (one row when a row is larger).
    """
    if not (math.isfinite(T) and math.isfinite(step)):
        raise DomainViolation(f"need finite T and step, got T={T}, step={step}")
    if T <= 0 or step <= 0:
        raise DomainViolation("need T > 0 and step > 0")
    if T / step > GRID_POINT_CAP:
        raise BudgetExceeded(f"grid of T/step = {T / step:.3g} points exceeds cap {GRID_POINT_CAP}")
    w = _floats(_containment(x))
    rows_per_block = max(1, SCAN_BLOCK_BYTES // w.nbytes)

    def min_q(alphas):
        vals = np.empty(len(alphas))
        masks = np.empty(len(alphas), dtype=int)
        for start in range(0, len(alphas), rows_per_block):
            block = slice(start, start + rows_per_block)
            vals[block], masks[block] = _min_q(w, alphas[block])
        zero = alphas == 0  # X_0 is the empty set; every q vanishes
        vals[zero] = 0.0
        masks[zero] = 0
        return vals, masks

    def exists_at(alphas):
        return min_q(np.asarray(alphas, dtype=float))[0] >= -SCAN_MARGIN

    count = int(round(float(T) / step))
    grid = np.asarray(np.arange(count + 1) * step, dtype=float)
    if grid[-1] < float(T) - 1e-12:
        grid = np.append(grid, float(T))
    grid[-1] = float(T)
    vals, argmin_masks = min_q(grid)
    vals[0], argmin_masks[0] = 0.0, 0  # the first point counts as alpha = 0, even as T <= 1e-12
    exists = vals >= -SCAN_MARGIN

    # runs of existing grid points, [first, last]
    padded = np.concatenate([[False], exists, [False]])
    firsts = np.flatnonzero(padded[1:] & ~padded[:-1])
    lasts = np.flatnonzero(padded[:-1] & ~padded[1:]) - 1
    # the grid steps [below, below + 1] that hold a run end: a run's start
    # below its first point, its end above its last
    below = np.concatenate([firsts[firsts > 0] - 1, lasts[lasts < len(grid) - 1]])
    left, right, left_exists = grid[below], grid[below + 1], exists[below]
    while True:  # every bracket bisects to REFINE_TOL; each step evaluates all open midpoints
        open_ = np.flatnonzero(right - left > REFINE_TOL)
        if not len(open_):
            break
        mid = 0.5 * (left[open_] + right[open_])
        same = exists_at(mid) == left_exists[open_]
        left[open_[same]] = mid[same]
        right[open_[~same]] = mid[~same]
    ends = dict(zip(below.tolist(), (0.5 * (left + right)).tolist()))

    components = []
    snaps = {}  # index of a point component -> the integer it snaps to if that exists
    width_cut = max(step / 2, 4 * REFINE_TOL)
    for i, j in zip(firsts.tolist(), lasts.tolist()):
        lo = float(grid[i]) if i == 0 else ends[i - 1]
        hi = float(grid[j]) if j == len(grid) - 1 else ends[j]
        run_margin = float(np.min(vals[i : j + 1]))
        if hi - lo <= width_cut:
            pos = 0.5 * (lo + hi)
            snapped = round(pos)
            if abs(pos - snapped) <= step and 0 <= snapped <= T:
                snaps[len(components)] = snapped
            components.append(IntervalComponent(pos, pos, True, run_margin))
        else:
            components.append(IntervalComponent(lo, hi, False, run_margin))
    for k, snapped_exists in zip(snaps, exists_at(list(snaps.values())).tolist()):
        if snapped_exists:
            components[k] = replace(components[k], lo=float(snaps[k]), hi=float(snaps[k]))

    uncovered = [j for j in range(int(math.floor(float(T))) + 1) if not any(c.covers(j) for c in components)]
    for j, mj in zip(uncovered, min_q(np.array(uncovered, dtype=float))[0].tolist()):
        if mj >= -SCAN_MARGIN:
            components.append(IntervalComponent(float(j), float(j), True, mj))
    components.sort(key=lambda c: c.lo)
    for a, b in zip(components, components[1:]):
        _ensure(a.hi < b.lo, "components must be disjoint and sorted")
    out = IntervalSet(tuple(components), (0.0, float(T)), float(step))
    for j in range(int(math.floor(float(T))) + 1):
        _ensure(out.covers(j), f"integer {j} must belong to S_X")
    return out, (grid, vals, argmin_masks)


# --- simplex forms and Schur condition --------------------------------------------
# Each refuses more than GROUND_CAP points, and a NaN, infinite or out-of-float-range
# alpha, before its 2^n tables.


def _float_of(value, message) -> float:
    """``float(value)``; a NaN or infinite value, or one beyond the float range,
    raises DomainViolation(``message`` with the value shown).  The bound is
    compared as a Python float, so 10**400 is refused before ``float`` raises
    OverflowError (an np.float64 bound overflows on the comparison too)."""
    if not -sys.float_info.max <= value <= sys.float_info.max:
        shown = value if isinstance(value, float) else "a value beyond the float range"
        raise DomainViolation(message.format(shown))
    return float(value)


def _set_sums(d: _Dense) -> _Dense:
    """s_B, the sum of the values of ``d`` (a table from `_coerce`) at the
    i in B (in index order), for every mask B.  A sum has at most n terms,
    so exact sums stay int64 while n times the largest value fits."""
    n = len(d.values)
    table = np.zeros(1 << n, dtype=float if d.den is None else _int_dtype([_magnitude(d.values)], n))
    table[1 << np.arange(n)] = d.values
    return _Dense(_per_bit(table, n, np.add), d.den)


def _sizes(n) -> np.ndarray:
    """|B| for every mask B."""
    return _set_sums(_Dense(np.ones(n, dtype=np.int64), 1)).values


def simplex_form(x, alpha) -> float:
    """The alternating form 1 + sum over nonempty B of
    [(-1)^{n+1-|B|} s_B^alpha + (-1)^{|B|} (1-s_B)^alpha],  s_B = sum_{i in B} x_i.

    Defined on the closed simplex {x_i >= 0, sum x_i <= 1}; vanishes on its
    boundary and is strictly negative inside for alpha in (n-1, n).
    """
    vals, d = _coerce(x)
    n = len(vals)
    if n < 1:
        raise DomainViolation("need at least one coordinate")
    _check_ground(n)
    if any(v < 0 for v in vals) or sum(vals) > 1 + 1e-12:
        raise DomainViolation("point must satisfy x_i >= 0 and sum <= 1")
    if not alpha > 0:  # NaN too: a NaN power would pass for a value
        raise DomainViolation(f"alpha must be positive and finite, got {alpha}")
    a = _float_of(alpha, "alpha must be positive and finite, got {}")
    s = np.minimum(_set_sums(_Dense(_floats(d))).values[1:], 1.0)
    k = _sizes(n)[1:]
    terms = np.where((n + 1 - k) & 1, -1.0, 1.0) * _float_power(s, a)
    terms += np.where(k & 1, -1.0, 1.0) * _float_power(1.0 - s, a)
    return math.fsum([1.0, *terms.tolist()])


def singleton_alternating_sum(p, alpha) -> float:
    """Full-ground-set alternating sum sum_B (-1)^{n-|B|} P{X in B}^alpha for a
    singleton-supported X with masses p; strictly negative on the last gap
    (n-2, n-1), zero at the integers up to n-1.

    Checked internally to equal the simplex form at (p_1, ..., p_{n-1}).
    """
    vals, d = _coerce(p)
    n = len(vals)
    if n < 1 or any(v <= 0 for v in vals):
        raise DomainViolation("masses must be positive")
    _check_ground(n)
    total = sum(vals)
    bad = total != 1 if d.den is not None else abs(total - 1.0) > SUM_TOL
    if bad:
        raise DomainViolation(f"masses sum to {total}, not 1")
    if not alpha > 0:  # NaN too: a NaN power would pass for a value
        raise DomainViolation(f"alpha must be positive and finite, got {alpha}")
    a = _float_of(alpha, "alpha must be positive and finite, got {}")
    floats = _floats(d).tolist()
    # s_B: the rounded masses summed exactly, over a power of two, then rounded once (their fsum)
    s = _floats(_set_sums(_coerce(map(Fraction, floats))[1]))[1:]
    acc = np.where((n - _sizes(n)[1:]) & 1, -1.0, 1.0) * _float_power(s, a)
    value = math.fsum(acc.tolist())
    if n >= 2:
        check = simplex_form(floats[:-1], a)
        scale = max(1.0, math.fsum(np.abs(acc).tolist()))
        # s_B^(a-1) added in mask order over the B that hold the last point
        slope = float(np.cumsum(_float_power(s[(1 << (n - 1)) - 1 :], a - 1))[-1])
        # the simplex form reads 1 - s_B where the masses give (sum p) - s_B:
        # to first order the sum's error moves each of those terms by a s_B^(a-1)
        drift = abs(total - 1) * a * slope
        _ensure(abs(value - check) <= 1e-12 * scale + drift, "identity with the simplex form failed")
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
    vals, d = _coerce(p)
    n = len(vals)
    if n < 1 or any(v <= 0 for v in vals):
        raise DomainViolation("weights must be positive")
    _check_ground(n)
    alphas = [_float_of(alpha, "grid entries must be finite, got {}") for alpha in alpha_grid]
    # equal sums merge here, so only the distinct ones become Python scalars
    sums = _set_sums(d)
    bases, which = np.unique(sums.values[1:], return_inverse=True)
    coefs = np.zeros(len(bases), dtype=np.int64)
    np.add.at(coefs, which, np.where((n - _sizes(n)[1:]) & 1, -1, 1))
    poly = ExponentialPolynomial(zip(coefs.tolist(), _to_scalars(_Dense(bases, sums.den))))

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
    for a in alphas:
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
    r_b are the last b rows: ``coefs[b]`` is zero on the others.
    """

    def __init__(self, n, size_masses):
        _ensure(size_masses[1] > 0, "the law must charge singletons")
        charged = [(s, m) for s, m in enumerate(size_masses) if m]
        self.n = n
        self.size_masses = size_masses
        # w_a summed exactly over the charged sizes, then rounded once
        self.w = [float(sum(math.comb(a, s) * m for s, m in charged if s <= a)) for a in range(n, 0, -1)]
        self.coefs = np.zeros((n + 1, n))
        for b in range(2, n + 1):
            self.coefs[b, n - b :] = [(-1.0 if (b - a) & 1 else 1.0) * math.comb(b, a) for a in range(b, 0, -1)]

    def grid(self, alphas, sizes) -> np.ndarray:
        """r_b over the grid ``alphas``, one row per b in ``sizes``."""
        return _term_sums(self.coefs[list(sizes)], _float_power(np.array(self.w)[:, None], alphas))


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
    n = law.n
    alphas = np.arange(n - level - 1) + 0.5
    powers = _float_power(np.array(law.w)[:, None], alphas)
    for j, alpha in enumerate(alphas.tolist()):
        # r_b(alpha): an exactly rounded sum of libm powers
        vals = {b: math.fsum((law.coefs[b, n - b :] * powers[n - b :, j]).tolist()) for b in range(2, n + 1)}
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
    delta tried counts against CERTIFY_BUDGET.  ``grid_step`` must be finite and
    in [1/GRID_POINT_CAP, 1/2): every unit window holds points, but not too many.
    An n above the ground-set cap raises SizeLimitExceeded before the search.
    """
    if n < 4 or not 2 <= k <= n - 2:
        raise DomainViolation("need n >= 4 and 2 <= k <= n - 2")
    _check_ground(n)  # before the search, which ends in a table of 2^n masses
    if not (math.isfinite(grid_step) and 0 < grid_step < 0.5):
        raise DomainViolation(f"grid step must be finite and in (0, 1/2), got {grid_step}")
    if grid_step < 1 / GRID_POINT_CAP:
        raise BudgetExceeded(f"grid step {grid_step} puts more than {GRID_POINT_CAP} points in a unit window")
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
            if masses is not None:
                delta, report = _certify(_SizeClassLaw(n, masses), level, ladder, grid_step, tick)
                if delta is not None:
                    rest = [] if level == k else solve(level + 1, masses)
                    if rest is not None:
                        return [(eps, masses, delta, report)] + rest
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
    # the ladder is DELTA_LADDER or a prefix of it, so the delta that certified
    # the last law is the first of DELTA_LADDER to certify it
    epsilons = [eps for eps, *_ in chain]
    _, masses, delta, report = chain[-1]

    nums, den = _numerators(masses)  # each set B has the mass masses[|B|]
    by_size = np.array(nums, dtype=_int_dtype(nums, 1 << n))
    x = RandomSubset._from_dense(n, _Dense(by_size[_sizes(n)], den))
    return MultiIntervalCertificate(
        n=n,
        k=k,
        epsilons=tuple(epsilons),
        delta=float(delta),
        size_masses=tuple(masses),
        x=x,
        items=report,
    )

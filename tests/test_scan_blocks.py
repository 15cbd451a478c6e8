"""The scan in bounded blocks, against the per-alpha scan it replaced.

``_reference_scan`` is the earlier ``_scan``: one grid list, and each run end
bisected on its own, one alpha per ``_min_q`` call.  The block scan must give
the same components, margins and grid rows, bit for bit, whatever the block.
"""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlat import scan
from cmlat._kernel import _floats
from cmlat.errors import _ensure
from cmlat.randset import RandomSubset, _containment, singleton_set, uniform_singleton
from cmlat.scan import REFINE_TOL, SCAN_MARGIN, IntervalComponent, IntervalSet


def _reference_scan(x, T, step):
    w = _floats(_containment(x))

    def min_q(alpha):
        if alpha == 0:
            return 0.0
        return float(scan._min_q(w, np.array([alpha]))[0][0])

    count = int(round(float(T) / step))
    grid = np.array([i * step for i in range(count + 1)], dtype=float)
    if grid[-1] < float(T) - 1e-12:
        grid = np.append(grid, float(T))
    grid[-1] = float(T)
    vals, argmin_masks = scan._min_q(w, grid)
    vals[0] = 0.0
    argmin_masks[0] = 0
    rows = list(zip(grid.tolist(), vals.tolist(), argmin_masks.tolist()))
    exists = vals >= -SCAN_MARGIN

    def _bisect(lo, hi):
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
    return IntervalSet(tuple(components), (0.0, float(T)), float(step)), rows


def _grid_rows(grid):
    return list(zip(*(column.tolist() for column in grid)))


@st.composite
def laws(draw):
    n = draw(st.integers(2, 6))
    if draw(st.booleans()):  # singleton-supported: S_X has gaps below n - 1
        raw = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
        return singleton_set(*[Fraction(r, sum(raw)) for r in raw])
    probs = [0] * (1 << n)
    for mask, weight in draw(st.lists(st.tuples(st.integers(0, (1 << n) - 1), st.integers(1, 9)), min_size=1,
                                      max_size=6)):
        probs[mask] += weight
    return RandomSubset(n, [Fraction(p, sum(probs)) for p in probs])


@settings(max_examples=60, deadline=None)
@given(laws(), st.floats(0.05, 8.0), st.sampled_from([0.01, 0.03, 0.1, 0.25, 0.37]),
       st.sampled_from(["default", "one row", "three rows"]))
def test_block_scan_is_the_per_alpha_scan(x, T, step, block):
    want, want_rows = _reference_scan(x, T, step)
    with pytest.MonkeyPatch.context() as mp:
        if block != "default":
            mp.setattr(scan, "SCAN_BLOCK_BYTES", (3 * 8 << x.n) if block == "three rows" else 1)
        got, grid = scan._scan(x, T, step)
    assert repr(got) == repr(want)
    assert _grid_rows(grid) == want_rows


def _counting_min_q(monkeypatch):
    """Wrap ``_min_q``; the returned list gets (rows, bound) for every call."""
    calls = []
    inner = scan._min_q

    def min_q(w, alphas):
        calls.append((len(alphas), max(1, scan.SCAN_BLOCK_BYTES // w.nbytes)))
        return inner(w, alphas)

    monkeypatch.setattr(scan, "_min_q", min_q)
    return calls


@pytest.mark.parametrize("block", [None, 3 * 8 << 6, 1])
def test_no_min_q_call_exceeds_the_block(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(scan, "SCAN_BLOCK_BYTES", block)
    calls = _counting_min_q(monkeypatch)
    rng = random.Random(3)
    raw = [rng.randint(1, 9) for _ in range(6)]
    for x, T in ((uniform_singleton(9), 10.0), (singleton_set(*[Fraction(r, sum(raw)) for r in raw]), 7.0)):
        scan._scan(x, T, 0.01)
    assert all(rows <= bound for rows, bound in calls)
    assert any(rows == bound for rows, bound in calls)  # the grid fills its blocks


def test_refinement_bisects_every_run_end_in_lockstep(monkeypatch):
    # the grid, then one block per bisection step (about log2(step / REFINE_TOL)),
    # then the snap and integer checks: not one call per midpoint
    calls = _counting_min_q(monkeypatch)
    scan._scan(uniform_singleton(9), 10.0, 0.01)
    assert len(calls) < 60


@pytest.mark.parametrize("T, limit_mib", [(10, 1), (999, 8)])
def test_scan_memory_is_bounded(T, limit_mib):
    x = uniform_singleton(9)
    tracemalloc.start()
    try:
        scan._scan(x, T, 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib << 20

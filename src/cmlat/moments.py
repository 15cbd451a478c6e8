"""Completely monotone sequences, Hausdorff moments, and Hankel positivity.

A sequence is c.m. when every iterated backward difference ((-D)^k a)_j is
nonnegative; equivalently it is the moment sequence of a positive measure on
[0, 1], in which case every Hankel section a_{i+j} is positive semidefinite.
Fractional powers of the two-atom moment sequence (1 + x^k)/2 violate Hankel
positivity at a small order, which is the counterexample machinery here.
Each sequence is a `_kernel._Table`; every check reads its dense table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._kernel import _coerce, _floats, _power, _product, _Table
from ._scalars import RATIONAL, is_integral
from .errors import BudgetExceeded, DomainViolation, InsufficientLength, SearchBudgetExceeded, _ensure

PSD_OK_REL = 1e-10
PSD_BAD_REL = 1e-8
DIFF_TOL_REL = 1e-12
ORDER_CAP = 64


@dataclass(frozen=True)
class MomentSequence(_Table):
    """Finite nonnegative sequence a_0..a_K, optionally tied to its atoms.

    When ``atoms`` is present (pairs (weight, location) with locations in
    [0, 1]) the values are exactly the power sums sum w x^k; values given
    with atoms are checked against them.
    """

    values: tuple
    atoms: tuple | None = None

    _HEAD = "atoms"

    def __post_init__(self):
        super().__post_init__()
        if self.atoms is not None:
            want = MomentSequence.from_atoms(self.atoms, len(self))
            exact = self.kind == want.kind == RATIONAL
            for k, (v, w) in enumerate(zip(self.values, want.values)):
                same = v == w if exact else abs(float(v) - float(w)) <= 1e-12 * max(1.0, abs(float(w)))
                _ensure(same, f"moment {k} disagrees with the atoms")

    def _check(self):
        if self._dense.values.min(initial=0) < 0:
            raise DomainViolation("moment sequence entries must be nonnegative")
        if self.atoms is not None:
            object.__setattr__(self, "atoms", tuple((w, x) for w, x in self.atoms))
            if any(w < 0 or not 0 <= x <= 1 for w, x in self.atoms):
                raise DomainViolation("atoms need weight >= 0 and location in [0, 1]")

    @classmethod
    def from_atoms(cls, atoms, length):
        atoms = tuple((w, x) for w, x in atoms)
        return cls._from_dense(atoms, _coerce([sum(w * x**k for w, x in atoms) for k in range(length)])[1])

    def __len__(self):
        return len(self._dense.values)

    def power(self, alpha):
        """Pointwise power; the generating atoms are dropped (powers of moment
        sequences are generally not moment sequences)."""
        return MomentSequence._from_dense(None, _power(self._dense, alpha))

    def pointwise_product(self, other):
        return MomentSequence._from_dense(None, _product(self._dense, other._dense))


def two_atom_sequence(x, length) -> MomentSequence:
    """Moments (1 + x^k)/2 of the measure (delta_1 + delta_x)/2."""
    if not 0 < x < 1:
        raise DomainViolation("the second atom must sit strictly inside (0, 1)")
    half = Fraction(1, 2) if not isinstance(x, float) else 0.5
    return MomentSequence.from_atoms([(half, 1 if not isinstance(x, float) else 1.0), (half, x)], length)


def finite_diff_cm_check(seq: MomentSequence, max_order: int):
    """Check ((-D)^k a)_j >= 0 for k <= max_order and all admissible j.

    Returns ``(True, None)`` or ``(False, (k, j))`` with the first violation
    in (k, j) scan order.  Exact sequences compare their numerators, as
    Python ints, with 0.
    """
    if len(seq) < max_order + 1:
        raise InsufficientLength(f"need {max_order + 1} terms, have {len(seq)}")
    d = seq._dense
    row = d.values if d.den is None else d.values.astype(object)
    tol = 0 if d.den is not None else DIFF_TOL_REL * max(1.0, float(np.abs(row).max(initial=0.0)))
    for k in range(max_order + 1):
        bad = np.flatnonzero(row < -tol)
        if bad.size:
            return False, (k, int(bad[0]))
        row = row[:-1] - row[1:]
        if not row.size:
            break
    return True, None


@dataclass(frozen=True)
class HankelVerdict:
    psd: bool
    indeterminate: bool
    order: int
    min_eigenvalue: float
    trace: float
    vector: tuple | None

    def __bool__(self):
        return self.psd


def hankel_psd_check(seq: MomentSequence, order: int) -> HankelVerdict:
    """Positive-semidefiniteness verdict for the order-n Hankel section
    m_ij = a_{i+j} (0-based i, j), read from the dense table as floats.

    Smallest eigenvalue >= -1e-10 trace counts as psd, below -1e-8 trace as
    violated with the eigenvector as certificate, in between indeterminate.
    """
    if order < 1:
        raise DomainViolation("order must be positive")
    if len(seq) < 2 * order - 1:
        raise InsufficientLength(f"order {order} needs {2 * order - 1} terms, have {len(seq)}")
    i = np.arange(order)
    h = _floats(seq._dense)[i[:, None] + i]
    eigvals, eigvecs = np.linalg.eigh(h)
    lam = float(eigvals[0])
    trace = float(np.trace(h))
    scale = max(trace, 1e-300)
    psd = lam >= -PSD_OK_REL * scale
    violated = lam < -PSD_BAD_REL * scale
    vector = None
    if not psd:
        v = eigvecs[:, 0]
        if float(v @ h @ v) < 0:
            vector = tuple(float(t) for t in v)
        if violated:
            _ensure(vector is not None, "certificate vector must witness the violation")
    return HankelVerdict(psd, not psd and not violated, order, lam, trace, vector)


@dataclass(frozen=True)
class HankelCertificate:
    """A failing Hankel order for a fractional power of a moment sequence.

    ``decisive`` marks eigenvalues below the hard -1e-8 trace threshold;
    smaller genuine violations (large alpha decays them fast) stop the sweep
    too but are flagged as band-indeterminate.
    """

    x: float
    alpha: float
    order: int
    min_eigenvalue: float
    trace: float
    vector: tuple
    decisive: bool


def _hankel_sweep(x, alpha, order_cap):
    """The verdicts at orders 2..order_cap (at most ORDER_CAP) for
    ((1 + x^k)/2)^alpha: entry k depends only on k, so every order reads its
    section of one power."""
    if order_cap < 2:
        raise DomainViolation(f"need orders up to at least 2, got {order_cap}")
    if order_cap > ORDER_CAP:
        raise BudgetExceeded(f"orders up to {order_cap} exceed the cap {ORDER_CAP}")
    seq = two_atom_sequence(x, 2 * order_cap - 1).power(alpha)
    return (hankel_psd_check(seq, order) for order in range(2, order_cap + 1))


def two_atom_power_counterexample(x, alpha, order_cap: int = ORDER_CAP) -> HankelCertificate:
    """Sweep Hankel orders until ((1 + x^k)/2)^alpha fails positivity.

    Requires 0 < x < 1 and a non-integer exponent; integer powers stay
    moment sequences and never fail.  The failing order is expected at most
    ceil(alpha) + 2.
    """
    if not 0 < x < 1:
        raise DomainViolation("x must lie strictly inside (0, 1)")
    if not math.isfinite(alpha):
        raise DomainViolation(f"alpha must be finite, got {alpha}")
    if alpha <= 0 or is_integral(alpha):
        raise DomainViolation("alpha must be positive and non-integer")
    for v in _hankel_sweep(float(x), float(alpha), order_cap):
        if not v.psd and v.vector is not None:
            return HankelCertificate(float(x), float(alpha), v.order, v.min_eigenvalue, v.trace, v.vector,
                                     decisive=not v.indeterminate)
    raise SearchBudgetExceeded(f"no Hankel violation up to order {order_cap}")


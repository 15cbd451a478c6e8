"""Completely monotone sequences, Hausdorff moments, and Hankel positivity.

A sequence is c.m. when every iterated backward difference ((-D)^k a)_j is
nonnegative; equivalently it is the moment sequence of a positive measure on
[0, 1], in which case every Hankel section a_{i+j} is positive semidefinite.
Fractional powers of the two-atom moment sequence (1 + x^k)/2 violate Hankel
positivity at a small order, which is the counterexample machinery here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from ._scalars import FLOAT, RATIONAL, coerce_values, is_integral, pow_scalar
from .errors import DomainViolation, InsufficientLength, SearchBudgetExceeded, _ensure

PSD_OK_REL = 1e-10
PSD_BAD_REL = 1e-8
DIFF_TOL_REL = 1e-12
ORDER_CAP = 64


@dataclass(frozen=True)
class MomentSequence:
    """Finite nonnegative sequence a_0..a_K, optionally tied to its atoms.

    When ``atoms`` is present (pairs (weight, location) with locations in
    [0, 1]) the values are exactly the power sums sum w x^k.
    """

    values: tuple
    atoms: tuple | None = None

    def __init__(self, values, atoms=None):
        vals, _ = coerce_values(values)
        if any(v < 0 for v in vals):
            raise DomainViolation("moment sequence entries must be nonnegative")
        if atoms is not None:
            atoms = tuple((w, x) for w, x in atoms)
            for w, x in atoms:
                if w < 0 or not 0 <= x <= 1:
                    raise DomainViolation("atoms need weight >= 0 and location in [0, 1]")
            for k, v in enumerate(vals):
                want = sum(w * pow_scalar(x, k) for w, x in atoms)
                if isinstance(v, float) or isinstance(want, float):
                    same = abs(float(v) - float(want)) <= 1e-12 * max(1.0, abs(float(want)))
                else:
                    same = v == want
                _ensure(same, f"moment {k} disagrees with the atoms")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "atoms", atoms)

    @classmethod
    def from_atoms(cls, atoms, length):
        atoms = tuple(atoms)
        values = [sum(w * pow_scalar(x, k) for w, x in atoms) for k in range(length)]
        return cls(values, atoms)

    def __len__(self):
        return len(self.values)

    @property
    def kind(self):
        return RATIONAL if all(not isinstance(v, float) for v in self.values) else FLOAT

    def power(self, alpha):
        """Pointwise power; the generating atoms are dropped (powers of moment
        sequences are generally not moment sequences)."""
        if alpha < 0:
            raise DomainViolation("exponent must be nonnegative")
        return MomentSequence([pow_scalar(v, alpha) for v in self.values])

    def pointwise_product(self, other):
        k = min(len(self), len(other))
        return MomentSequence([a * b for a, b in zip(self.values[:k], other.values[:k])])


def two_atom_sequence(x, length) -> MomentSequence:
    """Moments (1 + x^k)/2 of the measure (delta_1 + delta_x)/2."""
    if not 0 < x < 1:
        raise DomainViolation("the second atom must sit strictly inside (0, 1)")
    half = Fraction(1, 2) if not isinstance(x, float) else 0.5
    return MomentSequence.from_atoms([(half, 1 if not isinstance(x, float) else 1.0), (half, x)], length)


def finite_diff_cm_check(seq: MomentSequence, max_order: int):
    """Check ((-D)^k a)_j >= 0 for k <= max_order and all admissible j.

    Returns ``(True, None)`` or ``(False, (k, j))`` with the first violation
    in (k, j) scan order.
    """
    if len(seq) < max_order + 1:
        raise InsufficientLength(f"need {max_order + 1} terms, have {len(seq)}")
    rational = seq.kind == RATIONAL
    scale = max((abs(float(v)) for v in seq.values), default=0.0)
    tol = 0 if rational else DIFF_TOL_REL * max(1.0, scale)
    row = list(seq.values)
    for k in range(max_order + 1):
        for j, v in enumerate(row):
            if v < -tol:
                return False, (k, j)
        row = [a - b for a, b in zip(row, row[1:])]
        if not row:
            break
    return True, None


@dataclass(frozen=True)
class HankelMatrix:
    """Section m_ij = a_{i+j-2} (1-based i, j) of the moment array."""

    order: int
    entries: tuple

    @classmethod
    def from_sequence(cls, seq: MomentSequence, order: int):
        if order < 1:
            raise DomainViolation("order must be positive")
        if len(seq) < 2 * order - 1:
            raise InsufficientLength(f"order {order} needs {2 * order - 1} terms, have {len(seq)}")
        rows = tuple(
            tuple(seq.values[i + j] for j in range(order)) for i in range(order)
        )
        return cls(order, rows)

    def as_array(self) -> np.ndarray:
        return np.array([[float(v) for v in row] for row in self.entries], dtype=float)


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
    """Positive-semidefiniteness verdict for the order-n Hankel section.

    Smallest eigenvalue >= -1e-10 trace counts as psd, below -1e-8 trace as
    violated with the eigenvector as certificate, in between indeterminate.
    """
    h = HankelMatrix.from_sequence(seq, order).as_array()
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
    return HankelVerdict(
        psd=psd,
        indeterminate=not psd and not violated,
        order=order,
        min_eigenvalue=lam,
        trace=trace,
        vector=vector,
    )


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
    source: str = "two-atom"


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
    for order in range(2, order_cap + 1):
        seq = two_atom_sequence(float(x), 2 * order - 1).power(float(alpha))
        verdict = hankel_psd_check(seq, order)
        if not verdict.psd and verdict.vector is not None:
            return HankelCertificate(
                x=float(x),
                alpha=float(alpha),
                order=order,
                min_eigenvalue=verdict.min_eigenvalue,
                trace=verdict.trace,
                vector=verdict.vector,
                decisive=not verdict.indeterminate,
            )
    raise SearchBudgetExceeded(f"no Hankel violation up to order {order_cap}")


def laplace_power_counterexample(y, alpha) -> HankelCertificate:
    """Continuous bridge: g(t) = (1 + e^{-t y})/2 sampled at integers is the
    two-atom sequence with x = e^{-y}; the same Hankel certificate refutes
    complete monotonicity of g^alpha."""
    if y <= 0:
        raise DomainViolation("y must be positive")
    cert = two_atom_power_counterexample(math.exp(-float(y)), alpha)
    return replace(cert, source=f"laplace y={float(y)!r}")

"""Gaussian periods and their absolute power sums (floating point path).

eta[a] sums e^(2 pi i x / p) over the coset g^a <g^d>, giving d complex
numbers whose absolute n-th powers are summed into the power sums checked
against the exact formulas in `moments`.
"""

from dataclasses import dataclass

import numpy as np

from .field_core import FieldContext


@dataclass(frozen=True)
class PowerSumValue:
    n: int
    value: float


@dataclass(frozen=True)
class PeriodVector:
    ctx: FieldContext
    eta: np.ndarray  # d complex values
    extra_eigenvalue: float  # (p-1)/d


def _unit_roots(ctx: FieldContext, residues: np.ndarray) -> np.ndarray:
    # residues already reduced to 0..p-1, so 2*pi*x/p stays small-argument
    return np.exp(2j * np.pi * residues / ctx.p)


def compute_periods(ctx: FieldContext) -> PeriodVector:
    """Direct summation of k unit-circle terms per class, ascending power order."""
    eta = np.empty(ctx.d, dtype=np.complex128)
    for a in range(ctx.d):
        eta[a] = _unit_roots(ctx, ctx.cosets[a]).sum()
    return PeriodVector(ctx=ctx, eta=eta, extra_eigenvalue=(ctx.p - 1) / ctx.d)


def power_sum_direct(pv: PeriodVector, n: int) -> PowerSumValue:
    """Sum of |eta|^n over the d classes, via floating-point moduli."""
    if n < 1:
        raise ValueError("n must be >= 1")
    value = float(np.sum(np.abs(pv.eta) ** n))
    return PowerSumValue(n=n, value=value)


def gauss_sum_aggregate(ctx: FieldContext) -> complex:
    """Sum of e^(2 pi i n^d / p) over n = 0..p-1.

    Each element of the index-d subgroup is a d-th power exactly d times, so
    this equals 1 + d*eta[0]; callers check that identity.  The exponent here
    is d, not k: summing n^k instead does not reproduce 1 + d*eta[0].
    """
    return complex(_unit_roots(ctx, ctx.dth_powers()).sum())

"""Gaussian periods and their absolute power sums (floating point path).

eta[a] sums e^(2 pi i x / p) over the coset g^a <g^d>, giving d complex
numbers whose absolute n-th powers are summed into the power sums checked
against the exact formulas in `moments`.
"""

from dataclasses import dataclass

import numpy as np

from .field_core import FieldContext


@dataclass(frozen=True)
class PeriodVector:
    ctx: FieldContext
    eta: np.ndarray  # d complex values


def compute_periods(ctx: FieldContext) -> PeriodVector:
    """Direct summation of k unit-circle terms per class, ascending power order."""
    eta = np.empty(ctx.d, dtype=np.complex128)
    for a in range(ctx.d):
        # residues already reduced to 0..p-1, so 2*pi*x/p stays small-argument
        eta[a] = np.exp(2j * np.pi * ctx.cosets[a] / ctx.p).sum()
    return PeriodVector(ctx=ctx, eta=eta)


def power_sum_direct(pv: PeriodVector, n: int) -> float:
    """Sum of |eta|^n over the d classes, via floating-point moduli."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(np.sum(np.abs(pv.eta) ** n))

"""Gaussian periods and their absolute power sums (floating point path).

eta[a] sums e^(2 pi i x / p) over the coset g^a <g^d>, giving d complex
numbers whose absolute n-th powers are summed into the power sums checked
against the exact formulas in `moments`.
"""

from dataclasses import dataclass

import numpy as np

from .field_core import FieldContext


# Largest number of exponentials evaluated at once (64 KiB of complex128):
# compute_periods takes max(1, PERIOD_CHUNK // k) whole classes per block, so
# its temporaries stay bounded while tiny cosets share one numpy call.
PERIOD_CHUNK = 4096


@dataclass(frozen=True)
class PeriodVector:
    ctx: FieldContext
    eta: np.ndarray  # d complex values


def compute_periods(ctx: FieldContext) -> PeriodVector:
    """Direct summation of k unit-circle terms per class, ascending power order.

    The (d, k) coset array is walked in blocks of whole rows; each row's sum
    is the same pairwise sum over the same k terms as a per-class loop, so
    eta is bitwise identical to summing one class at a time.
    """
    eta = np.empty(ctx.d, dtype=np.complex128)
    rows = max(1, PERIOD_CHUNK // ctx.k)
    for a in range(0, ctx.d, rows):
        # residues already reduced to 0..p-1, so 2*pi*x/p stays small-argument;
        # the order 2j*pi*x/p fixes the bits of eta, which JSON rows print
        block = ctx.cosets[a:a + rows]
        eta[a:a + rows] = np.exp(2j * np.pi * block / ctx.p).sum(axis=1)
    return PeriodVector(ctx=ctx, eta=eta)


def power_sum_direct(pv: PeriodVector, n: int) -> float:
    """Sum of |eta|^n over the d classes, via floating-point moduli."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(np.sum(np.abs(pv.eta) ** n))

"""Gaussian periods and their absolute power sums (floating point path).

eta[a] sums e^(2 pi i x / p) over the coset g^a <g^d>, giving d complex
numbers whose absolute n-th powers are summed into the power sums checked
against the exact formulas in `moments`.
"""

from dataclasses import dataclass

import numpy as np

from .field_core import FieldContext


# Largest number of unit-root terms evaluated at once (64 KiB of complex128):
# compute_periods takes max(1, PERIOD_CHUNK // columns) whole rows per block,
# so its temporaries stay bounded while tiny cosets share one numpy call.
PERIOD_CHUNK = 4096


@dataclass(frozen=True)
class PeriodVector:
    ctx: FieldContext
    eta: np.ndarray  # d complex values


def compute_periods(ctx: FieldContext) -> PeriodVector:
    """Direct summation over the (d, k) coset array, half of the p - 1 terms.

    -1 = g^(dk/2) halves the work.  For even k it lies in the subgroup, so in
    the power order of ctx.cosets entry j + k/2 of every row is minus entry
    j: each eta is 2 * sum(cos) over the first k/2 columns, exactly real.
    For odd k, d is even and -X_a = X_(a + d/2), so only rows 0 .. d/2 - 1
    are summed and the other half are their conjugates, bit for bit.
    """
    p, d, k = ctx.p, ctx.d, ctx.k
    eta = np.empty(d, dtype=np.complex128)
    if k % 2 == 0:
        half = ctx.cosets[:, :k // 2]
        rows = max(1, PERIOD_CHUNK // half.shape[1])
        for a in range(0, d, rows):
            x = half[a:a + rows]
            # min(x, p - x) keeps the angle in [0, pi]; for x <= p/2 it is
            # the same float as the complex path's fl(fl(2 pi x) * fl(1/p))
            theta = np.minimum(x, p - x) * (2 * np.pi) * (1.0 / p)
            eta[a:a + rows] = 2 * np.cos(theta).sum(axis=1)
    else:
        half, out = ctx.cosets[:d // 2], eta[:d // 2]
        rows = max(1, PERIOD_CHUNK // k)
        for a in range(0, d // 2, rows):
            out[a:a + rows] = np.exp(2j * np.pi * half[a:a + rows] / p).sum(axis=1)
        eta[d // 2:] = out.conj()
    return PeriodVector(ctx=ctx, eta=eta)


def power_sum_direct(pv: PeriodVector, n: int) -> float:
    """Sum of |eta|^n over the d classes, via floating-point moduli."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(np.sum(np.abs(pv.eta) ** n))

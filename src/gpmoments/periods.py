"""Gaussian periods and their absolute power sums (floating point path).

eta[a] sums e^(2 pi i x / p) over the coset g^a <g^d>, giving d complex
numbers whose absolute n-th powers are summed into the power sums checked
against the exact formulas in `moments`.
"""

import numpy as np

from .field_core import FieldContext


# Largest number of unit-root terms evaluated at once (64 KiB of complex128):
# compute_periods takes max(1, PERIOD_CHUNK // columns) whole rows per block,
# so its temporaries stay bounded while tiny cosets share one numpy call.  It
# also copies the rows it sums in column strips of about this many elements.
PERIOD_CHUNK = 4096


def compute_periods(ctx: FieldContext) -> np.ndarray:
    """The d periods eta, summed directly over the (d, k) coset array: half
    of the p - 1 terms.

    The rows are summed from a C-contiguous copy, so every eta is the
    pairwise sum of one contiguous row whatever the strides of ctx.cosets:
    the summation order, and so the bits, are fixed.  Past the first float
    temporary of a block, the arithmetic runs in place.

    -1 = g^(dk/2) halves the work.  For even k it lies in the subgroup, so in
    the power order of ctx.cosets entry j + k/2 of every row is minus entry
    j: each eta is 2 * sum(cos) over the first k/2 columns, exactly real.
    For odd k, d is even and -X_a = X_(a + d/2), so only rows 0 .. d/2 - 1
    are summed and the other half are their conjugates, bit for bit.
    """
    p, d, k = ctx.p, ctx.d, ctx.k
    eta = np.empty(d, dtype=np.complex128)
    # the summed part of ctx.cosets, copied C-contiguous in column strips:
    # each strip is one short stretch of the power table that ctx.cosets
    # views, so the table is read once rather than once per row.  int32
    # holds every p <= MAX_P < 2^31 and converts to the same floats.
    view = ctx.cosets[:, :k // 2] if k % 2 == 0 else ctx.cosets[:d // 2]
    x = np.empty(view.shape, dtype=np.int32)
    cols = max(1, PERIOD_CHUNK // len(view))
    for c in range(0, view.shape[1], cols):
        x[:, c:c + cols] = view[:, c:c + cols]
    rows = max(1, PERIOD_CHUNK // view.shape[1])
    if k % 2 == 0:
        for a in range(0, d, rows):
            block = x[a:a + rows]
            # min(x, p - x) keeps the angle in [0, pi]; for x <= p/2 it is
            # the same float as the complex path's fl(fl(2 pi x) * fl(1/p))
            theta = np.minimum(block, p - block) * (2 * np.pi)
            theta *= 1.0 / p
            eta[a:a + rows] = 2 * np.cos(theta, out=theta).sum(axis=1)
    else:
        out = eta[:d // 2]
        for a in range(0, d // 2, rows):
            z = 2j * np.pi * x[a:a + rows]
            z /= p
            out[a:a + rows] = np.exp(z, out=z).sum(axis=1)
        eta[d // 2:] = out.conj()
    return eta


def power_sum_direct(eta: np.ndarray, n: int) -> float:
    """Sum of |eta|^n over the d classes, via floating-point moduli."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(np.sum(np.abs(eta) ** n))

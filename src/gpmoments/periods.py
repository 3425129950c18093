"""Gaussian periods and their absolute power sums (floating point path).

eta[a] sums e(x/p) = e^(2 pi i x / p) over the coset g^a <g^d>, giving d
complex numbers whose absolute n-th powers are summed into the power sums
checked against the exact formulas in `moments`.  Each term is a product of
two unit roots read from tables of about sqrt(p) entries, so the O(p) sum
evaluates no cosine or exponential per term.  This sum is the periods'
source when d^3 > p, and for fixed-k rows at every d; below, a report built
on a tensor reads them off the eigenvalues of T (`StructureTensor.spectrum`)
and this sum is their oracle.
"""

import numpy as np

from .errors import PreconditionViolated
from .field_core import CosetHeads, powers_mod


# Largest number of terms computed at once: compute_periods takes
# max(1, PERIOD_CHUNK // columns) whole rows per block and fills them in
# column strips of at most this many terms, so its scratch stays at 640 KiB
# (two complex128 strips and one int64 strip), beside a strip's powers of
# g^d, while tiny cosets share one numpy call.  Only the float64 rows being
# summed are larger.
PERIOD_CHUNK = 16384

_TWO_PI = 2 * np.arccos(np.longdouble(-1))  # to long double precision


def _unit_root_tables(p: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(s, low, high) with low[r] = e(r/p) for r < 2^s and high[q] =
    e(q 2^s / p) for q <= (p - 1) >> s, where s = ceil(bits(p) / 2): both
    about sqrt(p) long.  Each cosine and sine is computed in long double
    and rounded once to float64, so for x = q 2^s + r in 1..p-1,
    e(x/p) = high[q] * low[r] up to a few float64 roundings."""
    s = (p.bit_length() + 1) // 2
    # q 2^s <= x <= p - 1, so every angle is below 2 pi
    x = np.concatenate((np.arange(1 << s), np.arange(((p - 1) >> s) + 1) << s))
    theta = _TWO_PI * x.astype(np.longdouble) / p
    roots = np.empty(len(x), dtype=np.complex128)
    roots.real = np.cos(theta)
    roots.imag = np.sin(theta)
    return s, roots[:1 << s], roots[1 << s:]


def _row_sums(block: np.ndarray) -> np.ndarray:
    """block.sum(axis=2) bit for bit.  numpy sums a row of fewer than 8 terms
    left to right from 0.0, so adding the columns in that order skips its
    per-row overhead; fixed-k rows are that short."""
    cols = block.shape[2]
    return block.sum(axis=2) if cols >= 8 else sum(block[:, :, c] for c in range(cols))


def compute_periods(ctx: CosetHeads) -> np.ndarray:
    """The d periods eta, summed directly over the (d, k) coset array: half
    of the p - 1 terms.  It reads only p, d, k, g and the heads, so a
    context and the bare `coset_heads` give the same bits.

    Entry j of row a is x = g^(a + dj) = heads[a] * h^j mod p, h = g^d, and
    its term is high[q] * low[r] from `_unit_root_tables`, x = q 2^s + r,
    taken as cos = Re h Re l - Im h Im l and, for odd k, sin = Im h Re l +
    Re h Im l.  The residues are formed PERIOD_CHUNK at a time, a strip of
    columns c .. c+w-1 of some rows being the row's entry c times h^0 ..
    h^(w-1), and the terms land in a buffer of whole rows: every eta is the
    pairwise sum of one contiguous row in power order, so the summation
    order, and so the bits, are fixed.

    -1 = g^(dk/2) halves the work.  For even k it lies in the subgroup, so
    entry j + k/2 of every row is minus entry j: each eta is 2 * sum(cos)
    over the first k/2 columns, exactly real.  For odd k, d is even and
    -X_a = X_(a + d/2), so only rows 0 .. d/2 - 1 are summed and the other
    half are their conjugates, bit for bit.
    """
    p, d, k = ctx.p, ctx.d, ctx.k
    s, low, high = _unit_root_tables(p)
    n_rows, cols = (d, k // 2) if k % 2 == 0 else (d // 2, k)
    rows = max(1, PERIOD_CHUNK // cols)
    width = min(cols, PERIOD_CHUNK // rows)
    h = pow(ctx.g, d, p)
    h_pows = powers_mod(h, width, p)[1:]  # h^1 .. h^(w-1) of a strip
    # the gathered roots of a strip and its indices, whose memory then holds
    # a product.  Before the roots are gathered, the memory of the low ones
    # holds the strip's residues and that of the high ones the scratch of
    # its reduction.  Chunk-sized at every p: the same few allocations on
    # every call let the allocator reuse its pages instead of faulting in
    # new ones.
    hi, lo = np.empty((2, PERIOD_CHUNK), dtype=np.complex128)
    idx = np.empty(PERIOD_CHUNK, dtype=np.int64)
    prod = idx.view(np.float64)
    res = lo.view(np.int64)[:PERIOD_CHUNK]
    spare = hi.view(np.int64).reshape(2, PERIOD_CHUNK)
    # the cos (and, for odd k, sin) of the terms of one block of rows
    parts = np.empty((1 + k % 2, min(rows, n_rows), cols))
    eta = np.empty(d, dtype=np.complex128)
    for a in range(0, n_rows, rows):
        n = min(rows, n_rows - a)
        for c in range(0, cols, width):
            w = min(width, cols - c)
            x, ix, hs, ls, ps = (buf[:n * w].reshape(n, w)
                                 for buf in (res, idx, hi, lo, prod))
            # column 0 is the rows' entry c, from heads; the others are it
            # times h^j, reduced as y - (y // p) p.  Rows shorter than the
            # block is tall are formed down the columns of a scratch and
            # copied in, so numpy's loops run along the longer side
            if c:  # then the block is one row
                x[0, 0] = int(ctx.heads[a]) * pow(h, c, p) % p
            else:
                x[:, 0] = ctx.heads[a:a + n]
            tail = x[:, 1:]
            y, quot = ((tail, spare[1, :tail.size].reshape(tail.shape)) if w > n
                       else (buf[:tail.size].reshape(w - 1, n).T for buf in spare))
            np.multiply(x[:, :1], h_pows[:w - 1], out=y)
            y -= np.multiply(np.floor_divide(y, p, out=quot), p, out=quot)
            if w <= n:
                tail[...] = y
            # every index is in range: "clip" only skips the buffered
            # bounds check of the default mode
            high.take(np.right_shift(x, s, out=ix), out=hs, mode="clip")
            low.take(np.bitwise_and(x, (1 << s) - 1, out=ix), out=ls, mode="clip")
            cos = np.multiply(hs.real, ls.real, out=parts[0, :n, c:c + w])
            cos -= np.multiply(hs.imag, ls.imag, out=ps)
            if k % 2:
                sin = np.multiply(hs.imag, ls.real, out=parts[1, :n, c:c + w])
                sin += np.multiply(hs.real, ls.imag, out=ps)
        sums = _row_sums(parts[:, :n])
        if k % 2 == 0:
            eta[a:a + n] = 2 * sums[0]
        else:
            eta.real[a:a + n], eta.imag[a:a + n] = sums
    if k % 2:
        eta[d // 2:] = eta[:d // 2].conj()
    return eta


def power_sums(eta: np.ndarray, ns) -> dict[int, float]:
    """n -> sum of |eta|^n over the d classes for each n in ns, a nonempty
    iterable of n >= 1, via floating-point moduli taken once."""
    ns = tuple(ns)
    if not ns or min(ns) < 1:
        raise PreconditionViolated("ns must be a nonempty iterable of n >= 1")
    moduli = np.abs(eta)
    return {n: float((moduli ** n).sum()) for n in ns}

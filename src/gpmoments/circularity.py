"""Circularity of (p, k), decided from the order-k subgroup Gamma = <h>.

(p, k) is circular when any two distinct translated dilates of Gamma meet in
at most 2 points.  Reduced by affine maps, the largest intersection is the
largest cyclotomic number (i, j)_e of order e = (p-1)/k: the count of v in
class i with v + 1 in class j.  Two solutions v1 != v2 of one (i, j)_e are
one pair gamma = v1/v2 != delta = (v1 + 1)/(v2 + 1) of Gamma \\ {1}, and
v2 = (delta - 1)/(gamma - delta).  Classes are discrete logs mod e and
cls(h^t) = 0, so with gamma = h^s, delta = h^t and c[s] = cls(h^s - 1),
i = c[t] - c[s - t] and j = c[s] - c[s - t]: the key i*e + j collects
n(n - 1) pairs when (i, j)_e = n.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DivisorMismatch, PreconditionViolated
from .field_core import FieldContext, build_context, powers_mod, primes_in_range

PAIR_CHUNK = 1 << 16  # pairs whose keys are formed at once, at any k


@dataclass(frozen=True)
class CircularityVerdict:
    p: int
    k: int
    circular: bool
    max_intersection: int
    # (m, t) with |Gamma ^ (Gamma g^m + t)| = max_intersection, when that is >= 3
    witness: tuple[int, int] | None


def _most_pairs(ctx: FieldContext, k: int) -> tuple[int, int]:
    """(count, key): the most pairs one key i*e + j collects, k > 2, and the
    first key in key order with as many.  O(k^2) work; the keys go, a block
    at a time, to a dense e*e histogram when that is no longer than the
    pairs, else to np.unique, so the memory is O(min(k^2, p))."""
    p, e, n = ctx.p, (ctx.p - 1) // k, k - 1
    # c[s] = cls(h^s - 1) mod e; c[0], the class of 0, is never read
    c = (ctx.coset_index[powers_mod(pow(ctx.g, e, p), k, p) - 1] % e).astype(np.int64)
    s = np.arange(1, k)
    dense = e * e <= n * (n - 1)
    out, pos = np.zeros(e * e if dense else n * (n - 1), np.int64), 0
    rows = max(1, PAIR_CHUNK // n)
    for a in range(1, k, rows):
        u = np.arange(a, min(a + rows, k))[:, None]
        t = (s - u) % k  # t = 0 is delta = 1: dropped
        key = ((c[t] - c[u]) % e * e + (c[s] - c[u]) % e)[t != 0]
        if dense:
            out += np.bincount(key, minlength=e * e)
        else:
            out[pos:pos + len(key)] = key
            pos += len(key)
    if not dense:
        keys, out = np.unique(out, return_counts=True)
    best = int(out.argmax())
    return int(out[best]), best if dense else int(keys[best])


def is_circular(p: int, k: int, ctx: FieldContext | None = None) -> CircularityVerdict:
    """Decide circularity from the pairs of Gamma.  ctx, when given, is a
    context of p at any multiple of e = (p-1)/k, else one is built at e,
    proving p prime.  With no pairs (k <= 2) each (i, j)_e is at most 1.
    The witness is read off the first largest (i, j)_e in key order: m =
    j - i and t = g^(alpha - i), mod e, alpha the class of -1."""
    if ctx is not None and ctx.p != p:
        raise DimensionMismatch(f"context of p={ctx.p} cannot decide p={p}")
    if k < 1 or (p - 1) % k != 0:
        raise DivisorMismatch(f"k={k} does not divide p-1={p - 1}")
    e = (p - 1) // k
    if ctx is None:
        ctx = build_context(p, e)
    elif ctx.d % e != 0:
        raise DimensionMismatch(f"order {e} does not divide d={ctx.d}")
    max_int, witness = 1, None
    if k > 2:
        count, key = _most_pairs(ctx, k)
        max_int = (1 + math.isqrt(1 + 4 * count)) // 2  # count = n(n - 1)
        if max_int >= 3:
            i, j = divmod(key, e)
            witness = ((j - i) % e, pow(ctx.g, (ctx.alpha - i) % e, p))
    return CircularityVerdict(p=p, k=k, circular=max_int <= 2,
                              max_intersection=max_int, witness=witness)


def circularity_verdicts(k: int, p_max: int) -> list[CircularityVerdict]:
    """Verdicts on (p, k) for the primes 3 <= p <= p_max with k | (p-1),
    ascending."""
    return [is_circular(p, k) for p in primes_in_range(3, p_max, (k, 1))]


def scan_noncircular(k: int, p_max: int) -> list[int]:
    """Ascending primes p <= p_max with k | (p-1) that are not circular."""
    if k < 2:
        raise PreconditionViolated("k must be >= 2")
    return [v.p for v in circularity_verdicts(k, p_max) if not v.circular]

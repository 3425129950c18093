"""Circularity of (p, k) pairs and the diagonal-count facts that follow.

(p, k) is circular when every two distinct translated dilates of the order-k
subgroup Gamma of F_p^x meet in at most 2 points.  Affine maps reduce the
general pair to comparing Gamma against Gamma g^m + t.  For t = g^n != 0,
|Gamma ^ (Gamma g^m + t)| is the structure constant c_{0, m+alpha, n}, a
cyclotomic number of order d = (p-1)/k; for t = 0 and m != 0 it is 0.  So
the largest intersection is the largest cyclotomic number, read off the
structure tensor.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DivisorMismatch, PreconditionViolated
from .field_core import FieldContext, build_context, is_prime, primes_in_range
from .superchar import CheckResult, StructureTensor, build_tensor


@dataclass(frozen=True)
class CircularityVerdict:
    p: int
    k: int
    circular: bool
    max_intersection: int
    # (m, t) with |Gamma ^ (Gamma g^m + t)| = max_intersection, when that is >= 3
    witness: tuple[int, int] | None


def is_circular(p: int, k: int,
                tensor: StructureTensor | None = None) -> CircularityVerdict:
    """Decide circularity from the cyclotomic numbers of order d = (p-1)/k.

    tensor, when given, is the structure tensor of p at any multiple of d
    (the classes of order d are its coset indices mod d); otherwise one is
    built.  The witness comes from the first largest number (i, j)_d:
    n = alpha - i, m = j - i (mod d) and t = g^n.
    """
    if not is_prime(p) or p == 2:
        raise DivisorMismatch(f"{p} is not an odd prime")
    if k < 1 or (p - 1) % k != 0:
        raise DivisorMismatch(f"k={k} does not divide p-1={p - 1}")
    d = (p - 1) // k
    if tensor is None:
        tensor = build_tensor(build_context(p, d))
    ctx = tensor.ctx
    if ctx.p != p:
        raise DimensionMismatch(f"tensor of p={ctx.p} cannot decide p={p}")
    keys, counts = tensor.numbers_of_order(d)

    best = int(np.argmax(counts))
    max_int = int(counts[best])
    witness = None
    if max_int >= 3:
        i, j = divmod(int(keys[best]), d)
        n = (ctx.alpha - i) % d  # alpha mod d: the class of -1 at order d
        witness = ((j - i) % d, pow(ctx.g, n, p))
    return CircularityVerdict(p=p, k=k, circular=max_int <= 2,
                              max_intersection=max_int, witness=witness)


def diagonal_counts_check(ctx: FieldContext, tensor: StructureTensor) -> list[CheckResult]:
    """For circular (p, k): each diagonal count is at most 2 and equals the
    coset self-intersection |X_m ^ (X_m + 1)|."""
    verdict = is_circular(ctx.p, ctx.k, tensor)
    if not verdict.circular:
        return [CheckResult("diagonal_counts", False, True,
                            f"({ctx.p},{ctx.k}) not circular; skipped")]
    diagonal = tensor.constant(0, np.arange(ctx.d), np.arange(ctx.d))
    out = []
    for m in range(ctx.d):
        c = int(diagonal[m])
        shifted = {(int(x) + 1) % ctx.p for x in ctx.cosets[m]}
        direct = len(set(int(x) for x in ctx.cosets[m]) & shifted)
        out.append(CheckResult(f"diagonal_m{m}", True,
                               c in (0, 1, 2) and c == direct,
                               f"c={c} direct={direct}"))
    return out


def half_inverse_check(ctx: FieldContext, tensor: StructureTensor) -> list[CheckResult]:
    """Even k: the single diagonal count equal to 1 sits at the class of 1/2."""
    if ctx.k % 2 != 0:
        raise PreconditionViolated("k must be even")
    m_star = int(ctx.coset_index[pow(2, ctx.p - 2, ctx.p)])
    diagonal = tensor.constant(0, np.arange(ctx.d), np.arange(ctx.d))
    out = []
    for m in range(ctx.d):
        c = int(diagonal[m])
        ok = (c == 1) if m == m_star else (c in (0, 2))
        out.append(CheckResult(f"half_inverse_m{m}", True, ok,
                               f"c={c} class_of_half={m_star}"))
    return out


def scan_noncircular(k: int, p_max: int) -> list[int]:
    """Ascending primes p <= p_max with k | (p-1) that are not circular."""
    if k < 2:
        raise PreconditionViolated("k must be >= 2")
    out = []
    for p in primes_in_range(3, p_max, (k, 1)):
        if not is_circular(p, k).circular:
            out.append(p)
    return out

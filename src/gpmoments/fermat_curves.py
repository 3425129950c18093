"""Projective point counts on twisted degree-d plane curves over F_p.

The curve g^i x^d + g^j y^d = g^k z^d is counted exactly from the structure
constants, by the dictionary
M = d^2 c_{i,j,k} + d (delta_{jk} + delta_{ik} + delta_*), with delta_* = 1
exactly when (p-1)/2 = i - j (mod d) (solvability at the line z = 0).

Dividing the equation by g^i, and absorbing the d-th powers g^(d m) into y
and z, leaves the same projective points, so M(i, j, k) = M(0, j', r) with
j' = (j - i) mod d and r = (k - i) mod d, and as -1 = g^alpha,

    M(0, j', r) = d^2 c_{0,j',r} + d ([j' = r] + [r = 0] + [d | alpha + j']).

c_{0,j',r} is the stored cyclotomic number (j', r)_d, so a count is one
lookup in the tensor and never a pass over F_p.  (tests/brute_force.py
derives the same count from the subgroup X_0 and recounts it that way.)
"""

import math
from dataclasses import dataclass

import numpy as np

from .field_core import FieldContext
from .superchar import StructureTensor, check_dense_budget


@dataclass(frozen=True)
class CurveCount:
    ctx: FieldContext
    i: int
    j: int
    k: int
    M: int
    genus: int
    hw_margin: float  # 2 * genus * sqrt(p) - |M - (p+1)|


def _genus(d: int) -> int:
    return (d - 1) * (d - 2) // 2


def _count(tensor: StructureTensor, jp, r) -> tuple[np.ndarray, np.ndarray]:
    """(M(0, j', r), Hasse-Weil margin) for classes j', r < d, integers or
    broadcastable index arrays."""
    ctx = tensor.ctx
    p, d = ctx.p, ctx.d
    jp, r = np.asarray(jp), np.asarray(r)
    # cast before summing: numpy adds bool arrays as logical or
    deltas = ((jp == r).astype(np.int64) + (r == 0).astype(np.int64)
              + ((ctx.alpha + jp) % d == 0).astype(np.int64))
    m = d * d * tensor.constant(0, jp, r) + d * deltas
    return m, 2 * _genus(d) * math.sqrt(p) - np.abs(m - (p + 1))


class PowerTable:
    """The d x d grid of counts M[j, r] = M(0, j, r) and their Hasse-Weil
    margins hw_margin[j, r], the curves that `verify` reports.

    (The class keeps its name because the benchmark's layer tracer wraps its
    constructor by name.)
    """

    def __init__(self, tensor: StructureTensor):
        d = tensor.ctx.d
        check_dense_budget(d, np.int64)
        self.M, self.hw_margin = _count(tensor,
                                        *np.indices((d, d), sparse=True))


def count_projective(tensor: StructureTensor, i: int, j: int,
                     k: int) -> CurveCount:
    """Exact point count over P^2(F_p), read off the structure constants."""
    d = tensor.ctx.d
    m, margin = _count(tensor, (j - i) % d, (k - i) % d)
    return CurveCount(ctx=tensor.ctx, i=i, j=j, k=k, M=int(m),
                      genus=_genus(d), hw_margin=float(margin))

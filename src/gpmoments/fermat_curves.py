"""Projective point counts on twisted degree-d plane curves over F_p.

The curve g^i x^d + g^j y^d = g^k z^d is counted by canonical representatives
(one per projective point) and reconciled against the structure constants via
M = d^2 c_{i,j,k} + d (delta_{jk} + delta_{ik} + delta_*), with delta_* = 1
exactly when (p-1)/2 = i - j (mod d) (solvability at the line z = 0).
"""

import math
from dataclasses import dataclass

import numpy as np

from .field_core import FieldContext
from .superchar import StructureTensor


@dataclass(frozen=True)
class CurveCount:
    ctx: FieldContext
    i: int
    j: int
    k: int
    M: int
    genus: int
    hw_margin: float  # 2 * genus * sqrt(p) - |M - (p+1)|


class PowerTable:
    """Shared tables of x^d mod p and d-th root multiplicities."""

    def __init__(self, ctx: FieldContext):
        self.ctx = ctx
        self.powd = ctx.dth_powers()
        self.root_count = np.bincount(self.powd, minlength=ctx.p)


def count_projective(ctx: FieldContext, i: int, j: int, k: int,
                     table: PowerTable | None = None) -> CurveCount:
    """Exact point count over P^2(F_p) by affine patches z=1, (z=0,y=1), [1:0:0]."""
    p, d = ctx.p, ctx.d
    if table is None:
        table = PowerTable(ctx)
    gi, gj, gk = (pow(ctx.g, e, p) for e in (i, j, k))
    gj_inv = pow(gj, p - 2, p)

    # patch z = 1: for each x, count y with y^d = (g^k - g^i x^d) / g^j
    targets = (gk - gi * table.powd) % p * gj_inv % p
    m = int(table.root_count[targets].sum())
    # patch z = 0, y = 1: x^d = -g^j / g^i
    t = (-gj) % p * pow(gi, p - 2, p) % p
    m += int(table.root_count[t])
    # [1:0:0] would need g^i = 0: never on the curve

    genus = (d - 1) * (d - 2) // 2
    margin = 2 * genus * math.sqrt(p) - abs(m - (p + 1))
    return CurveCount(ctx=ctx, i=i, j=j, k=k, M=m, genus=genus, hw_margin=margin)


def delta_star(ctx: FieldContext, i: int, j: int) -> int:
    """Indicator that the curve meets the line z = 0 over F_p."""
    return 1 if ((ctx.p - 1) // 2 - (i - j)) % ctx.d == 0 else 0


def predicted_count(ctx: FieldContext, tensor: StructureTensor,
                    i: int, j: int, k: int) -> int:
    """Point count predicted from the structure constants."""
    d = ctx.d
    c = int(tensor.constant(i, j, k))
    deltas = (1 if j == k else 0) + (1 if i == k else 0) + delta_star(ctx, i, j)
    return d * d * c + d * deltas


def dictionary_check(ctx: FieldContext, tensor: StructureTensor,
                     i: int, j: int, k: int,
                     table: PowerTable | None = None) -> bool:
    """Whether the enumerated count matches the structure-constant prediction."""
    return count_projective(ctx, i, j, k, table).M == predicted_count(ctx, tensor, i, j, k)

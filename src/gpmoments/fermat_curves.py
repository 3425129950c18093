"""Projective point counts on twisted degree-d plane curves over F_p.

The curve g^i x^d + g^j y^d = g^k z^d is counted exactly and reconciled
against the structure constants via
M = d^2 c_{i,j,k} + d (delta_{jk} + delta_{ik} + delta_*), with delta_* = 1
exactly when (p-1)/2 = i - j (mod d) (solvability at the line z = 0).

The count is read off the subgroup X_0 = <g^d> of size k = (p-1)/d, never
off a pass over F_p.  Dividing the equation by g^i, and absorbing the d-th
powers g^(d m) into y and z, leaves the same projective points, so
M(i, j, k) = M(0, j', r) with j' = (j - i) mod d and r = (k - i) mod d.
On the patch z = 1, x^d is 0 once and takes each u in X_0 exactly d times.
With h(w) = #{y : y^d = w}, h(g^e) = d when d | e and 0 otherwise, h(0) = 1,
and W_r[c] = #{u in X_0 : g^r - u in X_c} for c = 0..d (class d = {0}):

    sum_x h((g^r - x^d) / g^j') = h(g^(r - j')) + d (d W_r[j'] + W_r[d]).

The patch z = 0, y = 1 solves x^d = -g^j' = g^(alpha + j'), which adds
d [d | alpha + j']; the point [1:0:0] would need g^i = 0.  So a curve needs
one row W_r: the (p-1)/d differences g^r - u, classified by the coset index.
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
    """On-demand rows W_r of the curve counts, one per class r of g^r.

    rows[r] lists W_r[c] = #{u in X_0 : g^r - u in X_c} for c = 0..d, which
    costs O(k) to build; all d rows together cost O(p).  The table holds only
    the rows asked for, each d + 1 ints.  (The class keeps its name because
    the benchmark's layer tracer wraps its constructor by name.)
    """

    def __init__(self, ctx: FieldContext):
        self.ctx = ctx
        self.rows: dict[int, list[int]] = {}

    def row(self, r: int) -> list[int]:
        """W_r, built on first use."""
        if r not in self.rows:
            ctx = self.ctx
            diffs = (ctx.cosets[r][0] - ctx.cosets[0]) % ctx.p
            self.rows[r] = np.bincount(ctx.coset_index[diffs],
                                       minlength=ctx.d + 1).tolist()
        return self.rows[r]


def count_projective(ctx: FieldContext, i: int, j: int, k: int,
                     table: PowerTable | None = None) -> CurveCount:
    """Exact point count over P^2(F_p), from row W_(k-i) of the table."""
    p, d = ctx.p, ctx.d
    if table is None:
        table = PowerTable(ctx)
    jp, r = (j - i) % d, (k - i) % d
    w = table.row(r)
    # patch z = 1: x = 0, then the d x with x^d = u for each u in X_0
    m = (d if r == jp else 0) + d * (d * w[jp] + w[d])
    # patch z = 0, y = 1: x^d = g^(alpha + j')
    m += d if (ctx.alpha + jp) % d == 0 else 0

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

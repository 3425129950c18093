"""Exact formulas and bounds for the absolute power sums of Gaussian periods.

Everything that can be rational is kept rational (fractions.Fraction); bound
endpoints involving p^(3/2) are the only floats, and containment checks give
them a HALF_POWER_SLACK relative slack.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .circularity import CircularityVerdict, is_circular
from .errors import (InconsistentCounts, NonIntegralResult, NotCircular,
                     PreconditionViolated)
from .field_core import FieldContext
from .periods import PeriodVector, PowerSumValue, power_sum_direct
from .superchar import StructureTensor

# Float tolerances (exact values are compared exactly; verify_identities has
# its own, superchar.UNITARY_TOL and superchar.SCALED_TOL):
HALF_POWER_SLACK = 1e-9  # relative slack on bound endpoints containing p^(3/2)
FLOAT_REL_TOL = 1e-6  # relative tolerance of direct float power sums


@dataclass(frozen=True)
class BoundInterval:
    source: str
    lower: float | Fraction
    upper: float | Fraction

    def contains(self, value: Fraction | float) -> bool:
        v = float(value)
        lo, hi = float(self.lower), float(self.upper)
        slack = HALF_POWER_SLACK * max(abs(lo), abs(hi))
        return lo - slack <= v <= hi + slack


def v2_exact(p: int, d: int) -> Fraction:
    """((d-1)p + 1)/d, valid for d > 1."""
    if d <= 1:
        raise PreconditionViolated("v2_exact requires d > 1")
    if (p - 1) % d != 0:
        raise PreconditionViolated(f"d={d} must divide p-1")
    return Fraction((d - 1) * p + 1, d)


def v1_bounds(p: int, d: int) -> BoundInterval:
    """sqrt(V_2) <= V_1 <= sqrt((d-1)p + 1)."""
    v2 = v2_exact(p, d)
    return BoundInterval("v1_cauchy_schwarz",
                         math.sqrt(float(v2)), math.sqrt((d - 1) * p + 1))


def vn_d2_closed_form(p: int, n: int) -> float:
    """Closed form for d = 2, branching on p mod 4."""
    if n < 1:
        raise PreconditionViolated("n must be >= 1")
    if p % 4 == 1:
        total = sum(math.comb(n, 2 * j) * p ** (n / 2 - j)
                    for j in range(n // 2 + 1))
        return 2.0 ** (1 - n) * total
    return 2.0 ** (1 - n) * (p + 1) ** (n / 2)


def v4_exact_from_counts(ctx: FieldContext, tensor: StructureTensor) -> Fraction:
    """Exact V_4 from integer counts, computed both ways and cross-checked.

    Variant (a) uses the first column of the counting slice; variant (b) uses
    the first row plus an indicator for 2d | (p-1).  InconsistentCounts is
    raised if they differ.
    """
    p, d, k = ctx.p, ctx.d, ctx.k
    classes = np.arange(d)
    col = tensor.constant(0, classes, 0).tolist()
    row = tensor.constant(0, 0, classes).tolist()
    va = Fraction(p * k + p * sum(c * c for c in col) - k ** 3)
    delta_alpha = 1 if (p - 1) % (2 * d) == 0 else 0
    vb = Fraction(p * k * delta_alpha + p * sum(c * c for c in row) - k ** 3)
    if va != vb:
        raise InconsistentCounts(
            f"count variants disagree at (p,d)=({p},{d}): {va} vs {vb}")
    return va


def v4_d3(ctx: FieldContext, tensor: StructureTensor) -> tuple[Fraction, BoundInterval]:
    """d = 3: exact value from t_0 = c_{0,0,0} plus the tight p^(3/2) band."""
    p = ctx.p
    if ctx.d != 3:
        raise PreconditionViolated("v4_d3 requires d = 3")
    t0 = int(tensor.constant(0, 0, 0))
    value = Fraction(10 * p * p - 20 * p + 1, 27) - Fraction(4, 3) * p * t0
    ph = p ** 1.5
    bounds = BoundInterval("v4_d3",
                           (6 * p * p - 8 * ph + 12 * p + 1) / 27,
                           (6 * p * p + 8 * ph + 12 * p + 1) / 27)
    return value, bounds


def v4_d4(ctx: FieldContext, tensor: StructureTensor) -> tuple[Fraction, BoundInterval, str]:
    """d = 4: exact value and band, branching on p mod 8."""
    p = ctx.p
    if ctx.d != 4:
        raise PreconditionViolated("v4_d4 requires d = 4")
    ph = p ** 1.5
    if p % 8 == 1:
        t0 = int(tensor.constant(0, 0, 0))
        value = Fraction(256 * p * t0 * t0 - (32 * p * p + 224 * p) * t0
                         + p ** 3 + 167 * p * p - 113 * p + 9, 576)
        bounds = BoundInterval("v4_d4_mod8_1",
                               Fraction(17 * p * p - 18 * p + 1, 64),
                               (21 * p * p + 24 * ph + 18 * p + 1) / 64)
        return value, bounds, "mod8_1"
    t2 = int(tensor.constant(0, 0, 2))
    value = Fraction(p ** 3 + 71 * p * p + 256 * p * t2 * t2
                     - 32 * (p - 5) * p * t2 + 79 * p + 9, 576)
    bounds = BoundInterval("v4_d4_mod8_5",
                           Fraction(9 * p * p + 6 * p + 1, 64),
                           (13 * p * p + 8 * ph + 10 * p + 1) / 64)
    return value, bounds, "mod8_5"


def v4_d5_bounds(ctx: FieldContext) -> BoundInterval:
    """d = 5 band."""
    p = ctx.p
    if ctx.d != 5:
        raise PreconditionViolated("v4_d5_bounds requires d = 5")
    return BoundInterval("v4_d5",
                         Fraction((4 * p + 1) ** 2, 125),
                         (52 * p * p + 48 * p ** 1.5 + 24 * p + 1) / 125)


def v4_general_bounds(p: int, d: int) -> BoundInterval:
    """General band for d > 2 (rational lower, float upper)."""
    if d <= 2:
        raise PreconditionViolated("general bounds require d > 2")
    if (p - 1) % d != 0:
        raise PreconditionViolated(f"d={d} must divide p-1")
    lower = Fraction(((d - 1) * p + 1) ** 2, d ** 3)
    upper = ((d - 1) * (d * d - 3 * d + 3) * p * p
             + 4 * (d - 1) * (d - 2) * p ** 1.5
             + 6 * (d - 1) * p + 1) / d ** 3
    return BoundInterval("v4_general", lower, upper)


def v4_fixed_k(p: int, k: int,
               verdict: CircularityVerdict | None = None,
               verdict_2k: CircularityVerdict | None = None) -> Fraction:
    """Fixed-cofactor closed form; requires circularity of (p,k), and of
    (p,2k) as well when k is odd."""
    verdict = verdict or is_circular(p, k)
    if not verdict.circular:
        raise NotCircular(f"({p},{k}) is not circular")
    if k % 2 == 0:
        return Fraction(3 * p * (k - 1) - k ** 3)
    verdict_2k = verdict_2k or is_circular(p, 2 * k)
    if not verdict_2k.circular:
        raise NotCircular(f"({p},{2 * k}) is not circular (needed for odd k)")
    return Fraction(p * (2 * k - 1) - k ** 3)


def fermat_solution_count(ctx: FieldContext, pv: PeriodVector, n: int) -> int:
    """Number of solutions in F_p^n to x_1^d + ... + x_n^d = 0 (all tuples,
    the zero tuple included), from the period power sum.

    Evaluated in complex arithmetic; the imaginary part must vanish and the
    real part must land within 1e-3 of an integer.
    """
    if n < 2:
        raise PreconditionViolated("n must be >= 2")
    p, d = ctx.p, ctx.d
    total = complex(np.sum((1 + d * pv.eta) ** n))
    value = p ** (n - 1) + (p - 1) / (p * d) * total
    if abs(value.imag) > 1e-3 or abs(value.real - round(value.real)) > 1e-3:
        raise NonIntegralResult(f"formula gave {value} for (p,d,n)=({p},{d},{n})")
    return round(value.real)


def hurwitz_count(ctx: FieldContext, pv: PeriodVector) -> int:
    """Number of solutions to x^d + y^d + z^d = 0 with x, y, z all nonzero
    (d prime), from the third power sum of the periods."""
    p, d = ctx.p, ctx.d
    s3 = complex(np.sum(pv.eta ** 3))
    value = ((p - 1) ** 3 + (p - 1) * d * d * s3) / p
    if abs(value.imag) > 1e-3 or abs(value.real - round(value.real)) > 1e-3:
        raise NonIntegralResult(f"formula gave {value} for (p,d)=({p},{d})")
    return round(value.real)


@dataclass
class MomentReport:
    """Per-prime verification record: direct power sums, exact V_4, the
    applicable closed forms and bands, and pass/fail verdicts."""

    p: int
    d: int
    k: int
    p_mod_8: int
    v_direct: dict[int, PowerSumValue]
    v4_exact: Fraction | None = None
    formula_values: dict[str, Fraction | float] = field(default_factory=dict)
    bounds: dict[str, BoundInterval] = field(default_factory=dict)
    verdicts: dict[str, bool] = field(default_factory=dict)

    def all_passed(self) -> bool:
        return all(self.verdicts.values())

    def to_json_dict(self) -> dict:
        return {
            "p": self.p, "d": self.d, "k": self.k, "p_mod_8": self.p_mod_8,
            "v_direct": {n: v.value for n, v in self.v_direct.items()},
            "v4_exact": [self.v4_exact.numerator, self.v4_exact.denominator]
            if self.v4_exact is not None else None,
            "formula_values": {k_: float(v) for k_, v in self.formula_values.items()},
            "bounds": {k_: [float(b.lower), float(b.upper)]
                       for k_, b in self.bounds.items()},
            "verdicts": dict(self.verdicts),
        }


def build_report(
        ctx: FieldContext, tensor: StructureTensor, pv: PeriodVector,
        fixed_k_verdicts: tuple[CircularityVerdict, CircularityVerdict | None] | None = None,
) -> MomentReport:
    """Evaluate every applicable formula and bound for one context.

    fixed_k_verdicts, when given, carries the circularity verdicts for (p,k)
    and (when k is odd) (p,2k); the fixed-k formula is only asserted when the
    required pairs are circular.
    """
    p, d, k = ctx.p, ctx.d, ctx.k
    rpt = MomentReport(p=p, d=d, k=k, p_mod_8=p % 8,
                       v_direct={n: power_sum_direct(pv, n) for n in (1, 2, 3, 4)})
    rpt.v4_exact = v4_exact_from_counts(ctx, tensor)
    v4f = rpt.v_direct[4].value

    def close(a: float, b: float) -> bool:
        return math.isclose(a, b, rel_tol=FLOAT_REL_TOL, abs_tol=1e-9)

    rpt.verdicts["v4_float_vs_exact"] = close(v4f, float(rpt.v4_exact))

    if d > 1:
        rpt.formula_values["v2"] = v2_exact(p, d)
        rpt.verdicts["v2"] = close(rpt.v_direct[2].value, float(v2_exact(p, d)))
        b1 = v1_bounds(p, d)
        rpt.bounds["v1"] = b1
        rpt.verdicts["v1_bounds"] = b1.contains(rpt.v_direct[1].value)

    if d == 2:
        val = vn_d2_closed_form(p, 4)
        rpt.formula_values["v4_d2"] = val
        rpt.verdicts["v4_d2"] = close(float(rpt.v4_exact), val)
    elif d == 3:
        val, bounds = v4_d3(ctx, tensor)
        rpt.formula_values["v4_d3"] = val
        rpt.bounds["v4_d3"] = bounds
        rpt.verdicts["v4_d3"] = val == rpt.v4_exact
        if p > d * d:
            rpt.verdicts["v4_d3_bounds"] = bounds.contains(rpt.v4_exact)
    elif d == 4:
        val, bounds, branch = v4_d4(ctx, tensor)
        name = f"v4_d4_{branch}"
        rpt.formula_values[name] = val
        rpt.bounds[name] = bounds
        rpt.verdicts[name] = val == rpt.v4_exact
        if p > d * d:
            rpt.verdicts[name + "_bounds"] = bounds.contains(rpt.v4_exact)
    elif d == 5:
        bounds = v4_d5_bounds(ctx)
        rpt.bounds["v4_d5"] = bounds
        if p > d * d:
            rpt.verdicts["v4_d5_bounds"] = bounds.contains(rpt.v4_exact)

    if d > 2:
        gb = v4_general_bounds(p, d)
        rpt.bounds["v4_general"] = gb
        if p > d * d:
            rpt.verdicts["v4_general_bounds"] = gb.contains(rpt.v4_exact)

    if fixed_k_verdicts is not None:
        vk, v2k = fixed_k_verdicts
        applicable = vk.circular and (k % 2 == 0 or (v2k is not None and v2k.circular))
        if applicable:
            val = v4_fixed_k(p, k, vk, v2k)
            name = "v4_fixed_k_even" if k % 2 == 0 else "v4_fixed_k_odd"
            rpt.formula_values[name] = val
            rpt.verdicts[name] = val == rpt.v4_exact

    return rpt

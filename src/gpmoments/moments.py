"""Exact formulas and bounds for the absolute power sums of Gaussian periods.

Everything that can be rational is kept rational (fractions.Fraction).  The
float bound endpoints are the square roots of the V_1 band and the V_4 ends
involving p^(3/2); `BoundInterval.contains` widens every band, rational ends
included, by a HALF_POWER_SLACK relative slack.  The diagonal solution counts
are read off the structure constants exactly.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .circularity import CircularityVerdict, is_circular
from .errors import DimensionMismatch, NotCircular, PreconditionViolated
from .field_core import FieldContext
from .periods import power_sums
from .superchar import (CheckResult, StructureTensor, build_tensor,
                        count_checks, zero_sum_counts)

# Float tolerances (exact values are compared exactly; verify_identities has
# its own, superchar.UNITARY_TOL and superchar.SCALED_TOL):
HALF_POWER_SLACK = 1e-9  # relative slack on both ends of every band
FLOAT_REL_TOL = 1e-6  # relative tolerance of float power sums


@dataclass(frozen=True)
class BoundInterval:
    source: str  # the band's name: its key in MomentReport.bounds
    lower: float | Fraction
    upper: float | Fraction

    def contains(self, value: Fraction | float) -> bool:
        v = float(value)
        lo, hi = float(self.lower), float(self.upper)
        slack = HALF_POWER_SLACK * max(abs(lo), abs(hi))
        return lo - slack <= v <= hi + slack


def _check_v2_domain(p: int, d: int) -> None:
    if d <= 1:
        raise PreconditionViolated("v2_exact requires d > 1")
    if (p - 1) % d != 0:
        raise PreconditionViolated(f"d={d} must divide p-1")


def v2_exact(p: int, d: int) -> Fraction:
    """((d-1)p + 1)/d, valid for d > 1."""
    _check_v2_domain(p, d)
    return Fraction((d - 1) * p + 1, d)


def v1_bounds(p: int, d: int) -> BoundInterval:
    """sqrt(V_2) <= V_1 <= sqrt(d V_2) = sqrt((d-1)p + 1), on the domain of
    v2_exact.  V_2 is not formed: the true quotient ((d-1)p + 1)/d is the
    float of v2_exact(p, d), so a report forms V_2 once."""
    _check_v2_domain(p, d)
    n = (d - 1) * p + 1
    return BoundInterval("v1", math.sqrt(n / d), math.sqrt(n))


def v4_d2(p: int) -> Fraction:
    """d = 2: the periods are (-1 +- sqrt(p))/2 for p = 1 (mod 4) and
    (-1 +- i sqrt(p))/2 for p = 3 (mod 4), so V_4 is (p^2 + 6p + 1)/8 or
    (p + 1)^2/8."""
    if p % 4 == 1:
        return Fraction(p * p + 6 * p + 1, 8)
    return Fraction((p + 1) ** 2, 8)


def v4_d3(tensor: StructureTensor) -> tuple[Fraction, BoundInterval]:
    """d = 3: exact value from t_0 = c_{0,0,0}, read off the cached c0,
    plus the tight p^(3/2) band.  Its upper end is the general band's; only
    its lower end is tighter."""
    p = tensor.ctx.p
    if tensor.ctx.d != 3:
        raise PreconditionViolated("v4_d3 requires d = 3")
    t0 = int(tensor.c0[0, 0])
    value = Fraction(10 * p * p - 20 * p + 1 - 36 * p * t0, 27)
    ph = p ** 1.5
    bounds = BoundInterval("v4_d3",
                           (6 * p * p - 8 * ph + 12 * p + 1) / 27,
                           (6 * p * p + 8 * ph + 12 * p + 1) / 27)
    return value, bounds


def v4_d4(tensor: StructureTensor) -> tuple[Fraction, BoundInterval]:
    """d = 4: exact value and band, branching on p mod 8; the band's source
    names the branch.  t_0 = c_{0,0,0} and t_2 = c_{0,0,2} are read off the
    cached c0.  Against the general band, mod8_1 shares the upper end and
    tightens the lower; mod8_5 shares the lower end, (3p + 1)^2/64, and
    tightens the upper."""
    p = tensor.ctx.p
    if tensor.ctx.d != 4:
        raise PreconditionViolated("v4_d4 requires d = 4")
    ph = p ** 1.5
    if p % 8 == 1:
        t0 = int(tensor.c0[0, 0])
        value = Fraction(256 * p * t0 * t0 - (32 * p * p + 224 * p) * t0
                         + p ** 3 + 167 * p * p - 113 * p + 9, 576)
        bounds = BoundInterval("v4_d4_mod8_1",
                               Fraction(17 * p * p - 18 * p + 1, 64),
                               (21 * p * p + 24 * ph + 18 * p + 1) / 64)
        return value, bounds
    t2 = int(tensor.c0[0, 2])
    value = Fraction(p ** 3 + 71 * p * p + 256 * p * t2 * t2
                     - 32 * (p - 5) * p * t2 + 79 * p + 9, 576)
    bounds = BoundInterval("v4_d4_mod8_5",
                           Fraction(9 * p * p + 6 * p + 1, 64),
                           (13 * p * p + 8 * ph + 10 * p + 1) / 64)
    return value, bounds


def v4_general_bounds(p: int, d: int) -> BoundInterval:
    """General band for d > 2 (rational lower, float upper); the band of
    every d > 4."""
    if d <= 2:
        raise PreconditionViolated("general bounds require d > 2")
    if (p - 1) % d != 0:
        raise PreconditionViolated(f"d={d} must divide p-1")
    lower = Fraction(((d - 1) * p + 1) ** 2, d ** 3)
    upper = ((d - 1) * (d * d - 3 * d + 3) * p * p
             + 4 * (d - 1) * (d - 2) * p ** 1.5
             + 6 * (d - 1) * p + 1) / d ** 3
    return BoundInterval("v4_general", lower, upper)


def v4_fixed_k(verdict: CircularityVerdict,
               verdict_2k: CircularityVerdict | None = None) -> Fraction:
    """Fixed-cofactor closed form at the verdict's (p,k).  It holds when
    (p,k) is circular and, for odd k, (p,2k) as well; NotCircular is raised
    otherwise, also when the verdict on (p,2k) that an odd k needs is
    missing.  DimensionMismatch is raised when verdict_2k is given for
    another pair than (p,2k)."""
    p, k = verdict.p, verdict.k
    if verdict_2k is not None and (verdict_2k.p, verdict_2k.k) != (p, 2 * k):
        raise DimensionMismatch(
            f"verdict on ({verdict_2k.p},{verdict_2k.k}) given for "
            f"({p},{2 * k})")
    if not verdict.circular:
        raise NotCircular(f"({p},{k}) is not circular")
    if k % 2 == 0:
        return Fraction(3 * p * (k - 1) - k ** 3)
    if verdict_2k is None or not verdict_2k.circular:
        raise NotCircular(f"({p},{2 * k}) is not circular (needed for odd k)")
    return Fraction(p * (2 * k - 1) - k ** 3)


def fermat_solution_count(ctx: FieldContext, pv: np.ndarray, n: int) -> int:
    """Number of solutions in F_p^n to x_1^d + ... + x_n^d = 0 (all tuples,
    the zero tuple included), exact: x^d is 0 once and each element of X_0
    d times, so it is sum_{m=0..n} C(n, m) d^m N_m (`zero_sum_counts`).
    pv, the array `compute_periods(ctx)` returns, is unread and kept only
    for the positional call (ctx, pv, n) of bench/workloads.py.
    """
    if n < 2:
        raise PreconditionViolated("n must be >= 2")
    # the tensor is rebuilt from ctx (about 3 ms at p ~ 10^6) so that
    # callers keep passing (ctx, pv, n)
    zero_sums = zero_sum_counts(build_tensor(ctx), n)
    return sum(math.comb(n, m) * ctx.d ** m * zero_sums[m] for m in range(n + 1))


def hurwitz_count(tensor: StructureTensor) -> int:
    """Number of solutions to x^d + y^d + z^d = 0 with x, y, z all nonzero:
    d^3 N_3, exact."""
    return tensor.ctx.d ** 3 * zero_sum_counts(tensor, 3)[3]


@dataclass
class MomentReport:
    """Per-prime verification record: float power sums, exact V_4, the
    applicable closed forms and bands, and `checks`, the row's verdicts in
    order (the JSON "verdicts" maps each name to passed).  formula and band
    name the row's headline: its V_4 closed form and its tightest V_4 band,
    "" when there is none.  circularity is the (p,k) verdict of a fixed-k
    report and circularity_2k the (p,2k) one when it was decided, None
    otherwise.  These four are not part of the JSON row."""

    p: int
    d: int
    k: int
    p_mod_8: int
    v_direct: dict[int, float]
    v4_exact: Fraction
    formula_values: dict[str, Fraction | float] = field(default_factory=dict)
    bounds: dict[str, BoundInterval] = field(default_factory=dict)
    checks: list[CheckResult] = field(default_factory=list)
    formula: str = ""
    band: str = ""
    circularity: CircularityVerdict | None = None
    circularity_2k: CircularityVerdict | None = None

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "p": self.p, "d": self.d, "k": self.k, "p_mod_8": self.p_mod_8,
            "v_direct": dict(self.v_direct),
            "v4_exact": [self.v4_exact.numerator, self.v4_exact.denominator],
            "formula_values": {k_: float(v) for k_, v in self.formula_values.items()},
            "bounds": {k_: [float(b.lower), float(b.upper)]
                       for k_, b in self.bounds.items()},
            "verdicts": {c.name: c.passed for c in self.checks},
        }


def _close(a: float, b: float) -> bool:
    """A float power sum against the float of an exact value."""
    return math.isclose(a, b, rel_tol=FLOAT_REL_TOL, abs_tol=1e-9)


def build_report(tensor: StructureTensor, fixed_k: bool = False) -> MomentReport:
    """Evaluate every applicable formula and bound for the tensor's context,
    the float power sums V_1..V_4 from its periods `tensor.spectrum`, and
    the exact checks of its counts (`count_checks`, independent of the
    periods when these are read off T).  rpt.checks holds v4_float_vs_exact,
    the count checks, then each form's and band's verdict.

    With fixed_k, the circularity of (p,k) is decided from tensor and kept
    as rpt.circularity; for odd k, (p,2k) is decided too when (p,k) is
    circular, and kept as rpt.circularity_2k.  The fixed-k closed form is
    asserted when v4_fixed_k accepts those verdicts, and heads the report
    in place of a d-form.
    """
    p, d, k = tensor.ctx.p, tensor.ctx.d, tensor.ctx.k
    v = power_sums(tensor.spectrum, (1, 2, 3, 4))
    v4 = tensor.v4_exact
    v4_float = float(v4)  # every float test of V_4 reads this one rounding
    rpt = MomentReport(p=p, d=d, k=k, p_mod_8=p % 8, v_direct=v, v4_exact=v4)

    def verdict(name: str, passed: bool) -> None:
        rpt.checks.append(CheckResult(name, True, passed))

    verdict("v4_float_vs_exact", _close(v[4], v4_float))
    rpt.checks.extend(count_checks(tensor))

    if d > 1:
        v2 = rpt.formula_values["v2"] = v2_exact(p, d)
        verdict("v2", _close(v[2], float(v2)))
        b1 = v1_bounds(p, d)
        rpt.bounds[b1.source] = b1
        verdict(f"{b1.source}_bounds", b1.contains(v[1]))

    bands = []  # the applicable V_4 bands, tightest first
    if d == 2:
        rpt.formula = "v4_d2"
        val = v4_d2(p)
        # rows print the form as a float; the verdict compares it exactly
        rpt.formula_values[rpt.formula] = float(val)
        verdict(rpt.formula, val == v4)
    elif d in (3, 4):
        # the exact form shares its name with its band
        val, band = (v4_d3 if d == 3 else v4_d4)(tensor)
        rpt.formula = band.source
        rpt.formula_values[rpt.formula] = val
        verdict(rpt.formula, val == v4)
        bands.append(band)
    if d > 2:
        bands.append(v4_general_bounds(p, d))
    for band in bands:
        rpt.bounds[band.source] = band
        if p > d * d:
            verdict(f"{band.source}_bounds", band.contains(v4_float))
    if bands:
        rpt.band = bands[0].source

    if fixed_k:
        vk = rpt.circularity = is_circular(p, k, tensor)
        # an odd k divides the even p - 1 with 2k
        v2k = rpt.circularity_2k = (is_circular(p, 2 * k, tensor)
                                    if k % 2 and vk.circular else None)
        try:
            val = v4_fixed_k(vk, v2k)
        except NotCircular:
            return rpt
        rpt.formula = "v4_fixed_k_even" if k % 2 == 0 else "v4_fixed_k_odd"
        rpt.formula_values[rpt.formula] = val
        verdict(rpt.formula, val == v4)

    return rpt

"""Exact formulas and bounds for the absolute power sums of Gaussian periods.

Everything that can be rational is kept rational (fractions.Fraction).  The
float bound endpoints are the square roots of the V_1 band and the V_4 ends
involving p^(3/2); `BoundInterval.contains` widens every band, rational ends
included, by a HALF_POWER_SLACK relative slack.  The diagonal solution counts
are read off the structure constants exactly.

A report is built one of two ways.  `build_report` reads a structure tensor:
the fixed-d rows and `verify`.  `fixed_k_report`, a fixed-k sweep row, builds
neither the tensor nor, below `circularity.index_is_cheaper`, a class index:
exact V_4 comes from row 0 of the cyclotomic numbers, the classes of
gamma + 1 for gamma in Gamma = <g^d>, and is checked against the pair count
of Gamma (`v4_pair_count`).  Both kinds of row sum their periods by the one
`periods.compute_periods`, from p, g and d.
"""

import math
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .circularity import (PAIR_CHUNK, CircularityVerdict, SubgroupClasses,
                          subgroup_classes)
from .errors import DimensionMismatch, NotCircular, PreconditionViolated
from .field_core import FieldContext
from . import periods
from .superchar import (CheckResult, StructureTensor, build_tensor,
                        count_checks, zero_sum_counts)

# Float tolerances (exact values are compared exactly; the Gauss sums and
# product identity of verify_identities have UNITARY_TOL and PRODUCT_TOL):
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


def v4_d3(p: int, t0: int) -> tuple[Fraction, BoundInterval]:
    """d = 3: exact value from t_0 = c_{0,0,0} = (0, 0)_3, plus the tight
    p^(3/2) band.  Its upper end is the general band's; only its lower end
    is tighter."""
    if (p - 1) % 3 != 0:
        raise PreconditionViolated("v4_d3 requires d = 3 to divide p - 1")
    value = Fraction(10 * p * p - 20 * p + 1 - 36 * p * t0, 27)
    ph = p ** 1.5
    bounds = BoundInterval("v4_d3",
                           (6 * p * p - 8 * ph + 12 * p + 1) / 27,
                           (6 * p * p + 8 * ph + 12 * p + 1) / 27)
    return value, bounds


def v4_d4(p: int, t0: int, t2: int) -> tuple[Fraction, BoundInterval]:
    """d = 4: exact value and band, branching on p mod 8; the band's source
    names the branch, which reads t_0 = c_{0,0,0} = (0, 0)_4 (p = 1 mod 8)
    or t_2 = c_{0,0,2} = (0, 2)_4 (p = 5 mod 8).  Against the general band,
    mod8_1 shares the upper end and tightens the lower; mod8_5 shares the
    lower end, (3p + 1)^2/64, and tightens the upper."""
    if (p - 1) % 4 != 0:
        raise PreconditionViolated("v4_d4 requires d = 4 to divide p - 1")
    ph = p ** 1.5
    if p % 8 == 1:
        value = Fraction(256 * p * t0 * t0 - (32 * p * p + 224 * p) * t0
                         + p ** 3 + 167 * p * p - 113 * p + 9, 576)
        bounds = BoundInterval("v4_d4_mod8_1",
                               Fraction(17 * p * p - 18 * p + 1, 64),
                               (21 * p * p + 24 * ph + 18 * p + 1) / 64)
        return value, bounds
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


def build_report(tensor: StructureTensor) -> MomentReport:
    """Evaluate every applicable formula and bound for the tensor's context,
    the float power sums V_1..V_4 from its periods `tensor.spectrum`, and
    the exact checks of its counts (`count_checks`, independent of the
    periods when these are read off T).  rpt.checks holds v4_float_vs_exact,
    the count checks, then each form's and band's verdict.  The d = 3, 4
    forms read t_0 and t_2 off the cached c0."""
    c0 = (lambda w: int(tensor.c0[0, w])) if tensor.ctx.d in (3, 4) else None
    return _report(tensor.ctx.p, tensor.ctx.d, tensor.spectrum,
                   tensor.v4_exact, count_checks(tensor), c0)


def fixed_k_report(p: int, k: int) -> MomentReport:
    """The report of a fixed-k sweep row, d = (p-1)/k, from the classes of
    `subgroup_classes`: no structure tensor, and no class index below
    `index_is_cheaper`.

    Row 0 of the cyclotomic numbers, (0, w)_d, counts the classes of
    gamma + 1 for gamma in Gamma \\ {-1}; it gives V_4 = p(k[2d | p-1] +
    sum_w (0, w)_d^2) - k^3 and the t_0, t_2 of the d = 3, 4 forms.  The
    periods are summed by `compute_periods` at every d, also where
    d^3 <= p.  Then come the fixed-k verdicts (`fixed_k_verdicts`)."""
    sc = subgroup_classes(p, k)
    row0 = Counter(sc.row0().tolist())
    # 2d | p - 1 iff k is even
    v4 = Fraction(p * (k * (1 - k % 2) + sum(n * n for n in row0.values()))
                  - k ** 3)
    rpt = _report(p, sc.d, periods.compute_periods(sc), v4, [],
                  row0.__getitem__)
    fixed_k_verdicts(rpt, sc)
    return rpt


def _report(p: int, d: int, spectrum: np.ndarray, v4: Fraction,
            count_results: list[CheckResult],
            row0: Callable[[int], int] | None) -> MomentReport:
    """The report on (p, d) from its periods, its exact V_4, the checks of
    its counts and, at d = 3 and 4, row0(w) = (0, w)_d."""
    k = (p - 1) // d
    v = periods.power_sums(spectrum, (1, 2, 3, 4))
    v4_float = float(v4)  # every float test of V_4 reads this one rounding
    rpt = MomentReport(p=p, d=d, k=k, p_mod_8=p % 8, v_direct=v, v4_exact=v4)

    def verdict(name: str, passed: bool) -> None:
        rpt.checks.append(CheckResult(name, passed))

    verdict("v4_float_vs_exact", _close(v[4], v4_float))
    rpt.checks.extend(count_results)

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
        val, band = v4_d3(p, row0(0)) if d == 3 else v4_d4(p, row0(0), row0(2))
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
    return rpt


def v4_pair_count(p: int, gamma: np.ndarray) -> int:
    """Exact V_4 of (p, k) from the pairs of Gamma, its k elements gamma,
    with no class: V_4 = (p sum_z R_2(z)^2 - k^4)/k, R_2(z) the number of
    (a, b) in Gamma^2 with a + b = z.  Dividing a + b = c + e by a gives
    sum_z R_2(z)^2 = k N, N = #{(b, c) in Gamma^2 : 1 + b - c in Gamma}, so
    V_4 = pN - k^3.  O(k^2) membership tests, PAIR_CHUNK at a time: in a
    table of Gamma over 0 .. 2p when that is no longer than the pairs
    (2p <= k^2), else by binary search, so the memory is O(min(k^2, p))."""
    k = len(gamma)
    rows = max(1, PAIR_CHUNK // k)
    n = 0
    if 2 * p <= k * k:
        member = np.zeros(2 * p, dtype=bool)
        member[gamma] = member[gamma + p] = True
        for a in range(0, k, rows):
            # 1 + b - c + p lies in 3 .. 2p - 1: looked up unreduced
            z = gamma[a:a + rows, None] + (p + 1) - gamma
            n += int(np.count_nonzero(member.take(z)))
    else:
        ordered = np.sort(gamma)
        for a in range(0, k, rows):
            z = (gamma[a:a + rows, None] + 1 - gamma) % p
            # a z past the largest element is clipped onto it, which differs
            found = ordered.take(ordered.searchsorted(z), mode="clip")
            n += int(np.count_nonzero(found == z))
    return p * n - k ** 3


def fixed_k_verdicts(rpt: MomentReport, classes: SubgroupClasses) -> None:
    """Append the fixed-k verdicts of (p, k) to rpt, the classes those of its
    (p, d): v4_pair_count, the pair count of Gamma against rpt.v4_exact,
    then the closed form when v4_fixed_k accepts the circularity verdicts,
    heading the report in place of a d-form.  The verdict on (p, k) is kept
    as rpt.circularity and, for odd k when (p, k) is circular, the one on
    (p, 2k) as rpt.circularity_2k."""
    p, k = classes.p, classes.k
    pairs = v4_pair_count(p, classes.gamma)
    rpt.checks.append(CheckResult("v4_pair_count", pairs == rpt.v4_exact,
                                  f"pairs={pairs} row={rpt.v4_exact}"))
    vk = rpt.circularity = classes.verdict()
    # an odd k divides the even p - 1 with 2k
    v2k = rpt.circularity_2k = (classes.verdict_2k()
                                if k % 2 and vk.circular else None)
    try:
        val = v4_fixed_k(vk, v2k)
    except NotCircular:
        return
    rpt.formula = "v4_fixed_k_even" if k % 2 == 0 else "v4_fixed_k_odd"
    rpt.formula_values[rpt.formula] = val
    rpt.checks.append(CheckResult(rpt.formula, val == rpt.v4_exact))

import collections
import functools
import math
from fractions import Fraction

import pytest

from brute_force import (cubic_period_power_sums, fermat_count_from_periods,
                         gauss_cubic_L, hurwitz_count_from_periods,
                         vn_d2_closed_form)
from gpmoments import (DimensionMismatch, NotCircular, PreconditionViolated,
                       build_context, build_report, build_tensor,
                       compute_periods, fermat_solution_count,
                       fixed_k_report, fixed_k_verdicts, hurwitz_count,
                       power_sums, primes_in_range,
                       v1_bounds, v2_exact, v4_d2, v4_d3, v4_d4,
                       v4_fixed_k, v4_general_bounds)
from gpmoments import moments, superchar
from gpmoments.circularity import is_circular, subgroup_classes
from gpmoments.superchar import StructureTensor


def pipeline(p, d):
    return build_tensor(build_context(p, d))


def d3_form(tensor):
    # the d = 3 form on t_0 = (0, 0)_3 off the dense slice, as build_report
    return v4_d3(tensor.ctx.p, int(tensor.c0[0, 0]))


def d4_form(tensor):
    # the d = 4 form on t_0 = (0, 0)_4 and t_2 = (0, 2)_4
    return v4_d4(tensor.ctx.p, int(tensor.c0[0, 0]), int(tensor.c0[0, 2]))


def direct_v(p, d, n):
    ctx = build_context(p, d)
    return power_sums(compute_periods(ctx), (n,))[n]


# ---------------------------------------------------------------- v2 and v1

def test_v2_exact_examples():
    assert v2_exact(7, 3) == 5
    assert v2_exact(13, 4) == 10
    # d = p-1 collapses to p-1 exactly
    assert v2_exact(13, 12) == 12


@pytest.mark.parametrize("p,d", [(7, 3), (13, 4), (29, 7), (13, 2), (31, 5)])
def test_v2_matches_direct_oracle(p, d):
    assert direct_v(p, d, 2) == pytest.approx(float(v2_exact(p, d)), abs=1e-8)


def test_v2_rejects_d1():
    with pytest.raises(PreconditionViolated):
        v2_exact(7, 1)
    # v1_bounds has the same domain
    with pytest.raises(PreconditionViolated):
        v1_bounds(7, 1)
    with pytest.raises(PreconditionViolated):
        v1_bounds(13, 5)


def test_v1_bounds_examples():
    b = v1_bounds(13, 2)
    assert (float(b.lower), float(b.upper)) == \
        pytest.approx((math.sqrt(7), math.sqrt(14)))
    assert b.contains(direct_v(13, 2, 1))
    b = v1_bounds(7, 3)
    assert (float(b.lower), float(b.upper)) == \
        pytest.approx((math.sqrt(5), math.sqrt(15)))
    assert b.contains(direct_v(7, 3, 1))
    # the lower end is the root of the float of the exact V_2, bit for bit
    for p, d in [(31, 3), (29, 4), (9973, 12), (999983, 2), (1000003, 3)]:
        assert v1_bounds(p, d).lower == math.sqrt(float(v2_exact(p, d)))


# ----------------------------------------------------------------- d = 2

def test_d2_closed_form_examples():
    assert vn_d2_closed_form(13, 1) == pytest.approx(math.sqrt(13))
    assert vn_d2_closed_form(7, 2) == pytest.approx(4.0)
    assert vn_d2_closed_form(13, 4) == pytest.approx(31.0)
    assert vn_d2_closed_form(7, 4) == pytest.approx(8.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_d2_closed_form_vs_direct(n):
    for p in primes_in_range(5, 120):
        assert vn_d2_closed_form(p, n) == pytest.approx(direct_v(p, 2, n), rel=1e-9)


def test_v4_d2_is_exact_and_rounds_to_the_float_form():
    # both branches of p mod 4; the Fraction's float is the float form's,
    # bit for bit, so JSON rows keep their digits
    primes = primes_in_range(3, 3000)
    assert {p % 4 for p in primes} == {1, 3}
    for p in primes:
        value = v4_d2(p)
        assert value == pipeline(p, 2).v4_exact, p
        assert float(value) == vn_d2_closed_form(p, 4), p
    assert (v4_d2(13), v4_d2(7)) == (31, 8)


# --------------------------------------------------- exact V4 from counts

def test_v4_exact_examples():
    assert pipeline(7, 3).v4_exact == 13
    assert pipeline(13, 2).v4_exact == 31
    assert pipeline(13, 6).v4_exact == 31


@pytest.mark.parametrize("p,d", [(7, 3), (13, 4), (17, 4), (29, 7), (31, 6),
                                 (13, 12), (41, 8), (11, 5)])
def test_v4_exact_matches_float_oracle(p, d):
    tensor = pipeline(p, d)
    assert float(tensor.v4_exact) == \
        pytest.approx(power_sums(tensor.eta, (4,))[4], rel=1e-9)


@pytest.mark.parametrize("p,d,fixed_k", [(31, 3, False), (10009, 3336, True)])
def test_report_reads_v4_off_the_row_once(monkeypatch, p, d, fixed_k):
    # the row read of V_4 forms superchar's one Fraction; build_report and
    # count_checks (its v4_row_vs_column) both read it, and it is formed once
    calls = []
    real = superchar.Fraction

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(superchar, "Fraction", counted)
    tensor = pipeline(p, d)
    rpt = build_report(tensor)
    if fixed_k:  # as verify --k adds its fixed-k verdicts
        fixed_k_verdicts(rpt, subgroup_classes(p, tensor.ctx.k, tensor.ctx))
    assert len(calls) == 1
    assert rpt.v4_exact is tensor.v4_exact and rpt.all_passed()
    assert [c.passed for c in rpt.checks if c.name == "v4_row_vs_column"] == [True]


# ----------------------------------------------------------------- d = 3

def test_v4_d3_example_p7():
    tensor = pipeline(7, 3)
    value, bounds = d3_form(tensor)
    assert value == 13
    ph = 7 ** 1.5
    assert float(bounds.lower) == pytest.approx((6 * 49 - 8 * ph + 84 + 1) / 27)
    assert float(bounds.upper) == pytest.approx((6 * 49 + 8 * ph + 84 + 1) / 27)


def test_v4_d3_p13_matches_oracle():
    tensor = pipeline(13, 3)
    value, _ = d3_form(tensor)
    assert float(value) == \
        pytest.approx(power_sums(tensor.eta, (4,))[4], rel=1e-6)
    assert value == tensor.v4_exact


def test_v4_d3_p31_t0_hasse_window():
    tensor = pipeline(31, 3)
    t0 = int(tensor.c0[0, 0])
    p = 31
    assert (p - 2 * math.sqrt(p) - 8) / 9 <= t0 <= (p + 2 * math.sqrt(p) - 8) / 9


def test_v4_d3_rejects_other_d():
    # 3 does not divide 17 - 1, nor 4 divide 19 - 1
    with pytest.raises(PreconditionViolated):
        v4_d3(17, 0)
    with pytest.raises(PreconditionViolated):
        v4_d4(19, 0, 0)


# ----------------------------------------------------------------- d = 4

def test_v4_d4_both_branches_exact():
    tensor = pipeline(17, 4)
    value, band = d4_form(tensor)
    assert band.source == "v4_d4_mod8_1"
    assert value == tensor.v4_exact

    tensor = pipeline(13, 4)
    value, bounds = d4_form(tensor)
    assert bounds.source == "v4_d4_mod8_5"
    assert value == tensor.v4_exact
    p = 13
    assert float(bounds.lower) == pytest.approx((9 * 169 + 78 + 1) / 64)
    assert float(bounds.upper) == \
        pytest.approx((13 * 169 + 8 * 13 ** 1.5 + 130 + 1) / 64)


@pytest.mark.parametrize("p", primes_in_range(17, 600, (4, 1)))
def test_v4_d4_sweep_exact_equality(p):
    tensor = pipeline(p, 4)
    value, bounds = d4_form(tensor)
    assert value == tensor.v4_exact
    if p > 16:
        assert bounds.contains(value)


# ----------------------------------------------------------------- d = 5

@pytest.mark.parametrize("p", [11, 31, 41])
def test_v4_general_bounds_at_d5_contain_exact(p):
    tensor = pipeline(p, 5)
    bounds = v4_general_bounds(p, 5)
    exact = tensor.v4_exact
    if p > 25:
        assert bounds.contains(exact)
    if p == 11:
        assert float(bounds.lower) == pytest.approx(45 ** 2 / 125)


@pytest.mark.parametrize("p", [11, 31, 1021])
def test_d5_report_is_headed_by_the_general_band(p):
    # the general band is the d = 5 band: (4p + 1)^2/125 below and
    # (52p^2 + 48p^(3/2) + 24p + 1)/125 above
    rpt = build_report(pipeline(p, 5))
    assert rpt.band == "v4_general" and rpt.formula == ""
    assert set(rpt.bounds) == {"v1", "v4_general"}
    assert set(rpt.to_json_dict()["bounds"]) == {"v1", "v4_general"}
    band = rpt.bounds["v4_general"]
    assert band.lower == Fraction((4 * p + 1) ** 2, 125)
    assert band.upper == (52 * p * p + 48 * p ** 1.5 + 24 * p + 1) / 125
    names = [c.name for c in rpt.checks]
    assert not any(name.startswith("v4_d") for name in names)
    assert ("v4_general_bounds" in names) == (p > 25)


# ------------------------------------------------------------- general d

def test_general_bounds_example_7_3():
    b = v4_general_bounds(7, 3)
    assert b.lower == Fraction(225, 27)
    assert pipeline(7, 3).v4_exact >= b.lower


def test_general_bounds_d8_sweep():
    for p in primes_in_range(65, 1500, (8, 1)):
        tensor = pipeline(p, 8)
        assert v4_general_bounds(p, 8).contains(tensor.v4_exact)


def test_general_bounds_29_7():
    tensor = pipeline(29, 7)
    assert v4_general_bounds(29, 7).lower <= tensor.v4_exact


@pytest.mark.parametrize("d", [3, 4])
def test_d3_d4_bands_tighten_one_end_of_the_general_band(d):
    # v4_d3 and v4_d4_mod8_1 share the general upper end, v4_d4_mod8_5 the
    # general lower end (3p + 1)^2/64; the other end is strictly tighter
    form = d3_form if d == 3 else d4_form
    for p in primes_in_range(5, 3000, (d, 1)):
        band, general = form(pipeline(p, d))[1], v4_general_bounds(p, d)
        if band.source == "v4_d4_mod8_5":
            assert band.lower == general.lower == Fraction((3 * p + 1) ** 2, 64)
            assert band.upper < general.upper, p
        else:
            assert band.upper == general.upper and band.lower > general.lower, p


def test_general_bounds_reject_small_d():
    with pytest.raises(PreconditionViolated):
        v4_general_bounds(13, 2)


# ------------------------------------------------------------- fixed k

def test_fixed_k_even_example():
    assert v4_fixed_k(is_circular(13, 2)) == 31


def test_fixed_k_odd_example():
    # (7, 6) and (13, 6) are not circular; the first qualifying prime is 31
    assert not is_circular(13, 6).circular
    assert is_circular(31, 6).circular
    assert v4_fixed_k(is_circular(31, 3), is_circular(31, 6)) \
        == 31 * 5 - 27 == 128
    tensor = pipeline(31, 10)
    assert tensor.v4_exact == 128
    # an odd k without the verdict on (p, 2k) is refused, not decided here
    with pytest.raises(NotCircular):
        v4_fixed_k(is_circular(31, 3))


def test_fixed_k_rejects_noncircular():
    with pytest.raises(NotCircular):
        v4_fixed_k(is_circular(5, 4))


# the (p, 2k) verdict beside the (31, 3) one must be on (31, 6): a verdict on
# another prime and k, on another prime with the right 2k, or on the same
# prime with another k is refused
@pytest.mark.parametrize("other", [(13, 4), (37, 6), (31, 5)],
                         ids=["13-4", "37-6", "31-5"])
def test_fixed_k_refuses_a_verdict_on_another_pair(other):
    with pytest.raises(DimensionMismatch):
        v4_fixed_k(is_circular(31, 3), is_circular(*other))


@pytest.mark.parametrize("k", [2, 4])
def test_fixed_k_even_sweep(k):
    for p in primes_in_range(k + 1, 400, (k, 1)):
        if not is_circular(p, k).circular:
            continue
        tensor = pipeline(p, (p - 1) // k)
        assert v4_fixed_k(is_circular(p, k)) == \
            tensor.v4_exact


# --------------------------------------------------- solution counts

def brute_all_tuples(p, d, n):
    residues = [pow(x, d, p) for x in range(p)]
    if n == 2:
        return sum(1 for a in residues for b in residues if (a + b) % p == 0)
    return sum(1 for a in residues for b in residues for c in residues
               if (a + b + c) % p == 0)


def brute_nonzero(p, d):
    residues = [pow(x, d, p) for x in range(1, p)]
    return sum(1 for a in residues for b in residues for c in residues
               if (a + b + c) % p == 0)


@pytest.mark.parametrize("p,d,n", [(7, 3, 3), (13, 3, 3), (13, 4, 2)])
def test_solution_count_formula_matches_brute(p, d, n):
    ctx = build_context(p, d)
    assert fermat_solution_count(ctx, compute_periods(ctx), n) == \
        brute_all_tuples(p, d, n)


# composite d too: d^3 N_3 holds for every d
@pytest.mark.parametrize("p,d,count", [
    (7, 3, 0), (13, 3, 0), (19, 3, 324),
    (13, 4, 384), (37, 6, 2592), (37, 12, 10368), (61, 12, 0)],
    ids=["7", "13", "19", "13-4", "37-6", "37-12", "61-12"])
def test_hurwitz_count_matches_nonzero_brute(p, d, count):
    ctx = build_context(p, d)
    assert brute_nonzero(p, d) == count
    assert hurwitz_count(build_tensor(ctx)) == count


def test_hurwitz_positivity_link():
    # whenever V_3 < k^2 the all-nonzero count is positive
    for p in primes_in_range(7, 120, (3, 1)):
        ctx = build_context(p, 3)
        v3 = power_sums(compute_periods(ctx), (3,))[3]
        if v3 < ctx.k ** 2:
            assert hurwitz_count(build_tensor(ctx)) > 0


@pytest.mark.parametrize("d", range(1, 13))
def test_exact_counts_match_period_formulas(d):
    # every p < 1000 with d | p - 1: the counts stay below 1e9, far inside
    # the range where the rounded float formulas are trustworthy
    for p in primes_in_range(3, 999, (d, 1)):
        ctx = build_context(p, d)
        eta = compute_periods(ctx)
        for n in (2, 3, 4):
            assert fermat_solution_count(ctx, eta, n) == \
                fermat_count_from_periods(ctx, eta, n), (p, n)
        assert hurwitz_count(build_tensor(ctx)) == \
            hurwitz_count_from_periods(ctx, eta), p


@pytest.mark.parametrize("p,count", [(180001, 5832291601620001),
                                     (300007, 27002430067500595)],
                         ids=["180001", "300007"])
def test_solution_count_exact_beyond_float_spacing(p, count):
    # n = 4 gives about p^3, at or above 2^52 where every float is an
    # integer; a rounded float gave 27002430067500596 at p = 300007
    ctx = build_context(p, 3)
    assert fermat_solution_count(ctx, compute_periods(ctx), 4) == count


def test_solution_count_exact_above_int64():
    # about 1e21 > 2^63, checked against Gauss's period polynomial:
    # N_m = (k sum_a eta_a^m + k^m) / p zero-sum m-tuples of X_0
    p, d = 9999991, 3
    k = (p - 1) // d
    assert gauss_cubic_L(p) == -3701
    sums = cubic_period_power_sums(p, 4)
    zero_sums = [(k * s + k ** m) / p for m, s in enumerate(sums)]
    assert all(z.denominator == 1 for z in zero_sums)
    want = sum(math.comb(4, m) * d ** m * zero_sums[m] for m in range(5))
    assert want == 999997900001289999811
    ctx = build_context(p, d)
    assert fermat_solution_count(ctx, compute_periods(ctx), 4) == want


def test_solution_count_keeps_n3_at_large_p():
    ctx = build_context(1000003, 3)
    assert fermat_solution_count(ctx, compute_periods(ctx), 3) == 1001009002015


def test_solution_count_rejects_n1():
    ctx = build_context(7, 3)
    with pytest.raises(PreconditionViolated):
        fermat_solution_count(ctx, compute_periods(ctx), 1)


# ------------------------------------------------------------- reports

def test_report_7_3():
    rpt = build_report(pipeline(7, 3))
    assert rpt.v4_exact == 13
    assert rpt.all_passed()
    assert "v4_d3" in rpt.formula_values


def test_report_13_4_branch():
    rpt = build_report(pipeline(13, 4))
    assert rpt.p_mod_8 == 5
    assert "v4_d4_mod8_5" in rpt.formula_values
    assert rpt.all_passed()


# d^3 <= p in each, so the periods come off T: d = 3, and d = 4 with
# p = 1 and 5 (mod 8)
@pytest.mark.parametrize("p,d", [(31, 3), (73, 4), (101, 4)])
def test_report_reads_the_constants_once_and_forms_v2_once(monkeypatch, p, d):
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    c0 = functools.cached_property(counted("c0", StructureTensor.c0.func))
    c0.__set_name__(StructureTensor, "c0")
    monkeypatch.setattr(StructureTensor, "c0", c0)
    monkeypatch.setattr(StructureTensor, "constant",
                        counted("constant", StructureTensor.constant))
    monkeypatch.setattr(moments, "v2_exact", counted("v2_exact", v2_exact))
    rpt = build_report(pipeline(p, d))
    assert rpt.all_passed()
    # the c0 grid, one scatter of the stored counts that T and the d = 3, 4
    # forms read, and no point lookup; V_2 for its verdict only, as
    # v1_bounds forms none
    assert calls == {"c0": 1, "v2_exact": 1}


def test_report_fixed_k_noncircular_skips_formula():
    rpt = fixed_k_report(5, 4)
    assert not any(name.startswith("v4_fixed_k") for name in rpt.formula_values)
    assert rpt.circularity == is_circular(5, 4)
    assert not rpt.circularity.circular


def test_report_fixed_k_odd_circular_asserts_formula():
    # k = 3 at p = 31: (31, 3) and (31, 6) are circular
    rpt = fixed_k_report(31, 3)
    assert rpt.circularity == is_circular(31, 3)
    assert rpt.circularity.circular
    assert rpt.circularity_2k == is_circular(31, 6)
    assert rpt.formula_values["v4_fixed_k_odd"] == 128
    assert {c.name: c.passed for c in rpt.checks}["v4_fixed_k_odd"]
    assert rpt.all_passed()


def test_report_fixed_k_odd_keeps_the_2k_verdict():
    # (13, 3) is circular but (13, 6) is not, so the odd-k form is skipped
    rpt = fixed_k_report(13, 3)
    assert rpt.circularity.circular
    assert rpt.circularity_2k == is_circular(13, 6)
    assert not rpt.circularity_2k.circular
    assert rpt.formula == "v4_d4_mod8_5"
    # an even k, or an odd k whose pair is not circular, needs no 2k verdict
    assert fixed_k_report(13, 4).circularity_2k is None
    rpt = fixed_k_report(43, 7)
    assert not rpt.circularity.circular
    assert rpt.circularity_2k is None


def test_report_json_roundtrip():
    rpt = build_report(pipeline(13, 4))
    blob = rpt.to_json_dict()
    assert blob["p"] == 13
    # a fixed-d report holds no verdict, and a verdict is never serialized
    assert rpt.circularity is None
    assert "circularity" not in blob
    assert blob["v4_exact"] == [38, 1]
    # the headline names are read off formula_values and bounds, not stored
    assert not {"formula", "band", "circularity_2k"} & blob.keys()


# the ranked names from which the CSV and figure rows picked their headline
# before the report named it: the first one present in the report heads it
FORMULA_RANKING = ("v4_fixed_k_even", "v4_fixed_k_odd", "v4_d2", "v4_d3",
                   "v4_d4_mod8_1", "v4_d4_mod8_5")
BAND_RANKING = ("v4_d3", "v4_d4_mod8_1", "v4_d4_mod8_5", "v4_general")


def _first_present(names, held):
    return next((name for name in names if name in held), "")


@pytest.mark.parametrize("fixed_k, value",
                         [(False, d) for d in (1, 2, 3, 4, 5, 6, 12)]
                         + [(True, k) for k in (2, 3, 4, 5, 6, 12)])
def test_report_headline_matches_the_ranked_names(fixed_k, value):
    checked = 0
    for p in primes_in_range(3, 1999, (value, 1)):
        rpt = (fixed_k_report(p, value) if fixed_k
               else build_report(pipeline(p, value)))
        assert (rpt.formula, rpt.band) == (
            _first_present(FORMULA_RANKING, rpt.formula_values),
            _first_present(BAND_RANKING, rpt.bounds)), p
        checked += 1
    assert checked > 20

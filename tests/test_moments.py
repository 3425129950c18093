import math
from fractions import Fraction

import pytest

from brute_force import (cubic_period_power_sums, fermat_count_from_periods,
                         gauss_cubic_L, hurwitz_count_from_periods)
from gpmoments import (DimensionMismatch, NotCircular, PreconditionViolated,
                       build_context, build_report, build_tensor,
                       compute_periods, fermat_solution_count, hurwitz_count,
                       power_sum_direct, primes_in_range,
                       v1_bounds, v2_exact, v4_d3, v4_d4,
                       v4_d5_bounds, v4_exact_from_counts, v4_fixed_k,
                       v4_general_bounds, vn_d2_closed_form)
from gpmoments.circularity import is_circular


def pipeline(p, d):
    return build_tensor(build_context(p, d))


def direct_v(p, d, n):
    ctx = build_context(p, d)
    return power_sum_direct(compute_periods(ctx), n)


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


def test_v1_bounds_examples():
    b = v1_bounds(13, 2)
    assert (float(b.lower), float(b.upper)) == \
        pytest.approx((math.sqrt(7), math.sqrt(14)))
    assert b.contains(direct_v(13, 2, 1))
    b = v1_bounds(7, 3)
    assert (float(b.lower), float(b.upper)) == \
        pytest.approx((math.sqrt(5), math.sqrt(15)))
    assert b.contains(direct_v(7, 3, 1))


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


# --------------------------------------------------- exact V4 from counts

def test_v4_exact_examples():
    assert v4_exact_from_counts(pipeline(7, 3)) == 13
    assert v4_exact_from_counts(pipeline(13, 2)) == 31
    assert v4_exact_from_counts(pipeline(13, 6)) == 31


@pytest.mark.parametrize("p,d", [(7, 3), (13, 4), (17, 4), (29, 7), (31, 6),
                                 (13, 12), (41, 8), (11, 5)])
def test_v4_exact_matches_float_oracle(p, d):
    tensor = pipeline(p, d)
    assert float(v4_exact_from_counts(tensor)) == \
        pytest.approx(power_sum_direct(tensor.eta, 4), rel=1e-9)


# ----------------------------------------------------------------- d = 3

def test_v4_d3_example_p7():
    tensor = pipeline(7, 3)
    value, bounds = v4_d3(tensor)
    assert value == 13
    ph = 7 ** 1.5
    assert float(bounds.lower) == pytest.approx((6 * 49 - 8 * ph + 84 + 1) / 27)
    assert float(bounds.upper) == pytest.approx((6 * 49 + 8 * ph + 84 + 1) / 27)


def test_v4_d3_p13_matches_oracle():
    tensor = pipeline(13, 3)
    value, _ = v4_d3(tensor)
    assert float(value) == \
        pytest.approx(power_sum_direct(tensor.eta, 4), rel=1e-6)
    assert value == v4_exact_from_counts(tensor)


def test_v4_d3_p31_t0_hasse_window():
    tensor = pipeline(31, 3)
    t0 = int(tensor.c0[0, 0])
    p = 31
    assert (p - 2 * math.sqrt(p) - 8) / 9 <= t0 <= (p + 2 * math.sqrt(p) - 8) / 9


def test_v4_d3_rejects_other_d():
    with pytest.raises(PreconditionViolated):
        v4_d3(pipeline(13, 4))


# ----------------------------------------------------------------- d = 4

def test_v4_d4_both_branches_exact():
    tensor = pipeline(17, 4)
    value, _, branch = v4_d4(tensor)
    assert branch == "mod8_1"
    assert value == v4_exact_from_counts(tensor)

    tensor = pipeline(13, 4)
    value, bounds, branch = v4_d4(tensor)
    assert branch == "mod8_5"
    assert value == v4_exact_from_counts(tensor)
    p = 13
    assert float(bounds.lower) == pytest.approx((9 * 169 + 78 + 1) / 64)
    assert float(bounds.upper) == \
        pytest.approx((13 * 169 + 8 * 13 ** 1.5 + 130 + 1) / 64)


@pytest.mark.parametrize("p", primes_in_range(17, 600, (4, 1)))
def test_v4_d4_sweep_exact_equality(p):
    tensor = pipeline(p, 4)
    value, bounds, _ = v4_d4(tensor)
    assert value == v4_exact_from_counts(tensor)
    if p > 16:
        assert bounds.contains(value)


# ----------------------------------------------------------------- d = 5

@pytest.mark.parametrize("p", [11, 31, 41])
def test_v4_d5_bounds_contain_exact(p):
    tensor = pipeline(p, 5)
    bounds = v4_d5_bounds(p, 5)
    exact = v4_exact_from_counts(tensor)
    if p > 25:
        assert bounds.contains(exact)
    if p == 11:
        assert float(bounds.lower) == pytest.approx(45 ** 2 / 125)


# ------------------------------------------------------------- general d

def test_general_bounds_example_7_3():
    b = v4_general_bounds(7, 3)
    assert b.lower == Fraction(225, 27)
    assert v4_exact_from_counts(pipeline(7, 3)) >= b.lower


def test_general_bounds_d8_sweep():
    for p in primes_in_range(65, 1500, (8, 1)):
        tensor = pipeline(p, 8)
        assert v4_general_bounds(p, 8).contains(v4_exact_from_counts(tensor))


def test_general_bounds_29_7():
    tensor = pipeline(29, 7)
    assert v4_general_bounds(29, 7).lower <= v4_exact_from_counts(tensor)


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
    assert v4_exact_from_counts(tensor) == 128
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
            v4_exact_from_counts(tensor)


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
        v3 = power_sum_direct(compute_periods(ctx), 3)
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


def test_report_fixed_k_noncircular_skips_formula():
    tensor = pipeline(5, 1)
    rpt = build_report(tensor, fixed_k=True)
    assert not any(name.startswith("v4_fixed_k") for name in rpt.formula_values)
    assert rpt.circularity == is_circular(5, 4)
    assert not rpt.circularity.circular


def test_report_fixed_k_odd_circular_asserts_formula():
    # k = 3 at p = 31: (31, 3) and (31, 6) are circular
    rpt = build_report(pipeline(31, 10), fixed_k=True)
    assert rpt.circularity == is_circular(31, 3)
    assert rpt.circularity.circular
    assert rpt.formula_values["v4_fixed_k_odd"] == 128
    assert rpt.verdicts["v4_fixed_k_odd"]
    assert rpt.all_passed()


def test_report_json_roundtrip():
    rpt = build_report(pipeline(13, 4))
    blob = rpt.to_json_dict()
    assert blob["p"] == 13
    # a fixed-d report holds no verdict, and a verdict is never serialized
    assert rpt.circularity is None
    assert "circularity" not in blob
    assert blob["v4_exact"] == [38, 1]

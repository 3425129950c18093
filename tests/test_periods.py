import cmath
import math

import pytest
from hypothesis import given, settings, strategies as st

from gpmoments import (build_context, compute_periods, gauss_sum_aggregate,
                       power_sum_direct, primes_in_range)


def identity_tolerance(ctx):
    # absolute tolerance for float identity checks: roundoff accumulated over
    # k-term sums across d classes
    return 1e-12 * ctx.p * max(ctx.k, 1)


def brute_period(p, g, d, a):
    # independent oracle: literal summation of e^(2 pi i g^(dj+a) / p)
    k = (p - 1) // d
    return sum(cmath.exp(2j * math.pi * pow(g, d * j + a, p) / p)
               for j in range(k))


def test_periods_p5_d2_golden_ratio_values():
    pv = compute_periods(build_context(5, 2))
    assert pv.eta[0] == pytest.approx((-1 + math.sqrt(5)) / 2, abs=1e-12)
    assert pv.eta[1] == pytest.approx((-1 - math.sqrt(5)) / 2, abs=1e-12)


def test_periods_p7_d2_complex_pair():
    pv = compute_periods(build_context(7, 2))
    vals = sorted(pv.eta, key=lambda z: z.imag)
    assert vals[0] == pytest.approx((-1 - 1j * math.sqrt(7)) / 2, abs=1e-12)
    assert vals[1] == pytest.approx((-1 + 1j * math.sqrt(7)) / 2, abs=1e-12)


@pytest.mark.parametrize("p,d", [(13, 3), (29, 7), (31, 5), (41, 8)])
def test_periods_match_brute_force(p, d):
    ctx = build_context(p, d)
    pv = compute_periods(ctx)
    for a in range(d):
        assert pv.eta[a] == pytest.approx(brute_period(p, ctx.g, d, a), abs=1e-10)


@st.composite
def contexts(draw):
    p = draw(st.sampled_from(primes_in_range(3, 300)))
    divisors = [d for d in range(1, p) if (p - 1) % d == 0]
    return build_context(p, draw(st.sampled_from(divisors)))


@settings(max_examples=40, deadline=None)
@given(contexts())
def test_period_sum_is_minus_one(ctx):
    pv = compute_periods(ctx)
    assert abs(sum(pv.eta) + 1) < identity_tolerance(ctx)


@settings(max_examples=40, deadline=None)
@given(contexts())
def test_periods_real_when_minus_one_in_subgroup(ctx):
    if (ctx.p - 1) % (2 * ctx.d) == 0:
        pv = compute_periods(ctx)
        assert max(abs(e.imag) for e in pv.eta) < identity_tolerance(ctx)


@settings(max_examples=40, deadline=None)
@given(contexts())
def test_period_modulus_bounded_by_class_size(ctx):
    pv = compute_periods(ctx)
    assert all(abs(e) <= ctx.k + 1e-9 for e in pv.eta)


def test_power_sum_d2_closed_values():
    assert power_sum_direct(compute_periods(build_context(13, 2)), 1).value == \
        pytest.approx(math.sqrt(13), abs=1e-10)
    assert power_sum_direct(compute_periods(build_context(7, 2)), 1).value == \
        pytest.approx(math.sqrt(8), abs=1e-10)


def test_power_sum_p7_d3_fourth():
    # oracle: the three periods of p=7 are 2cos(2 pi 3^a / 7) summed over cosets
    ctx = build_context(7, 3)
    oracle = sum(abs(brute_period(7, ctx.g, 3, a)) ** 4 for a in range(3))
    assert oracle == pytest.approx(13.0, abs=1e-9)
    assert power_sum_direct(compute_periods(ctx), 4).value == \
        pytest.approx(13.0, abs=1e-6)


def test_power_sum_rejects_n0():
    pv = compute_periods(build_context(7, 3))
    with pytest.raises(ValueError):
        power_sum_direct(pv, 0)


@pytest.mark.parametrize("p,d", [(5, 2), (7, 3), (13, 4), (29, 7), (13, 2)])
def test_gauss_sum_aggregate_matches_period_identity(p, d):
    ctx = build_context(p, d)
    pv = compute_periods(ctx)
    agg = gauss_sum_aggregate(ctx)
    assert abs(agg - (1 + d * pv.eta[0])) < 1e-9


def test_gauss_sum_aggregate_quadratic():
    # quadratic case by brute force: sum of e^(2 pi i n^2 / 5)
    oracle = sum(cmath.exp(2j * math.pi * (n * n % 5) / 5) for n in range(5))
    assert gauss_sum_aggregate(build_context(5, 2)) == pytest.approx(oracle)
    assert oracle == pytest.approx(math.sqrt(5), abs=1e-9)


def test_gauss_sum_aggregate_d1_vanishes():
    assert abs(gauss_sum_aggregate(build_context(11, 1))) < 1e-9


def test_period_multiset_invariant_under_shifted_summation():
    # recompute each period starting from a different coset representative
    p, d = 29, 4
    ctx = build_context(p, d)
    pv = compute_periods(ctx)
    for a in range(d):
        shift = pow(ctx.g, d * 2, p)  # another representative of the same coset
        redone = sum(cmath.exp(2j * math.pi *
                               (pow(ctx.g, a, p) * shift * pow(ctx.g, d * j, p) % p)
                               / p)
                     for j in range(ctx.k))
        assert redone == pytest.approx(complex(pv.eta[a]), abs=1e-9)

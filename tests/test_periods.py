import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brute_force import gauss_sum_aggregate, periods_by_class
from gpmoments import (build_context, compute_periods, power_sum_direct,
                       primes_in_range)
from gpmoments.periods import PERIOD_CHUNK


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
    eta = compute_periods(build_context(5, 2))
    assert eta[0] == pytest.approx((-1 + math.sqrt(5)) / 2, abs=1e-12)
    assert eta[1] == pytest.approx((-1 - math.sqrt(5)) / 2, abs=1e-12)


def test_periods_p7_d2_complex_pair():
    eta = compute_periods(build_context(7, 2))
    vals = sorted(eta, key=lambda z: z.imag)
    assert vals[0] == pytest.approx((-1 - 1j * math.sqrt(7)) / 2, abs=1e-12)
    assert vals[1] == pytest.approx((-1 + 1j * math.sqrt(7)) / 2, abs=1e-12)


@pytest.mark.parametrize("p,d", [(13, 3), (29, 7), (31, 5), (41, 8)])
def test_periods_match_brute_force(p, d):
    ctx = build_context(p, d)
    eta = compute_periods(ctx)
    for a in range(d):
        assert eta[a] == pytest.approx(brute_period(p, ctx.g, d, a), abs=1e-10)


def longdouble_periods(ctx):
    # reference eta in extended precision, one longdouble sum per class
    two_pi = 2 * np.arccos(np.longdouble(-1))
    theta = two_pi * ctx.cosets.astype(np.longdouble) / ctx.p
    return np.cos(theta).sum(axis=1), np.sin(theta).sum(axis=1)


def max_error(eta, reference):
    re, im = reference
    return float(np.max(np.hypot(eta.real.astype(np.longdouble) - re,
                                 eta.imag.astype(np.longdouble) - im)))


# block boundaries of compute_periods, which sums k/2 columns of every row
# for even k and k columns of the first d/2 rows for odd k: one row per block
# just under the chunk, two rows of 2048 columns, several rows per block with
# a partial last block, a single partial block, k = 1 and 2, and the sizes of
# the benchmark's primes near 5e4 and 1e6
BLOCK_CASES = [(8191, 2), (12289, 3), (4099, 2), (12289, 6), (8191, 6),
               (9973, 2493), (2731, 2), (13, 12), (3, 1), (3, 2), (7, 1),
               (7, 6), (5, 4), (49999, 3), (1000003, 3), (1000117, 12)]


@pytest.mark.parametrize("p,d", BLOCK_CASES)
def test_periods_symmetry_is_bitwise(p, d):
    # even k: -1 is in the subgroup and eta is exactly real; odd k: the
    # second half of the classes are the negated first half, so conjugates
    assert PERIOD_CHUNK == 4096  # the cases sit on the boundaries of this chunk
    ctx = build_context(p, d)
    eta = compute_periods(ctx)
    assert eta.dtype == np.complex128
    if ctx.k % 2 == 0:
        assert not eta.imag.any()
    else:
        assert eta[d // 2:].tobytes() == eta[:d // 2].conj().tobytes()


@pytest.mark.parametrize("p,d", BLOCK_CASES)
def test_periods_are_row_sums_bit_for_bit(p, d):
    # each eta is the pairwise sum of its own row alone, one 1-D array at a
    # time: the strided cosets view and the blocks change no bit
    ctx = build_context(p, d)
    eta = compute_periods(ctx)
    for a in range(d if ctx.k % 2 == 0 else d // 2):
        if ctx.k % 2 == 0:
            x = np.array(ctx.cosets[a, :ctx.k // 2])
            theta = np.minimum(x, p - x) * (2 * np.pi) * (1.0 / p)
            expected = complex(2 * np.cos(theta).sum())
        else:
            x = np.array(ctx.cosets[a])
            expected = complex(np.exp(2j * np.pi * x / p).sum())
        assert eta[a] == expected, a


@pytest.mark.parametrize("p,d", BLOCK_CASES)
def test_periods_as_accurate_as_per_class_sums(p, d):
    assert np.finfo(np.longdouble).eps < 1e-18  # the reference must be finer
    ctx = build_context(p, d)
    reference = longdouble_periods(ctx)
    baseline = max_error(periods_by_class(ctx), reference)
    error = max_error(compute_periods(ctx), reference)
    assert error <= 2 * max(baseline, np.finfo(np.float64).eps * ctx.k)


@st.composite
def contexts(draw):
    p = draw(st.sampled_from(primes_in_range(3, 300)))
    divisors = [d for d in range(1, p) if (p - 1) % d == 0]
    return build_context(p, draw(st.sampled_from(divisors)))


@settings(max_examples=40, deadline=None)
@given(contexts())
def test_period_sum_is_minus_one(ctx):
    eta = compute_periods(ctx)
    assert abs(sum(eta) + 1) < identity_tolerance(ctx)


@settings(max_examples=40, deadline=None)
@given(contexts())
def test_periods_real_when_minus_one_in_subgroup(ctx):
    if (ctx.p - 1) % (2 * ctx.d) == 0:
        assert not compute_periods(ctx).imag.any()


@settings(max_examples=40, deadline=None)
@given(contexts())
def test_periods_conjugate_rows_when_k_odd(ctx):
    if ctx.k % 2 == 1:
        eta = compute_periods(ctx)
        half = ctx.d // 2
        assert eta[half:].tobytes() == eta[:half].conj().tobytes()


@settings(max_examples=40, deadline=None)
@given(contexts())
def test_period_modulus_bounded_by_class_size(ctx):
    eta = compute_periods(ctx)
    assert all(abs(e) <= ctx.k + 1e-9 for e in eta)


def test_power_sum_d2_closed_values():
    assert power_sum_direct(compute_periods(build_context(13, 2)), 1) == \
        pytest.approx(math.sqrt(13), abs=1e-10)
    assert power_sum_direct(compute_periods(build_context(7, 2)), 1) == \
        pytest.approx(math.sqrt(8), abs=1e-10)


def test_power_sum_p7_d3_fourth():
    # oracle: the three periods of p=7 are 2cos(2 pi 3^a / 7) summed over cosets
    ctx = build_context(7, 3)
    oracle = sum(abs(brute_period(7, ctx.g, 3, a)) ** 4 for a in range(3))
    assert oracle == pytest.approx(13.0, abs=1e-9)
    assert power_sum_direct(compute_periods(ctx), 4) == \
        pytest.approx(13.0, abs=1e-6)


def test_power_sum_rejects_n0():
    eta = compute_periods(build_context(7, 3))
    with pytest.raises(ValueError):
        power_sum_direct(eta, 0)


@pytest.mark.parametrize("p,d", [(5, 2), (7, 3), (13, 4), (29, 7), (13, 2)])
def test_gauss_sum_aggregate_matches_period_identity(p, d):
    ctx = build_context(p, d)
    eta = compute_periods(ctx)
    agg = gauss_sum_aggregate(p, d)
    assert abs(agg - (1 + d * eta[0])) < 1e-9


def test_gauss_sum_aggregate_quadratic():
    # quadratic case by brute force: sum of e^(2 pi i n^2 / 5)
    oracle = sum(cmath.exp(2j * math.pi * (n * n % 5) / 5) for n in range(5))
    assert gauss_sum_aggregate(5, 2) == pytest.approx(oracle)
    assert oracle == pytest.approx(math.sqrt(5), abs=1e-9)


def test_gauss_sum_aggregate_d1_vanishes():
    assert abs(gauss_sum_aggregate(11, 1)) < 1e-9


def test_period_multiset_invariant_under_shifted_summation():
    # recompute each period starting from a different coset representative
    p, d = 29, 4
    ctx = build_context(p, d)
    eta = compute_periods(ctx)
    for a in range(d):
        shift = pow(ctx.g, d * 2, p)  # another representative of the same coset
        redone = sum(cmath.exp(2j * math.pi *
                               (pow(ctx.g, a, p) * shift * pow(ctx.g, d * j, p) % p)
                               / p)
                     for j in range(ctx.k))
        assert redone == pytest.approx(complex(eta[a]), abs=1e-9)

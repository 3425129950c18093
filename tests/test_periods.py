import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from brute_force import coset_rows, gauss_sum_aggregate, periods_by_class
from gpmoments import (PreconditionViolated, build_context, compute_periods,
                       power_sums, primes_in_range)
from gpmoments.periods import PERIOD_CHUNK, _row_sums, _unit_root_tables


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
    theta = two_pi * coset_rows(ctx).astype(np.longdouble) / ctx.p
    return np.cos(theta).sum(axis=1), np.sin(theta).sum(axis=1)


def max_error(eta, reference):
    re, im = reference
    return float(np.max(np.hypot(eta.real.astype(np.longdouble) - re,
                                 eta.imag.astype(np.longdouble) - im)))


# block boundaries of compute_periods, which sums k/2 columns of every row
# for even k and k columns of the first d/2 rows for odd k, in blocks of
# max(1, PERIOD_CHUNK // columns) rows filled PERIOD_CHUNK terms at a time:
# one row per block just under the chunk, exactly the chunk, one term over
# it (a strip of one term), two rows of 8192 columns, one row just over half
# the chunk, several rows per block with a partial last block (for 2048
# columns, and for k = 4 and 3), a single partial block (even k, k = 4, and
# odd k of 4095, 2049 and 1365 columns), k = 1 and 2, and the sizes of the
# benchmark's primes near 5e4 and 1e6
BLOCK_CASES = [(98299, 6), (65537, 2), (32771, 1), (32771, 2), (65537, 4),
               (49171, 3), (40961, 10), (40961, 10240), (32779, 10926),
               (12289, 3), (12289, 6), (9973, 2493), (8191, 2), (4099, 2),
               (8191, 6), (2731, 2), (13, 12), (3, 1), (3, 2), (7, 1), (7, 6),
               (5, 4), (49999, 3), (1000003, 3), (1000033, 4), (1000117, 12)]


@pytest.mark.parametrize("p,d", BLOCK_CASES)
def test_periods_symmetry_is_bitwise(p, d):
    # even k: -1 is in the subgroup and eta is exactly real; odd k: the
    # second half of the classes are the negated first half, so conjugates
    assert PERIOD_CHUNK == 16384  # the cases sit on the boundaries of this chunk
    ctx = build_context(p, d)
    eta = compute_periods(ctx)
    assert eta.dtype == np.complex128
    if ctx.k % 2 == 0:
        assert not eta.imag.any()
    else:
        assert eta[d // 2:].tobytes() == eta[:d // 2].conj().tobytes()


def row_period(ctx, a):
    # eta[a] alone from the same unit-root tables, its terms one 1-D array
    # of the pow-built row
    s, low, high = _unit_root_tables(ctx.p)
    row = coset_rows(ctx)[a]
    x = row[:ctx.k // 2] if ctx.k % 2 == 0 else row
    h, l = high[x >> s], low[x & ((1 << s) - 1)]
    cos = h.real * l.real - h.imag * l.imag
    if ctx.k % 2 == 0:
        return complex(2 * cos.sum())
    return complex(cos.sum(), (h.imag * l.real + h.real * l.imag).sum())


@pytest.mark.parametrize("p,d", BLOCK_CASES)
def test_periods_are_row_sums_bit_for_bit(p, d):
    # each eta is the pairwise sum of its own row alone, one 1-D array at a
    # time: forming the rows from heads, the blocks and the strips change no
    # bit
    ctx = build_context(p, d)
    eta = compute_periods(ctx)
    for a in range(d if ctx.k % 2 == 0 else d // 2):
        assert eta[a] == row_period(ctx, a), a


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2), st.integers(1, 40), st.integers(1, 7),
       st.integers(0, 3), st.data())
def test_short_row_sums_are_numpys_bit_for_bit(m, rows, n, spare, data):
    # rows of 1..7 terms, summed by column adds, against numpy's own row sum
    # of the same block: a view of the leading rows of a taller buffer, as
    # compute_periods passes it.  Any finite values, signed zeros included:
    # a numpy release that sums short rows in another order fails here
    buf = data.draw(hnp.arrays(np.float64, (m, rows + spare, n),
                               elements=st.floats(allow_nan=False,
                                                  allow_infinity=False,
                                                  min_value=-1e150,
                                                  max_value=1e150)))
    block = buf[:, :rows]
    got = _row_sums(block)
    assert got.shape == (m, rows)
    assert got.tobytes() == block.sum(axis=2).tobytes()


@pytest.mark.parametrize("p,d", [(1013, 4), (9973, 2493), (9973, 3324),
                                 (10007, 1), (1000003, 3), (1000117, 12)])
def test_periods_do_not_depend_on_table_dtype(monkeypatch, p, d):
    # the strips compute_periods forms from the int32 heads, in the order it
    # forms them, tile the int64 pow-built rows it sums, bit for bit: odd k
    # (1013, 1000117), fixed k = 4 and 3 (9973), d = 1, and even k near 1e6
    ctx = build_context(p, d)
    strips = []
    real = np.right_shift

    def spy(x, *args, **kwargs):
        strips.append(np.array(x))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np, "right_shift", spy)
    compute_periods(ctx)
    monkeypatch.undo()
    n_rows, cols = (d, ctx.k // 2) if ctx.k % 2 == 0 else (d // 2, ctx.k)
    tiled = np.zeros((n_rows, cols), dtype=np.int64)
    a = c = 0
    for x in strips:
        n, w = x.shape
        assert x.dtype == np.int64 and a + n <= n_rows and c + w <= cols
        tiled[a:a + n, c:c + w] = x
        c += w
        if c == cols:
            a, c = a + n, 0
    assert (a, c) == (n_rows, 0)
    assert np.array_equal(tiled, coset_rows(ctx)[:n_rows, :cols])


@pytest.mark.parametrize("p", [3, 5, 7, 8191, 65537, 1000003])
def test_unit_root_tables_cover_every_term(p):
    # x = q 2^s + r for every x in 1..p-1, each product within a few
    # roundings of e(x/p), the tables about sqrt(p) long
    s, low, high = _unit_root_tables(p)
    assert len(low) == 1 << s and len(high) == ((p - 1) >> s) + 1
    assert len(low) + len(high) <= 3 * math.isqrt(p) + 3
    x = np.arange(1, p)
    z = high[x >> s] * low[x & ((1 << s) - 1)]
    theta = 2 * np.arccos(np.longdouble(-1)) * x.astype(np.longdouble) / p
    assert np.max(np.hypot(z.real - np.cos(theta), z.imag - np.sin(theta))) < 1e-15


@pytest.mark.parametrize("p,d", BLOCK_CASES)
def test_periods_as_accurate_as_per_class_sums(p, d):
    assert np.finfo(np.longdouble).eps < 1e-18  # the reference must be finer
    ctx = build_context(p, d)
    reference = longdouble_periods(ctx)
    baseline = max_error(periods_by_class(ctx), reference)
    error = max_error(compute_periods(ctx), reference)
    assert error <= 2 * max(baseline, np.finfo(np.float64).eps * ctx.k)


@pytest.mark.parametrize("p", [1000003, 1000033, 9999973, 9999991])
@pytest.mark.parametrize("d", [1, 2])
def test_periods_match_exact_values(p, d):
    # d = 1: the one period is -1.  d = 2: eta[0] sums over the squares, so
    # it is (-1 + G)/2 and eta[1] = (-1 - G)/2, with the quadratic Gauss sum
    # G = sqrt(p) for p = 1 (mod 4) and i sqrt(p) for p = 3 (mod 4)
    assert np.finfo(np.longdouble).eps < 1e-18  # the reference must be finer
    eta = compute_periods(build_context(p, d))
    half = np.sqrt(np.longdouble(p)) / 2
    if d == 1:
        re, im = np.array([-1], dtype=np.longdouble), np.zeros(1, np.longdouble)
    elif p % 4 == 1:
        re, im = np.array([-0.5 + half, -0.5 - half]), np.zeros(2, np.longdouble)
    else:
        re, im = np.full(2, np.longdouble(-0.5)), np.array([half, -half])
    assert max_error(eta, (re, im)) <= 2e-11


def counted_unit_roots(monkeypatch):
    # elements passed to np.cos, np.sin and np.exp from now on
    count = [0]
    for name in ("cos", "sin", "exp"):
        def counted(x, *args, real=getattr(np, name), **kwargs):
            count[0] += np.size(x)
            return real(x, *args, **kwargs)
        monkeypatch.setattr(np, name, counted)
    return count


@pytest.mark.parametrize("p,d", [(1000003, 3), (1000117, 12)])
def test_periods_evaluate_sqrt_p_unit_roots(monkeypatch, p, d):
    # the (p - 1)/2 terms come from tables: no cosine or exponential per term
    ctx = build_context(p, d)
    count = counted_unit_roots(monkeypatch)
    compute_periods(ctx)
    assert 0 < count[0] <= 5 * math.ceil(math.sqrt(p)) + 16


@pytest.mark.parametrize("p,d", [(1000003, 3), (1000033, 4), (1000117, 12)])
def test_periods_peak_memory(p, d):
    # the rows being summed and PERIOD_CHUNK-term scratch, no O(p) copy
    ctx = build_context(p, d)
    tracemalloc.start()
    try:
        compute_periods(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 10**6


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
    assert power_sums(compute_periods(build_context(13, 2)), (1,))[1] == \
        pytest.approx(math.sqrt(13), abs=1e-10)
    assert power_sums(compute_periods(build_context(7, 2)), (1,))[1] == \
        pytest.approx(math.sqrt(8), abs=1e-10)


def test_power_sum_p7_d3_fourth():
    # oracle: the three periods of p=7 are 2cos(2 pi 3^a / 7) summed over cosets
    ctx = build_context(7, 3)
    oracle = sum(abs(brute_period(7, ctx.g, 3, a)) ** 4 for a in range(3))
    assert oracle == pytest.approx(13.0, abs=1e-9)
    assert power_sums(compute_periods(ctx), (4,))[4] == \
        pytest.approx(13.0, abs=1e-6)


def test_power_sum_rejects_n0():
    eta = compute_periods(build_context(7, 3))
    with pytest.raises(PreconditionViolated):
        power_sums(eta, (0,))


def test_power_sum_rejects_no_n():
    eta = compute_periods(build_context(7, 3))
    with pytest.raises(PreconditionViolated):
        power_sums(eta, ())


def test_power_sum_reads_an_iterator_once():
    eta = compute_periods(build_context(7, 3))
    assert power_sums(eta, iter((1, 4))) == power_sums(eta, (1, 4))
    with pytest.raises(PreconditionViolated):
        power_sums(eta, iter((2, 0)))


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

import dataclasses
import math
import tracemalloc

import pytest

from brute_force import brute_projective, dictionary_check, subgroup_projective
from gpmoments import (ConfigInvalid, PowerTable, build_context, build_tensor,
                       count_projective, primes_in_range)


def test_count_7_3_origin():
    ctx = build_context(7, 3)
    cc = count_projective(build_tensor(ctx), 0, 0, 0)
    assert cc.M == 9
    assert cc.genus == 1
    assert cc.M == brute_projective(ctx, 0, 0, 0)


def test_count_d1_is_projective_line():
    for p in (7, 13, 31):
        cc = count_projective(build_tensor(build_context(p, 1)), 0, 0, 0)
        assert cc.M == p + 1
        assert cc.genus == 0


def test_count_13_3_hasse_window_and_divisibility():
    ctx = build_context(13, 3)
    cc = count_projective(build_tensor(ctx), 0, 0, 0)
    assert cc.M == brute_projective(ctx, 0, 0, 0)
    assert abs(cc.M - 14) <= 2 * math.sqrt(13)
    assert cc.M % 3 == 0


# d = 1; d = 2 with p = 1 and p = 3 (mod 4); d = p - 1; even d with alpha = 0
@pytest.mark.parametrize("p,d", [(7, 3), (13, 4), (13, 3), (11, 5), (13, 6),
                                 (7, 1), (13, 2), (11, 2), (13, 12), (11, 10),
                                 (17, 8)])
def test_counts_match_brute_force_full_grid(p, d):
    ctx = build_context(p, d)
    tensor = build_tensor(ctx)
    table = PowerTable(tensor)
    # the d^3 counts are the d x d grid M(0, j', r)
    assert table.M.shape == table.hw_margin.shape == (d, d)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                m = count_projective(tensor, i, j, k).M
                assert m == brute_projective(ctx, i, j, k), (i, j, k)
                assert m == table.M[(j - i) % d, (k - i) % d], (i, j, k)


@pytest.mark.parametrize("p,d", [(7, 3), (13, 4), (11, 5), (13, 6), (7, 1),
                                 (13, 2), (11, 2), (13, 12), (11, 10), (17, 8)])
def test_power_table_grid_matches_counts_and_oracle(p, d):
    ctx = build_context(p, d)
    tensor = build_tensor(ctx)
    table = PowerTable(tensor)
    for j in range(d):
        for r in range(d):
            cc = count_projective(tensor, 0, j, r)
            assert table.M[j, r] == cc.M == subgroup_projective(ctx, 0, j, r)
            assert table.hw_margin[j, r] == cc.hw_margin


def test_single_count_touches_nothing_of_size_d_squared():
    # d = p - 1: a d x d grid would be about 800 MB; one count is a lookup
    ctx = build_context(10007, 10006)
    tensor = build_tensor(ctx)
    tracemalloc.start()
    try:
        m = count_projective(tensor, 0, 0, 0).M
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m == subgroup_projective(ctx, 0, 0, 0)
    assert peak < 64 * 1024
    # the grid itself is refused before it is allocated
    with pytest.raises(ConfigInvalid):
        PowerTable(tensor)


def test_dictionary_7_3_origin():
    ctx = build_context(7, 3)
    tensor = build_tensor(ctx)
    # 9 = 9*0 + 3*(1 + 1 + 1): both unit deltas plus the point at infinity,
    # which is there because d | alpha
    assert ctx.alpha == 0
    assert tensor.constant(0, 0) == 0
    assert count_projective(tensor, 0, 0, 0).M == 9
    assert dictionary_check(tensor, 0, 0, 0)


def test_dictionary_d4_mod8_branches():
    # p = 1 (mod 8): M_{0,0,0} = 16 t_0 + 12
    for p in primes_in_range(17, 200, (8, 1)):
        tensor = build_tensor(build_context(p, 4))
        t0 = int(tensor.c0[0, 0])
        assert count_projective(tensor, 0, 0, 0).M == 16 * t0 + 12
    # p = 5 (mod 8): all deltas vanish at (0,0,2), so M_{0,0,2} = 16 t_2
    for p in primes_in_range(13, 200, (8, 5)):
        ctx = build_context(p, 4)
        tensor = build_tensor(ctx)
        t2 = int(tensor.c0[0, 2])
        assert ctx.alpha == 2  # no point on z = 0
        assert count_projective(tensor, 0, 0, 2).M == 16 * t2


def test_dictionary_full_grid_small_contexts():
    for p, d in [(7, 3), (13, 4), (11, 5), (29, 7), (31, 6)]:
        tensor = build_tensor(build_context(p, d))
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    assert dictionary_check(tensor, i, j, k), (p, d, i, j, k)


def test_count_depends_only_on_index_differences():
    for p, d in [(13, 4), (31, 5)]:
        ctx = build_context(p, d)
        tensor = build_tensor(ctx)
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    assert count_projective(tensor, i, j, k).M == \
                        subgroup_projective(ctx, 0, (j - i) % d, (k - i) % d)


def test_hasse_weil_margin_nonnegative():
    for p in primes_in_range(11, 300, (3, 1)):
        tensor = build_tensor(build_context(p, 3))
        for j in range(3):
            for k in range(3):
                assert count_projective(tensor, 0, j, k).hw_margin >= 0


def test_weil_verdict_is_exact_and_agrees_with_the_margins():
    # d = 1, 2 have genus 0, where the bound is M = p + 1 exactly
    for p in primes_in_range(5, 300):
        for d in range(1, 13):
            if (p - 1) % d == 0:
                table = PowerTable(build_tensor(build_context(p, d)))
                assert table.weil.passed, (p, d, table.weil.detail)
                assert (table.hw_margin >= 0).all(), (p, d)
    # every stored count of (7, 3) raised by one moves some M by d^2 = 9,
    # past the window 8 +- 2 sqrt(7)
    tensor = build_tensor(build_context(7, 3))
    bad = dataclasses.replace(tensor, counts=tensor.counts + 1)
    assert not PowerTable(bad).weil.passed

import math

import pytest

from brute_force import brute_projective
from gpmoments import (PowerTable, build_context, build_tensor,
                       count_projective, dictionary_check, predicted_count,
                       primes_in_range)
from gpmoments.fermat_curves import delta_star


def test_count_7_3_origin():
    ctx = build_context(7, 3)
    cc = count_projective(ctx, 0, 0, 0)
    assert cc.M == 9
    assert cc.genus == 1
    assert cc.M == brute_projective(ctx, 0, 0, 0)


def test_count_d1_is_projective_line():
    for p in (7, 13, 31):
        ctx = build_context(p, 1)
        cc = count_projective(ctx, 0, 0, 0)
        assert cc.M == p + 1
        assert cc.genus == 0


def test_count_13_3_hasse_window_and_divisibility():
    ctx = build_context(13, 3)
    cc = count_projective(ctx, 0, 0, 0)
    assert cc.M == brute_projective(ctx, 0, 0, 0)
    assert abs(cc.M - 14) <= 2 * math.sqrt(13)
    assert cc.M % 3 == 0


# d = 1; d = 2 with p = 1 and p = 3 (mod 4); d = p - 1; even d with alpha = 0
@pytest.mark.parametrize("p,d", [(7, 3), (13, 4), (13, 3), (11, 5), (13, 6),
                                 (7, 1), (13, 2), (11, 2), (13, 12), (11, 10),
                                 (17, 8)])
def test_counts_match_brute_force_full_grid(p, d):
    ctx = build_context(p, d)
    table = PowerTable(ctx)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                m = count_projective(ctx, i, j, k, table).M
                assert m == brute_projective(ctx, i, j, k), (i, j, k)
                assert m == count_projective(ctx, i, j, k).M, (i, j, k)
    # the d^3 counts share one row per class r
    assert sorted(table.rows) == list(range(d))
    assert all(len(row) == d + 1 for row in table.rows.values())


def test_single_count_builds_one_row():
    # d = p - 1: one count must touch one row of d + 1 entries, nothing of
    # size d^2 or p
    ctx = build_context(10007, 10006)
    assert count_projective(ctx, 0, 0, 0).M == \
        predicted_count(ctx, build_tensor(ctx), 0, 0, 0)
    table = PowerTable(ctx)
    count_projective(ctx, 0, 0, 0, table)
    assert list(table.rows) == [0]
    assert len(table.rows[0]) == ctx.d + 1


def test_dictionary_7_3_origin():
    ctx = build_context(7, 3)
    tensor = build_tensor(ctx)
    # 9 = 9*0 + 3*(1 + 1 + 1): both unit deltas plus the point at infinity
    assert delta_star(ctx, 0, 0) == 1
    assert predicted_count(ctx, tensor, 0, 0, 0) == 9
    assert dictionary_check(ctx, tensor, 0, 0, 0)


def test_dictionary_d4_mod8_branches():
    # p = 1 (mod 8): M_{0,0,0} = 16 t_0 + 12
    for p in primes_in_range(17, 200, (8, 1)):
        ctx = build_context(p, 4)
        t0 = int(build_tensor(ctx).c0[0, 0])
        assert count_projective(ctx, 0, 0, 0).M == 16 * t0 + 12
    # p = 5 (mod 8): all deltas vanish at (0,0,2), so M_{0,0,2} = 16 t_2
    for p in primes_in_range(13, 200, (8, 5)):
        ctx = build_context(p, 4)
        t2 = int(build_tensor(ctx).c0[0, 2])
        assert delta_star(ctx, 0, 0) == 0
        assert count_projective(ctx, 0, 0, 2).M == 16 * t2


def test_dictionary_full_grid_small_contexts():
    for p, d in [(7, 3), (13, 4), (11, 5), (29, 7), (31, 6)]:
        ctx = build_context(p, d)
        tensor = build_tensor(ctx)
        table = PowerTable(ctx)
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    assert dictionary_check(ctx, tensor, i, j, k, table), (p, d, i, j, k)


def test_count_depends_only_on_index_differences():
    for p, d in [(13, 4), (31, 5)]:
        ctx = build_context(p, d)
        table = PowerTable(ctx)
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    assert count_projective(ctx, i, j, k, table).M == \
                        count_projective(ctx, 0, (j - i) % d, (k - i) % d, table).M


def test_hasse_weil_margin_nonnegative():
    for p in primes_in_range(11, 300, (3, 1)):
        ctx = build_context(p, 3)
        table = PowerTable(ctx)
        for j in range(3):
            for k in range(3):
                assert count_projective(ctx, 0, j, k, table).hw_margin >= 0

import pytest
from hypothesis import given, settings, strategies as st

from brute_force import (circularity_by_pairs, diagonal_counts_check,
                         half_inverse_check, intersection_size,
                         largest_number_verdict, replay_witness, subgroup)
from gpmoments import (CircularityVerdict, CompositeInput,
                       DimensionMismatch, DivisorMismatch,
                       PreconditionViolated, build_context, build_tensor,
                       circularity, field_core, is_circular, primes_in_range,
                       scan_noncircular, subgroup_classes)


def test_5_4_not_circular_with_replayable_witness():
    verdict = is_circular(5, 4)
    assert not verdict.circular
    assert verdict.max_intersection >= 3
    assert verdict.witness == (0, 1)  # Gamma + 1 = {0, 2, 3, 4}
    assert replay_witness(5, 4, verdict.witness) == verdict.max_intersection


def test_paper_5_4_witness_configuration():
    # the known failing configuration a=1, b=0, c=1, e=3
    assert intersection_size(5, 4, 1, 0, 1, 3) == 3


def test_k2_and_k3_circular_small():
    for p in primes_in_range(3, 300):
        assert is_circular(p, 2).circular
    for p in primes_in_range(7, 300, (3, 1)):
        assert is_circular(p, 3).circular


def test_divisor_mismatch():
    with pytest.raises(DivisorMismatch):
        is_circular(13, 5)
    with pytest.raises(CompositeInput):  # as build_context refuses 15
        is_circular(15, 2)
    with pytest.raises(DivisorMismatch):  # 4 does not divide 14
        is_circular(15, 4)
    with pytest.raises(DimensionMismatch):  # a context of another prime
        subgroup_classes(13, 2, build_context(7, 3))
    with pytest.raises(DimensionMismatch):  # a context at d = 4, not 6
        subgroup_classes(13, 2, build_context(13, 4))


def test_tensor_verdict_takes_p_as_proved(monkeypatch):
    # a context has proved p prime, and verify reads its classes off it;
    # only a bare p is tested again, by the primitive root of the class
    # source, which factors p - 1
    contexts = {k: build_context(1009, 1008 // k) for k in (4, 12)}
    expected = [is_circular(1009, k) for k in (4, 12)]

    def no_test(n):
        raise AssertionError("_prime_factors called")

    monkeypatch.setattr(field_core, "_prime_factors", no_test)
    assert [subgroup_classes(1009, k, ctx).verdict()
            for k, ctx in contexts.items()] == expected
    with pytest.raises(AssertionError):
        is_circular(1009, 4)


def test_tensor_verdict_matches_brute_force(monkeypatch):
    # every (p, k) with 2 <= k <= 12, k | p - 1, p < 2000, from the lookups
    # and from the index of the order-d context; the odd-k pairs are also
    # decided at 2k from the same classes, as the fixed-k rows do
    monkeypatch.setattr(circularity, "INDEX_BELOW_D", 0)  # lookups only
    pairs = 0
    for p in primes_in_range(3, 2000):
        oracle = {}
        for k in range(2, 13):
            if (p - 1) % k:
                continue
            ctx = build_context(p, (p - 1) // k)
            sources = [subgroup_classes(p, k), subgroup_classes(p, k, ctx)]
            assert sources[0].ctx is None
            checks = [(k, is_circular(p, k))] + [(k, sc.verdict()) for sc in sources]
            if k % 2 and (p - 1) % (2 * k) == 0:
                checks += [(2 * k, sc.verdict_2k()) for sc in sources]
            elif (p - 1) % (2 * k) == 0:
                checks.append((2 * k, is_circular(p, 2 * k)))
            for kk, verdict in checks:
                if kk not in oracle:
                    oracle[kk] = circularity_by_pairs(p, kk)
                circular, max_int, _ = oracle[kk]
                assert (verdict.circular, verdict.max_intersection) == \
                    (circular, max_int), (p, kk)
                if circular:
                    assert verdict.witness is None
                else:
                    assert replay_witness(p, kk, verdict.witness) == max_int, (p, kk)
            pairs += 1
    assert pairs > 1000


def test_verdict_is_the_first_largest_number_in_key_order(monkeypatch):
    # every prime p < 3000 with k = 1..40, k | p - 1, and (p, 2k) for odd k,
    # decided from the looked-up classes of order (p-1)/k as a fixed-k
    # report does (the rule would read most of them off an index):
    # max_intersection and the witness of the first largest (i, j)_e in key
    # order are those of the stored cyclotomic numbers of order e
    monkeypatch.setattr(circularity, "INDEX_BELOW_D", 0)
    verdicts = 0
    for p in primes_in_range(3, 3000):
        for k in range(1, 41):
            if (p - 1) % k:
                continue
            assert is_circular(p, k) == largest_number_verdict(p, k), (p, k)
            verdicts += 1
            if k % 2:
                assert subgroup_classes(p, k).verdict_2k() == \
                    largest_number_verdict(p, 2 * k), (p, 2 * k)
                verdicts += 1
    assert verdicts > 3500


def test_pair_blocks_match_the_oracle(monkeypatch):
    # blocks of one to a few rows of pairs, counted in a dense e*e histogram
    # (e*e <= (k-1)(k-2): e = 1, 2, 6 here) or gathered for np.unique
    monkeypatch.setattr(circularity, "PAIR_CHUNK", 7)
    for p, k in [(1021, 1020), (1021, 510), (1021, 170), (1021, 60),
                 (1021, 12), (1021, 5), (2017, 42), (2017, 3)]:
        assert is_circular(p, k) == largest_number_verdict(p, k), (p, k)


def test_k1_and_k2_have_no_pairs():
    # Gamma \ {1} has fewer than two elements: every (i, j)_e is at most 1
    for p in primes_in_range(3, 300):
        for k in (1, 2):
            assert is_circular(p, k) == CircularityVerdict(
                p=p, k=k, circular=True, max_intersection=1, witness=None)


def test_2k_verdict_from_a_context_at_twice_the_order():
    # (p, 2k) for odd k from the classes at order 2e = (p-1)/k, e = (p-1)/(2k)
    for p, k in [(5, 1), (13, 3), (31, 3), (43, 3), (71, 5)]:
        ctx = build_context(p, (p - 1) // k)
        assert subgroup_classes(p, k, ctx).verdict_2k() == is_circular(p, 2 * k)
    verdict = subgroup_classes(13, 3, build_context(13, 4)).verdict_2k()
    assert (verdict.circular, verdict.max_intersection) == (False, 3)
    assert replay_witness(13, 6, verdict.witness) == 3


def test_diagonal_counts_13_6():
    ctx = build_context(13, 6)  # k = 2
    results = diagonal_counts_check(ctx, build_tensor(ctx))
    assert all(r.passed for r in results)
    assert len(results) == 6


def test_diagonal_counts_7_2():
    ctx = build_context(7, 2)  # k = 3
    results = diagonal_counts_check(ctx, build_tensor(ctx))
    assert all(r.passed for r in results)


def test_diagonal_counts_skipped_for_noncircular():
    ctx = build_context(5, 1)  # k = 4, non-circular pair
    assert not is_circular(5, 4).circular
    assert diagonal_counts_check(ctx, build_tensor(ctx)) == []


def test_half_inverse_13_k2():
    ctx = build_context(13, 6)  # k = 2
    # 2^-1 = 7 mod 13
    assert pow(2, 11, 13) == 7
    m_star = int(ctx.coset_index[7])
    tensor = build_tensor(ctx)
    assert tensor.c0[m_star, m_star] == 1
    assert all(r.passed for r in half_inverse_check(ctx, tensor))


def test_half_inverse_17_k4():
    ctx = build_context(17, 4)  # k = 4
    assert all(r.passed for r in half_inverse_check(ctx, build_tensor(ctx)))


def test_half_inverse_rejects_odd_k():
    ctx = build_context(7, 2)  # k = 3
    with pytest.raises(PreconditionViolated):
        half_inverse_check(ctx, build_tensor(ctx))


def test_even_k_gamma_count():
    # circular even-k pairs: one diagonal 1, (k-2)/2 twos in the first column
    for p, k in [(13, 2), (17, 4), (29, 4), (13, 6)]:
        verdict = is_circular(p, k)
        if not verdict.circular:
            continue
        ctx = build_context(p, (p - 1) // k)
        col = [int(c) for c in build_tensor(ctx).c0[:ctx.d, 0]]
        assert col.count(1) == 1
        assert col.count(2) == (k - 2) // 2


def test_odd_k_first_column_zero_one():
    # odd k with (p, 2k) circular: first-column counts are 0/1, summing to k-1
    for p in primes_in_range(7, 200, (6, 1)):
        if not is_circular(p, 6).circular:
            continue
        ctx = build_context(p, (p - 1) // 3)
        col = [int(c) for c in build_tensor(ctx).c0[:ctx.d, 0]]
        assert set(col) <= {0, 1}
        assert sum(col) == 2


def test_scan_examples():
    assert scan_noncircular(2, 500) == []
    assert scan_noncircular(3, 500) == []
    assert 5 in scan_noncircular(4, 10)


@st.composite
def affine_configs(draw):
    p = draw(st.sampled_from(primes_in_range(5, 100)))
    ks = [k for k in range(2, p) if (p - 1) % k == 0]
    k = draw(st.sampled_from(ks))
    a = draw(st.integers(1, p - 1))
    b = draw(st.integers(0, p - 1))
    c = draw(st.integers(1, p - 1))
    e = draw(st.integers(0, p - 1))
    return p, k, a, b, c, e


@settings(max_examples=80, deadline=None)
@given(affine_configs())
def test_affine_reduction_soundness(cfg):
    # the reduced pair count of the brute-force oracle agrees with the direct
    # intersection for arbitrary dilate/translate configurations
    p, k, a, b, c, e = cfg
    g, gamma = subgroup(p, k)
    direct = intersection_size(p, k, a, b, c, e)

    a_inv = pow(a, p - 2, p)
    scaled = c * a_inv % p
    t = (e - b) * a_inv % p
    reduced = sum(1 for x in gamma for y in gamma
                  if (x - y * scaled) % p == t)
    assert direct == reduced

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpmoments import (CompositeInput, DivisorMismatch, build_context,
                       find_primitive_root, is_prime, primes_in_range)

SMALL_PRIMES = primes_in_range(3, 200)


def multiplicative_order(g, p):
    x, e = g % p, 1
    while x != 1:
        x = x * g % p
        e += 1
    return e


def smallest_generator(p):
    # exhaustive oracle: first candidate of full order
    for g in range(2, p):
        if multiplicative_order(g, p) == p - 1:
            return g


@pytest.mark.parametrize("p,expected", [(3, 2), (5, 2), (7, 3)])
def test_primitive_root_examples(p, expected):
    assert find_primitive_root(p) == expected


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_primitive_root_matches_exhaustive_oracle(p):
    assert find_primitive_root(p) == smallest_generator(p)


def test_primitive_root_rejects_composite():
    with pytest.raises(CompositeInput):
        find_primitive_root(15)
    with pytest.raises(CompositeInput):
        build_context(9, 2)


def test_context_7_3_cosets():
    ctx = build_context(7, 3)
    assert ctx.g == 3
    assert set(ctx.cosets[0]) == {1, 6}
    assert set(ctx.cosets[1]) == {3, 4}
    assert set(ctx.cosets[2]) == {2, 5}
    assert set(ctx.cosets[3]) == {0}


def test_context_d1_single_coset():
    ctx = build_context(11, 1)
    assert set(ctx.cosets[0]) == set(range(1, 11))


def test_context_divisor_mismatch():
    with pytest.raises(DivisorMismatch):
        build_context(13, 5)


@st.composite
def context_params(draw):
    p = draw(st.sampled_from(SMALL_PRIMES))
    divisors = [d for d in range(1, p) if (p - 1) % d == 0]
    return p, draw(st.sampled_from(divisors))


@settings(max_examples=60, deadline=None)
@given(context_params())
def test_context_invariants(params):
    p, d = params
    ctx = build_context(p, d)
    assert ctx.d * ctx.k == p - 1

    # the d+1 classes partition F_p with sizes k,...,k,1
    seen = np.concatenate(ctx.cosets)
    assert sorted(seen) == list(range(p))
    assert all(len(ctx.cosets[i]) == ctx.k for i in range(d))

    # dlog is a bijection and inverts exponentiation
    assert sorted(ctx.dlog[1:]) == list(range(p - 1))
    x = 1
    for e in range(p - 1):
        assert ctx.dlog[x] == e
        x = x * ctx.g % p

    # class index is the dlog mod d, multiplicative on nonzero elements
    for a in range(1, p):
        assert ctx.coset_index[a] == ctx.dlog[a] % d
    assert ctx.coset_index[0] == d
    # the d-th powers read off the tables equal the pow loop they replace
    assert ctx.dth_powers().tolist() == [pow(x, d, p) for x in range(p)]
    for a in range(1, p):
        for b in range(1, p, max(1, p // 7)):
            assert ctx.coset_index[a * b % p] == \
                (ctx.coset_index[a] + ctx.coset_index[b]) % d

    # alpha is 0 or d/2, and nonzero only when 2d does not divide p-1
    assert ctx.alpha in (0, d / 2)
    if ctx.alpha != 0:
        assert (2 * ctx.alpha) % d == 0
        assert (p - 1) % (2 * d) != 0
    else:
        assert (p - 1) % (2 * d) == 0


def test_primes_in_range_examples():
    assert primes_in_range(3, 20) == [3, 5, 7, 11, 13, 17, 19]
    assert primes_in_range(3, 30, (3, 1)) == [7, 13, 19]
    assert primes_in_range(8, 9) == []


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

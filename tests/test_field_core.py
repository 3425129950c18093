import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brute_force import class_members, coset_rows, discrete_log, is_prime
from gpmoments import (CompositeInput, ConfigInvalid, DivisorMismatch,
                       build_context, field_core, find_primitive_root,
                       primes_in_range)
from gpmoments.field_core import MAX_P, POWER_BLOCK, powers_mod

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


def smallest_generator_by_divisors(p):
    # first candidate h with h^e != 1 for every proper divisor e of p - 1,
    # the divisors found by trying every e: a faster oracle, as an order
    # divides p - 1
    es = np.arange(1, p - 1)
    divisors = es[(p - 1) % es == 0].tolist()
    return next(h for h in range(2, p)
                if all(pow(h, e, p) != 1 for e in divisors))


# Carmichael numbers: every base b coprime to n has b^(n-1) = 1 mod n
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
              9585541, 9890881]


@pytest.mark.parametrize("p,expected", [(3, 2), (5, 2), (7, 3)])
def test_primitive_root_examples(p, expected):
    assert find_primitive_root(p) == expected


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_primitive_root_matches_exhaustive_oracle(p):
    assert find_primitive_root(p) == smallest_generator(p)
    assert smallest_generator_by_divisors(p) == smallest_generator(p)


def test_primitive_root_rejects_composite():
    with pytest.raises(CompositeInput):
        find_primitive_root(15)
    with pytest.raises(CompositeInput):
        build_context(9, 2)


def test_primitive_root_refuses_exactly_the_non_odd_primes():
    # the Lucas test is the package's one primality test: every n in range
    # gets the smallest generator if it is an odd prime, else CompositeInput
    for n in range(-3, 2 * 10**4):
        if is_prime(n) and n != 2:
            assert find_primitive_root(n) == smallest_generator_by_divisors(n), n
        else:
            with pytest.raises(CompositeInput):
                find_primitive_root(n)


def _prime_divisors(n):
    # with multiplicity, by trial division
    out, r = [], 2
    while r * r <= n:
        while n % r == 0:
            out.append(r)
            n //= r
        r += 1
    return out + [n] if n > 1 else out


@pytest.mark.parametrize("n", CARMICHAEL + [3137 ** 2, 211 ** 3])
def test_lucas_test_refuses_fermat_liars(n):
    # a Fermat test would pass the Carmichael numbers for most bases; the
    # prime powers have generators of (Z/n)^x, but none of order n - 1
    factors = _prime_divisors(n)
    assert len(factors) > 1 and not is_prime(n)
    if n in CARMICHAEL:  # Korselt's criterion
        assert len(set(factors)) == len(factors)
        assert all((n - 1) % (r - 1) == 0 for r in factors)
    with pytest.raises(CompositeInput):
        find_primitive_root(n)
    with pytest.raises(CompositeInput):  # not ConfigInvalid: n <= MAX_P
        build_context(n, 1)


@pytest.mark.parametrize("p,d", [(30013, 3), (9973, 2493)])
def test_context_factors_only_p_minus_1(monkeypatch, p, d):
    # find_primitive_root proves p prime from the factors of p - 1; p itself
    # is never trial-divided
    calls = []
    real = field_core._prime_factors

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(field_core, "_prime_factors", counted)
    build_context(p, d)
    assert calls == [p - 1]
    with pytest.raises(ConfigInvalid):  # MAX_P comes before any primality work
        build_context(10000019, 2)  # the least prime above MAX_P
    assert calls == [p - 1]


def test_context_7_3_cosets():
    ctx = build_context(7, 3)
    assert ctx.g == 3
    assert ctx.coset_index.tolist() == [3, 0, 2, 1, 1, 2, 0]
    assert set(class_members(ctx, 0)) == {1, 6}
    assert set(class_members(ctx, 1)) == {3, 4}
    assert set(class_members(ctx, 2)) == {2, 5}
    assert set(class_members(ctx, 3)) == {0}


def test_context_d1_single_coset():
    ctx = build_context(11, 1)
    assert set(class_members(ctx, 0)) == set(range(1, 11))
    assert not ctx.coset_index[1:].any()


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
    assert np.bincount(ctx.coset_index, minlength=d + 1).tolist() == \
        [ctx.k] * d + [1]

    # g generates F_p^x, and the class of g^e is e mod d: the class index is
    # the discrete log mod d, multiplicative on nonzero elements
    dlog = discrete_log(p, ctx.g)
    assert len(dlog) == p - 1
    for x, e in dlog.items():
        assert ctx.coset_index[x] == e % d
    assert ctx.coset_index[0] == d
    # each pow-built row of X_i's power order g^i, g^{i+d}, ... lies in its
    # class
    for i, row in enumerate(coset_rows(ctx)):
        assert (ctx.coset_index[row] == i).all()
    for a in range(1, p):
        for b in range(1, p, max(1, p // 7)):
            assert ctx.coset_index[a * b % p] == \
                (int(ctx.coset_index[a]) + int(ctx.coset_index[b])) % d

    # alpha is 0 or d/2, and nonzero only when 2d does not divide p-1
    assert ctx.alpha in (0, d / 2)
    if ctx.alpha != 0:
        assert (2 * ctx.alpha) % d == 0
        assert (p - 1) % (2 * d) != 0
    else:
        assert (p - 1) % (2 * d) == 0


@pytest.mark.parametrize("p,d", [(7, 3), (11, 1), (13, 12), (1009, 12),
                                 (10007, 2), (65537, 1)])
def test_context_holds_one_table(p, d):
    # the class index, p entries: no view that keeps a larger buffer alive,
    # no coset heads and no power table
    ctx = build_context(p, d)
    assert ctx.coset_index.shape == (p,) and ctx.coset_index.base is None
    tables = [v for v in vars(ctx).values() if isinstance(v, np.ndarray)]
    assert len(tables) == 1
    assert tables[0].nbytes == p * ctx.coset_index.itemsize


def test_context_tables_are_read_only():
    ctx = build_context(13, 4)
    with pytest.raises(ValueError):
        ctx.coset_index[1] = 0
    assert ctx.coset_index[1] == 0


@pytest.mark.parametrize("p,d,dtype", [(1021, 255, np.uint8),
                                       (257, 256, np.uint16),
                                       (65537, 65536, np.uint32)])
def test_coset_index_is_discrete_log_in_narrowest_dtype(p, d, dtype):
    # the largest d of each index dtype, and the first d that needs the next
    ctx = build_context(p, d)
    assert ctx.coset_index.dtype == dtype
    expected = np.full(p, d)
    for x, e in discrete_log(p, ctx.g).items():
        expected[x] = e % d
    assert np.array_equal(ctx.coset_index, expected)


@pytest.mark.parametrize("p,d,itemsize,bytes_per_element",
                         [(1000003, 3, 1, 1.76), (1000117, 12, 1, 1.76),
                          (200017, 50004, 2, 6.04),
                          (1000033, 250008, 4, 4.83),
                          (65537, 65536, 4, 10.56)])
def test_context_peak_memory_per_element(p, d, itemsize, bytes_per_element):
    # the index, itemsize bytes per element, and a few blocks of scratch: no
    # O(p) temporary, and for d above the block no O(d) one.  The scratch
    # has a fixed size, so it weighs more per element at the smaller p.  The
    # bounds are the peaks rounded up; a context that kept an int32 power
    # table peaked at 9.38, 8.69 and 14.556 bytes per element
    tracemalloc.start()
    try:
        ctx = build_context(p, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ctx.coset_index.itemsize == itemsize
    assert peak <= bytes_per_element * p


@pytest.mark.parametrize("p,d,step", [(3, 1, 1), (3, 2, 1), (5, 2, 1),
                                      (5, 4, 1), (65537, 1, 1),
                                      (65537, 256, 1), (1000003, 3, 997),
                                      (1000117, 12, 991), (786433, 3, 997),
                                      (65539, 65538, 1), (200017, 50004, 1),
                                      (9999991, 3, 99991)])
def test_cosets_match_modular_powers(p, d, step):
    # the class of g^e is e mod d.  The powers of the first half are formed
    # in blocks of POWER_BLOCK exponents, the first by doubling, the others
    # from an int32 copy of the first; -1 = g^((p-1)/2) gives the second
    # half.  The half is below one block for p = 3 and 5; it is exactly one
    # block for 65537 and twelve for 786433; the last block is partial for
    # 1000003, 1000117 and 200017; d is above the block with two blocks
    # (65539, the second of one exponent) and four (200017); and 9999991 is
    # the largest p below MAX_P.  The exponents on both sides of every block
    # boundary are checked, in both halves
    assert POWER_BLOCK == 1 << 15  # the cases sit on the boundaries of this block
    ctx = build_context(p, d)
    half = (p - 1) // 2
    edges = {b + t for s in range(0, half + 1, POWER_BLOCK)
             for b in (s, half + s) for t in (-1, 0)}
    exponents = sorted({e for e in edges if 0 <= e < p - 1}
                       | set(range(0, p - 1, step)) | {p - 2})
    powers = [pow(ctx.g, e, p) for e in exponents]
    assert ctx.coset_index[powers].tolist() == [e % d for e in exponents]
    assert ctx.coset_index[0] == d


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 16, 17, 100, POWER_BLOCK])
@pytest.mark.parametrize("p,c", [(3, 2), (10009, 11), (9999991, 9999990),
                                 (9999991, 7)])
def test_powers_mod_matches_pow(p, c, n):
    # the first few powers from Python, the rest by doubling steps that end
    # partial (9, 17, 100) or whole (16, POWER_BLOCK); c = -1 alternates
    x = powers_mod(c, n, p)
    assert x.dtype == np.int64
    assert x.tolist() == [pow(c, j, p) for j in range(n)]


def test_table_limit_keeps_tables_exact():
    # every residue below MAX_P fits the int32 power table, as does every
    # label of build_context's int32 ramps (below d + POWER_BLOCK), and a
    # block product of two residues is exact in int64: raising MAX_P past
    # either bound fails here instead of corrupting a table
    assert MAX_P + POWER_BLOCK < 2**31
    assert (MAX_P - 1) ** 2 < 2**63


def test_table_limit_refused_before_allocating():
    # the first value above the limit; a larger one would be refused the same
    with pytest.raises(ConfigInvalid):
        build_context(MAX_P + 1, 2)
    with pytest.raises(ConfigInvalid):
        primes_in_range(MAX_P + 1, MAX_P + 1)


def test_primes_in_range_examples():
    assert primes_in_range(3, 20) == [3, 5, 7, 11, 13, 17, 19]
    assert primes_in_range(3, 30, (3, 1)) == [7, 13, 19]
    assert primes_in_range(8, 9) == []


def test_is_prime_small():
    # the trial-division oracle of tests/brute_force.py
    assert [n for n in range(2, 30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

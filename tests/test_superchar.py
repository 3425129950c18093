import dataclasses
import io
import itertools
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brute_force import class_members, cyclotomic_numbers
import gpmoments
from gpmoments import (ConfigInvalid, DimensionMismatch, build_context,
                       build_report, build_tensor, compute_periods,
                       count_checks, primes_in_range, superchar,
                       verify_identities, zero_sum_counts)
from gpmoments.cli import SweepMode, verify_single
from gpmoments.superchar import DENSE_BUDGET_BYTES, check_dense_budget

# d^2 > p counts with np.unique, d^2 <= p with np.bincount; (101, 10) and
# (37, 6) sit on the boundary d^2 = p - 1, (41, 40) has d = p - 1
TENSOR_CASES = [(7, 3), (13, 4), (13, 6), (29, 7), (11, 2), (31, 5),
                (101, 10), (37, 6), (97, 12), (3, 1), (3, 2), (41, 40)]


def brute_constant(ctx, i, j, k, rep_index=0):
    # oracle: literal pair enumeration at a chosen representative
    z = class_members(ctx, k)[rep_index]
    return sum(1 for x in class_members(ctx, i) for y in class_members(ctx, j)
               if (x + y) % ctx.p == z)


def test_brute_constant_examples():
    ctx = build_context(7, 3)
    assert brute_constant(ctx, 0, 0, 0) == brute_constant(ctx, 0, 0, 0, 1) == 0
    assert brute_constant(ctx, 0, 3, 0) == brute_constant(ctx, 0, 3, 0, 1) == 1


def test_brute_constant_representative_independence():
    # the oracle counts at one representative of X_k; any other gives the same
    for p, d in [(13, 4), (13, 3), (29, 7), (31, 6)]:
        ctx = build_context(p, d)
        for i in range(d + 1):
            for j in range(d + 1):
                for k in range(d):
                    assert brute_constant(ctx, i, j, k) == \
                        brute_constant(ctx, i, j, k, 1), (p, d, i, j, k)


def test_column_sums_13_4():
    ctx = build_context(13, 4)
    tensor = build_tensor(ctx)
    for n in range(4):
        assert int(tensor.c0[:, n].sum()) == 3


def test_tensor_matches_brute_force():
    for p, d in TENSOR_CASES:
        ctx = build_context(p, d)
        tensor = build_tensor(ctx)
        assert len(tensor.keys) <= p - 2
        assert np.all(np.diff(tensor.keys) > 0) and np.all(tensor.counts > 0)
        for j in range(d + 1):
            for n in range(d + 1):
                assert tensor.c0[j, n] == brute_constant(ctx, 0, j, n), (p, d, j, n)


def _numbers(keys, counts):
    assert keys.dtype == np.int64
    return dict(zip(keys.tolist(), counts.tolist()))


# the largest d of each coset-index dtype and the first d of the next: at
# d = 255 the keys i*d + j need 16 bits, twice the width of the index; at
# d = 65536 they fill all 32 bits of theirs; 256^2 <= 65537 is counted by
# bincount in 16 bits from a 32-bit index
@pytest.mark.parametrize("p,d,orders", [(1021, 255, ()), (257, 256, (16,)),
                                        (65537, 65536, (256, 4096))])
def test_tensor_matches_oracle_at_index_dtype_edges(p, d, orders):
    ctx = build_context(p, d)
    tensor = build_tensor(ctx)
    assert _numbers(tensor.keys, tensor.counts) == cyclotomic_numbers(p, ctx.g, d)
    for e in orders:
        assert _numbers(*superchar._cyclotomic_numbers(ctx, e)) == \
            cyclotomic_numbers(p, ctx.g, e)


def test_bincount_chunks_match_oracle(monkeypatch):
    # chunks of COUNT_CHUNK keys, or of e*e keys (17^2 = 289) when larger;
    # orders 51 and up count with np.unique
    monkeypatch.setattr(superchar, "COUNT_CHUNK", 100)
    ctx = build_context(1021, 255)
    for e in (1, 3, 5, 15, 17, 51, 85, 255):
        assert _numbers(*superchar._cyclotomic_numbers(ctx, e)) == \
            cyclotomic_numbers(1021, ctx.g, e), e


@pytest.mark.parametrize("p,d", [(1000003, 3), (1000117, 12)])
def test_bincount_keys_peak_memory(p, d):
    # each chunk's keys are formed in one reused buffer and counted through
    # bincount's intp copy of them: no (p-2)-long key array beside the
    # context, which would alone take p bytes at these d
    ctx = build_context(p, d)
    tracemalloc.start()
    try:
        build_tensor(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.8 * 10**6


@pytest.mark.parametrize("p,d", [(3, 2), (13, 4), (37, 6), (97, 12),
                                 (101, 10), (257, 16), (1021, 20)])
def test_largest_number_is_the_first_largest_in_key_order(p, d):
    # at the stored order d and at the recounted order d/2 (the (p, 2k)
    # verdict of an odd k); an order that does not divide d is refused
    ctx = build_context(p, d)
    tensor = build_tensor(ctx)
    for e in (d, d // 2):
        numbers = cyclotomic_numbers(p, ctx.g, e)
        n = max(numbers.values())
        key = min(key for key, count in numbers.items() if count == n)
        assert tensor.largest_number(e) == (n, *divmod(key, e)), (p, d, e)
    with pytest.raises(DimensionMismatch):
        tensor.largest_number(d + 1)


def test_tensor_d1_count():
    # x + y = 1 with x, y nonzero
    for p in (7, 11, 13):
        ctx = build_context(p, 1)
        assert build_tensor(ctx).c0[0, 0] == p - 2


def test_d3_pattern_off_diagonal_is_t0_plus_1():
    # for d = 3 the (1,2) and (2,1) entries equal t_0 + 1
    for p in primes_in_range(7, 100, (3, 1)):
        c0 = build_tensor(build_context(p, 3)).c0
        assert c0[2, 1] == c0[0, 0] + 1
        assert c0[1, 2] == c0[0, 0] + 1


def test_d2_matrix_displays():
    # p = 1 (mod 4): counting block [[(p-5)/4,(p-1)/4],[(p-1)/4,(p-1)/4]]
    for p in primes_in_range(5, 120, (4, 1)):
        c0 = build_tensor(build_context(p, 2)).c0
        assert (c0[0, 0], c0[0, 1]) == ((p - 5) // 4, (p - 1) // 4)
        assert (c0[1, 0], c0[1, 1]) == ((p - 1) // 4, (p - 1) // 4)
    # p = 3 (mod 4): [[(p-3)/4,(p+1)/4],[(p-3)/4,(p-3)/4]]
    for p in primes_in_range(7, 120, (4, 3)):
        c0 = build_tensor(build_context(p, 2)).c0
        assert (c0[0, 0], c0[0, 1]) == ((p - 3) // 4, (p + 1) // 4)
        assert (c0[1, 0], c0[1, 1]) == ((p - 3) // 4, (p - 3) // 4)


def test_general_constant_matches_brute():
    # every c_{0,u,w}, the border class d included, read one at a time and as
    # whole arrays (one row, the full grid, and c0); every c_{i,j,n} reduces
    # to them, which the pair enumeration confirms on its own
    for p, d in TENSOR_CASES:
        ctx = build_context(p, d)
        tensor = build_tensor(ctx)
        expected = np.array([[[brute_constant(ctx, i, j, n) for n in range(d + 1)]
                              for j in range(d + 1)] for i in range(d + 1)])
        classes = np.arange(d + 1)
        for u in range(d + 1):
            for w in range(d + 1):
                assert tensor.constant(u, w) == expected[0, u, w], (p, d, u, w)
            assert np.array_equal(tensor.constant(u, classes), expected[0, u])
        assert np.array_equal(tensor.constant(classes[:, None], classes), expected[0])
        assert np.array_equal(tensor.c0, expected[0])
        # c_{d,j,n} = [j = n]; for i < d, c_{i,j,n} = c_{0,u,w} with the
        # classes of j, n shifted by -i and the border class d kept fixed
        assert np.array_equal(expected[d], np.eye(d + 1, dtype=int))
        for i in range(d):
            shift = np.where(classes < d, (classes - i) % d, d)
            assert np.array_equal(expected[i],
                                  expected[0][np.ix_(shift, shift)]), (p, d, i)


def test_zero_sum_counts_match_enumeration():
    # N_m = #{m-tuples of X_0 summing to 0}, every tuple listed, m = 0..4
    for p, d in TENSOR_CASES:
        ctx = build_context(p, d)
        gamma = class_members(ctx, 0)
        expected = [sum(1 for xs in itertools.product(gamma, repeat=m)
                        if sum(xs) % p == 0) for m in range(5)]
        assert zero_sum_counts(build_tensor(ctx), 4) == expected, (p, d)


def test_tensor_stores_only_the_cyclotomic_numbers():
    # keys/counts are the one stored form: a report caches only its exact
    # V_4, its periods, the spectrum, and with d^3 <= p the dense c0 and T it
    # reads them off; c0 and T are the only cached views of the constants
    stored = {"ctx", "keys", "counts"}
    tensor = build_tensor(build_context(1009, 3))
    build_report(tensor)
    assert set(vars(tensor)) == stored | {"v4_exact", "c0", "T", "spectrum"}
    assert not tensor.c0.flags.writeable and not tensor.T.flags.writeable
    tensor = build_tensor(build_context(1009, 12))
    build_report(tensor)
    assert set(vars(tensor)) == stored | {"v4_exact", "eta", "spectrum"}
    assert tensor.spectrum is tensor.eta
    assert not tensor.c0.flags.writeable
    assert set(vars(tensor)) == stored | {"v4_exact", "eta", "spectrum", "c0"}


def _pipeline(p, d):
    return build_tensor(build_context(p, d))


def test_t_structure_sqrt_row_at_alpha():
    for p, d in [(13, 4), (17, 4), (7, 3), (13, 2), (7, 2)]:
        tensor = _pipeline(p, d)
        ctx, T = tensor.ctx, tensor.T
        root = np.sqrt(ctx.k)
        for j in range(d):
            expected = root if j == ctx.alpha else 0.0
            assert T[j, d] == pytest.approx(expected)
        assert T[d, 0] == pytest.approx(root)
        assert np.all(T[d, 1:] == 0)
        # bit for bit the definition, every entry scaled by its own ratio
        sizes = np.array([ctx.k] * d + [1], dtype=np.float64)
        assert np.array_equal(
            T, tensor.c0 * np.sqrt(sizes[None, :] / sizes[:, None]))


def test_identities_7_3_all_pass():
    assert all(r.passed for r in verify_identities(_pipeline(7, 3)))


def test_product_identity_rejects_perturbed_constants():
    # the identity is checked on row i = 0 only, so a number (u, w)_d must be
    # caught wherever it sits: the first key, the last key, and the first key
    # of a row u != 0
    tensor = _pipeline(13, 4)
    row1 = int(np.flatnonzero(tensor.keys // tensor.ctx.d == 1)[0])
    for pos in (0, len(tensor.keys) - 1, row1):
        counts = tensor.counts.copy()
        counts[pos] += 1
        bad = dataclasses.replace(tensor, counts=counts)
        results = {r.name: r for r in verify_identities(bad)}
        assert not results["product_identity"].passed, int(tensor.keys[pos])


def move_to_column_0(tensor, u):
    """tensor with 1 moved from (0, 0)_d to (u, 0)_d = (0, 0)_d - 1: the
    column sums and the sum of squares stay, the first row loses 1."""
    d = tensor.ctx.d
    pos = tensor.keys.searchsorted([0, u * d])
    assert tensor.keys[pos].tolist() == [0, u * d]
    counts = tensor.counts.copy()
    assert counts[pos[1]] == counts[pos[0]] - 1
    counts[pos] += [-1, 1]
    return dataclasses.replace(tensor, counts=counts)


@pytest.mark.parametrize("p,d,u", [(19, 3, 1), (37, 6, 1)])
def test_only_the_row_vs_column_check_sees_a_move_off_row_0(p, d, u):
    tensor = _pipeline(p, d)
    assert all(c.passed for c in count_checks(tensor))
    checks = {c.name: c.passed for c in count_checks(move_to_column_0(tensor, u))}
    assert checks == {"column_sums": True, "count_square_sum": True,
                      "v4_row_vs_column": False}


@pytest.mark.parametrize("p,d,fixed_k", [(1009, 3, False), (1013, 253, True),
                                         (31, 10, True)],
                         ids=["fixed_d", "fixed_k4", "fixed_k3"])
def test_count_checks_are_the_one_source(p, d, fixed_k):
    # every count check is one entry of the report's checks, with its
    # verdict and detail, and one line of verify; the dense identities leave
    # it out, so it cannot be reported twice
    tensor = _pipeline(p, d)
    checks = count_checks(tensor)
    identities = [r.name for r in verify_identities(tensor)]
    rpt = build_report(tensor, fixed_k=fixed_k)
    names = [c.name for c in rpt.checks]
    buf = io.StringIO()
    mode = SweepMode.FIXED_K if fixed_k else SweepMode.FIXED_D
    verify_single(p, (p - 1) // d if fixed_k else d, mode, out=buf)
    text = buf.getvalue()
    for check in checks:
        assert names.count(check.name) == 1 and check in rpt.checks
        assert identities.count(check.name) == 0
        assert text.count(f" {check.name}:") == 1
        assert f"check {check.name}: pass {check.detail}\n" in text
        assert check.passed


def test_identities_13_4_symmetry_not_applicable():
    results = {r.name: r for r in verify_identities(_pipeline(13, 4))}
    assert not results["T_symmetric"].applicable
    assert results["T_normal"].passed
    assert all(r.passed for r in results.values())


def test_identities_29_7_odd_d_symmetric():
    results = {r.name: r for r in verify_identities(_pipeline(29, 7))}
    assert results["T_symmetric"].applicable  # d odd forces 2d | p-1
    assert results["T_symmetric"].passed


def test_eigenvalues_of_T_are_periods():
    tensor = _pipeline(13, 6)
    eig = sorted(np.linalg.eigvals(tensor.T).real)
    expected = sorted(list(tensor.eta.real) + [(13 - 1) / 6])
    assert np.allclose(eig, expected, atol=1e-8)


def test_spectrum_is_the_periods_as_a_multiset():
    # every p < 3000 and every d | p - 1 with d^3 <= p, where the spectrum
    # comes from the eigenvalues of T: d = 1, d = 2 with real (p = 1 mod 4)
    # and complex (p = 3 mod 4) periods, even and odd k
    kinds = set()
    for p in primes_in_range(3, 3000):
        for d in range(1, math.isqrt(p) + 1):
            if (p - 1) % d or d ** 3 > p:
                continue
            tensor = _pipeline(p, d)
            left = list(tensor.spectrum)
            assert "eta" not in vars(tensor) and len(left) == d
            eta = compute_periods(tensor.ctx)
            tol = 1e-12 * np.abs(eta).max()
            for value in eta:
                i = int(np.argmin(np.abs(np.array(left) - value)))
                assert abs(left.pop(i) - value) <= tol, (p, d)
            kinds.add((d, p % 4 if d == 2 else None, tensor.ctx.k % 2))
    assert {(1, None, 0), (2, 1, 0), (2, 3, 1), (3, None, 0),
            (4, None, 1)} <= kinds


def test_trace_closed_form():
    for p, d in [(7, 3), (13, 4), (29, 7), (31, 5)]:
        ctx = build_context(p, d)
        c0 = build_tensor(ctx).c0
        lhs = int((c0[:d, :d].astype(object) ** 2).sum())
        assert lhs * d * d == p * p + (d * d - 3 * d - 2) * p + 3 * d + 1


@st.composite
def contexts(draw):
    p = draw(st.sampled_from(primes_in_range(5, 200)))
    divisors = [d for d in range(2, min(p, 20)) if (p - 1) % d == 0]
    if not divisors:
        divisors = [1]
    return build_context(p, draw(st.sampled_from(divisors)))


@settings(max_examples=30, deadline=None)
@given(contexts())
def test_tensor_invariants_property(ctx):
    d, k = ctx.d, ctx.k
    c0 = build_tensor(ctx).c0
    assert c0.max() <= k
    for n in range(d):
        assert int(c0[:, n].sum()) == k
    for m in range(d):
        for n in range(d):
            assert c0[m, n] == c0[(-m) % d, (n - m) % d]
    if (ctx.p - 1) % (2 * d) == 0:
        assert np.array_equal(c0[:d, :d], c0[:d, :d].T)


def test_dense_budget_refuses_before_allocating():
    # largest d whose complex (d+1)^2 matrices fit, and the first that does not
    d_max = int((DENSE_BUDGET_BYTES // 16) ** 0.5) - 1
    check_dense_budget(d_max, complex)
    with pytest.raises(ConfigInvalid):
        check_dense_budget(d_max + 1, complex)
    # p = 1000033, k = 4: d = 250008 would need about 1e12 bytes
    with pytest.raises(ConfigInvalid):
        check_dense_budget(250_008, np.int64)
    # the sparse tensor itself stays O(p) at any d; only the dense view refuses
    p = 4001  # d = p - 1 = 4000: 128 MB as a dense int64 c0
    tensor = build_tensor(build_context(p, p - 1))
    assert tensor.keys.nbytes + tensor.counts.nbytes <= 16 * p
    with pytest.raises(ConfigInvalid):
        tensor.c0


def test_cross_checks_survive_python_O():
    # under -O a bare assert vanishes; the row/column cross-check of V_4 in
    # count_checks must still fail a perturbed tensor
    script = textwrap.dedent("""
        import dataclasses
        import numpy as np
        from gpmoments import build_context, build_tensor, count_checks

        assert False, "asserts must be stripped in this run"
        ctx = build_context(13, 3)
        tensor = build_tensor(ctx)
        # raise c_{0,1,0} = (1, 0)_d, in column 0 but not in row 0
        key = 1 * ctx.d + 0
        keys, counts = tensor.keys.copy(), tensor.counts.copy()
        if key in keys:
            counts[np.searchsorted(keys, key)] += 1
        else:
            pos = np.searchsorted(keys, key)
            keys, counts = np.insert(keys, pos, key), np.insert(counts, pos, 1)
        bad = dataclasses.replace(tensor, keys=keys, counts=counts)
        for t in (tensor, bad):
            print({c.name: c.passed for c in count_checks(t)}["v4_row_vs_column"])
    """)
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(gpmoments.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["True", "False"]


def test_array_dataclasses_compare_by_identity():
    # fieldwise == would compare the arrays and raise, and hash() would fail
    ctx = build_context(13, 3)
    tensor = build_tensor(ctx)
    for obj, twin in [(ctx, build_context(13, 3)), (tensor, build_tensor(ctx))]:
        assert obj == obj and obj != twin
        assert len({obj, twin, obj}) == 2
        assert hash(obj) == hash(obj)

import dataclasses
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gpmoments
from gpmoments import (ConfigInvalid, DimensionMismatch, build_context,
                       build_matrices, build_tensor, compute_periods,
                       primes_in_range, verify_identities)
from gpmoments.superchar import (DENSE_BUDGET_BYTES, all_passed,
                                 check_dense_budget)

# d^2 > p counts with np.unique, d^2 <= p with np.bincount; (101, 10) and
# (37, 6) sit on the boundary d^2 = p - 1, (41, 40) has d = p - 1
TENSOR_CASES = [(7, 3), (13, 4), (13, 6), (29, 7), (11, 2), (31, 5),
                (101, 10), (37, 6), (97, 12), (3, 1), (3, 2), (41, 40)]


def brute_constant(ctx, i, j, k, rep_index=0):
    # oracle: literal pair enumeration at a chosen representative
    z = int(ctx.cosets[k][rep_index])
    return sum(1 for x in ctx.cosets[i] for y in ctx.cosets[j]
               if (int(x) + int(y)) % ctx.p == z)


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
    # every c_{i,j,n}, the border class d included, read one at a time and as
    # whole arrays (a single class, one row per class, and the full cube)
    for p, d in TENSOR_CASES:
        ctx = build_context(p, d)
        tensor = build_tensor(ctx)
        expected = np.array([[[brute_constant(ctx, i, j, n) for n in range(d + 1)]
                              for j in range(d + 1)] for i in range(d + 1)])
        classes = np.arange(d + 1)
        for i in range(d + 1):
            for j in range(d + 1):
                for n in range(d + 1):
                    assert tensor.constant(i, j, n) == expected[i, j, n], (p, d, i, j, n)
            assert np.array_equal(tensor.constant(i, classes[:, None], classes),
                                  expected[i])
            assert np.array_equal(tensor.constant(i, i, classes), expected[i, i])
        cube = tensor.constant(classes[:, None, None], classes[:, None], classes)
        assert np.array_equal(cube, expected)
        assert np.array_equal(tensor.c0, expected[0])


def _pipeline(p, d):
    ctx = build_context(p, d)
    tensor = build_tensor(ctx)
    pv = compute_periods(ctx)
    return ctx, tensor, pv, build_matrices(ctx, tensor, pv)


def test_t_structure_sqrt_row_at_alpha():
    for p, d in [(13, 4), (17, 4), (7, 3), (13, 2), (7, 2)]:
        ctx, tensor, pv, m = _pipeline(p, d)
        root = np.sqrt(ctx.k)
        for j in range(d):
            expected = root if j == ctx.alpha else 0.0
            assert m.T[j, d] == pytest.approx(expected)
        assert m.T[d, 0] == pytest.approx(root)
        assert np.all(m.T[d, 1:] == 0)


def test_identities_7_3_all_pass():
    _, tensor, pv, m = _pipeline(7, 3)
    assert all_passed(verify_identities(m, tensor, pv))


def test_product_identity_rejects_perturbed_constants():
    _, tensor, pv, m = _pipeline(13, 4)
    counts = tensor.counts.copy()
    counts[0] += 1
    bad = dataclasses.replace(tensor, counts=counts)
    results = {r.name: r for r in verify_identities(m, bad, pv)}
    assert not results["product_identity"].passed


def test_identities_13_4_symmetry_not_applicable():
    _, tensor, pv, m = _pipeline(13, 4)
    results = {r.name: r for r in verify_identities(m, tensor, pv)}
    assert not results["T_symmetric"].applicable
    assert results["T_normal"].passed
    assert all(r.passed for r in results.values())


def test_identities_29_7_odd_d_symmetric():
    ctx, tensor, pv, m = _pipeline(29, 7)
    results = {r.name: r for r in verify_identities(m, tensor, pv)}
    assert results["T_symmetric"].applicable  # d odd forces 2d | p-1
    assert results["T_symmetric"].passed


def test_eigenvalues_of_T_are_periods():
    ctx, tensor, pv, m = _pipeline(13, 6)
    eig = sorted(np.linalg.eigvals(m.T).real)
    expected = sorted(list(pv.eta.real) + [(ctx.p - 1) / ctx.d])
    assert np.allclose(eig, expected, atol=1e-8)


def test_trace_closed_form():
    for p, d in [(7, 3), (13, 4), (29, 7), (31, 5)]:
        ctx = build_context(p, d)
        c0 = build_tensor(ctx).c0
        lhs = int((c0[:d, :d].astype(object) ** 2).sum())
        assert lhs * d * d == p * p + (d * d - 3 * d - 2) * p + 3 * d + 1


def test_build_matrices_dimension_mismatch():
    ctx3 = build_context(7, 3)
    ctx2 = build_context(7, 2)
    with pytest.raises(DimensionMismatch):
        build_matrices(ctx3, build_tensor(ctx2), compute_periods(ctx3))


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
    # under -O a bare assert vanishes; the variant cross-check in
    # v4_exact_from_counts must still reject a perturbed tensor
    script = textwrap.dedent("""
        import dataclasses
        import numpy as np
        from gpmoments import (InconsistentCounts, build_context, build_tensor,
                               v4_exact_from_counts)

        assert False, "asserts must be stripped in this run"
        ctx = build_context(13, 3)
        tensor = build_tensor(ctx)
        v4_exact_from_counts(ctx, tensor)
        # raise c_{0,1,0} = (1, 0)_d, in column 0 but not in row 0
        key = 1 * ctx.d + 0
        keys, counts = tensor.keys.copy(), tensor.counts.copy()
        if key in keys:
            counts[np.searchsorted(keys, key)] += 1
        else:
            pos = np.searchsorted(keys, key)
            keys, counts = np.insert(keys, pos, key), np.insert(counts, pos, 1)
        bad = dataclasses.replace(tensor, keys=keys, counts=counts)
        try:
            v4_exact_from_counts(ctx, bad)
        except InconsistentCounts:
            print("variant check raised")
    """)
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(gpmoments.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:1] == ["variant check raised"]

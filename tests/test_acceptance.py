"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they are produced (they also appear in captured output on failure).
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gpmoments import (build_context, build_tensor, compute_periods,
                       count_checks, count_projective, fermat_solution_count,
                       hurwitz_count, is_circular, power_sums, primes_in_range,
                       v2_exact, v4_d3, v4_d4, v4_fixed_k,
                       v4_general_bounds, verify_identities)
from gpmoments.cli import main

from brute_force import (diagonal_counts_check, dictionary_check,
                         half_inverse_check, replay_witness)

P_SWEEP = 10_000


def report(num: int, failures: list, detail: str) -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} problems)"
    print(f"ACCEPTANCE {num}: {status} - {detail}")
    assert not failures, failures[:10]


def pipeline(p, d):
    return build_tensor(build_context(p, d))


def test_criterion_1_d3_exact_v4():
    failures = []
    count = 0
    for p in primes_in_range(7, P_SWEEP, (3, 1)):
        tensor = pipeline(p, 3)
        value, _ = v4_d3(tensor)
        if value != tensor.v4_exact:
            failures.append(("exact", p))
        oracle = power_sums(tensor.eta, (4,))[4]
        if abs(float(value) - oracle) > 1e-6 * abs(oracle):
            failures.append(("float", p))
        count += 1
    report(1, failures, f"d=3 exact V4 formula on {count} primes <= {P_SWEEP}")


def test_criterion_2_d4_both_branches():
    failures = []
    count = 0
    for p in primes_in_range(5, P_SWEEP, (4, 1)):
        tensor = pipeline(p, 4)
        value, band = v4_d4(tensor)
        if value != tensor.v4_exact:
            failures.append((p, band.source))
        count += 1
    report(2, failures, f"d=4 exact V4, both mod-8 branches, {count} primes")


def test_criterion_3_bound_containment():
    failures = []
    count = 0
    for d in range(3, 14):
        for p in primes_in_range(d * d + 1, P_SWEEP, (d, 1)):
            tensor = pipeline(p, d)
            exact = tensor.v4_exact
            if d == 3:
                bounds = v4_d3(tensor)[1]
            elif d == 4:
                bounds = v4_d4(tensor)[1]
            else:
                bounds = v4_general_bounds(p, d)
            if not bounds.contains(exact):
                failures.append((p, d, float(exact)))
            count += 1
    report(3, failures, f"V4 interval containment on {count} (p,d) pairs, d=3..13")


def test_criterion_4_fixed_k_closed_forms():
    failures = []
    count = 0
    for k in (2, 4):
        for p in primes_in_range(k + 2, 5000, (k, 1)):
            verdict = is_circular(p, k)
            if not verdict.circular:
                if (p, k) != (5, 4):
                    # (5,4) is the only known non-circular pair in this range
                    failures.append(("unexpected noncircular", p, k))
                continue
            tensor = pipeline(p, (p - 1) // k)
            if v4_fixed_k(verdict) != tensor.v4_exact:
                failures.append((p, k))
            count += 1
    if is_circular(5, 4).circular:
        failures.append(("(5,4) should be non-circular",))
    for p in primes_in_range(7, 5000, (6, 1)):
        verdict, verdict_2k = is_circular(p, 3), is_circular(p, 6)
        if not (verdict.circular and verdict_2k.circular):
            continue
        tensor = pipeline(p, (p - 1) // 3)
        if v4_fixed_k(verdict, verdict_2k) != tensor.v4_exact:
            failures.append((p, 3))
        count += 1
    report(4, failures, f"fixed-k closed forms on {count} circular pairs, p <= 5000")


def sample_contexts(n=30, seed=20260826, p_max=2000, d_max=64):
    rng = random.Random(seed)
    primes = primes_in_range(7, p_max)
    seen, out = set(), []
    while len(out) < n:
        p = rng.choice(primes)
        divisors = [d for d in range(2, min(p, d_max + 1)) if (p - 1) % d == 0]
        if not divisors:
            continue
        d = rng.choice(divisors)
        if (p, d) in seen:
            continue
        seen.add((p, d))
        out.append((p, d))
    return out


def test_criterion_5_matrix_identities():
    failures = []
    sample = sample_contexts()
    for p, d in sample:
        wanted = {"U_unitary", "TU_eq_UD", "product_identity", "trace_identity"}
        for r in verify_identities(pipeline(p, d)):
            if r.name in wanted and not r.passed:
                failures.append((p, d, r.name, r.detail))
    report(5, failures, f"U*U=I, TU=UD, product identity, trace on {len(sample)} "
                        "seeded (p,d) samples, p <= 2000")


def exact_trace_identity(tensor) -> bool:
    # tr(T^t T) with the sqrt(size_n/size_j) scaling squared away exactly
    ctx = tensor.ctx
    d, k = ctx.d, ctx.k
    sizes = [k] * d + [1]
    tr = sum(Fraction(int(tensor.c0[j, n]) ** 2 * sizes[n], sizes[j])
             for j in range(d + 1) for n in range(d + 1))
    return tr == v2_exact(ctx.p, d) + Fraction(ctx.p - 1, d) ** 2


def test_criterion_6_exact_counting_identities():
    failures = []
    contexts = sample_contexts() + [(7, 3), (13, 4), (13, 6), (29, 7), (31, 6)]
    for p, d in contexts:
        tensor = pipeline(p, d)
        exact_names = {"column_sums", "rotation_symmetry", "T_symmetric",
                       "half_turn_symmetry", "count_square_sum",
                       "v4_row_vs_column"}
        results = {r.name: r for r in
                   verify_identities(tensor) + count_checks(tensor)}
        failures += [(p, d, name) for name in sorted(exact_names)
                     if name not in results or not results[name].passed]
        if not exact_trace_identity(tensor):
            failures.append((p, d, "exact_trace"))
    report(6, failures, f"exact column-sum/symmetry/trace/row-vs-column "
                        f"identities on {len(contexts)} contexts")


def test_criterion_7_curve_dictionary_hasse_weil():
    failures = []
    count = 0
    for p in primes_in_range(5, 500):
        for d in range(2, 9):
            if (p - 1) % d != 0:
                continue
            ctx = build_context(p, d)
            tensor = build_tensor(ctx)
            for j in range(d):
                for kk in range(d):
                    if not dictionary_check(tensor, 0, j, kk):
                        failures.append(("dict", p, d, j, kk))
                    if count_projective(tensor, 0, j, kk).hw_margin < 0:
                        failures.append(("hasse-weil", p, d, j, kk))
                    count += 1
    report(7, failures, f"curve dictionary + Hasse-Weil on {count} curves, "
                        "p <= 500, d <= 8")


def test_criterion_8_solution_counts():
    failures = []
    for p in (7, 13, 19, 31):
        tensor = pipeline(p, 3)
        ctx = tensor.ctx
        residues = [pow(x, 3, p) for x in range(p)]
        brute = sum(1 for a in residues for b in residues for c in residues
                    if (a + b + c) % p == 0)
        if fermat_solution_count(ctx, compute_periods(ctx), 3) != brute:
            failures.append(("count", p))
        v3 = power_sums(tensor.eta, (3,))[3]
        if v3 < ctx.k ** 2 and hurwitz_count(tensor) <= 0:
            failures.append(("positivity", p))
    report(8, failures, "diagonal-sum counts vs brute force, p in {7,13,19,31}")


def test_criterion_9_circularity_examples():
    failures = []
    verdict = is_circular(5, 4)
    if verdict.circular or replay_witness(5, 4, verdict.witness) < 3:
        failures.append(("(5,4) witness",))
    for p in primes_in_range(3, 1000):
        if not is_circular(p, 2).circular:
            failures.append(("k=2", p))
    for p in primes_in_range(7, 1000, (3, 1)):
        if not is_circular(p, 3).circular:
            failures.append(("k=3", p))
    checked = 0
    for k in range(2, 9):
        for p in primes_in_range(k + 2, 1000, (k, 1)):
            if not is_circular(p, k).circular:
                continue
            ctx = build_context(p, (p - 1) // k)
            tensor = build_tensor(ctx)
            if not all(r.passed for r in diagonal_counts_check(ctx, tensor)):
                failures.append(("diagonal", p, k))
            if k % 2 == 0 and not all(r.passed
                                      for r in half_inverse_check(ctx, tensor)):
                failures.append(("half-inverse", p, k))
            checked += 1
    report(9, failures, f"(5,4) witness, k=2/3 circularity, diagonal lemmas on "
                        f"{checked} circular pairs, p <= 1000")


def test_criterion_10_sweep_determinism(tmp_path):
    out1, out2 = tmp_path / "w1.csv", tmp_path / "w8.csv"
    rc1 = main(["sweep", "--mode", "fixed_d", "--value", "3",
                "--from", "5", "--to", str(P_SWEEP), "--out", str(out1),
                "--workers", "1"])
    rc2 = main(["sweep", "--mode", "fixed_d", "--value", "3",
                "--from", "5", "--to", str(P_SWEEP), "--out", str(out2),
                "--workers", "8"])
    failures = []
    if rc1 != 0 or rc2 != 0:
        failures.append(("exit codes", rc1, rc2))
    elif out1.read_bytes() != out2.read_bytes():
        failures.append(("outputs differ",))
    report(10, failures, f"byte-identical d=3 sweep CSV (p <= {P_SWEEP}) "
                         "with 1 vs 8 workers")

"""Fixed-k rows without the structure tensor: the Pohlig-Hellman class
lookups, row 0 and the pair count, against the class index and the tensor
path, whose fixed-k report `tensor_fixed_k_report` is kept as the oracle."""

import hashlib
import math
import os
import sys
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brute_force import subgroup, tensor_fixed_k_report
from gpmoments import (DivisorMismatch, PreconditionViolated, build_context,
                       circularity, class_lookup, cli, compute_periods,
                       find_primitive_root, fixed_k_report, is_circular,
                       primes_in_range, subgroup_classes, v4_pair_count)
from gpmoments.cli import EXIT_CHECK_FAILED, EXIT_OK, SweepMode, _run_prime

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

# the checks of the stored counts, which a row without a tensor leaves out
TENSOR_CHECKS = ("column_sums", "count_square_sum", "v4_row_vs_column")


def test_lookups_match_the_class_index():
    # every prime p < 4000 and every d with (p-1)/d <= 40, at about 50
    # points each (every point below p = 50), x = 0, 1 and -1 among them
    # (0 has the index's class d); one lookup sizes the smallest tables, so
    # the giant steps run too
    points = 0
    for p in primes_in_range(3, 3999):
        step = max(1, (p - 1) // 50)
        xs = sorted({0, 1, p - 1, *range(1, p, step)})
        for k in range(1, 41):
            if (p - 1) % k:
                continue
            d = (p - 1) // k
            index = build_context(p, d).coset_index
            for n in (1, len(xs)):
                g, cls = class_lookup(p, d, n)
                assert g == find_primitive_root(p)
                assert [cls(x) for x in xs] == index[xs].tolist(), (p, d, n)
            points += len(xs)
    assert points > 190_000
    with pytest.raises(DivisorMismatch):  # 5 does not divide 12
        class_lookup(13, 5, 1)


PRIMES_NEAR_1E6 = primes_in_range(10**6, 10**6 + 3000)


@st.composite
def points_near_1e6(draw):
    p = draw(st.sampled_from(PRIMES_NEAR_1E6))
    divisors = [d for d in range(1, math.isqrt(p - 1) + 1) if (p - 1) % d == 0]
    divisors += [(p - 1) // d for d in divisors]
    d = draw(st.sampled_from(sorted(divisors)))
    return p, d, draw(st.integers(1, p - 1)), draw(st.integers(1, 200))


@settings(max_examples=150, deadline=None)
@given(points_near_1e6())
def test_lookup_near_1e6_is_the_class(case):
    # x is in X_c iff x g^-c lies in <g^d>, the group of order k: no table
    p, d, x, n = case
    g, cls = class_lookup(p, d, n)
    c = cls(x)
    assert 0 <= c < d
    assert pow(x * pow(g, -c, p), (p - 1) // d, p) == 1


def test_periods_read_only_p_g_and_d():
    # a bare (p, g, d) and the classes of a fixed-k row, whichever their
    # source, reproduce every pinned digest of the periods
    with open(os.path.join(GOLDEN_DIR, "eta_sha256.txt")) as fh:
        rows = [line.split() for line in fh if not line.startswith("#")]
    assert len(rows) > 5
    for p, d, digest in rows:
        p, d = int(p), int(d)
        bare = types.SimpleNamespace(p=p, g=find_primitive_root(p), d=d)
        for src in (bare, subgroup_classes(p, (p - 1) // d)):
            eta = compute_periods(src)
            assert hashlib.sha256(eta.tobytes()).hexdigest() == digest, (p, d)


def _same_report(row, oracle) -> None:
    # field for field; the tensor checks are the oracle's alone and
    # v4_pair_count the row's, and the periods of a row with d^3 <= p are
    # summed where the tensor path took the eigenvalues of T
    for name in ("p", "d", "k", "p_mod_8", "v4_exact", "formula_values",
                 "bounds", "formula", "band", "circularity", "circularity_2k"):
        assert getattr(row, name) == getattr(oracle, name), name
    if row.d ** 3 > row.p:
        assert row.v_direct == oracle.v_direct
    else:
        assert row.v_direct == pytest.approx(oracle.v_direct, rel=1e-12)
    assert [c for c in row.checks if c.name != "v4_pair_count"] == \
        [c for c in oracle.checks if c.name not in TENSOR_CHECKS]
    pair = [c for c in row.checks if c.name == "v4_pair_count"]
    assert len(pair) == 1 and pair[0].passed
    assert all(c.passed for c in oracle.checks if c.name in TENSOR_CHECKS)


def test_fixed_k_report_matches_the_tensor_path(monkeypatch):
    # every p < 6000 and 2 <= k <= 40 with k | p - 1, every class looked up
    # (the rule would read those with d < 250 off an index)
    monkeypatch.setattr(circularity, "INDEX_BELOW_D", 0)
    rows = 0
    for p in primes_in_range(3, 5999):
        for k in range(2, 41):
            if (p - 1) % k == 0:
                _same_report(fixed_k_report(p, k), tensor_fixed_k_report(p, k))
                rows += 1
    assert rows == 4655


@pytest.mark.parametrize("p,k", [(5479, 22), (5501, 22)], ids=["d249", "d250"])
def test_the_rule_switches_the_class_source_at_d_250(monkeypatch, p, k):
    # d = 249 reads the classes off a context's index and d = 250 looks them
    # up; either source gives the tensor path's report, and the other's
    d = (p - 1) // k
    built = []
    real = circularity.build_context
    monkeypatch.setattr(circularity, "build_context",
                        lambda p, d: built.append((p, d)) or real(p, d))
    ours = subgroup_classes(p, k)
    assert built == ([(p, d)] if d == 249 else [])
    row = fixed_k_report(p, k)
    _same_report(row, tensor_fixed_k_report(p, k))
    monkeypatch.setattr(circularity, "INDEX_BELOW_D", 10**9 if d == 250 else 0)
    built.clear()
    other = subgroup_classes(p, k)
    assert built == ([] if d == 249 else [(p, d)])
    assert other.minus.tolist() == ours.minus.tolist()
    assert fixed_k_report(p, k) == row


def test_the_rule_is_one_on_d():
    assert circularity.INDEX_BELOW_D == 250
    for k in (1, 3, 4, 100, 10**4):
        assert circularity.index_is_cheaper(249 * k + 1, k)
        assert not circularity.index_is_cheaper(250 * k + 1, k)


def test_plus_is_read_at_odd_k_only():
    with pytest.raises(PreconditionViolated):
        subgroup_classes(29, 4).plus  # h^2 + 1 = 0
    assert len(subgroup_classes(31, 3).plus) == 3


@pytest.mark.parametrize("p,k", [(13, 3), (13, 4), (29, 4), (31, 3), (37, 6),
                                 (41, 5), (61, 12), (101, 20)])
def test_pair_count_is_the_sum_of_squared_pair_counts(p, k):
    # V_4 = (p sum_z R_2(z)^2 - k^4)/k, with R_2 counted over all k^2 pairs;
    # (61, 12) and (101, 20) look the pairs up in a table (2p <= k^2), the
    # others by binary search
    _, gamma = subgroup(p, k)
    r2 = {}
    for a in gamma:
        for b in gamma:
            r2[(a + b) % p] = r2.get((a + b) % p, 0) + 1
    total = sum(n * n for n in r2.values())
    assert (p * total - k ** 4) % k == 0
    assert v4_pair_count(p, np.array(gamma)) == (p * total - k ** 4) // k
    assert v4_pair_count(p, np.array(gamma)) == fixed_k_report(p, k).v4_exact


def test_pair_count_blocks(monkeypatch):
    # blocks of one to a few rows of pairs give the count of one block, in
    # the table (1021, 60) and by binary search
    want = [v4_pair_count(p, subgroup_classes(p, k).gamma)
            for p, k in [(1021, 60), (2017, 42), (2017, 3)]]
    monkeypatch.setattr(circularity, "PAIR_CHUNK", 7)
    monkeypatch.setattr(sys.modules["gpmoments.moments"], "PAIR_CHUNK", 7)
    assert [v4_pair_count(p, subgroup_classes(p, k).gamma)
            for p, k in [(1021, 60), (2017, 42), (2017, 3)]] == want


def test_a_wrong_row_0_fails_the_pair_count(monkeypatch, tmp_path):
    # a class moved off row 0 changes V_4 and only the pair count sees it
    real = circularity.SubgroupClasses.row0

    def moved(self):
        row = real(self).copy()
        row[0] = (row[0] + 1) % self.d
        return row

    monkeypatch.setattr(circularity.SubgroupClasses, "row0", moved)
    rpt = fixed_k_report(10009, 4)
    verdicts = {c.name: c.passed for c in rpt.checks}
    assert not verdicts["v4_pair_count"] and not rpt.all_passed()
    out = tmp_path / "k.csv"
    assert cli.main(["sweep", "--mode", "fixed_k", "--value", "4", "--from",
                     "9900", "--to", "10100", "--out", str(out)]) == \
        EXIT_CHECK_FAILED
    rows = out.read_text().splitlines()[1:]
    assert len(rows) > 5 and all(r.endswith(",0") for r in rows)


def _refuse_tables(monkeypatch):
    # every binding of build_context and build_tensor in the package raises
    def refused(*args):
        raise AssertionError("an O(p) table was built")

    from gpmoments import field_core, superchar
    for real in (field_core.build_context, superchar.build_tensor):
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "gpmoments" and \
                    getattr(mod, real.__name__, None) is real:
                monkeypatch.setattr(mod, real.__name__, refused)


@pytest.mark.parametrize("p,k", [(10009, 3), (9949, 4), (1000033, 4),
                                 (1000003, 3), (1000117, 12)])
def test_a_row_builds_no_class_index_and_no_tensor(monkeypatch, p, k):
    want = tensor_fixed_k_report(p, k) if p < 10**5 else None
    _refuse_tables(monkeypatch)
    rpt = _run_prime(p, SweepMode.FIXED_K, k)
    assert rpt.all_passed() and rpt.circularity == is_circular(p, k)
    if want is not None:
        _same_report(rpt, want)


def test_sweeps_and_scans_build_no_table(monkeypatch, tmp_path):
    # from p = 2001 on, d = (p-1)/4 >= 500 and (p-1)/3 >= 666: lookups only
    out = tmp_path / "k.csv"
    argv = ["sweep", "--from", "2001", "--to", "3000", "--out", str(out),
            "--mode", "fixed_k", "--value"]
    want = {}
    for k in (3, 4):
        assert cli.main(argv + [str(k)]) == EXIT_OK
        want[k] = (out.read_text(), [is_circular(p, k) for p in
                                     primes_in_range(2001, 3000, (k, 1))])
    _refuse_tables(monkeypatch)
    for k in (3, 4):
        assert cli.main(argv + [str(k)]) == EXIT_OK
        assert (out.read_text(), [is_circular(p, k) for p in
                                  primes_in_range(2001, 3000, (k, 1))]) == want[k]
        assert len(want[k][1]) > 30


def test_row_memory_near_1e6():
    # (1000033, 4), d = 250008: the classes, row 0, the verdicts and the pair
    # count hold a few KiB, against the 4p bytes of a uint32 class index; the
    # whole row holds its periods (16d bytes) and their power sums (16d),
    # where the tensor path peaked at 46 MB
    p, k = 1000033, 4
    d = (p - 1) // k
    fixed_k_report(p, k)
    tracemalloc.start()
    try:
        sc = subgroup_classes(p, k)
        sc.row0()
        sc.verdict()
        v4_pair_count(p, sc.gamma)
        classes_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        fixed_k_report(p, k)
        row_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert classes_peak <= 64 * 1024 < 4 * p // 50
    assert row_peak <= 34 * d

import concurrent.futures
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import gpmoments
from brute_force import brute_projective
from gpmoments import (build_context, cli, field_core, moments, periods,
                       superchar, verify_identities)
from gpmoments.field_core import MAX_P
from gpmoments.cli import (EXIT_CHECK_FAILED, EXIT_CONFIG_ERROR, EXIT_OK,
                           FIXED_D_HEADER, SweepConfig, SweepMode,
                           OutputFormat, main, run_sweep, verify_single)


def read(path):
    with open(path) as fh:
        return fh.read()


def test_sweep_fixed_d_csv(tmp_path):
    out = tmp_path / "d3.csv"
    rc = main(["sweep", "--mode", "fixed_d", "--value", "3",
               "--from", "5", "--to", "200", "--out", str(out)])
    assert rc == EXIT_OK
    lines = read(out).strip().split("\n")
    assert lines[0] == FIXED_D_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == sorted(int(r[0]) for r in rows)
    assert all(int(r[0]) % 3 == 1 for r in rows)
    assert all(r[-1] == "1" for r in rows)
    assert rows[0][7] == "v4_d3"


def test_sweep_deterministic_across_workers(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--mode", "fixed_d", "--value", "4",
                 "--from", "5", "--to", "400", "--out", str(out1),
                 "--workers", "1"]) == EXIT_OK
    assert main(["sweep", "--mode", "fixed_d", "--value", "4",
                 "--from", "5", "--to", "400", "--out", str(out2),
                 "--workers", "4"]) == EXIT_OK
    assert read(out1) == read(out2)


def test_pool_is_no_larger_than_the_tasks_or_cpus(tmp_path, monkeypatch):
    # the pool forks all its processes at the first submit, so a large
    # --workers must not ask for more than there is work or CPUs for
    sizes = []

    class SerialPool:
        # stands in for ProcessPoolExecutor: records its size, starts no
        # process and maps in this one
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    # _map imports the pool where it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    out = tmp_path / "s.csv"
    # 7, 13, 19: three primes = 1 (mod 3) below 30
    assert main(["sweep", "--mode", "fixed_d", "--value", "3", "--to", "30",
                 "--out", str(out), "--workers", "500"]) == EXIT_OK
    assert len(read(out).splitlines()) == 4
    assert main(["figure", "--id", "d3", "--to", "200", "--out", str(out),
                 "--workers", "500"]) == EXIT_OK
    assert sizes == [3, 8]
    # one CPU, or one task, runs in this process without a pool
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert main(["sweep", "--mode", "fixed_d", "--value", "3", "--to", "30",
                 "--out", str(out), "--workers", "500"]) == EXIT_OK
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    assert main(["sweep", "--mode", "fixed_d", "--value", "3", "--to", "10",
                 "--out", str(out), "--workers", "500"]) == EXIT_OK
    assert sizes == [3, 8]


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_output_file_mode_follows_the_umask(tmp_path, umask, mode):
    # the mode open(path, "w") gives, not mkstemp's 0600
    out = tmp_path / "s.csv"
    old = os.umask(umask)
    try:
        assert main(["sweep", "--mode", "fixed_d", "--value", "3", "--to", "30",
                     "--out", str(out)]) == EXIT_OK
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == mode


@pytest.mark.parametrize("mode", [0o600, 0o640], ids=["0600", "0640"])
def test_overwritten_output_keeps_its_mode(tmp_path, mode):
    # as open(path, "w") would: a restricted file stays restricted
    out = tmp_path / "m.csv"
    out.write_text("old\n")
    out.chmod(mode)
    old = os.umask(0o022)
    try:
        assert main(["sweep", "--mode", "fixed_d", "--value", "3", "--to", "30",
                     "--out", str(out)]) == EXIT_OK
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == mode
    assert read(out).startswith(FIXED_D_HEADER)


@pytest.mark.parametrize("exists", [True, False], ids=["target", "dangling"])
def test_symlinked_output_is_written_through(tmp_path, exists):
    # as open(path, "w") would: the link stays a link and its target, in
    # another directory, gets the rows (and keeps its mode)
    (tmp_path / "real").mkdir()
    real, link = tmp_path / "real" / "real.csv", tmp_path / "link.csv"
    if exists:
        real.write_text("old\n")
        real.chmod(0o640)
    link.symlink_to(real)
    old = os.umask(0o022)
    try:
        assert main(["sweep", "--mode", "fixed_d", "--value", "3", "--to", "30",
                     "--out", str(link)]) == EXIT_OK
    finally:
        os.umask(old)
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert read(real).startswith(FIXED_D_HEADER)
    assert real.stat().st_mode & 0o777 == (0o640 if exists else 0o644)
    assert sorted(os.listdir(tmp_path)) == ["link.csv", "real"]
    assert os.listdir(tmp_path / "real") == ["real.csv"]


@pytest.mark.parametrize("target", ["nodir/x.csv", "outdir", "link.csv"],
                         ids=["missing_directory", "existing_directory",
                              "link_into_missing_directory"])
def test_output_errors_name_the_given_path(tmp_path, capsys, target):
    (tmp_path / "outdir").mkdir()
    out = tmp_path / target
    if target == "link.csv":
        out.symlink_to(tmp_path / "nodir" / "x.csv")
    assert main(["sweep", "--mode", "fixed_d", "--value", "3", "--to", "30",
                 "--out", str(out)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert f"cannot write {out}: " in err and ".gpm_tmp_" not in err
    assert [f for where in (tmp_path, tmp_path / "outdir")
            for f in os.listdir(where) if f.startswith(".gpm_tmp_")] == []


def test_sweep_fixed_k_mode(tmp_path):
    out = tmp_path / "k2.csv"
    rc = main(["sweep", "--mode", "fixed_k", "--value", "2",
               "--from", "3", "--to", "100", "--out", str(out)])
    assert rc == EXIT_OK
    lines = read(out).strip().split("\n")
    for line in lines[1:]:
        cols = line.split(",")
        assert cols[3] == "1"  # (p, 2) always circular
        assert cols[5] == "v4_fixed_k_even"


def test_sweep_json_format(tmp_path):
    out = tmp_path / "d3.json"
    rc = main(["sweep", "--mode", "fixed_d", "--value", "3",
               "--from", "5", "--to", "60", "--out", str(out),
               "--format", "json"])
    assert rc == EXIT_OK
    blobs = json.loads(read(out))
    assert [b["p"] for b in blobs] == [7, 13, 19, 31, 37, 43]
    assert all(all(b["verdicts"].values()) for b in blobs)


def test_sweep_config_file_with_cli_override(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("mode=fixed_d\nvalue=3\np_lo=5\np_hi=50\n"
                   f"out={tmp_path / 'from_file.csv'}\n")
    out = tmp_path / "override.csv"
    rc = main(["sweep", "--config", str(cfg), "--out", str(out)])
    assert rc == EXIT_OK
    assert out.exists()
    assert not (tmp_path / "from_file.csv").exists()


def test_sweep_config_file_rejects_unknown_key(tmp_path, capsys):
    # the file key is p_hi; to= (the flag's name) must not be dropped quietly
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("mode=fixed_d\nvalue=3\nto=40\n")
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", str(cfg),
                 "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert not out.exists()
    err = capsys.readouterr().err
    assert "'to'" in err
    assert "mode, value, p_lo, p_hi, out, format, workers" in err


@pytest.mark.parametrize("key,val", [("format", "xml"), ("mode", "bogus"),
                                     ("value", "three")])
def test_sweep_config_file_rejects_bad_value(tmp_path, capsys, key, val):
    settings = {"mode": "fixed_d", "value": "3", "p_hi": "40", key: val}
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in settings.items()))
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", str(cfg),
                 "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert not out.exists()
    assert f"bad value for {key}: {val!r}" in capsys.readouterr().err


def test_sweep_config_file_rejects_repeated_key(tmp_path, capsys):
    # value=3 then value=4 used to run a d = 4 sweep
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("mode=fixed_d\nvalue=3\nvalue=4\np_hi=40\n")
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", str(cfg),
                 "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert not out.exists()
    assert "'value' is set twice" in capsys.readouterr().err


def test_sweep_invalid_config_exit_code(tmp_path):
    rc = main(["sweep", "--mode", "fixed_d", "--value", "3",
               "--from", "100", "--to", "5", "--out", str(tmp_path / "x.csv")])
    assert rc == EXIT_CONFIG_ERROR


def test_workers_env_override(tmp_path, monkeypatch):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("mode=fixed_d\nvalue=3\np_hi=100\nworkers=2\n")
    monkeypatch.setenv("GPMOMENTS_WORKERS", "2")
    out = tmp_path / "env.csv"
    assert main(["sweep", "--mode", "fixed_d", "--value", "3",
                 "--from", "5", "--to", "100", "--out", str(out)]) == EXIT_OK
    for bad in ("zzz", "0", "-3"):
        monkeypatch.setenv("GPMOMENTS_WORKERS", bad)
        assert main(["sweep", "--mode", "fixed_d", "--value", "3",
                     "--from", "5", "--to", "100",
                     "--out", str(out)]) == EXIT_CONFIG_ERROR, bad
        assert main(["figure", "--id", "d3", "--to", "100",
                     "--out", str(out)]) == EXIT_CONFIG_ERROR, bad
        # the variable is read only when nothing else sets the count
        assert main(["sweep", "--mode", "fixed_d", "--value", "3",
                     "--from", "5", "--to", "100", "--workers", "2",
                     "--out", str(out)]) == EXIT_OK, bad
        assert main(["sweep", "--config", str(cfg),
                     "--out", str(out)]) == EXIT_OK, bad
        assert main(["figure", "--id", "d3", "--to", "100", "--workers", "2",
                     "--out", str(out)]) == EXIT_OK, bad


def test_verify_7_3_report():
    buf = io.StringIO()
    rc = verify_single(7, 3, SweepMode.FIXED_D, out=buf)
    text = buf.getvalue()
    assert rc == EXIT_OK
    assert "V_4 exact = 13" in text
    assert "RESULT: pass" in text
    assert "eta[0]" in text


def test_verify_5_k4_flags_noncircular():
    buf = io.StringIO()
    rc = verify_single(5, 4, SweepMode.FIXED_K, out=buf)
    text = buf.getvalue()
    assert rc == EXIT_OK  # nothing asserted fails; the formula is skipped
    assert "non-circular" in text
    assert "fixed-k formula skipped" in text


def test_verify_13_k3_says_why_the_odd_form_is_skipped():
    # (13, 3) is circular but (13, 6) is not: the odd-k form needs both
    buf = io.StringIO()
    rc = verify_single(13, 3, SweepMode.FIXED_K, out=buf)
    lines = buf.getvalue().splitlines()
    assert rc == EXIT_OK
    i = lines.index("pair (p,k)=(13,3) is circular (max intersection 2)")
    assert lines[i + 1:i + 3] == [
        "pair (p,k)=(13,6) is non-circular (max intersection 3)",
        "fixed-k formula skipped (pair not circular)"]
    assert not any(line.startswith("formula v4_fixed_k") for line in lines)


def test_verify_13_d4_branch():
    buf = io.StringIO()
    verify_single(13, 4, SweepMode.FIXED_D, out=buf)
    assert "mod8_5" in buf.getvalue()


def test_verify_fails_when_an_identity_fails(monkeypatch, capsys):
    # one failed identity check fails the whole run, not only its own line
    def one_failing(*args):
        first, *rest = verify_identities(*args)
        return [dataclasses.replace(first, passed=False)] + rest

    monkeypatch.setattr(cli, "verify_identities", one_failing)
    assert main(["verify", "--p", "7", "--d", "3"]) == EXIT_CHECK_FAILED
    text = capsys.readouterr().out
    assert "identity U_unitary: FAIL" in text
    assert text.endswith("RESULT: FAIL\n")


def test_verify_divisor_mismatch_exit_code():
    assert main(["verify", "--p", "13", "--d", "5"]) == EXIT_CONFIG_ERROR
    assert main(["verify", "--p", "13", "--d", "0"]) == EXIT_CONFIG_ERROR
    assert main(["verify", "--p", "13", "--k", "0"]) == EXIT_CONFIG_ERROR
    assert main(["verify", "--p", "9", "--d", "2"]) == EXIT_CONFIG_ERROR


def test_p_above_table_limit_exit_code(tmp_path, capsys):
    # the first value above the limit, refused before any table is built
    big = str(MAX_P + 1)
    out = tmp_path / "big.csv"
    assert main(["sweep", "--mode", "fixed_d", "--value", "2", "--from", big,
                 "--to", big, "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert not out.exists()
    assert main(["verify", "--p", big, "--d", "2"]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.count("table limit") == 2


def test_verify_writes_to_redirected_stdout():
    # the default stream is the sys.stdout of the call, not of the import
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = verify_single(7, 3, SweepMode.FIXED_D)
    assert rc == EXIT_OK
    assert "V_4 exact = 13" in buf.getvalue()
    assert buf.getvalue().endswith("RESULT: pass\n")


def test_verify_peak_memory():
    # the one-byte class index, the tensor's chunked count and the periods'
    # chunk-sized strips: a report near p = 1e6 holds no O(p) table beside
    # the index
    buf = io.StringIO()
    tracemalloc.start()
    try:
        rc = verify_single(1000003, 3, SweepMode.FIXED_D, out=buf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == EXIT_OK
    assert peak <= 4 * 10**6


# (11, 1) and (13, 2) have genus 0; (31, 6) ties six curves at the minimum
@pytest.mark.parametrize("p,d", [(37, 4), (37, 12), (11, 1), (13, 2), (31, 6)])
def test_verify_curve_line_matches_brute_force(p, d):
    buf = io.StringIO()
    verify_single(p, d, SweepMode.FIXED_D, out=buf)
    line = re.search(r"curve counts: M\(0,0,0\)=(\d+), min HW margin (\S+) "
                     r"at \(0,(\d+),(\d+)\)", buf.getvalue())
    assert line is not None
    # brute force over the d^2 grid, j outer and k inner; the first minimum
    ctx = build_context(p, d)
    genus = (d - 1) * (d - 2) // 2
    margins = {}
    for j in range(d):
        for k in range(d):
            m = brute_projective(ctx, 0, j, k)
            margins[j, k] = 2 * genus * math.sqrt(p) - abs(m - (p + 1))
            if (j, k) == (0, 0):
                m000 = m
    worst = min(margins, key=margins.get)
    assert int(line[1]) == m000
    assert (int(line[3]), int(line[4])) == worst
    assert line[2] == f"{margins[worst]:.4f}"


def test_figure_d3(tmp_path):
    out = tmp_path / "d3.csv"
    rc = main(["figure", "--id", "d3", "--out", str(out), "--to", "300"])
    assert rc == EXIT_OK
    lines = read(out).strip().split("\n")
    assert lines[0] == "p,v4_exact,lower_bound,upper_bound"
    for line in lines[1:]:
        p, v4, lo, hi = line.split(",")
        assert float(lo) <= float(v4) <= float(hi)


def test_figure_d4_branch_column(tmp_path):
    out = tmp_path / "d4.csv"
    rc = main(["figure", "--id", "d4", "--out", str(out), "--to", "300"])
    assert rc == EXIT_OK
    lines = read(out).strip().split("\n")
    assert lines[0].endswith(",branch")
    assert {line.split(",")[-1] for line in lines[1:]} <= {"1", "5"}


def test_figure_to_zero_writes_only_the_header(tmp_path):
    # 0 is a bound, not a missing value
    out = tmp_path / "d3.csv"
    assert main(["figure", "--id", "d3", "--out", str(out),
                 "--to", "0"]) == EXIT_OK
    assert read(out) == "p,v4_exact,lower_bound,upper_bound\n"
    assert main(["figure", "--id", "noncircular_scan", "--out", str(out),
                 "--to", "0"]) == EXIT_OK
    assert read(out) == "k,p\n"


def test_figure_exit_code_follows_the_row_verdicts(tmp_path, monkeypatch):
    # a d-figure row whose report fails fails the run, as in sweep, and the
    # file is still written; its columns do not read the d = 3 form
    out = tmp_path / "d3.csv"
    assert main(["figure", "--id", "d3", "--to", "2000",
                 "--out", str(out)]) == EXIT_OK
    good = read(out)
    out.unlink()
    real = moments.v4_d3

    def one_off(tensor):
        value, band = real(tensor)
        return value + 1, band
    monkeypatch.setattr(moments, "v4_d3", one_off)
    assert main(["figure", "--id", "d3", "--to", "2000",
                 "--out", str(out)]) == EXIT_CHECK_FAILED
    assert read(out) == good and len(good.splitlines()) > 100


def test_figure_workers_below_one_exit_code(tmp_path):
    for bad in ("0", "-3"):
        assert main(["figure", "--id", "d3", "--to", "100", "--workers", bad,
                     "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG_ERROR


def test_figure_unknown_id(tmp_path):
    assert main(["figure", "--id", "d99",
                 "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG_ERROR


def test_circular_scan(tmp_path):
    out = tmp_path / "c.csv"
    rc = main(["circular", "--k", "4", "--to", "10", "--out", str(out)])
    assert rc == EXIT_OK
    lines = read(out).strip().split("\n")
    row5 = [line for line in lines if line.startswith("5,")][0]
    cols = row5.split(",")
    assert cols[2] == "0" and int(cols[3]) >= 3


def test_circular_scan_factors_each_prime_once(tmp_path, monkeypatch):
    # the context of each sieved p factors p - 1 once: its primitive root is
    # its primality proof (Lucas); the verdict takes p as proved and factors
    # nothing
    calls = []
    real = field_core._prime_factors

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(field_core, "_prime_factors", counted)
    out = tmp_path / "c.csv"
    assert main(["circular", "--k", "12", "--to", "3000",
                 "--out", str(out)]) == EXIT_OK
    primes = len(read(out).splitlines()) - 1
    assert primes == 99 and len(calls) == primes


@pytest.fixture
def periods_calls(monkeypatch):
    # the p of every compute_periods call: the periods are tensor.eta,
    # computed on first read, so each command states how often it reads them
    calls = []
    real = periods.compute_periods

    def counted(ctx):
        calls.append(ctx.p)
        return real(ctx)

    monkeypatch.setattr(periods, "compute_periods", counted)
    return calls


@pytest.mark.parametrize("mode,value", [("fixed_d", 3), ("fixed_k", 4),
                                        ("fixed_k", 3)])
def test_sweep_computes_the_periods_once_per_prime(tmp_path, periods_calls,
                                                   mode, value):
    # a row with d^3 <= p reads its periods off the eigenvalues of T and
    # sums none; every other row sums them once
    out = tmp_path / "s.csv"
    assert main(["sweep", "--mode", mode, "--value", str(value), "--to", "600",
                 "--out", str(out), "--workers", "1"]) == EXIT_OK
    rows = [line.split(",") for line in read(out).splitlines()[1:]]
    summed = [int(r[0]) for r in rows if int(r[1]) ** 3 > int(r[0])]
    assert len(rows) > 20 and periods_calls == summed


def test_sweep_sums_the_periods_only_above_d_cubed(tmp_path, periods_calls):
    # 211 < 6^3 = 216 < 223, the primes = 1 (mod 6) on either side
    out = tmp_path / "s.csv"
    assert main(["sweep", "--mode", "fixed_d", "--value", "6", "--from", "211",
                 "--to", "223", "--out", str(out), "--workers", "1"]) == EXIT_OK
    rows = [line.split(",") for line in read(out).splitlines()[1:]]
    assert [r[0] for r in rows] == ["211", "223"]
    assert all(r[-1] == "1" for r in rows) and periods_calls == [211]


def _perturbed_counts(change):
    """cli.build_tensor with some stored counts changed: change(c), c(u, w)
    reading (u, w)_d off the real tensor, maps stored (u, w) to the amounts
    added to them.  Any count may change, in row 0 and column 0 as well:
    every check of the counts is a verdict, so a row fails by name."""
    real = cli.build_tensor

    def build(ctx):
        tensor = real(ctx)
        edits = change(lambda u, w: int(tensor.constant(u, w)))
        want = [u * ctx.d + w for u, w in edits]
        pos = tensor.keys.searchsorted(want)
        assert tensor.keys[pos].tolist() == want
        counts = tensor.counts.copy()
        counts[pos] += list(edits.values())
        return dataclasses.replace(tensor, counts=counts)
    return build


def _move_in_column_1(c):
    # (1,1)_3 to (2,1)_3 or back: the column sum stays k
    small, large = sorted([(1, 1), (2, 1)], key=lambda uw: c(*uw))
    return {small: -1, large: 1}


@pytest.mark.parametrize("change,broken", [
    pytest.param(_move_in_column_1, "count_square_sum",
                 id="move-count_square_sum"),
    pytest.param(lambda c: {(1, 1): -1}, "column_sums", id="drop-column_sums"),
    *(pytest.param(lambda c, uw=uw, by=by: {uw: by}, "v4_row_vs_column",
                   id=f"{where}{by:+d}-v4_row_vs_column")
      for where, uw in [("row_0", (0, 1)), ("column_0", (1, 0))]
      for by in (1, -1))])
def test_sweep_fails_rows_with_perturbed_counts(tmp_path, monkeypatch, change,
                                                broken):
    # rows with d^3 <= p take their power sums from T itself, so the exact
    # count checks are what ties them to an independent truth; a failed
    # check fails its row, and the sweep still writes every row
    monkeypatch.setattr(cli, "build_tensor", _perturbed_counts(change))
    argv = ["sweep", "--mode", "fixed_d", "--value", "3", "--from", "1000",
            "--to", "1100", "--workers", "1", "--out"]
    primes = field_core.primes_in_range(1000, 1100, (3, 1))
    csv_out, json_out = tmp_path / "s.csv", tmp_path / "s.json"
    assert main(argv + [str(csv_out)]) == EXIT_CHECK_FAILED
    rows = [line.split(",") for line in read(csv_out).splitlines()[1:]]
    assert [int(r[0]) for r in rows] == primes and len(rows) > 5
    assert all(r[-1] == "0" for r in rows)
    assert main(argv + [str(json_out), "--format", "json"]) == EXIT_CHECK_FAILED
    reports = json.loads(read(json_out))
    assert [r["p"] for r in reports] == primes
    assert all(r["d"] ** 3 <= r["p"] and not r["verdicts"][broken]
               for r in reports)


def test_verify_reports_a_count_moved_off_row_0(monkeypatch, capsys):
    # 1 moved from (0,0)_3 to (1,0)_3 = (0,0)_3 - 1 at p = 19 keeps the column
    # sums and the sum of squares; the row/column read of V_4 sees it, and
    # verify still prints the whole report
    def move(c):
        assert c(1, 0) == c(0, 0) - 1
        return {(0, 0): -1, (1, 0): 1}

    monkeypatch.setattr(cli, "build_tensor", _perturbed_counts(move))
    assert main(["verify", "--p", "19", "--d", "3"]) == EXIT_CHECK_FAILED
    lines = capsys.readouterr().out.splitlines()
    assert "check column_sums: pass expected 6" in lines
    assert any(line.startswith("check count_square_sum: pass")
               for line in lines)
    assert any(line.startswith("check v4_row_vs_column: FAIL")
               for line in lines)
    assert lines[-2].startswith("curve counts:") and lines[-1] == "RESULT: FAIL"


@pytest.mark.parametrize("p,flag,value", [(7, "--d", "3"), (31, "--k", "3")])
def test_verify_computes_the_periods_once(periods_calls, capsys, p, flag, value):
    assert main(["verify", "--p", str(p), flag, value]) == EXIT_OK
    assert "eta[0]" in capsys.readouterr().out
    assert periods_calls == [p]


@pytest.mark.parametrize("p,flag,value", [(7, "--d", "3"), (31, "--k", "3")])
def test_verify_runs_the_count_checks_once(monkeypatch, capsys, p, flag, value):
    # the report's checks hold the count checks, and verify prints them from
    # there: no module runs them a second time
    calls = []
    real = superchar.count_checks

    def counted(tensor):
        calls.append(tensor.ctx.p)
        return real(tensor)

    monkeypatch.setattr(superchar, "count_checks", counted)
    monkeypatch.setattr(moments, "count_checks", counted)
    assert main(["verify", "--p", str(p), flag, value]) == EXIT_OK
    assert "check column_sums: pass" in capsys.readouterr().out
    assert calls == [p]


@pytest.mark.parametrize("argv", [["circular", "--k", "4", "--to", "600"],
                                  ["figure", "--id", "noncircular_scan",
                                   "--to", "600"]],
                         ids=["circular", "noncircular_scan"])
def test_circularity_scans_compute_no_periods(tmp_path, periods_calls, argv):
    out = tmp_path / "c.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert len(read(out).splitlines()) > 1 and periods_calls == []


@pytest.mark.parametrize("k", ["0", "-4"])
@pytest.mark.parametrize("p_hi", ["2", "3000"])
def test_circular_k_below_one_exit_code(tmp_path, capsys, k, p_hi):
    # refused before the sieve, not after it or with a header-only file
    out = tmp_path / "c.csv"
    assert main(["circular", "--k", k, "--to", p_hi,
                 "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert not out.exists()
    assert "k must be >= 1" in capsys.readouterr().err


def test_failed_sweep_leaves_no_partial_file(tmp_path, monkeypatch):
    # simulate an unwritable output directory
    out = tmp_path / "nodir" / "x.csv"
    rc = main(["sweep", "--mode", "fixed_d", "--value", "3",
               "--from", "5", "--to", "50", "--out", str(out)])
    assert rc == EXIT_CONFIG_ERROR
    assert not out.exists()


def _fresh_process(argv, cwd=None, **env):
    """gpmoments argv in a new interpreter that imports this checkout, with
    the environment variables env set on top of this one's."""
    env = dict(os.environ, **env,
               PYTHONPATH=os.path.dirname(os.path.dirname(gpmoments.__file__)))
    return subprocess.Popen([sys.executable, "-m", "gpmoments.cli", *argv],
                            cwd=cwd, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def test_one_parser_serves_every_main_call(tmp_path, capsys, monkeypatch):
    # sweep, verify and circular in turn through one process's parser write
    # what each writes from a fresh process
    runs = [["sweep", "--mode", "fixed_d", "--value", "3", "--to", "300",
             "--out", "d3.csv"],
            ["verify", "--p", "13", "--k", "3"],
            ["circular", "--k", "12", "--to", "300"]]
    cli._parser.cache_clear()
    here = tmp_path / "here"
    here.mkdir()
    monkeypatch.chdir(here)
    got = []
    for argv in runs:
        code = main(argv)
        got.append((code, capsys.readouterr().out))
    assert cli._parser.cache_info().misses == 1
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    for argv, (code, out) in zip(runs, got):
        proc = _fresh_process(argv, cwd=fresh)
        stdout, stderr = proc.communicate(timeout=120)
        assert (code, out) == (proc.returncode, stdout), (argv, stderr)
    assert read(here / "d3.csv") == read(fresh / "d3.csv")


@pytest.mark.parametrize("argv", [["circular", "--k", "12", "--to", "3000"],
                                  ["verify", "--p", "13", "--k", "3"]])
def test_closed_stdout_is_an_io_error_without_traceback(argv):
    # the reader is gone before the first write, as under `| head -1` once
    # head has its line; with or without a buffered stdout
    for unbuffered in ("", "1"):
        proc = _fresh_process(argv, PYTHONUNBUFFERED=unbuffered)
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == EXIT_CONFIG_ERROR, stderr
        assert stderr == ""

import contextlib
import dataclasses
import io
import json
import math
import os
import re

import pytest

from brute_force import brute_projective
from gpmoments import (build_context, cli, field_core, periods,
                       verify_identities)
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


def test_circular_scan_factors_each_prime_twice(tmp_path, monkeypatch):
    # the context of each sieved p factors p (its primality test) and p - 1
    # (its primitive root); the verdict takes p as proved and factors nothing
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
    assert primes == 99 and len(calls) == 2 * primes == 198


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
    out = tmp_path / "s.csv"
    assert main(["sweep", "--mode", mode, "--value", str(value), "--to", "600",
                 "--out", str(out), "--workers", "1"]) == EXIT_OK
    primes = [int(line.split(",")[0]) for line in read(out).splitlines()[1:]]
    assert len(primes) > 20 and periods_calls == primes


@pytest.mark.parametrize("p,flag,value", [(7, "--d", "3"), (31, "--k", "3")])
def test_verify_computes_the_periods_once(periods_calls, capsys, p, flag, value):
    assert main(["verify", "--p", str(p), flag, value]) == EXIT_OK
    assert "eta[0]" in capsys.readouterr().out
    assert periods_calls == [p]


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

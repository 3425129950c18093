import contextlib
import io
import json
import os

import pytest

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


def test_sweep_invalid_config_exit_code(tmp_path):
    rc = main(["sweep", "--mode", "fixed_d", "--value", "3",
               "--from", "100", "--to", "5", "--out", str(tmp_path / "x.csv")])
    assert rc == EXIT_CONFIG_ERROR


def test_workers_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("GPMOMENTS_WORKERS", "2")
    out = tmp_path / "env.csv"
    assert main(["sweep", "--mode", "fixed_d", "--value", "3",
                 "--from", "5", "--to", "100", "--out", str(out)]) == EXIT_OK
    monkeypatch.setenv("GPMOMENTS_WORKERS", "zzz")
    assert main(["sweep", "--mode", "fixed_d", "--value", "3",
                 "--from", "5", "--to", "100",
                 "--out", str(out)]) == EXIT_CONFIG_ERROR


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


def test_verify_divisor_mismatch_exit_code():
    assert main(["verify", "--p", "13", "--d", "5"]) == EXIT_CONFIG_ERROR
    assert main(["verify", "--p", "13", "--d", "0"]) == EXIT_CONFIG_ERROR
    assert main(["verify", "--p", "13", "--k", "0"]) == EXIT_CONFIG_ERROR
    assert main(["verify", "--p", "9", "--d", "2"]) == EXIT_CONFIG_ERROR


def test_verify_writes_to_redirected_stdout():
    # the default stream is the sys.stdout of the call, not of the import
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = verify_single(7, 3, SweepMode.FIXED_D)
    assert rc == EXIT_OK
    assert "V_4 exact = 13" in buf.getvalue()
    assert buf.getvalue().endswith("RESULT: pass\n")


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


def test_failed_sweep_leaves_no_partial_file(tmp_path, monkeypatch):
    # simulate an unwritable output directory
    out = tmp_path / "nodir" / "x.csv"
    rc = main(["sweep", "--mode", "fixed_d", "--value", "3",
               "--from", "5", "--to", "50", "--out", str(out)])
    assert rc == EXIT_CONFIG_ERROR
    assert not out.exists()

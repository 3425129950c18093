"""Self-test of the benchmark: every workload at a tiny size, and every check
shown to reject a perturbed output.  Runs in a few seconds.

    PYTHONPATH=src python -m pytest -q bench
"""

import io
import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from gpmoments import cli  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=120)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- end to end at a tiny size ----------------------------------------------

@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_tiny_run(workload):
    out = last_json(run_bench("--workload", workload, "--seed", "5", "--seconds", "0",
                              "--trace", "1", "--size", "tiny"))
    assert out["correct"] is True
    assert out["attempted"] > 0 and out["failed"] == 0
    m = {k: v["value"] for k, v in out["metrics"].items()}
    assert set(m) == {x["name"] for x in SPEC["per_layer"]}
    layers = sum(v for k, v in m.items() if k.count(".") == 1 and k.endswith(".self_s")
                 and not k.startswith("cli."))
    assert layers + m["cli.self_s"] == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["field_core.build_context.calls"] > 0


def test_untraced_tiny_run_reports_end_to_end_metrics():
    out = last_json(run_bench("--workload", "sweep_fixed_k", "--seed", "5",
                              "--seconds", "0", "--trace", "0", "--size", "tiny"))
    assert out["correct"] is True
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {x["name"]: x["unit"] for x in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep_fixed_d3",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- oracles against brute force --------------------------------------------

@pytest.mark.parametrize("p,d", [(13, 3), (13, 4), (37, 12), (61, 4), (73, 3)])
def test_diagonal_counts_match_enumeration(p, d):
    counts = oracles.DiagonalCounts(p, d)
    pw = [pow(x, d, p) for x in range(p)]
    for n in (2, 3):
        brute = sum(1 for t in itertools.product(range(p), repeat=n)
                    if sum(pw[x] for x in t) % p == 0)
        assert counts.solutions(n) == brute
    pairs = {}
    for x, y in itertools.product(range(p), repeat=2):
        v = (pw[x] + pw[y]) % p
        pairs[v] = pairs.get(v, 0) + 1
    assert counts.solutions(4) == sum(pairs.get(v, 0) * pairs.get(-v % p, 0)
                                      for v in range(p))
    affine = pairs.get(1, 0)
    at_infinity = sum(1 for x in range(p) if pw[x] == p - 1)
    assert counts.fermat_projective() == affine + at_infinity


@pytest.mark.parametrize("p,k", [(13, 4), (17, 4), (37, 4), (31, 3), (43, 6)])
def test_max_intersection_matches_sets(p, k):
    gamma = {x for x in range(1, p) if pow(x, k, p) == 1}
    best = 0
    for c in range(1, p):
        coset = {c * g % p for g in gamma}
        for t in range(p):
            if coset == gamma and t == 0:
                continue
            best = max(best, len(gamma & {(y + t) % p for y in coset}))
    assert oracles.max_intersection(p, k) == best


def test_gauss_cubic_matches_float_periods():
    for p in oracles.primes_in(7, 400, 3):
        assert oracles.v4_gauss_cubic(p) == pytest.approx(oracles.v4_float(p, 3), rel=1e-12)


# -- each check rejects a perturbed output ----------------------------------

def _sweep_output(tmp_path, sw):
    out = tmp_path / "s.csv"
    rc = cli.main(["sweep", "--mode", sw.mode, "--value", str(sw.value),
                   "--from", str(sw.lo), "--to", str(sw.hi), "--out", str(out),
                   "--workers", "1"])
    return f"exit {rc}\n{out.read_text()}"


def _edit(output, p, column, value):
    """Set one column of one row of a CSV sweep output."""
    status, _, text = output.partition("\n")
    lines = text.splitlines()
    header = lines[0].split(",")
    for i, line in enumerate(lines[1:], 1):
        cols = line.split(",")
        if cols[0] == str(p):
            cols[header.index(column)] = value
            lines[i] = ",".join(cols)
    return status + "\n" + "\n".join(lines) + "\n"


def test_fixed_d3_check_rejects_perturbations(tmp_path):
    primes = tuple(oracles.primes_in(100, 400, 3))
    sw = workloads.Sweep("fixed_d", 3, primes)
    good = _sweep_output(tmp_path, sw)
    assert workloads.check_fixed_d3(sw, good) == []
    p = primes[3]
    num = next(line.split(",")[4] for line in good.splitlines() if line.startswith(f"{p},"))
    assert workloads.check_fixed_d3(sw, _edit(good, p, "v4_exact_num", str(int(num) + 1)))
    assert workloads.check_fixed_d3(sw, _edit(good, p, "pass", "0"))
    assert workloads.check_fixed_d3(sw, good.replace("exit 0", "exit 1"))
    assert workloads.check_fixed_d3(workloads.Sweep("fixed_d", 3, primes[:-1]), good)


@pytest.mark.parametrize("k", [4, 3])
def test_fixed_k_check_rejects_perturbations(tmp_path, k):
    primes = tuple(oracles.primes_in(200, 400, k))
    sw = workloads.Sweep("fixed_k", k, primes)
    good = _sweep_output(tmp_path, sw)
    assert workloads.check_fixed_k(sw, good) == []
    # a row that carries the closed form, so every column below is checked
    row = next(line.split(",") for line in good.splitlines()[2:]
               if line.split(",")[5].startswith("v4_fixed_k"))
    p = int(row[0])
    assert workloads.check_fixed_k(sw, _edit(good, p, "circular", str(1 - int(row[3]))))
    assert workloads.check_fixed_k(sw, _edit(good, p, "max_intersection", str(int(row[4]) + 1)))
    assert workloads.check_fixed_k(sw, _edit(good, p, "v4_exact_num", str(int(row[7]) + 1)))
    assert workloads.check_fixed_k(sw, _edit(good, p, "formula_value", str(int(row[7]) - 1)))


def test_fixed_k_check_rejects_formula_on_noncircular_row(tmp_path):
    # (p, 4) is not circular for these p, so no closed form may be claimed
    noncircular = [p for p in oracles.primes_in(5, 200, 4) if oracles.max_intersection(p, 4) > 2]
    p = noncircular[0]
    sw = workloads.Sweep("fixed_k", 4, (p,))
    good = _sweep_output(tmp_path, sw)
    assert workloads.check_fixed_k(sw, good) == []
    assert workloads.check_fixed_k(sw, _edit(good, p, "formula_name", "v4_fixed_k_even"))


def _verify_output(p, d):
    buf = io.StringIO()
    rc = cli.verify_single(p, d, cli.SweepMode.FIXED_D, out=buf)
    return f"exit {rc}\n{buf.getvalue()}"


@pytest.mark.parametrize("p,d", [(1009, 3), (1021, 12)])
def test_verify_check_rejects_perturbations(p, d):
    counts = oracles.DiagonalCounts(p, d)
    good = _verify_output(p, d)
    assert workloads.check_verify_report(p, d, good, counts) == []
    v4 = workloads._line_value(good.partition("\n")[2], "V_4 exact = ")
    assert workloads.check_verify_report(
        p, d, good.replace(f"V_4 exact = {v4}", f"V_4 exact = {int(v4) + 1}"), counts)
    m = counts.fermat_projective()
    assert workloads.check_verify_report(
        p, d, good.replace(f"M(0,0,0)={m},", f"M(0,0,0)={m + 1},"), counts)
    assert workloads.check_verify_report(p, d, good.replace("RESULT: pass", "RESULT: FAIL"),
                                         counts)


def test_fermat_check_rejects_perturbation():
    counts = oracles.DiagonalCounts(1021, 12)
    exact = counts.solutions(3)
    assert workloads.check_fermat(1021, 12, 3, str(exact), counts) == []
    assert workloads.check_fermat(1021, 12, 3, str(exact + 1), counts)


def test_changed_outputs_between_rounds_are_rejected():
    rounds = itertools.count()
    flaky = workloads.Workload(
        "flaky", draw=lambda rng, size: None,
        run_round=lambda inputs, workdir: workloads.RoundResult(
            attempted=1, outputs={"x": str(next(rounds))}),
        check=lambda inputs, outputs: [])

    r = run.Run(flaky, None, None)
    r.round()
    r.round()
    assert not r.check()

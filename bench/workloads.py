"""The benchmark's workloads: inputs drawn from a seed, one round of calls into
the program, and the checks of a round's outputs against `oracles`.

A round is the same list of operations every time it runs, so the share of
failed operations does not depend on the seed or on how many rounds fit in a
run.  The program is reached only through `gpmoments.cli.main` and, for the
solution counts, the public functions of `moments`, `field_core` and
`periods`, always as module attributes looked up at call time, so that a
traced round goes through the tracer's wrappers.
"""

import csv
import io
import os
import random
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

import oracles
from gpmoments import cli, field_core, moments, periods

# relative tolerance between an exact V_4 and the oracle's float periods;
# the float sum carries about 1e-12 relative error at p <= 1.1e6
V4_FLOAT_RTOL = 1e-9

SIZES = {
    "full": {
        "d3_pool_hi": 50_000, "d3_window": 2300,
        "k_hi": 10_000, "k_jitter": 60, "k_window": 12,
        "verify_fixed": ((1_000_003, 3), (1_000_033, 4), (1_000_117, 12)),
        "verify_sample": (1_000_200, 1_050_000),
    },
    "tiny": {
        "d3_pool_hi": 3000, "d3_window": 100,
        "k_hi": 700, "k_jitter": 20, "k_window": 5,
        "verify_fixed": ((1009, 3), (1013, 4), (1021, 12)),
        "verify_sample": (1100, 1500),
    },
}

FIXED_K_VALUES = (4, 3)
VERIFY_DS = (3, 4, 12)
FERMAT_NS = (3, 4)


@dataclass
class RoundResult:
    prime_cases: int = 0  # (p, d) reports produced by the CLI
    attempted: int = 0
    failed: int = 0
    output_bytes: int = 0  # bytes the CLI wrote: sweep files and reports
    outputs: dict[str, str] = field(default_factory=dict)
    # failed operations: (operation, exception type, message)
    failures: list[tuple[str, str, str]] = field(default_factory=list)


def _call_with_stdout(path: str, fn, *args):
    """Run fn with file descriptor 1 sent to `path`; returns fn's result.

    Redirecting the descriptor, not the sys.stdout object, also catches
    writes to a stream object the program bound before the call.
    """
    sys.stdout.flush()
    saved = os.dup(1)
    try:
        with open(path, "wb") as fh:
            os.dup2(fh.fileno(), 1)
            try:
                return fn(*args)
            finally:
                sys.stdout.flush()
                os.dup2(saved, 1)
    finally:
        os.close(saved)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _fail(res: RoundResult, op: str, exc: Exception, weight: int = 1) -> None:
    res.failed += weight
    res.failures.append((op, type(exc).__name__, str(exc)))
    res.outputs[op] = f"raised {type(exc).__name__}"


# -- sweeps -----------------------------------------------------------------

@dataclass(frozen=True)
class Sweep:
    mode: str  # "fixed_d" or "fixed_k"
    value: int
    primes: tuple[int, ...]  # the rows the sweep must produce, by our sieve

    @property
    def lo(self) -> int:
        return self.primes[0]

    @property
    def hi(self) -> int:
        return self.primes[-1]

    @property
    def name(self) -> str:
        return f"sweep {self.mode}={self.value} [{self.lo},{self.hi}]"


def _run_sweeps(sweeps: list[Sweep], workdir: str) -> RoundResult:
    res = RoundResult()
    for sw in sweeps:
        out = os.path.join(workdir, f"{sw.mode}_{sw.value}.csv")
        argv = ["sweep", "--mode", sw.mode, "--value", str(sw.value),
                "--from", str(sw.lo), "--to", str(sw.hi), "--out", out,
                "--workers", "1"]
        res.attempted += len(sw.primes)
        try:
            rc = cli.main(argv)
            text = _read(out)
        except Exception as exc:  # a crash fails every row of the sweep
            _fail(res, sw.name, exc, len(sw.primes))
            continue
        res.prime_cases += len(sw.primes)
        res.output_bytes += len(text.encode())
        res.outputs[sw.name] = f"exit {rc}\n{text}"
    return res


def _rows(output: str) -> tuple[int, list[dict]]:
    status, _, text = output.partition("\n")
    rc = int(status.split()[1]) if status.startswith("exit ") else -1
    return rc, list(csv.DictReader(io.StringIO(text)))


def _check_rows_common(sw: Sweep, rc: int, rows: list[dict]) -> list[str]:
    errs = []
    if rc != 0:
        errs.append(f"{sw.name}: exit code {rc}")
    got = [int(r["p"]) for r in rows]
    if got != list(sw.primes):
        missing = sorted(set(sw.primes) - set(got))[:5]
        extra = sorted(set(got) - set(sw.primes))[:5]
        errs.append(f"{sw.name}: {len(got)} rows for {len(sw.primes)} primes; "
                    f"missing {missing}, extra {extra}, sorted {got == sorted(got)}")
    for r in rows:
        if r["pass"] != "1":
            errs.append(f"{sw.name}: p={r['p']} pass={r['pass']}")
    return errs


def _v4(row: dict) -> Fraction:
    return Fraction(int(row["v4_exact_num"]), int(row["v4_exact_den"]))


def check_fixed_d3(sw: Sweep, output: str) -> list[str]:
    """Rows = our sieve; every pass is 1; v4_exact = Gauss's cubic V_4."""
    if output.startswith("raised "):
        return []  # a failed operation, counted as such
    rc, rows = _rows(output)
    errs = _check_rows_common(sw, rc, rows)
    for r in rows:
        p = int(r["p"])
        want = oracles.v4_gauss_cubic(p)
        if _v4(r) != want:
            errs.append(f"{sw.name}: p={p} v4_exact={_v4(r)} expected {want}")
    return errs


def check_fixed_k(sw: Sweep, output: str) -> list[str]:
    """Rows = our sieve; every pass is 1; circular and max_intersection match
    the brute-force count; v4_exact matches float periods; rows where the
    paper's hypotheses hold carry its closed form."""
    if output.startswith("raised "):
        return []  # a failed operation, counted as such
    rc, rows = _rows(output)
    errs = _check_rows_common(sw, rc, rows)
    k = sw.value
    for r in rows:
        p = int(r["p"])
        mx = oracles.max_intersection(p, k)
        if int(r["max_intersection"]) != mx or r["circular"] != str(int(mx <= 2)):
            errs.append(f"{sw.name}: p={p} circular={r['circular']} "
                        f"max_intersection={r['max_intersection']}, brute force {mx}")
        v4 = _v4(r)
        ref = oracles.v4_float(p, (p - 1) // k)
        if abs(float(v4) - ref) > V4_FLOAT_RTOL * max(1.0, abs(ref)):
            errs.append(f"{sw.name}: p={p} v4_exact={v4}, float periods {ref!r}")
        applies = mx <= 2 and (k % 2 == 0 or oracles.max_intersection(p, 2 * k) <= 2)
        name = "v4_fixed_k_even" if k % 2 == 0 else "v4_fixed_k_odd"
        if applies:
            want = oracles.fixed_k_closed_form(p, k)
            if (v4 != want or r["formula_name"] != name
                    or r["formula_value"] != str(want)):
                errs.append(f"{sw.name}: p={p} circular row has v4_exact={v4}, "
                            f"{r['formula_name']}={r['formula_value']}; "
                            f"closed form {want}")
        elif r["formula_name"].startswith("v4_fixed_k"):
            errs.append(f"{sw.name}: p={p} fixed-k formula on a non-circular row")
    return errs


def _sweep_inputs_d3(rng: random.Random, size: dict) -> list[Sweep]:
    pool = oracles.primes_in(3, size["d3_pool_hi"], 3)
    n = size["d3_window"]
    start = rng.randrange(len(pool) - n + 1)
    window = tuple(pool[start:start + n])
    return [Sweep("fixed_d", 3, window)]


def _sweep_inputs_k(rng: random.Random, size: dict) -> list[Sweep]:
    out = []
    for k in FIXED_K_VALUES:
        hi = size["k_hi"] + rng.randint(-size["k_jitter"], size["k_jitter"])
        window = tuple(oracles.primes_in(3, hi, k)[-size["k_window"]:])
        out.append(Sweep("fixed_k", k, window))
    return out


# -- single-prime verification and solution counts --------------------------

@dataclass(frozen=True)
class VerifyInputs:
    verify: tuple[tuple[int, int], ...]  # (p, d) for `gpmoments verify`
    fermat: tuple[tuple[int, int], ...]  # (p, d) for fermat_solution_count


def _verify_inputs(rng: random.Random, size: dict) -> VerifyInputs:
    fixed = size["verify_fixed"]
    lo, hi = size["verify_sample"]
    pool = [p for p in oracles.primes_in(lo, hi, 12)
            if p not in {q for q, _ in fixed}]
    p = rng.choice(pool)
    return VerifyInputs(verify=fixed + tuple((p, d) for d in VERIFY_DS),
                        fermat=fixed)


def _run_verify(inp: VerifyInputs, workdir: str) -> RoundResult:
    res = RoundResult()
    report = os.path.join(workdir, "verify.txt")
    for p, d in inp.verify:
        name = f"verify p={p} d={d}"
        res.attempted += 1
        try:
            rc = _call_with_stdout(report, cli.main,
                                   ["verify", "--p", str(p), "--d", str(d)])
        except Exception as exc:
            _fail(res, name, exc)
            continue
        text = _read(report)
        res.prime_cases += 1
        res.output_bytes += len(text.encode())
        res.outputs[name] = f"exit {rc}\n{text}"

    for p, d in inp.fermat:
        ctx = field_core.build_context(p, d)
        pv = periods.compute_periods(ctx)
        for n in FERMAT_NS:
            name = f"fermat p={p} d={d} n={n}"
            res.attempted += 1
            try:
                res.outputs[name] = str(moments.fermat_solution_count(ctx, pv, n))
            except Exception as exc:
                _fail(res, name, exc)
    return res


def _line_value(text: str, prefix: str) -> str | None:
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def check_verify_report(p: int, d: int, output: str,
                        counts: oracles.DiagonalCounts) -> list[str]:
    """Exit 0 and RESULT: pass; V_4 exact equals Gauss's cubic V_4 (d = 3) or
    float periods; M(0,0,0) equals the projective count from the histogram."""
    name = f"verify p={p} d={d}"
    if output.startswith("raised "):
        return []  # a failed operation, counted as such
    status, _, text = output.partition("\n")
    errs = []
    if status != "exit 0" or "RESULT: pass" not in text.splitlines():
        errs.append(f"{name}: {status}, no 'RESULT: pass'")
    v4_text = _line_value(text, "V_4 exact = ")
    if v4_text is None:
        errs.append(f"{name}: no 'V_4 exact' line")
    else:
        v4 = Fraction(v4_text.strip())
        if d == 3:
            want = oracles.v4_gauss_cubic(p)
            if v4 != want:
                errs.append(f"{name}: V_4 exact {v4}, Gauss cubic {want}")
        else:
            ref = oracles.v4_float(p, d)
            if abs(float(v4) - ref) > V4_FLOAT_RTOL * abs(ref):
                errs.append(f"{name}: V_4 exact {v4}, float periods {ref!r}")
    m_text = _line_value(text, "curve counts: M(0,0,0)=")
    want_m = counts.fermat_projective()
    if m_text is None or int(m_text.split(",")[0]) != want_m:
        errs.append(f"{name}: M(0,0,0) {m_text and m_text.split(',')[0]}, "
                    f"histogram count {want_m}")
    return errs


def check_fermat(p: int, d: int, n: int, output: str,
                 counts: oracles.DiagonalCounts) -> list[str]:
    """A returned count equals the exact count from the d-th-power histogram."""
    if output.startswith("raised "):
        return []
    want = counts.solutions(n)
    if int(output) != want:
        return [f"fermat p={p} d={d} n={n}: returned {output}, exact {want}"]
    return []


# -- the workload table -----------------------------------------------------

def _check_sweeps(check_one):
    def check(sweeps: list[Sweep], outputs: dict[str, str]) -> list[str]:
        return [e for sw in sweeps for e in check_one(sw, outputs[sw.name])]
    return check


def _check_verify(inp: VerifyInputs, outputs: dict[str, str]) -> list[str]:
    errs = []
    counts = {pd: oracles.DiagonalCounts(*pd)
              for pd in dict.fromkeys(inp.verify + inp.fermat)}
    for p, d in inp.verify:
        errs += check_verify_report(p, d, outputs[f"verify p={p} d={d}"], counts[p, d])
    for p, d in inp.fermat:
        for n in FERMAT_NS:
            errs += check_fermat(p, d, n, outputs[f"fermat p={p} d={d} n={n}"],
                                 counts[p, d])
    return errs


def _fermat_n4_overflow(op: str, exc_name: str) -> bool:
    # fermat_solution_count rounds a complex float near p^3 > 2^53 at n = 4
    return (op.startswith("fermat ") and op.endswith(" n=4")
            and exc_name == "NonIntegralResult")


@dataclass(frozen=True)
class Workload:
    name: str
    draw: Callable[[random.Random, dict], object]  # inputs from the rng and size
    run_round: Callable[[object, str], RoundResult]  # (inputs, workdir)
    check: Callable[[object, dict[str, str]], list[str]]  # (inputs, outputs)
    # whether a failed operation is the known fault the benchmark keeps
    expected_failure: Callable[[str, str], bool] = lambda op, exc_name: False

    def make_inputs(self, seed: int, size: str):
        return self.draw(random.Random(seed), SIZES[size])


WORKLOADS = {w.name: w for w in (
    Workload("sweep_fixed_d3", _sweep_inputs_d3, _run_sweeps,
             _check_sweeps(check_fixed_d3)),
    Workload("sweep_fixed_k", _sweep_inputs_k, _run_sweeps,
             _check_sweeps(check_fixed_k)),
    Workload("verify_large_p", _verify_inputs, _run_verify, _check_verify,
             _fermat_n4_overflow),
)}

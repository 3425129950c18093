"""Benchmark of the gpmoments prime sweeps and single-prime verification.

    python3 bench/run.py --workload sweep_fixed_d3 --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout and imports the package from src/.
With --trace 0 it times whole rounds of the workload for --seconds seconds
and reports the end-to-end metrics of BENCHMARK.json; with --trace 1 it
alternates untraced and traced rounds and reports the per-layer metrics.
Either way it checks every output against the independent computations in
oracles.py and prints one JSON object as the last line of standard output.
See README.md in this directory.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

# One worker on one core: numpy's BLAS thread pool, which the program never
# needs for its matrices of side <= 13, would otherwise start a spinning thread
# at import and make the set-up time depend on whether a second core is free.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(BENCH_DIR, "_runs")
SETUP_REPEATS = {"full": 9, "tiny": 1}


def _fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def _import_program():
    """Import gpmoments from this checkout's src/, and nowhere else."""
    sys.path.insert(0, SRC)
    import gpmoments.cli  # noqa: F401  (loads every layer)
    where = os.path.dirname(os.path.abspath(sys.modules["gpmoments"].__file__))
    if where != os.path.join(SRC, "gpmoments"):
        raise ImportError(f"gpmoments imported from {where}, not from {SRC}")


def probe_setup(workload: str, seed: int, size: str) -> float:
    """One set-up in this fresh process: import, then draw the inputs."""
    t0 = time.perf_counter()
    _import_program()
    import workloads
    workloads.WORKLOADS[workload].make_inputs(seed, size)
    return time.perf_counter() - t0


def measure_setup(args) -> float:
    """Median set-up time over fresh interpreters (the import is cached in
    this one)."""
    times = []
    for _ in range(SETUP_REPEATS[args.size]):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe-setup",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0", "--size", args.size],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Run:
    """Accumulates the rounds of one run and the checks of their outputs."""

    def __init__(self, wl, inputs, workdir):
        self.wl, self.inputs, self.workdir = wl, inputs, workdir
        self.attempted = self.failed = 0
        self.first = None
        self.errors: list[str] = []

    def round(self, label: str = "round"):
        t0 = time.perf_counter()
        res = self.wl.run_round(self.inputs, self.workdir)
        print(f"bench: {label} {time.perf_counter() - t0:.3f} s, "
              f"{res.prime_cases} prime cases", file=sys.stderr)
        self.attempted += res.attempted
        self.failed += res.failed
        for op, exc_name, msg in res.failures:
            if not self.wl.expected_failure(op, exc_name):
                self.errors.append(f"unexpected failure {op}: {exc_name}: {msg}")
        if self.first is None:
            self.first = res
        elif res.outputs != self.first.outputs:
            diff = [k for k in res.outputs if res.outputs[k] != self.first.outputs.get(k)]
            self.errors.append(f"outputs changed between rounds: {diff[:3]}")
        return res

    def check(self) -> bool:
        self.errors += self.wl.check(self.inputs, self.first.outputs)
        for err in self.errors[:20]:
            print(f"bench: CHECK FAILED: {err}", file=sys.stderr)
        return not self.errors


def timed(run: Run, seconds: float) -> dict:
    run.round("warm-up round")
    start = time.perf_counter()
    cases = 0
    while True:
        cases += run.round().prime_cases
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"primes_per_s": cases / elapsed, "peak_rss_mb": peak_kb / 1024}


def traced(run: Run, seconds: float, trace_path: str) -> dict:
    from layertrace import LayerTracer
    tracer = LayerTracer()
    wall_u = wall_t = 0.0
    rounds = 0
    run.round("warm-up round")
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run.round()
        wall_u += time.perf_counter() - t0
        with tracer.installed():
            t0 = time.perf_counter()
            res = run.round("traced round")
            wall_t += time.perf_counter() - t0
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    tracer.dump(trace_path)
    return tracer.metrics(rounds, wall_t, wall_u, res.prime_cases, res.output_bytes)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(SETUP_REPEATS), default="full",
                    help="input size; 'tiny' is for the self-test")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gpmoments", "__init__.py")):
        return _fail(f"no gpmoments package under {SRC}")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")

    if args.probe_setup:
        print(probe_setup(args.workload, args.seed, args.size))
        return 0

    setup_s = measure_setup(args) if args.trace == 0 else None
    _import_program()
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.make_inputs(args.seed, args.size)

    os.makedirs(RUNS_DIR, exist_ok=True)
    workdir = os.path.join(RUNS_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    run = Run(wl, inputs, workdir)
    try:
        if args.trace:
            trace_path = os.path.join(RUNS_DIR, f"trace-{args.workload}.jsonl")
            values = traced(run, args.seconds, trace_path)
            declared = spec["per_layer"]
        else:
            values = timed(run, args.seconds)
            values["setup_s"] = setup_s
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = run.check()

    if set(values) != {m["name"] for m in declared}:
        return _fail(f"metrics {sorted(values)} differ from BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

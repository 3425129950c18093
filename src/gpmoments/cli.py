"""Command-line front end: prime sweeps, single-prime verification, figure
data emission, and circularity scans.

Output rows are buffered, sorted by p, and written to a temporary file that
is renamed into place, so runs are byte-identical regardless of worker count
and a cancelled run leaves no partial file.
"""

import argparse
import enum
import json
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .circularity import is_circular, scan_noncircular
from .errors import (CompositeInput, ConfigInvalid, DivisorMismatch, GpmError,
                     IoFailure, UnknownFigure)
from .fermat_curves import PowerTable, count_projective
from .field_core import build_context, primes_in_range
from .moments import MomentReport, build_report
from .periods import compute_periods
from .superchar import (build_matrices, build_tensor, check_dense_budget,
                        verify_identities)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2

WORKERS_ENV = "GPMOMENTS_WORKERS"

FIXED_D_HEADER = ("p,d,k,p_mod_8,v4_exact_num,v4_exact_den,v4_float,"
                  "formula_name,formula_value,lower,upper,pass")
FIXED_K_HEADER = ("p,d,k,circular,max_intersection,formula_name,formula_value,"
                  "v4_exact_num,v4_exact_den,pass")
CIRCULAR_HEADER = "p,k,circular,max_intersection,witness_m,witness_t"

FIGURE_IDS = tuple(f"d{d}" for d in range(3, 14)) + ("noncircular_scan",)


class SweepMode(enum.Enum):
    FIXED_D = "fixed_d"
    FIXED_K = "fixed_k"


class OutputFormat(enum.Enum):
    CSV = "csv"
    JSON = "json"


@dataclass
class SweepConfig:
    mode: SweepMode
    value: int
    p_lo: int
    p_hi: int
    output: str
    out_format: OutputFormat = OutputFormat.CSV
    workers: int = 1

    def validate(self) -> None:
        if self.p_lo > self.p_hi:
            raise ConfigInvalid("p_lo must not exceed p_hi")
        if self.value < 1:
            raise ConfigInvalid("value must be >= 1")
        if self.workers < 1:
            raise ConfigInvalid("workers must be >= 1")


def _fmt_float(x: float) -> str:
    return f"{x:.12e}"


def _fmt_value(v) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)
    return _fmt_float(float(v))


def _pick_formula(rpt: MomentReport, prefer_fixed_k: bool = False) -> tuple[str, str]:
    names = ("v4_d2", "v4_d3", "v4_d4_mod8_1", "v4_d4_mod8_5",
             "v4_fixed_k_even", "v4_fixed_k_odd")
    if prefer_fixed_k:
        names = names[-2:] + names[:-2]
    for name in names:
        if name in rpt.formula_values:
            return name, _fmt_value(rpt.formula_values[name])
    return "", ""


def _pick_bounds(rpt: MomentReport) -> tuple[str, str]:
    for name in ("v4_d3", "v4_d4_mod8_1", "v4_d4_mod8_5", "v4_d5", "v4_general"):
        if name in rpt.bounds:
            b = rpt.bounds[name]
            return _fmt_float(float(b.lower)), _fmt_float(float(b.upper))
    return "", ""


def _run_prime(p: int, mode: SweepMode, value: int):
    """Build context, tensor and periods once and report on them.

    Returns (ctx, tensor, pv, report, verdict); verdict is the (p, k)
    circularity verdict in fixed-k mode and None in fixed-d mode.
    """
    if mode is SweepMode.FIXED_D:
        ctx = build_context(p, value)
        tensor = build_tensor(ctx)
        vk = fixed_k = None
    else:
        k = value
        ctx = build_context(p, (p - 1) // k)
        tensor = build_tensor(ctx)
        vk = is_circular(p, k, tensor)
        v2k = None
        if k % 2 == 1 and vk.circular and (p - 1) % (2 * k) == 0:
            v2k = is_circular(p, 2 * k, tensor)
        fixed_k = (vk, v2k)
    pv = compute_periods(ctx)
    rpt = build_report(ctx, tensor, pv, fixed_k_verdicts=fixed_k)
    return ctx, tensor, pv, rpt, vk


def _sweep_row(task: tuple[int, str, int]) -> tuple[int, str, str, bool]:
    """Worker: one prime -> (p, csv_row, json_blob, passed)."""
    p, mode_name, value = task
    mode = SweepMode(mode_name)
    _, _, _, rpt, vk = _run_prime(p, mode, value)
    passed = rpt.all_passed()
    if mode is SweepMode.FIXED_D:
        fname, fval = _pick_formula(rpt)
        lo, hi = _pick_bounds(rpt)
        row = ",".join([
            str(rpt.p), str(rpt.d), str(rpt.k), str(rpt.p_mod_8),
            str(rpt.v4_exact.numerator), str(rpt.v4_exact.denominator),
            _fmt_float(rpt.v_direct[4].value), fname, fval, lo, hi,
            "1" if passed else "0",
        ])
    else:
        fname, fval = _pick_formula(rpt, prefer_fixed_k=True)
        row = ",".join([
            str(rpt.p), str(rpt.d), str(rpt.k),
            "1" if vk.circular else "0", str(vk.max_intersection),
            fname, fval,
            str(rpt.v4_exact.numerator), str(rpt.v4_exact.denominator),
            "1" if passed else "0",
        ])
    blob = json.dumps(rpt.to_json_dict(), sort_keys=True)
    return p, row, blob, passed


def _sweep_primes(cfg: SweepConfig) -> list[int]:
    # the fixed d or k divides p - 1 in either mode
    return primes_in_range(max(cfg.p_lo, 3), cfg.p_hi,
                           (cfg.value, 1) if cfg.value > 1 else None)


def _map_by_p(fn, tasks: list, workers: int) -> list[tuple]:
    """fn over tasks, on `workers` processes when there are several, as
    results sorted by their first field p."""
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(fn, tasks, chunksize=16))
    else:
        results = [fn(t) for t in tasks]
    results.sort(key=lambda r: r[0])
    return results


def _atomic_write(path: str, lines: list[str]) -> None:
    try:
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gpm_tmp_")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write("\n".join(lines))
                if lines:
                    fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def run_sweep(cfg: SweepConfig) -> int:
    """Run the sweep and write the output file; returns the process exit code."""
    cfg.validate()
    tasks = [(p, cfg.mode.value, cfg.value) for p in _sweep_primes(cfg)]
    results = _map_by_p(_sweep_row, tasks, cfg.workers)

    if cfg.out_format is OutputFormat.CSV:
        header = FIXED_D_HEADER if cfg.mode is SweepMode.FIXED_D else FIXED_K_HEADER
        lines = [header] + [r[1] for r in results]
    else:
        lines = ["[" + ",".join(r[2] for r in results) + "]"]
    _atomic_write(cfg.output, lines)
    return EXIT_OK if all(r[3] for r in results) else EXIT_CHECK_FAILED


def verify_single(p: int, value: int, mode: SweepMode, out=None) -> int:
    """Full per-prime report: periods, power sums, formulas, identities,
    curve counts.  It is written to out, by default the current sys.stdout."""
    if out is None:
        out = sys.stdout
    fixed = "d" if mode is SweepMode.FIXED_D else "k"
    if value < 1 or (p - 1) % value != 0:
        raise DivisorMismatch(f"{fixed}={value} is not a positive divisor of p-1")
    d = value if mode is SweepMode.FIXED_D else (p - 1) // value
    # build_matrices needs dense complex (d+1) x (d+1) matrices; refuse before
    # any table is built
    check_dense_budget(d, complex)

    ctx, tensor, pv, rpt, vk = _run_prime(p, mode, value)

    print(f"p={p} d={d} k={ctx.k} g={ctx.g} alpha={ctx.alpha} (p mod 8 = {p % 8})",
          file=out)
    print("periods:", file=out)
    for a in range(min(d, 12)):
        print(f"  eta[{a}] = {pv.eta[a]:.6f}", file=out)
    if d > 12:
        print(f"  ... ({d - 12} more)", file=out)
    for n, v in rpt.v_direct.items():
        print(f"V_{n} = {v.value:.6f}", file=out)
    print(f"V_4 exact = {rpt.v4_exact}", file=out)

    for name, val in rpt.formula_values.items():
        print(f"formula {name} = {_fmt_value(val)}", file=out)
    for name, b in rpt.bounds.items():
        print(f"bounds {name}: [{float(b.lower):.6f}, {float(b.upper):.6f}]", file=out)
    if mode is SweepMode.FIXED_K:
        state = "circular" if vk.circular else "non-circular"
        print(f"pair (p,k)=({p},{value}) is {state} "
              f"(max intersection {vk.max_intersection})", file=out)
        if not vk.circular:
            print("fixed-k formula skipped (pair not circular)", file=out)
    for name, ok in rpt.verdicts.items():
        print(f"check {name}: {'pass' if ok else 'FAIL'}", file=out)

    matrices = build_matrices(ctx, tensor, pv)
    for res in verify_identities(matrices, tensor, pv):
        tag = "pass" if res.passed else "FAIL"
        if not res.applicable:
            tag = "n/a"
        print(f"identity {res.name}: {tag} {res.detail}", file=out)

    if d <= 12:
        table = PowerTable(ctx)
        curves = [count_projective(ctx, 0, j, kk, table)
                  for j in range(d) for kk in range(d)]
        worst = min(curves, key=lambda cc: cc.hw_margin)  # first of the smallest
        print(f"curve counts: M(0,0,0)={curves[0].M}, "
              f"min HW margin {worst.hw_margin:.4f} at (0,{worst.j},{worst.k})",
              file=out)

    ok = rpt.all_passed()
    print("RESULT:", "pass" if ok else "FAIL", file=out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def emit_figure_data(figure_id: str, output: str, p_hi: int | None = None,
                     workers: int = 1) -> int:
    """Emit the data behind one of the published scatter plots."""
    if figure_id not in FIGURE_IDS:
        raise UnknownFigure(f"unknown figure id {figure_id!r}")
    if figure_id == "noncircular_scan":
        p_hi = p_hi or 10_000
        lines = ["k,p"]
        for k in range(2, 13):
            for p in scan_noncircular(k, p_hi):
                lines.append(f"{k},{p}")
        _atomic_write(output, lines)
        return EXIT_OK

    d = int(figure_id[1:])
    p_hi = p_hi or 100_000
    tasks = [(p, SweepMode.FIXED_D.value, d)
             for p in primes_in_range(d * d + 1, p_hi, (d, 1))]
    results = _map_by_p(_figure_row, tasks, workers)
    header = "p,v4_exact,lower_bound,upper_bound"
    if d == 4:
        header += ",branch"
    lines = [header] + [r[1] for r in results]
    _atomic_write(output, lines)
    return EXIT_OK


def _figure_row(task: tuple[int, str, int]) -> tuple[int, str]:
    p, _, d = task
    rpt = _run_prime(p, SweepMode.FIXED_D, d)[3]
    lo, hi = _pick_bounds(rpt)
    cols = [str(p), _fmt_value(rpt.v4_exact), lo, hi]
    if d == 4:
        cols.append(str(p % 8))
    return p, ",".join(cols)


def run_circular_scan(k: int, p_hi: int, output: str | None) -> int:
    """Scan primes with k | (p-1) and report each verdict."""
    lines = [CIRCULAR_HEADER]
    for p in primes_in_range(3, p_hi, (k, 1) if k > 1 else None):
        v = is_circular(p, k)
        wm, wt = (v.witness if v.witness else ("", ""))
        lines.append(f"{p},{k},{1 if v.circular else 0},{v.max_intersection},{wm},{wt}")
    if output:
        _atomic_write(output, lines)
    else:
        print("\n".join(lines))
    return EXIT_OK


def _load_config_file(path: str) -> dict:
    out = {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigInvalid(f"bad config line: {line!r}")
                key, _, val = line.partition("=")
                out[key.strip()] = val.strip()
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config file {path}: {exc}") from exc
    return out


def _default_workers() -> int:
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigInvalid(f"{WORKERS_ENV} must be an integer") from exc
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gpmoments")
    sub = parser.add_subparsers(dest="command", required=True)

    sw = sub.add_parser("sweep", help="verify formulas over a range of primes")
    sw.add_argument("--mode", choices=[m.value for m in SweepMode], default=None)
    sw.add_argument("--value", type=int, default=None, help="the fixed d or k")
    sw.add_argument("--from", dest="p_lo", type=int, default=None)
    sw.add_argument("--to", dest="p_hi", type=int, default=None)
    sw.add_argument("--out", default=None)
    sw.add_argument("--format", choices=[f.value for f in OutputFormat], default=None)
    sw.add_argument("--workers", type=int, default=None)
    sw.add_argument("--config", default=None, help="key=value config file")

    vf = sub.add_parser("verify", help="full report for a single prime")
    vf.add_argument("--p", type=int, required=True)
    group = vf.add_mutually_exclusive_group(required=True)
    group.add_argument("--d", type=int)
    group.add_argument("--k", type=int)

    fg = sub.add_parser("figure", help="emit data behind a published figure")
    fg.add_argument("--id", required=True)
    fg.add_argument("--out", required=True)
    fg.add_argument("--to", dest="p_hi", type=int, default=None)
    fg.add_argument("--workers", type=int, default=None)

    ci = sub.add_parser("circular", help="circularity scan for fixed k")
    ci.add_argument("--k", type=int, required=True)
    ci.add_argument("--to", dest="p_hi", type=int, default=10_000)
    ci.add_argument("--out", default=None)
    return parser


def _sweep_config_from_args(args) -> SweepConfig:
    file_cfg = _load_config_file(args.config) if args.config else {}

    def pick(cli_val, key, conv, default=None):
        if cli_val is not None:
            return cli_val
        if key in file_cfg:
            try:
                return conv(file_cfg[key])
            except ValueError as exc:
                raise ConfigInvalid(f"bad value for {key}") from exc
        if default is None:
            raise ConfigInvalid(f"missing required option {key}")
        return default

    return SweepConfig(
        mode=SweepMode(pick(args.mode, "mode", str)),
        value=pick(args.value, "value", int),
        p_lo=pick(args.p_lo, "p_lo", int, 3),
        p_hi=pick(args.p_hi, "p_hi", int, 100_000),
        output=pick(args.out, "out", str),
        out_format=OutputFormat(pick(args.format, "format", str, "csv")),
        workers=pick(args.workers, "workers", int, _default_workers()),
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            return run_sweep(_sweep_config_from_args(args))
        if args.command == "verify":
            mode = SweepMode.FIXED_D if args.d is not None else SweepMode.FIXED_K
            return verify_single(args.p, args.d if args.d is not None else args.k, mode)
        if args.command == "figure":
            return emit_figure_data(args.id, args.out, args.p_hi,
                                    args.workers or _default_workers())
        if args.command == "circular":
            return run_circular_scan(args.k, args.p_hi, args.out)
        raise ConfigInvalid(f"unknown command {args.command}")
    except (ConfigInvalid, UnknownFigure, IoFailure, DivisorMismatch,
            CompositeInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except GpmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())

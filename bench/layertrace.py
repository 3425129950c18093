"""Span tracing of the gpmoments layers, installed from outside the package.

`LayerTracer.installed()` replaces every public function of each layer module
(and the constructor of `fermat_curves.PowerTable`) by a wrapper that records
a span, in every gpmoments module that holds a reference to it, and puts the
originals back on exit.  The program's source is not touched.

A span's self time is its duration minus the durations of its child spans, so
the self times of all layer spans add up to the time spent inside the layers;
what is left of the traced wall time is the CLI's own work (`cli.self_s`).
"""

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

LAYERS = ("field_core", "superchar", "periods", "moments", "circularity",
          "fermat_curves")
CLI_ROOT = "cli.main"

# functions reported one by one; every other public function of a layer is
# traced too and counts towards its layer's self time
REPORTED = ("field_core.build_context", "superchar.build_tensor",
            "superchar.build_matrices", "superchar.verify_identities",
            "periods.compute_periods", "moments.build_report",
            "moments.fermat_solution_count", "circularity.is_circular",
            "fermat_curves.PowerTable", "fermat_curves.count_projective")
PER_PRIME = ("field_core.build_context", "circularity.is_circular")


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 at top level
    start: float
    end: float = 0.0
    child_s: float = 0.0


class LayerTracer:
    """Collects spans and boundary counts over any number of traced rounds."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.calls_in_cli: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.c0_bytes_max = 0
        self._cli_depth = 0

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, time.perf_counter()))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self.calls[name] += 1
        if self._cli_depth:
            self.calls_in_cli[name] += 1
        if name == CLI_ROOT:
            self._cli_depth += 1
        return idx

    def _exit(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.name == CLI_ROOT:
            self._cli_depth -= 1
        dur = span.end - span.start
        self.self_s[span.name] += dur - span.child_s
        if span.parent >= 0:
            self.spans[span.parent].child_s += dur

    def _count(self, name: str, bound: inspect.BoundArguments, result) -> None:
        args = bound.arguments
        if name == "periods.compute_periods":
            # one complex exponential per element of F_p^x
            self.counts["periods.exp_terms"] += args["ctx"].p - 1
        elif name == "circularity.is_circular":
            # d * k^2 differences, d = (p-1)/k
            self.counts["circularity.pairs_examined"] += (args["p"] - 1) * args["k"]
        elif name == "superchar.build_tensor":
            nbytes = sum(v.nbytes for v in vars(result).values()
                         if isinstance(v, np.ndarray))
            self.c0_bytes_max = max(self.c0_bytes_max, nbytes)

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        counted = name in ("periods.compute_periods", "circularity.is_circular",
                           "superchar.build_tensor")

        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if counted:
                self._count(name, sig.bind(*args, **kwargs), result)
            return result

        return functools.wraps(fn)(traced)

    # -- installation ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Trace every layer while the block runs; restore the originals after."""
        targets = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module(f"gpmoments.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    targets[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        cli = importlib.import_module("gpmoments.cli")
        targets[id(cli.main)] = (cli.main, self._wrap(CLI_ROOT, cli.main))

        patched = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gpmoments"
                                   or mod_name.startswith("gpmoments.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, obj))

        power_table = importlib.import_module("gpmoments.fermat_curves").PowerTable
        init = power_table.__init__
        power_table.__init__ = self._wrap("fermat_curves.PowerTable", init)
        try:
            yield self
        finally:
            power_table.__init__ = init
            for mod, attr, obj in patched:
                setattr(mod, attr, obj)

    # -- summary -----------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, s in self.self_s.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += s
        return out

    def metrics(self, rounds: int, wall_s: float, untraced_s: float,
                prime_cases: int, output_bytes: int) -> dict[str, float]:
        """Per-round figures over `rounds` traced rounds.

        wall_s and untraced_s are the summed wall times of the traced rounds
        and of as many untraced rounds on the same inputs; prime_cases and
        output_bytes are per round.
        """
        out = {}
        layers = self.layer_self_s()
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layers[layer] / rounds
        for name in REPORTED:
            out[f"{name}.calls"] = self.calls.get(name, 0) / rounds
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0) / rounds
        for name in PER_PRIME:
            out[f"{name}.calls_per_prime"] = (
                self.calls_in_cli.get(name, 0) / rounds / prime_cases)
        out["periods.exp_terms"] = self.counts["periods.exp_terms"] / rounds
        out["circularity.pairs_examined"] = (
            self.counts["circularity.pairs_examined"] / rounds)
        out["superchar.c0_bytes_max"] = float(self.c0_bytes_max)
        out["cli.self_s"] = (wall_s - sum(layers.values())) / rounds
        out["cli.output_bytes"] = float(output_bytes)
        out["trace.wall_s"] = wall_s / rounds
        out["trace.overhead_s"] = (wall_s - untraced_s) / rounds
        return out

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: name, parent index, start, end."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps([span.name, span.parent,
                                     round(span.start, 7), round(span.end, 7)]))
                fh.write("\n")

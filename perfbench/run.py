"""bollosys benchmark: runs one workload's CLI commands in-process and checks them.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 28 --trace 0

Run from the root of a checkout: the package is imported from its ``src``
directory, and the run refuses to start without it.  Whole passes over the
workload's command list run one after another (a closed loop: one client,
one thread, no concurrency) until ``--seconds`` is used up.  Each pass starts
with set-up: a fresh import of ``bollosys.cli`` and freshly written seeded
input files.  Each command goes through ``cli.run`` and ``cli.render`` and is
timed alone.  Its output is checked after the pass, outside the timed
region.  A command that exits non-zero, raises, or fails its check counts in
``failed``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes under the outside-in tracer.  It reports the
per-layer metrics, the per-command seconds of the untraced passes, and the
tracing overhead.  Every traced output must be byte-identical to the
untraced one.

Every time is reported at a fixed reference speed.  A yardstick, a fixed
pure-Python loop, runs before the first command of a pass and after each
command; a command's seconds are scaled by ``YARDSTICK_S`` over the mean of
the two yardsticks around it, and set-up likewise.  On a shared host whose
speed changes from minute to minute, this ratio holds steady where the raw
seconds do not.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import tempfile
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import checks
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3  # per kind of pass: untraced, and traced when tracing
COMMAND_KINDS = ("certify", "construct", "classify", "search", "table", "lemma-check", "sum")
# Reported seconds are seconds on a machine where the yardstick takes this long.
YARDSTICK_S = 0.02


def yardstick(rounds: int = 30000) -> float:
    """Seconds a fixed interpreter-bound loop takes: the machine's speed now."""
    start = perf_counter()
    acc, table, live = 0, {}, set()
    for i in range(rounds):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + i
        if key in live:
            live.discard(key)
        else:
            live.add(key)
        acc ^= len(live) + (key >> 3)
    return perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, given the yardsticks around them."""
    return seconds * YARDSTICK_S * 2 / (before + after)


def fresh_cli():
    """Import ``bollosys.cli`` as a new process would, dropping earlier imports."""
    for name in [n for n in sys.modules if n == "bollosys" or n.startswith("bollosys.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return importlib.import_module("bollosys.cli")


def run_pass(cli, commands, trace=None):
    """One pass over the command list: (per-command seconds, yardsticks, outputs).

    The seconds are raw; ``yardsticks`` holds one more entry than there are
    commands, the first taken before the first command and one after each.
    An output is the rendered JSON text, or None when the command raised or
    exited non-zero."""
    seconds, outputs = [], []
    yardsticks = [yardstick()]
    if trace is not None:
        trace.install()
    try:
        for command in commands:
            gc.collect()
            start = perf_counter()
            try:
                result = cli.run(list(command.argv))
                text = cli.render(result)
            except Exception:  # a crash is a failed command, not a failed benchmark
                traceback.print_exc(file=sys.stderr)
                result = text = None
            seconds.append(perf_counter() - start)
            outputs.append(text if result is not None and result.exit_code == 0 else None)
            yardsticks.append(yardstick())
    finally:
        if trace is not None:
            trace.uninstall()
    return seconds, yardsticks, outputs


class Verdicts:
    """Checks outputs.  The first output that passes its check becomes the
    reference; every later output of that command must equal it byte for
    byte, which also holds traced outputs to the untraced ones."""

    def __init__(self, commands):
        self.commands = commands
        self.reference: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0

    def ok(self, index: int, text: str | None) -> bool:
        if text is None:
            return False
        if index in self.reference:
            return text == self.reference[index]
        try:
            self.commands[index].check(json.loads(text))
        except (checks.CheckFailed, KeyError, TypeError, ValueError, IndexError) as exc:
            print(f"check failed: {' '.join(self.commands[index].argv)}: {exc!r}",
                  file=sys.stderr)
            return False
        self.reference[index] = text
        return True

    def record(self, outputs) -> None:
        for index, text in enumerate(outputs):
            self.attempted += 1
            self.failed += not self.ok(index, text)


def measure(name: str, seed: int, seconds: float, trace: bool, **sizes) -> dict:
    """Set up and run one workload; return the result object."""
    setup = []  # per pass, scaled seconds
    times = {False: [], True: []}  # per pass, per command scaled seconds
    layers = defaultdict(list)
    verdicts = None
    trace_obj = tracer.Tracer() if trace else None
    kinds = [False, True] if trace else [False]
    pass_seconds = []
    began = perf_counter()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=Path(__file__).parent) as work:
        while True:
            for traced in kinds:
                # every pass starts from a fresh import and freshly written inputs
                before = yardstick()
                start = perf_counter()
                cli = fresh_cli()
                commands = workloads.make(name, Path(work), seed, **sizes)
                setup_raw = perf_counter() - start
                verdicts = verdicts or Verdicts(commands)
                raw, marks, outputs = run_pass(cli, commands, trace_obj if traced else None)
                setup.append(scaled(setup_raw, before, marks[0]))
                verdicts.record(outputs)
                times[traced].append([scaled(t, marks[i], marks[i + 1])
                                      for i, t in enumerate(raw)])
                if traced:
                    factor = YARDSTICK_S / statistics.median(marks)
                    for metric, value in trace_obj.collect().items():
                        if metric.endswith("_s"):
                            value *= factor
                        layers[metric].append(value)
                pass_seconds.append(perf_counter() - start)
            elapsed = perf_counter() - began
            if len(times[False]) >= MIN_PASSES and elapsed + len(kinds) * statistics.median(
                    pass_seconds) > seconds:
                break

    walls = {traced: statistics.median(sum(row) for row in rows)
             for traced, rows in times.items() if rows}
    passes = len(times[False])
    if trace:
        metrics = {}
        for kind in COMMAND_KINDS:
            kind_s = statistics.median(
                sum(t for c, t in zip(commands, row) if c.kind == kind) for row in times[False])
            metrics[kind.replace("-", "_") + "_s"] = (kind_s, "s", passes)
        for metric, values in layers.items():
            middle = statistics.median(values) if metric.endswith("_s") else \
                statistics.median_low(values)  # counts stay whole
            metrics[metric] = (middle, tracer.unit(metric), len(values))
        metrics["trace.overhead_frac"] = (
            walls[True] / walls[False] - 1, "fraction", len(times[True]))
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_s": (walls[False], "s", passes),
            "setup_s": (statistics.median(setup), "s", len(setup)),
            "peak_rss_mb": (peak, "MiB", 1),
        }
    for metric, (value, unit, samples) in metrics.items():
        print(f"{name:>7} {metric:<34} {value:>14.6g} {unit:<9} n={samples}")
    return {
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "bollosys" / "cli.py").is_file():
        print(f"no bollosys sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

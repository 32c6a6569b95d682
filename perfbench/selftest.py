"""Self-test of the benchmark at tiny sizes; exits non-zero on the first failure.

    python3 perfbench/selftest.py

Run from a checkout.  It checks that every workload runs clean and emits
every metric named in BENCHMARK.json with its unit; that a wrong value fed
to each command's checker counts as a failure; that ``classify`` is never
called on ``oracle`` and ``sums``; and that the benchmark refuses to run,
printing no result, in a directory that holds only the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads

TINY = {
    "verify": {"certify_s": (4,), "perm_n": 4, "complement": (5, 2, 4), "classify_m": 40},
    "search": {"cells": ((4, 5),), "table": ("3..4", "1..3"), "general": (3, 3),
               "strong": (3, 4)},
    "oracle": {"conj1_s": 4, "single": (5, 30), "blocked": ((2, 3), 20)},
    "sums": {"m": 50},
}


def _flip(obj: dict, *path) -> str:
    """The rendered output with the value at ``path`` made wrong."""
    *parents, last = path
    target = obj
    for key in parents:
        target = target[key]
    value = target[last]
    if isinstance(value, bool):
        target[last] = not value
    elif isinstance(value, int):
        target[last] = value + 1
    elif isinstance(value, list):
        target[last] = value[::-1]
    else:
        target[last] = value + "0"
    return json.dumps(obj, indent=2)


# Per command kind: where a wrong value is planted in a correct output.
WRONG = {
    "certify": ("sum",),
    "construct": ("members",),
    "classify": ("skew",),
    "search": ("value",),
    "table": ("cells", 0, "value"),
    "lemma-check": ("rhs",),
    "sum": ("sum",),
}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_metrics(result: dict, declared: list[dict], what: str) -> None:
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    wanted = {metric["name"]: metric["unit"] for metric in declared}
    expect(emitted == wanted, f"{what}: emitted {emitted}, declared {wanted}")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
           f"{what}: {result['failed']} of {result['attempted']} commands failed")


def check_wrong_values(name: str) -> None:
    with tempfile.TemporaryDirectory(prefix=".work-", dir=Path(__file__).parent) as work:
        cli = run.fresh_cli()
        commands = workloads.make(name, Path(work), 0, **TINY[name])
        _, _, outputs = run.run_pass(cli, commands)
    for index, (command, text) in enumerate(zip(commands, outputs)):
        wrong = _flip(json.loads(text), *WRONG[command.kind])
        with contextlib.redirect_stderr(io.StringIO()):  # the expected failure reports
            verdicts = run.Verdicts(commands)
            verdicts.record([wrong if i == index else t for i, t in enumerate(outputs)])
            expect(verdicts.failed == 1, f"{name}: a wrong {command.kind} output passed")
            verdicts = run.Verdicts(commands)
            verdicts.record(outputs)
            verdicts.record([t + " " if i == index else t for i, t in enumerate(outputs)])
            expect(verdicts.failed == 1, f"{name}: a changed {command.kind} output passed")


def check_bare_directory(declared: dict) -> None:
    with tempfile.TemporaryDirectory(prefix=".work-", dir=Path(__file__).parent) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in declared["paths"]:
            shutil.copytree(run.ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns(".work-*", "__pycache__"))
        proc = subprocess.run(
            [*declared["command"], "--workload", "sums", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    expect(proc.returncode != 0 and "correct" not in proc.stdout,
           f"benchmark ran without the program: {proc.returncode} {proc.stdout!r}")


def main() -> None:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(sorted(w["name"] for w in declared["workloads"]) == sorted(workloads.WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    sys.path.insert(0, str(run.ROOT / "src"))
    for name, sizes in TINY.items():
        check_metrics(run.measure(name, 0, 0, False, **sizes), declared["end_to_end"], name)
        traced = run.measure(name, 0, 0, True, **sizes)
        check_metrics(traced, declared["per_layer"], f"{name} traced")
        calls = traced["metrics"]["classify.calls"]["value"]
        expect((calls == 0) == (name in ("oracle", "sums")), f"{name}: classify.calls {calls}")
        check_wrong_values(name)
    check_bare_directory(declared)
    print("selftest passed")


if __name__ == "__main__":
    main()

"""The benchmark tracer wraps package functions by (module, attribute) name.
A listed name that the package no longer has breaks traced benchmark runs
only when they start, so every listed name is resolved here."""

import importlib
import types
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    # executed from source, so nothing is written next to the tracer
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    missing = []
    for key in sorted({*tracer.SPANS, *tracer.COUNTERS, *tracer.HOOKS}):
        try:
            importlib.import_module(key[0])
            owner, attr = tracer._lookup(key)
            if not callable(getattr(owner, attr)):
                missing.append(key)
        except (ImportError, AttributeError):
            missing.append(key)
    assert missing == []

"""The benchmark's trace points name functions that `gnt` still holds.

`bench/tracing.py` rebinds module globals by name, so a renamed or inlined
function breaks a traced benchmark run; this catches it in the fast suite.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_trace_point_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACE_POINTS
    for module_name, attribute, _layer in tracing.TRACE_POINTS:
        module = importlib.import_module(module_name)
        assert callable(vars(module).get(attribute)), f"{module_name}.{attribute} is no module-level function"

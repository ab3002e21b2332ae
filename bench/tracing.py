"""In-memory span recorder wrapped around the public functions of `gnt`.

Spans are recorded from outside the program: the module-level names that
`gnt.cli`, `gnt.pipeline` and `gnt.adapter` call are rebound at run time to
wrappers, so no source file changes. Each span is (name, parent index, start,
end) on `time.monotonic`; the benchmark writes them out when a job ends.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Callable

# (module whose global name is rebound, function name, layer). The span name
# is "<layer>.<function>". Each module is patched separately because each
# holds its own reference to the imported function.
TRACE_POINTS = (
    ("gnt.cli", "parse_suite", "formats"),
    ("gnt.cli", "write_translations", "formats"),
    ("gnt.cli", "translate_suite", "adapter"),
    ("gnt.cli", "run_pipeline", "pipeline"),
    ("gnt.pipeline", "generate_suite", "suite"),
    ("gnt.pipeline", "write_suite", "formats"),
    ("gnt.pipeline", "parse_translations", "formats"),
    ("gnt.pipeline", "split_orphans", "formats"),
    ("gnt.pipeline", "load_language_resources", "lexicon"),
    ("gnt.pipeline", "score_suite", "classify"),
    ("gnt.pipeline", "build_metrics_doc", "metrics"),
    ("gnt.pipeline", "render_report", "report"),
    ("gnt.pipeline", "write_scores", "formats"),
    ("gnt.pipeline", "write_metrics_doc", "formats"),
    ("gnt.adapter", "parse_translations", "formats"),
)


class Tracer:
    """Records nested spans of one single-threaded job."""

    def __init__(self):
        self.spans: list[tuple[str, int, float, float]] = []
        self._stack: list[int] = []

    def wrap(self, name: str, func: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append((name, stack[-1] if stack else -1, 0.0, 0.0))
            stack.append(index)
            start = time.monotonic()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                spans[index] = (name, spans[index][1], start, end)

        return traced

    def install(self) -> None:
        """Rebind every trace point for the rest of this process."""
        for module_name, attribute, layer in TRACE_POINTS:
            module = importlib.import_module(module_name)
            setattr(module, attribute, self.wrap(f"{layer}.{attribute}", getattr(module, attribute)))


def self_times(spans: list[tuple[str, int, float, float]]) -> dict[str, float]:
    """Seconds per span name, each span minus the time its children cover."""
    child_time = defaultdict(float)
    for _, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for index, (name, _, start, end) in enumerate(spans):
        totals[name] += end - start - child_time[index]
    return dict(totals)

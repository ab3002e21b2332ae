"""The benchmark's trace points name functions that `gnt` still holds and calls.

`bench/tracing.py` rebinds module globals by name, so a renamed or inlined
function breaks a traced benchmark run, and a step no longer called through
its traced name reads 0 s in one; this catches both in the fast suite.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import gnt.pipeline
from gnt import Language, generate_suite, parse_manifest, parse_translations, write_suite, write_translations
from gnt.cli import main
from gnt.data import demo_manifest_path, lexicon_dir
from conftest import backend_command

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _trace_points(monkeypatch) -> tuple:
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACE_POINTS


def test_every_trace_point_resolves(monkeypatch):
    trace_points = _trace_points(monkeypatch)
    assert trace_points
    for module_name, attribute, _layer in trace_points:
        module = importlib.import_module(module_name)
        assert callable(vars(module).get(attribute)), f"{module_name}.{attribute} is no module-level function"


def test_gnt_run_calls_every_pipeline_trace_point(tmp_path, monkeypatch):
    suite = generate_suite(parse_manifest(demo_manifest_path()))
    translations = tmp_path / "translations.jsonl"
    write_translations({("echo", language): {i.id: i.source_text for i in suite}
                        for language in (Language.ES, Language.CS)}, translations)

    calls: Counter = Counter()
    active: Counter = Counter()

    def counted(attribute, func):
        def wrapper(*args, **kwargs):
            calls[attribute] += 1
            active[attribute] += 1
            try:
                return func(*args, **kwargs)
            finally:
                active[attribute] -= 1
        return wrapper

    def classified(func):
        def wrapper(*args, **kwargs):
            # a slot classified outside score_suite would read as time of no layer in a traced run
            assert active["score_suite"] == 1, "classify_instance called outside score_suite"
            calls["classify_instance"] += 1
            return func(*args, **kwargs)
        return wrapper

    # each name is restored when the test ends, unlike Tracer.install
    names = [attribute for module_name, attribute, _ in _trace_points(monkeypatch) if module_name == "gnt.pipeline"]
    for attribute in names:
        monkeypatch.setattr(gnt.pipeline, attribute, counted(attribute, getattr(gnt.pipeline, attribute)))
    monkeypatch.setattr(gnt.pipeline, "classify_instance", classified(gnt.pipeline.classify_instance))
    assert main(["run", "--manifest", str(demo_manifest_path()), "--translations", str(translations),
                 "--lexicon-dir", str(lexicon_dir()), "--out-dir", str(tmp_path / "out")]) == 0
    assert names and [name for name in names if not calls[name]] == []
    # once per group of the two
    assert {name: calls[name] for name in ("score_suite", "split_orphans", "build_metrics_doc", "write_scores")} == {
        "score_suite": 2, "split_orphans": 2, "build_metrics_doc": 2, "write_scores": 2}
    assert calls["classify_instance"] == 2 * len(suite)


def test_gnt_translate_calls_each_translate_trace_point_once(tmp_path, monkeypatch):
    """A translate that resumes from a .partial reads it, translates and writes once, each through its traced name."""
    points = [("gnt.cli", "translate_suite"), ("gnt.cli", "write_translations"), ("gnt.adapter", "parse_translations")]
    traced = {(module_name, attribute) for module_name, attribute, _ in _trace_points(monkeypatch)}
    assert [point for point in points if point not in traced] == []
    suite = generate_suite(parse_manifest(demo_manifest_path()))
    suite_file, out = tmp_path / "suite.jsonl", tmp_path / "translations.jsonl"
    write_suite(suite, suite_file)
    texts = {i.id: i.source_text for i in suite}
    write_translations({("echo", Language.ES): dict(list(texts.items())[:10])}, tmp_path / "translations.jsonl.partial")

    calls: Counter = Counter()

    def counted(point, func):
        def wrapper(*args, **kwargs):
            calls[point] += 1
            return func(*args, **kwargs)
        return wrapper

    for module_name, attribute in points:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attribute, counted((module_name, attribute), getattr(module, attribute)))
    assert main(["translate", "--suite", str(suite_file), "--adapter", "cmd:" + backend_command(), "--lang", "es",
                 "--system", "echo", "--out", str(out)]) == 0
    assert calls == dict.fromkeys(points, 1)
    assert list(parse_translations(out)["echo", Language.ES].items()) == sorted(texts.items())

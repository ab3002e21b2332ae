from __future__ import annotations

import json
import shutil

import pytest

import gnt.cli
from gnt import adapter
from gnt.adapter import AdapterConfig
from gnt.cli import build_parser, main
from gnt.data import demo_manifest_path, lexicon_dir
from conftest import GOLDEN, backend_command


@pytest.fixture()
def suite_path(tmp_path):
    out = tmp_path / "suite.jsonl"
    assert main(["generate", "--manifest", str(demo_manifest_path()), "--out", str(out)]) == 0
    return out


def test_generate_and_validate(suite_path, capsys):
    assert main(["validate", "--suite", str(suite_path),
                 "--manifest", str(demo_manifest_path())]) == 0
    out = capsys.readouterr().out
    assert "balance: ok" in out
    assert "T5-Det: 40 slots" in out


def test_validate_flags_corrupted_suite(tmp_path, suite_path, capsys):
    lines = suite_path.read_text(encoding="utf-8").splitlines()
    kept = [line for line in lines if json.loads(line)["id"] != "T3-000000d"]
    corrupted = tmp_path / "corrupted.jsonl"
    corrupted.write_text("\n".join(kept) + "\n", encoding="utf-8")
    assert main(["validate", "--suite", str(corrupted)]) == 1
    assert "violation" in capsys.readouterr().err


def test_validate_rejects_malformed_slot_record(tmp_path, suite_path, capsys):
    lines = suite_path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    del record["slots"][0]["gender_kind"]
    broken = tmp_path / "broken.jsonl"
    broken.write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n", encoding="utf-8")
    assert main(["validate", "--suite", str(broken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "broken.jsonl:1:" in err and "gender_kind" in err
    assert "Traceback" not in err


def test_translate_score_metrics_report_chain(tmp_path, suite_path):
    translations = tmp_path / "translations.jsonl"
    scores = tmp_path / "scores.jsonl"
    metrics = tmp_path / "metrics.json"
    report = tmp_path / "report.md"

    es_lexicon = lexicon_dir() / "es" / "lexicon.csv"
    adapter = "cmd:" + backend_command("--mode", "sensitive", "--lexicon", str(es_lexicon))
    assert main(["translate", "--suite", str(suite_path), "--adapter", adapter,
                 "--lang", "es", "--system", "demo-sys", "--out", str(translations)]) == 0
    assert main(["score", "--suite", str(suite_path), "--translations", str(translations),
                 "--lexicon-dir", str(lexicon_dir()), "--lang", "es", "--out", str(scores)]) == 0
    assert main(["metrics", "--scores", str(scores), "--suite", str(suite_path),
                 "--system", "demo-sys", "--lang", "es", "--out", str(metrics)]) == 0
    assert main(["report", "--metrics", str(metrics), "--format", "md", "--out", str(report)]) == 0

    doc = json.loads(metrics.read_text(encoding="utf-8"))
    assert doc["active_response"]["macro"]["delta_n"] == 1.0
    assert "**1.000**" in report.read_text(encoding="utf-8")


def test_score_requires_system_when_ambiguous(tmp_path, suite_path, capsys):
    translations = tmp_path / "translations.jsonl"
    first = json.loads(suite_path.read_text(encoding="utf-8").splitlines()[0])
    lines = [
        {"system": "a", "lang": "es", "id": first["id"], "text": "hola"},
        {"system": "b", "lang": "es", "id": first["id"], "text": "hola"},
    ]
    translations.write_text("".join(json.dumps(l) + "\n" for l in lines), encoding="utf-8")
    code = main(["score", "--suite", str(suite_path), "--translations", str(translations),
                 "--lexicon-dir", str(lexicon_dir()), "--lang", "es",
                 "--out", str(tmp_path / "scores.jsonl")])
    assert code == 2
    assert "--system" in capsys.readouterr().err


def test_lexicon_dir_env_fallback(tmp_path, suite_path, monkeypatch):
    translations = tmp_path / "translations.jsonl"
    first = json.loads(suite_path.read_text(encoding="utf-8").splitlines()[0])
    translations.write_text(
        json.dumps({"system": "a", "lang": "es", "id": first["id"], "text": "hola"}) + "\n",
        encoding="utf-8",
    )
    monkeypatch.delenv("GNT_LEXICON_DIR", raising=False)
    missing = main(["score", "--suite", str(suite_path), "--translations", str(translations),
                    "--lang", "es", "--out", str(tmp_path / "s.jsonl")])
    assert missing == 2
    monkeypatch.setenv("GNT_LEXICON_DIR", str(lexicon_dir()))
    assert main(["score", "--suite", str(suite_path), "--translations", str(translations),
                 "--lang", "es", "--out", str(tmp_path / "s.jsonl")]) == 0


def test_run_subcommand_full_pipeline(tmp_path, suite_path):
    translations = tmp_path / "translations.jsonl"
    es_lexicon = lexicon_dir() / "es" / "lexicon.csv"
    adapter = "cmd:" + backend_command("--mode", "sensitive", "--lexicon", str(es_lexicon))
    assert main(["translate", "--suite", str(suite_path), "--adapter", adapter,
                 "--lang", "es", "--system", "demo-sys", "--out", str(translations)]) == 0
    out_dir = tmp_path / "out"
    assert main(["run", "--manifest", str(demo_manifest_path()), "--translations", str(translations),
                 "--lexicon-dir", str(lexicon_dir()), "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "suite.jsonl").exists()
    assert (out_dir / "report_demo-sys_es.md").exists()
    assert (out_dir / "metrics_demo-sys_es.json").exists()


def test_split_score_metrics_path_matches_run(tmp_path, suite_path):
    translations = tmp_path / "translations.jsonl"
    es_lexicon = lexicon_dir() / "es" / "lexicon.csv"
    adapter = "cmd:" + backend_command("--mode", "sensitive", "--lexicon", str(es_lexicon))
    assert main(["translate", "--suite", str(suite_path), "--adapter", adapter,
                 "--lang", "es", "--system", "demo-sys", "--out", str(translations)]) == 0
    lines = translations.read_text(encoding="utf-8").splitlines()
    kept = lines[::2] + [json.dumps({"system": "demo-sys", "lang": "es", "id": "orphan-1", "text": "hola"})]
    translations.write_text("\n".join(kept) + "\n", encoding="utf-8")

    scores = tmp_path / "scores.jsonl"
    metrics = tmp_path / "metrics.json"
    assert main(["score", "--suite", str(suite_path), "--translations", str(translations),
                 "--lexicon-dir", str(lexicon_dir()), "--lang", "es", "--out", str(scores)]) == 0
    assert main(["metrics", "--scores", str(scores), "--suite", str(suite_path),
                 "--system", "demo-sys", "--lang", "es", "--out", str(metrics)]) == 0
    out_dir = tmp_path / "out"
    assert main(["run", "--manifest", str(demo_manifest_path()), "--translations", str(translations),
                 "--lexicon-dir", str(lexicon_dir()), "--out-dir", str(out_dir)]) == 0

    split = json.loads(metrics.read_text(encoding="utf-8"))
    run = json.loads((out_dir / "metrics_demo-sys_es.json").read_text(encoding="utf-8"))
    assert run["coverage"]["missing_translations"] == len(lines) - len(lines[::2])
    # scores carry no orphan information, so only the run path can count orphans
    assert (split["coverage"].pop("orphan_translations"), run["coverage"].pop("orphan_translations")) == (0, 1)
    assert split == run


@pytest.mark.parametrize("slot_index", [99, -1, True, "0"])
def test_metrics_rejects_bad_slot_index(tmp_path, suite_path, capsys, slot_index):
    first = json.loads(suite_path.read_text(encoding="utf-8").splitlines()[0])
    scores = tmp_path / "scores.jsonl"
    scores.write_text(json.dumps({"instance_id": first["id"], "slot_index": slot_index, "label": "M"}) + "\n",
                      encoding="utf-8")
    code = main(["metrics", "--scores", str(scores), "--suite", str(suite_path),
                 "--lang", "es", "--out", str(tmp_path / "metrics.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "slot_index" in err
    assert "Traceback" not in err


def test_metrics_rejects_a_second_score_for_one_slot(tmp_path, suite_path, capsys):
    first, second = (json.loads(line)["id"] for line in suite_path.read_text(encoding="utf-8").splitlines()[:2])
    records = [{"instance_id": first, "slot_index": 0, "label": "M"},
               {"instance_id": second, "slot_index": 0, "label": "F"},
               {"instance_id": first, "slot_index": 0, "label": "N1"}]
    scores = tmp_path / "scores.jsonl"
    scores.write_text("".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")
    assert main(["metrics", "--scores", str(scores), "--suite", str(suite_path),
                 "--lang", "es", "--out", str(tmp_path / "metrics.json")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {scores}:3: duplicate record for ({first!r}, 0) (first seen on line 1)\n"
    assert not (tmp_path / "metrics.json").exists()


@pytest.mark.parametrize("threshold", ["-1", "nan", "inf", "-inf"])
def test_metrics_rejects_a_threshold_that_is_negative_or_not_finite(tmp_path, suite_path, capsys, threshold):
    scores = tmp_path / "scores.jsonl"
    scores.write_text("", encoding="utf-8")
    metrics = tmp_path / "metrics.json"
    code = main(["metrics", "--scores", str(scores), "--suite", str(suite_path),
                 "--lang", "es", f"--threshold={threshold}", "--out", str(metrics)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: threshold must be a finite non-negative number") and "Traceback" not in err
    assert not metrics.exists()


@pytest.mark.parametrize("flags, setting", [
    (["--batch-size", "0"], "batch_size"),
    (["--timeout", "0"], "timeout"),
    (["--max-retries", "-1"], "max_retries"),
    (["--max-concurrent-batches", "0"], "max_concurrent_batches"),
    (["--adapter", "ftp:x"], "adapter"),
], ids=["batch-size", "timeout", "max-retries", "max-concurrent-batches", "adapter"])
def test_translate_rejects_bad_settings(tmp_path, suite_path, capsys, flags, setting):
    argv = ["translate", "--suite", str(suite_path), "--adapter", "cmd:cat", "--lang", "es",
            "--system", "s", "--out", str(tmp_path / "tr.jsonl")]
    assert main(argv + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and setting in err and "Traceback" not in err


def test_translate_batch_size_defaults_to_the_adapter_default():
    args = build_parser().parse_args(["translate", "--suite", "s", "--adapter", "cmd:cat", "--lang", "es",
                                      "--system", "s", "--out", "o"])
    assert args.batch_size == AdapterConfig.batch_size == 256


@pytest.mark.parametrize("spec", ["http:", "http://[::1", "http:localhost:9/x"],
                         ids=["empty-url", "bad-ipv6-host", "url-without-scheme"])
def test_translate_rejects_a_bad_http_spec(tmp_path, suite_path, capsys, spec):
    out = tmp_path / "tr.jsonl"
    assert main(["translate", "--suite", str(suite_path), "--adapter", spec, "--lang", "es",
                 "--system", "s", "--out", str(out), "--max-retries", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(spec) in err and "Traceback" not in err
    assert not (tmp_path / "tr.jsonl.partial").exists()


@pytest.mark.parametrize("spec", ["cmd:", "cmd:   "], ids=["empty", "blank"])
def test_translate_rejects_an_empty_command_spec(tmp_path, suite_path, capsys, monkeypatch, spec):
    def run_command(*args):
        raise AssertionError("a backend was started")

    monkeypatch.setattr(adapter, "_run_command", run_command)
    out = tmp_path / "tr.jsonl"
    assert main(["translate", "--suite", str(suite_path), "--adapter", spec, "--lang", "es",
                 "--system", "s", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: adapter spec {spec!r} must be cmd:<command> with a non-empty command\n"
    assert not (tmp_path / "tr.jsonl.partial").exists()


@pytest.mark.parametrize("flags", [["--adapter", "ftp:x"], ["--adapter", "cmd:"], ["--batch-size", "0"]],
                         ids=["unknown-adapter", "empty-command", "batch-size"])
def test_translate_checks_its_settings_before_reading_the_suite(tmp_path, suite_path, monkeypatch, flags):
    reads = []
    read = gnt.cli.parse_suite

    def parse_suite(path):
        reads.append(path)
        return read(path)

    monkeypatch.setattr(gnt.cli, "parse_suite", parse_suite)
    argv = ["translate", "--suite", str(suite_path), "--adapter", "cmd:cat", "--lang", "es",
            "--system", "s", "--out", str(tmp_path / "tr.jsonl")]
    assert main(argv + flags) == 2
    assert reads == []


def test_translate_rejects_a_newline_in_an_id_before_any_batch(tmp_path, suite_path, capsys):
    lines = suite_path.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[3])
    record["id"] = "T1-bad\nid"
    lines[3] = json.dumps(record, ensure_ascii=False) + "\n"
    suite_path.write_text("".join(lines), encoding="utf-8")
    spawns = tmp_path / "spawns"
    adapter = f"cmd:sh -c 'echo x >> {spawns}; cat'"
    assert main(["translate", "--suite", str(suite_path), "--adapter", adapter, "--lang", "es",
                 "--system", "s", "--out", str(tmp_path / "tr.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr("T1-bad\nid") in err and "Traceback" not in err
    assert not spawns.exists()


def _score_with_extra_row(tmp_path, suite_path, command: str, file: str, row: bytes) -> tuple[int, int]:
    """Run `command` on one es translation with `row` appended to a copy of the es `file`.

    Returns the exit code and the line number the appended row has in the file.
    """
    lexicons = tmp_path / "lexicons"
    shutil.copytree(lexicon_dir() / "es", lexicons / "es")
    table = lexicons / "es" / file
    rows = table.read_bytes()
    table.write_bytes(rows + row)
    first = json.loads(suite_path.read_text(encoding="utf-8").splitlines()[0])
    translations = tmp_path / "translations.jsonl"
    translations.write_text(json.dumps({"system": "s", "lang": "es", "id": first["id"], "text": "fuerte"}) + "\n",
                            encoding="utf-8")
    argv = {
        "score": ["--suite", str(suite_path), "--lang", "es", "--out", str(tmp_path / "scores.jsonl")],
        "run": ["--manifest", str(demo_manifest_path()), "--out-dir", str(tmp_path / "out")],
    }[command]
    code = main([command, "--translations", str(translations), "--lexicon-dir", str(lexicons)] + argv)
    return code, rows.count(b"\n") + 1


@pytest.mark.parametrize("command", ["score", "run"])
def test_non_utf8_lexicon_row_is_an_error_naming_the_line(tmp_path, suite_path, capsys, command):
    code, line = _score_with_extra_row(tmp_path, suite_path, command, "lexicon.csv", b"fuerte,fuert\xe9,m\n")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"lexicon.csv:{line}: not UTF-8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["score", "run"])
@pytest.mark.parametrize("file, row, message", [
    ("patterns.csv", b"slash,oa\n", "slash pattern template must name one alternation like 'o/a', got 'oa'"),
    ("lexicon.csv", b"fit,fuerte,m\n", "form 'fuerte' for lemma 'fit' listed as both 'common' and 'm'"),
    ("lexicon.csv", b"fit,fuerto,neu\n", "'fit'/'fuerto': Spanish adjectives have no neuter case"),
], ids=["bad-pattern-template", "conflicting-genders", "spanish-neuter"])
def test_invalid_lexicon_row_is_an_error_naming_the_line(tmp_path, suite_path, capsys, command, file, row, message):
    code, line = _score_with_extra_row(tmp_path, suite_path, command, file, row)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'lexicons' / 'es' / file}:{line}: {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize("threshold, records", [("nan", 0), ("-1", 1)], ids=["nan-no-records", "negative-with-records"])
def test_run_rejects_a_bad_threshold_before_writing(tmp_path, suite_path, capsys, threshold, records):
    first = json.loads(suite_path.read_text(encoding="utf-8").splitlines()[0])
    translations = tmp_path / "translations.jsonl"
    record = json.dumps({"system": "s", "lang": "es", "id": first["id"], "text": "fuerte"}) + "\n"
    translations.write_text(record * records, encoding="utf-8")
    out = tmp_path / "out"
    code = main(["run", "--manifest", str(demo_manifest_path()), "--translations", str(translations),
                 "--lexicon-dir", str(lexicon_dir()), f"--threshold={threshold}", "--out-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: threshold must be a finite non-negative number") and "Traceback" not in err
    assert not out.exists()


# a complete metrics document of a suite with no instances for any section
_VALID_HEAD = {
    "system": "s", "lang": "es", "threshold": 0.07,
    "baseline": None, "omission_response": None, "active_response": None, "stereotype": None,
    "coverage": {"subsets": {}, "orphan_translations": 0, "missing_translations": 0},
}
_DELETE = object()


def _golden_metrics_with(*steps, value=_DELETE):
    """The golden metrics document with the field at `steps` set to `value`, or deleted."""
    doc = json.loads((GOLDEN / "metrics_echo_sensitive_es.json").read_text(encoding="utf-8"))
    *parents, last = steps
    target = doc
    for step in parents:
        target = target[step]
    if value is _DELETE:
        del target[last]
    else:
        target[last] = value
    return doc


def _golden_metrics_without_split():
    """The golden metrics document with the baseline macro's n1..n5 all null."""
    doc = _golden_metrics_with("baseline", "macro", "n1", value=None)
    doc["baseline"]["macro"].update(dict.fromkeys(("n2", "n3", "n4", "n5")))
    return doc


def test_report_renders_the_valid_head(tmp_path, capsys):
    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps(_VALID_HEAD), encoding="utf-8")
    assert main(["report", "--metrics", str(metrics)]) == 0
    assert "Missing translations: 0" in capsys.readouterr().out


@pytest.mark.parametrize("steps", [
    ("baseline",),
    ("omission_response",),
    ("active_response",),
    ("stereotype",),
    ("coverage",),
    ("omission_response", "macro", "delta_ni"),
    ("active_response", "per_family", "T5", "delta_ni"),
    ("stereotype", "significant_g"),
    ("coverage", "subsets"),
    ("coverage", "orphan_translations"),
    ("coverage", "missing_translations"),
], ids=".".join)
def test_report_names_a_missing_metrics_field(tmp_path, capsys, steps):
    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps(_golden_metrics_with(*steps)), encoding="utf-8")
    assert main(["report", "--metrics", str(metrics)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {metrics}:") and f"missing field {'.'.join(steps)!r}" in err


@pytest.mark.parametrize("doc", [
    {"system": "s"},
    {"baseline": 5},
    {**_VALID_HEAD, "system": 5},
    {**_VALID_HEAD, "threshold": "0.07"},
    {**_VALID_HEAD, "threshold": True},
    {**_VALID_HEAD, "coverage": None},
    {**_VALID_HEAD, "baseline": 5},
    {**_VALID_HEAD, "omission_response": []},
    {**_VALID_HEAD, "stereotype": "none"},
    {**_VALID_HEAD, "coverage": {"subsets": 5}},
    {**_VALID_HEAD, "baseline": {"families": 5}},
    _golden_metrics_with("baseline", "families", value=["T1", 2]),
    _golden_metrics_with("baseline", "families", value=["T1", "T9"]),
    _golden_metrics_with("baseline", "macro", "m", value="1.0"),
    _golden_metrics_with("baseline", "per_family", "T2", "count", value=24.0),
    _golden_metrics_with("baseline", "per_family", "T2", "u_count", value=None),
    _golden_metrics_with("baseline", "per_family", "T2", "n3", value=None),
    _golden_metrics_with("omission_response", "macro", "delta_n", value=None),
    _golden_metrics_with("omission_response", "per_family", "T3", "significant_m", value="true"),
    _golden_metrics_with("omission_response", "per_family", "T3", "delta_ni", value=[0.0, 0.0, 0.0, 0.0]),
    _golden_metrics_with("active_response", "per_family", value=[]),
    _golden_metrics_with("active_response", "per_family", "T5", "amb", value=None),
    _golden_metrics_with("stereotype", "stereo_f", value={"m": 1.0}),
    _golden_metrics_with("stereotype", "delta_g_avg", value=False),
    _golden_metrics_with("coverage", "subsets", "T1-Det", value=5),
    _golden_metrics_with("coverage", "subsets", "T1-Det", "classified", value="24"),
    _golden_metrics_with("coverage", "missing_translations", value=0.5),
    _golden_metrics_without_split(),
    _golden_metrics_with("active_response", "macro", "delta_ni", value=None),
], ids=["system-only", "baseline-int", "system-int", "threshold-string", "threshold-bool", "coverage-null",
        "baseline-in-valid-head", "omission-list", "stereotype-string", "subsets-int", "families-int",
        "non-string-family", "family-without-entry", "string-share", "float-count", "null-u-count",
        "one-null-strategy", "null-delta", "string-significance", "four-strategy-deltas", "per-family-list",
        "null-amb", "partial-breakdown", "bool-delta", "int-subset-cell", "string-classified", "float-missing",
        "null-strategy-split", "null-strategy-deltas"])
def test_report_rejects_a_malformed_metrics_document(tmp_path, capsys, doc):
    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["report", "--metrics", str(metrics)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {metrics}:") and "Traceback" not in err


@pytest.mark.parametrize("doc, field", [
    (_golden_metrics_without_split(), "baseline.macro.n1"),
    (_golden_metrics_with("active_response", "macro", "delta_ni", value=None), "active_response.macro.delta_ni"),
], ids=["null-strategy-split", "null-strategy-deltas"])
def test_report_names_a_null_strategy_field(tmp_path, capsys, doc, field):
    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["report", "--metrics", str(metrics)]) == 2
    assert f": {field} must be " in capsys.readouterr().err


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_report_rejects_a_number_that_is_not_json(tmp_path, capsys, constant):
    metrics = tmp_path / "metrics.json"
    text = json.dumps(_golden_metrics_with("baseline", "macro", "m", value=12345.5)).replace("12345.5", constant)
    metrics.write_text(text, encoding="utf-8")
    assert main(["report", "--metrics", str(metrics)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {metrics}:") and constant in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["generate", "validate", "translate", "score", "metrics", "report", "run"])
def test_every_command_reports_a_missing_input_file(tmp_path, capsys, command):
    missing = str(tmp_path / "missing.jsonl")
    out = str(tmp_path / "out")
    argv = {
        "generate": ["--manifest", missing, "--out", out],
        "validate": ["--suite", missing],
        "translate": ["--suite", missing, "--adapter", "cmd:cat", "--lang", "es", "--system", "s", "--out", out],
        "score": ["--suite", missing, "--translations", missing, "--lexicon-dir", str(lexicon_dir()),
                  "--lang", "es", "--out", out],
        "metrics": ["--scores", missing, "--suite", missing, "--lang", "es", "--out", out],
        "report": ["--metrics", missing],
        "run": ["--manifest", str(demo_manifest_path()), "--translations", missing,
                "--lexicon-dir", str(lexicon_dir()), "--out-dir", out],
    }[command]
    assert main([command] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and missing in err
    assert "Traceback" not in err

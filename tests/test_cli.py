from __future__ import annotations

import gc
import importlib
import json
import os
import pkgutil
import random
import re
import shutil
import subprocess
import sys
import threading
import tracemalloc
import weakref
from enum import Enum
from pathlib import Path

import pytest

import gnt
import gnt.cli
import gnt.pipeline
from gnt import (
    Language,
    SlotScore,
    TemplateFamily,
    adapter,
    expand_template,
    generate_suite,
    parse_manifest,
    parse_translations,
    write_suite,
    write_translations,
)
from gnt.cli import build_parser, main
from gnt.errors import DuplicateRecord
from gnt.data import demo_manifest_path, full_scale_manifest_path, lexicon_dir
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


@pytest.mark.parametrize("field, words", [
    ("adjectives", ["fit", ""]), ("adverbs_masculine", [" "]), ("adverbs_feminine", ["\t"]),
])
def test_generate_rejects_a_blank_word_in_the_manifest(tmp_path, capsys, field, words):
    manifest = tmp_path / "manifest.json"
    doc = {"adjectives": ["fit", "tall"], "quotas": {"T1-Det": 2, "T7-None": 1}}
    manifest.write_text(json.dumps({**doc, field: words}), encoding="utf-8")
    out = tmp_path / "suite.jsonl"
    assert main(["generate", "--manifest", str(manifest), "--out", str(out)]) == 2
    index = len(words) - 1
    assert capsys.readouterr().err == f"error: {manifest}: {field}.{index} must be a non-blank string, got {words[index]!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("side, word", [("masculine", ""), ("feminine", " ")])
def test_generate_rejects_a_blank_word_in_a_descriptor_pair(tmp_path, capsys, side, word):
    manifest = tmp_path / "manifest.json"
    pairs = [{"masculine": "strong doctor", "feminine": "pretty nurse"}, {"masculine": "tall judge", "feminine": "kind nun"}]
    pairs[1][side] = word
    doc = {"adjectives": ["fit", "tall"], "descriptor_pairs": pairs, "quotas": {"T5-Det": 2, "T5-Amb": 1}}
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "suite.jsonl"
    assert main(["generate", "--manifest", str(manifest), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {manifest}: descriptor_pairs.1.{side} must be a non-blank string, got {word!r}\n"
    assert not out.exists()


def test_generate_reports_violations_and_fails(tmp_path, capsys):
    """A descriptor holding a gendered pronoun leaks it into T5's ambiguous members: generate fails as validate does."""
    manifest = tmp_path / "manifest.json"
    doc = json.loads(demo_manifest_path().read_text(encoding="utf-8"))
    doc["descriptor_pairs"][0]["masculine"] = "he-man"
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "suite.jsonl"
    assert main(["generate", "--manifest", str(manifest), "--out", str(out)]) == 1
    violations = [line for line in capsys.readouterr().err.splitlines() if line.startswith("violation: ")]
    assert len(violations) == 6
    assert all(re.fullmatch(r"violation: leakage: T5-\d{6}a is ambiguous but contains he", v) for v in violations)
    assert main(["validate", "--suite", str(out), "--manifest", str(manifest)]) == 1
    assert capsys.readouterr().err.splitlines() == violations


def test_validate_flags_corrupted_suite(tmp_path, suite_path, capsys):
    lines = suite_path.read_text(encoding="utf-8").splitlines()
    kept = [line for line in lines if json.loads(line)["id"] != "T3-000000d"]
    corrupted = tmp_path / "corrupted.jsonl"
    corrupted.write_text("\n".join(kept) + "\n", encoding="utf-8")
    assert main(["validate", "--suite", str(corrupted)]) == 1
    assert "violation" in capsys.readouterr().err


def _rewrite_suite(suite_path, out, edit):
    """Copy a suite file to `out`, passing each record through `edit`."""
    records = [json.loads(line) for line in suite_path.read_text(encoding="utf-8").splitlines()]
    for record in records:
        edit(record)
    out.write_text("".join(json.dumps(record, ensure_ascii=False) + "\n" for record in records), encoding="utf-8")
    return out


def test_validate_ignores_bindings_that_disagree_with_the_slots(tmp_path, suite_path, capsys):
    def edit(record):
        bindings = record["bindings"]
        for key, value in (("first_person", True), ("pronoun", "he")):
            if key in bindings:
                bindings[key] = value

    assert main(["validate", "--suite", str(suite_path)]) == 0
    expected = capsys.readouterr()
    edited = _rewrite_suite(suite_path, tmp_path / "edited.jsonl", edit)
    assert main(["validate", "--suite", str(edited)]) == 0
    assert capsys.readouterr() == expected


def test_validate_counts_t5_pronouns_from_the_slots(tmp_path, suite_path, capsys):
    edited = []

    def edit(record):
        slot = record["slots"][0]
        if record["family"] == "T5" and slot["gender_kind"] == "determined_masculine" and not edited:
            slot["gender_kind"] = "determined_feminine"  # its bindings still say "he"
            edited.append(record["id"])

    assert main(["validate", "--suite", str(suite_path)]) == 0
    assert "T5 pronouns he/she/they: 20/20/20" in capsys.readouterr().out
    path = _rewrite_suite(suite_path, tmp_path / "edited.jsonl", edit)
    assert main(["validate", "--suite", str(path)]) == 1
    out, err = capsys.readouterr()
    assert "T5 pronouns he/she/they: 19/21/20" in out
    assert "violation: imbalance: T5 pronouns he/she/they split 19/21/20" in err.splitlines()


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
    """Two systems in two languages: each group's split-path files equal `gnt run`'s."""
    lines = {}
    for lang in ("es", "cs"):
        out = tmp_path / f"sensitive_{lang}.jsonl"
        lexicon = lexicon_dir() / lang / "lexicon.csv"
        adapter = "cmd:" + backend_command("--mode", "sensitive", "--lexicon", str(lexicon))
        assert main(["translate", "--suite", str(suite_path), "--adapter", adapter,
                     "--lang", lang, "--system", "demo-sys", "--out", str(out)]) == 0
        lines[lang] = out.read_text(encoding="utf-8").splitlines()
    instances = [json.loads(line) for line in suite_path.read_text(encoding="utf-8").splitlines()]
    # a second system that copies the English source, for a different share of the instances per language
    echoed = [json.dumps({"system": "echo-sys", "lang": lang, "id": instance["id"], "text": instance["source_text"]})
              for lang, step in (("es", 3), ("cs", 4)) for instance in instances[::step]]
    kept = lines["es"][::2] + lines["cs"][1::2] + echoed
    kept.append(json.dumps({"system": "demo-sys", "lang": "es", "id": "orphan-1", "text": "hola"}))
    translations = tmp_path / "translations.jsonl"
    translations.write_text("\n".join(kept) + "\n", encoding="utf-8")

    out_dir = tmp_path / "out"
    assert main(["run", "--manifest", str(demo_manifest_path()), "--translations", str(translations),
                 "--lexicon-dir", str(lexicon_dir()), "--out-dir", str(out_dir)]) == 0
    groups = [(system, lang) for system in ("demo-sys", "echo-sys") for lang in ("cs", "es")]
    for system, lang in groups:
        stem = f"{system}_{lang}"
        scores, metrics, report = (tmp_path / f"{name}_{stem}" for name in ("scores", "metrics", "report"))
        assert main(["score", "--suite", str(suite_path), "--translations", str(translations), "--system", system,
                     "--lexicon-dir", str(lexicon_dir()), "--lang", lang, "--out", str(scores)]) == 0
        assert main(["metrics", "--scores", str(scores), "--suite", str(suite_path),
                     "--system", system, "--lang", lang, "--out", str(metrics)]) == 0
        assert main(["report", "--metrics", str(metrics), "--format", "md", "--out", str(report)]) == 0

        assert scores.read_bytes() == (out_dir / f"scores_{stem}.jsonl").read_bytes(), stem
        split = json.loads(metrics.read_text(encoding="utf-8"))
        run = json.loads((out_dir / f"metrics_{stem}.json").read_text(encoding="utf-8"))
        # scores carry no orphan information, so only the run path can count orphans
        orphans = int((system, lang) == ("demo-sys", "es"))
        assert (split["coverage"].pop("orphan_translations"), run["coverage"].pop("orphan_translations")) == (0, orphans)
        assert split == run, stem
        expected = report.read_text(encoding="utf-8").replace("Orphan translations: 0\n", f"Orphan translations: {orphans}\n")
        assert expected.encode("utf-8") == (out_dir / f"report_{stem}.md").read_bytes(), stem
    run = json.loads((out_dir / "metrics_demo-sys_es.json").read_text(encoding="utf-8"))
    assert run["coverage"]["missing_translations"] == len(lines["es"]) - len(lines["es"][::2])
    assert sorted(path.name for path in out_dir.glob("report_*.md")) == sorted(f"report_{s}_{l}.md" for s, l in groups)


def _echo_translations(tmp_path, langs: tuple[str, ...]) -> Path:
    """A translations file that copies the demo suite's English source for each of `langs`."""
    suite = generate_suite(parse_manifest(demo_manifest_path()))
    path = tmp_path / "translations.jsonl"
    write_translations({("echo", Language(lang)): {i.id: i.source_text for i in suite} for lang in langs}, path)
    return path


def _run_argv(translations: Path, out_dir: Path) -> list[str]:
    return ["run", "--manifest", str(demo_manifest_path()), "--translations", str(translations),
            "--lexicon-dir", str(lexicon_dir()), "--out-dir", str(out_dir)]


def test_run_holds_one_groups_scores_at_a_time(tmp_path, monkeypatch):
    """When a group is scored, no score of an earlier group is alive."""
    alive: list[int] = []
    score_group = gnt.pipeline.score_group

    def counted(*args, **kwargs):
        gc.collect()
        alive.append(sum(1 for obj in gc.get_objects() if type(obj) is SlotScore))
        return score_group(*args, **kwargs)

    monkeypatch.setattr(gnt.pipeline, "score_group", counted)
    assert main(_run_argv(_echo_translations(tmp_path, ("es", "cs")), tmp_path / "out")) == 0
    # the scores alive at the first group's entry belong to no group of this run
    assert len(alive) == 2 and alive[1] == alive[0]


class _Texts(dict):
    """A group's id -> text map that a weak reference can name."""

    __slots__ = ("__weakref__",)


def _parse_weakly(parse, maps: list[weakref.ref]):
    """`parse`, a `parse_translations`, that names each map it returns in `maps`; offsets it returns as they are."""
    def parse_weakly(path, *args, **kwargs):
        groups = {key: _Texts(texts) if type(texts) is dict else texts
                  for key, texts in parse(path, *args, **kwargs).items()}
        maps.extend(weakref.ref(texts) for texts in groups.values() if type(texts) is _Texts)
        return groups
    return parse_weakly


def test_run_frees_each_groups_translations_once_it_is_scored(tmp_path, monkeypatch):
    """At each group's entry its map is the only one built yet alive: the maps of the groups scored before it are
    dead, and no later group's map is built."""
    score_group = gnt.pipeline.score_group
    maps: list[weakref.ref] = []
    entries: list[list[bool]] = []

    def watched(*args, **kwargs):
        gc.collect()
        entries.append([ref() is not None for ref in maps])
        return score_group(*args, **kwargs)

    monkeypatch.setattr(gnt.pipeline, "parse_translations", _parse_weakly(gnt.pipeline.parse_translations, maps))
    monkeypatch.setattr(gnt.pipeline, "score_group", watched)
    translations = _echo_translations(tmp_path, ("es", "cs", "is"))
    assert main(_run_argv(translations, tmp_path / "out")) == 0
    assert entries == [[True], [False, True], [False, False, True]]
    assert [ref() for ref in maps] == [None, None, None]


def test_the_check_pass_of_gnt_run_holds_no_text(tmp_path, full_scale_manifest):
    """Over a three-group full-scale file, the pass that checks every line and returns each group's line offsets
    holds less than a quarter of one group's texts once it returns, and at its peak less than half."""
    suite = generate_suite(full_scale_manifest)
    known_ids = {instance.id: instance for instance in suite}
    translations = tmp_path / "translations.jsonl"
    write_translations({("echo", Language(lang)): {i.id: i.source_text for i in suite} for lang in ("cs", "es", "is")},
                       translations)
    texts = parse_translations(translations, known_ids, language=Language.CS)["echo", Language.CS]
    one_group = sys.getsizeof(texts) + sum(map(sys.getsizeof, texts.values()))
    del texts
    tracemalloc.start()
    try:
        offsets = parse_translations(translations, known_ids, offsets=True)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(lines) for lines in offsets.values()] == [len(suite)] * 3
    assert held < one_group / 4 and peak < one_group / 2, (held, peak, one_group)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="names the pipe /dev/fd/N, as a shell's <(...) does")
def test_run_reads_piped_translations_once_to_the_outputs_of_a_file(tmp_path, monkeypatch, capsys):
    """A pipe cannot be read twice: its groups' texts are kept from the one read, and the outputs and stdout are
    those of a run on the file, which reads each group again when it is scored."""
    translations = _echo_translations(tmp_path, ("es", "cs", "is"))
    parse, calls = gnt.pipeline.parse_translations, []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return parse(*args, **kwargs)

    monkeypatch.setattr(gnt.pipeline, "parse_translations", counted)
    assert main(_run_argv(translations, tmp_path / "file")) == 0
    assert len(calls) == 1 + 3
    from_file = capsys.readouterr().out
    calls.clear()
    read_end, write_end = os.pipe()

    def feed():
        with open(write_end, "wb") as fh:
            fh.write(translations.read_bytes())

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        code = main(_run_argv(Path(f"/dev/fd/{read_end}"), tmp_path / "pipe"))
    finally:
        writer.join(timeout=30)
        os.close(read_end)
    assert not writer.is_alive()
    assert code == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == from_file.replace(str(tmp_path / "file"), str(tmp_path / "pipe"))
    assert _tree(tmp_path / "pipe") == _tree(tmp_path / "file")


def _shuffled(text: str) -> str:
    lines = text.splitlines(keepends=True)
    random.Random(5).shuffle(lines)
    return "".join(lines)


def _repeated(text: str) -> str:
    """A cs line written over a later one that is as long: one id twice in the lines of the group scored first."""
    lines = text.splitlines(keepends=True)
    first: dict[int, int] = {}  # byte length -> the first cs line of that length
    for i, line in enumerate(lines):
        if json.loads(line)["lang"] != "cs":
            continue
        j = first.setdefault(len(line.encode()), i)
        if j != i:
            lines[i] = lines[j]
            return "".join(lines)
    raise AssertionError("no two cs lines are as long")


@pytest.mark.parametrize("rewrite", [
    _shuffled,
    # each line as long as it was: of another system, with a language that is no string, or no JSON
    lambda text: text.replace('"echo"', '"ECHO"'),
    lambda text: text.replace('"lang": "cs", ', '"lang": 1234, '),
    lambda text: text.replace('{"system"', '["system"'),
    _repeated,
    lambda text: text.replace('"text": "', '"text": "x', 1),  # every later line one byte on
    lambda text: text[:len(text) // 2],
], ids=["shuffled", "renamed", "reshaped", "not-json", "repeated", "shifted", "truncated"])
def test_run_stops_when_the_translations_change_between_its_reads(tmp_path, monkeypatch, capsys, rewrite):
    """A file rewritten after it is checked, before its groups are read again: exit 2 and a message naming it."""
    translations = _echo_translations(tmp_path, ("es", "cs"))
    parse = gnt.pipeline.parse_translations

    def parse_then_rewrite(path, *args, **kwargs):
        groups = parse(path, *args, **kwargs)
        if kwargs.get("offsets"):
            translations.write_text(rewrite(translations.read_text(encoding="utf-8")), encoding="utf-8")
        return groups

    monkeypatch.setattr(gnt.pipeline, "parse_translations", parse_then_rewrite)
    assert main(_run_argv(translations, tmp_path / "out")) == 2
    assert capsys.readouterr().err == f"error: {translations}: changed while it was read\n"
    assert [path.name for path in (tmp_path / "out").iterdir()] == ["suite.jsonl"]


def test_run_scores_each_group_on_the_suites_own_ids_and_holds_no_bindings(tmp_path, monkeypatch):
    """Once the suite file is written, the run's instances hold no bindings; each group's map is keyed by the suite's
    own id strings, and once `score_suite` has scored it, it holds exactly the group's orphan ids."""
    score_group, score_suite = gnt.pipeline.score_group, gnt.pipeline.score_suite
    entries: list[tuple[bool, bool]] = []
    left: list[list[str]] = []

    def watched(suite, known_ids, texts, resources):
        translated = [key for key in texts if key in known_ids]
        entries.append((all(instance.bindings == {} for instance in suite),
                        bool(translated) and all(key is known_ids[key].id for key in translated)))
        return score_group(suite, known_ids, texts, resources)

    def scored(suite, texts, resources):
        scores = score_suite(suite, texts, resources)
        left.append(list(texts))
        return scores

    monkeypatch.setattr(gnt.pipeline, "score_group", watched)
    monkeypatch.setattr(gnt.pipeline, "score_suite", scored)
    translations = _echo_translations(tmp_path, ("es", "cs"))
    orphans = {"es": ["orphan-1", "orphan-2"], "cs": ["orphan-3"]}
    with translations.open("a", encoding="utf-8") as fh:
        fh.writelines(json.dumps({"system": "echo", "lang": lang, "id": instance_id, "text": "x"}) + "\n"
                      for lang, ids in orphans.items() for instance_id in ids)
    assert main(_run_argv(translations, tmp_path / "out")) == 0
    assert entries == [(True, True), (True, True)]
    assert left == [orphans["cs"], orphans["es"]]  # cs is scored first
    # the suite file was written with every instance's bindings
    expected = tmp_path / "expected.jsonl"
    write_suite(generate_suite(parse_manifest(demo_manifest_path())), expected)
    assert (tmp_path / "out" / "suite.jsonl").read_bytes() == expected.read_bytes()


def _tree(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def test_run_does_not_depend_on_the_order_of_the_translations_file(tmp_path, capsys):
    """Shuffled lines, whose groups interleave, give the grouped file's outputs and its duplicate message."""
    grouped = _echo_translations(tmp_path, ("es", "cs"))
    lines = grouped.read_text(encoding="utf-8").splitlines(keepends=True)
    lines += [line.replace('"echo"', '"other"') for line in lines[::3]]
    lines.append(json.dumps({"system": "echo", "lang": "es", "id": "orphan-1", "text": "hola"}) + "\n")
    grouped.write_text("".join(lines), encoding="utf-8")
    shuffled = tmp_path / "shuffled.jsonl"
    random.Random(7).shuffle(lines)
    shuffled.write_text("".join(lines), encoding="utf-8")
    keys = [(record["system"], record["lang"]) for record in map(json.loads, lines)]
    assert sum(a != b for a, b in zip(keys, keys[1:])) > 100  # the four groups interleave

    assert main(_run_argv(grouped, tmp_path / "grouped")) == 0
    assert main(_run_argv(shuffled, tmp_path / "shuffled")) == 0
    expected = _tree(tmp_path / "grouped")
    assert len(expected) == 1 + 3 * 4
    assert _tree(tmp_path / "shuffled") == expected
    assert json.loads(expected["metrics_echo_es.json"])["coverage"]["orphan_translations"] == 1

    # a copy of a line, put between later lines of other groups
    first = 40
    lines.insert(300, lines[first])
    shuffled.write_text("".join(lines), encoding="utf-8")
    record = json.loads(lines[first])
    message = (f"{shuffled}:301: duplicate record for {(record['system'], record['lang'], record['id'])} "
               f"(first seen on line {first + 1})")
    with pytest.raises(DuplicateRecord) as excinfo:
        parse_translations(shuffled)
    assert str(excinfo.value) == message
    capsys.readouterr()
    assert main(_run_argv(shuffled, tmp_path / "dup")) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert main(["score", "--suite", str(tmp_path / "grouped" / "suite.jsonl"), "--translations", str(shuffled),
                 "--lexicon-dir", str(lexicon_dir()), "--lang", record["lang"], "--system", record["system"],
                 "--out", str(tmp_path / "scores.jsonl")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_split_path_counts_the_orphans_of_its_group(tmp_path, suite_path, capsys):
    """`score` -> `metrics --translations` writes `gnt run`'s metrics document, orphan count included."""
    translations = _echo_translations(tmp_path, ("es", "cs"))
    lines = translations.read_text(encoding="utf-8").splitlines(keepends=True)
    lines += [line.replace('"echo"', '"other"') for line in lines[::2]]
    orphans = {("echo", "es"): 2, ("echo", "cs"): 1, ("other", "es"): 3, ("other", "cs"): 0}
    lines += [json.dumps({"system": system, "lang": lang, "id": f"orphan-{i}", "text": "x"}) + "\n"
              for (system, lang), count in orphans.items() for i in range(count)]
    translations.write_text("".join(lines), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(_run_argv(translations, out_dir)) == 0
    for (system, lang), count in orphans.items():
        stem = f"{system}_{lang}"
        scores, metrics = tmp_path / f"scores_{stem}.jsonl", tmp_path / f"metrics_{stem}.json"
        assert main(["score", "--suite", str(suite_path), "--translations", str(translations), "--system", system,
                     "--lexicon-dir", str(lexicon_dir()), "--lang", lang, "--out", str(scores)]) == 0
        assert main(["metrics", "--scores", str(scores), "--suite", str(suite_path), "--system", system,
                     "--lang", lang, "--translations", str(translations), "--out", str(metrics)]) == 0
        assert metrics.read_bytes() == (out_dir / f"metrics_{stem}.json").read_bytes(), stem
        assert json.loads(metrics.read_text(encoding="utf-8"))["coverage"]["orphan_translations"] == count

    capsys.readouterr()
    assert main(["metrics", "--scores", str(scores), "--suite", str(suite_path), "--system", "nobody",
                 "--lang", "cs", "--translations", str(translations), "--out", str(tmp_path / "m.json")]) == 2
    assert capsys.readouterr().err == (
        f"error: {translations}: no translations for system 'nobody' and language 'cs'\n")
    assert not (tmp_path / "m.json").exists()


def _traced_peak(argv: list[str]) -> int:
    """The traced peak of Python allocations, in bytes, while `gnt` runs `argv`."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_score_and_metrics_keep_the_texts_of_their_group_only(tmp_path, suite_path):
    """`score` and `metrics --translations` on a three-group file peak as on the file of their group alone."""
    suite = generate_suite(parse_manifest(demo_manifest_path()))
    own = {instance.id: instance.source_text for instance in suite}
    # the texts of the other two groups weigh 2 x 4,000 bytes per instance
    other = {instance.id: "x" * 4000 for instance in suite}
    one, three = tmp_path / "one.jsonl", tmp_path / "three.jsonl"
    write_translations({("echo", Language.ES): own}, one)
    write_translations({("echo", Language.CS): other, ("echo", Language.ES): own, ("other", Language.ES): other}, three)
    other_bytes = 2 * sum(map(len, other.values()))

    def peaks(translations: Path) -> tuple[int, int]:
        scores = tmp_path / f"scores_{translations.stem}.jsonl"
        score = _traced_peak(["score", "--suite", str(suite_path), "--translations", str(translations),
                              "--lexicon-dir", str(lexicon_dir()), "--lang", "es", "--system", "echo",
                              "--out", str(scores)])
        metrics = _traced_peak(["metrics", "--scores", str(scores), "--suite", str(suite_path), "--system", "echo",
                                "--lang", "es", "--translations", str(translations),
                                "--out", str(tmp_path / f"metrics_{translations.stem}.json")])
        return score, metrics

    peaks(one)  # a first run loads what any run loads once
    alone, among = peaks(one), peaks(three)
    assert all(b - a < other_bytes / 4 for a, b in zip(alone, among)), (alone, among, other_bytes)
    for name in ("scores_{}.jsonl", "metrics_{}.json"):
        assert (tmp_path / name.format("one")).read_bytes() == (tmp_path / name.format("three")).read_bytes()


def test_score_checks_the_groups_it_drops_in_one_table_of_ids(tmp_path, suite_path):
    """Each group that `gnt score --system --lang` does not keep adds almost nothing to its peak: the groups share
    one table over their distinct ids."""
    suite = generate_suite(parse_manifest(demo_manifest_path()))
    own = {instance.id: instance.source_text for instance in suite}
    # 2,000 ids per dropped group: a map of them alone would weigh about 80 KB
    other = {f"other-{i:06d}": "x" for i in range(2000)}

    def peak(dropped: int) -> int:
        translations = tmp_path / f"translations_{dropped}.jsonl"
        write_translations({("echo", Language.ES): own,
                            **{(f"sys{k:02d}", Language.CS): other for k in range(dropped)}}, translations)
        return _traced_peak(["score", "--suite", str(suite_path), "--translations", str(translations),
                             "--lexicon-dir", str(lexicon_dir()), "--lang", "es", "--system", "echo",
                             "--out", str(tmp_path / "scores.jsonl")])

    peak(1)  # a first run loads what any run loads once
    few, many = peak(4), peak(16)
    assert (many - few) / 12 < 20_000, (few, many)


def test_score_lists_the_languages_systems_and_checks_every_group(tmp_path, suite_path, capsys):
    """Without --system, the language's several systems are named; a duplicate in a group that is not scored is
    still the duplicate message."""
    translations = _echo_translations(tmp_path, ("es", "cs"))
    lines = translations.read_text(encoding="utf-8").splitlines(keepends=True)
    lines += [line.replace('"echo"', '"other"') for line in lines if '"cs"' in line]
    translations.write_text("".join(lines), encoding="utf-8")
    argv = ["score", "--suite", str(suite_path), "--translations", str(translations),
            "--lexicon-dir", str(lexicon_dir()), "--out", str(tmp_path / "scores.jsonl")]
    capsys.readouterr()
    assert main(argv + ["--lang", "cs"]) == 2
    assert capsys.readouterr().err == "error: translations carry several systems (echo, other); pass --system\n"
    assert main(argv + ["--lang", "es"]) == 0

    lines.append(lines[-1])
    translations.write_text("".join(lines), encoding="utf-8")
    record = json.loads(lines[-1])
    message = (f"{translations}:{len(lines)}: duplicate record for {('other', 'cs', record['id'])} "
               f"(first seen on line {len(lines) - 1})")
    capsys.readouterr()
    assert main(argv + ["--lang", "es", "--system", "echo"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert main(["metrics", "--scores", str(tmp_path / "scores.jsonl"), "--suite", str(suite_path),
                 "--system", "echo", "--lang", "es", "--translations", str(translations),
                 "--out", str(tmp_path / "m.json")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _gnt_enums() -> list[type[Enum]]:
    """Every Enum class that a gnt module defines."""
    enums = []
    for info in pkgutil.walk_packages(gnt.__path__, "gnt."):
        module = importlib.import_module(info.name)
        enums += [value for value in vars(module).values()
                  if isinstance(value, type) and issubclass(value, Enum) and value.__module__ == info.name]
    return enums


def test_every_gnt_enum_hashes_by_identity():
    enums = _gnt_enums()
    assert {"GenderLabel", "Language", "TemplateFamily", "GenderKind"} <= {cls.__name__ for cls in enums}
    for cls in enums:
        assert cls.__hash__ is object.__hash__, cls
        assert all(hash(member) == object.__hash__(member) for member in cls), cls


# Allocates some objects before gnt is imported, so the Enum members, and with
# them their identity hashes and the order a set of them iterates in, move;
# prints that order for every gnt Enum to stderr, then runs `gnt` on argv[2:].
_RUN_WITH_BALLAST = """
import importlib, json, pkgutil, sys
from enum import Enum

class Ballast:
    pass

ballast = [Ballast() for _ in range(int(sys.argv[1]))]
import gnt
from gnt.cli import main

orders = []
for info in pkgutil.walk_packages(gnt.__path__, "gnt."):
    for value in vars(importlib.import_module(info.name)).values():
        if isinstance(value, type) and issubclass(value, Enum) and value.__module__ == info.name:
            orders.append([member.name for member in frozenset(value)])
print(json.dumps(orders), file=sys.stderr)
sys.exit(main(sys.argv[2:]))
"""


def test_no_output_depends_on_the_order_of_a_set_of_members(tmp_path):
    """Runs in processes whose sets of members iterate in different orders write the same bytes."""
    translations = _echo_translations(tmp_path, ("es", "cs"))
    source = str(Path(gnt.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))}
    orders: list[str] = []
    outputs: list[dict[str, bytes]] = []
    for ballast in range(8):  # until two runs iterate some set of members in different orders
        out_dir = tmp_path / f"out{ballast}"
        run = subprocess.run(
            [sys.executable, "-c", _RUN_WITH_BALLAST, str(ballast), *_run_argv(translations, out_dir)],
            env={**env, "PYTHONHASHSEED": str(ballast)}, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        orders.append(run.stderr)
        outputs.append({path.name: path.read_bytes() for path in sorted(out_dir.iterdir())})
        if len(set(orders)) > 1:
            break
    assert len(set(orders)) > 1, "no run moved the Enum members far enough to reorder a set of them"
    assert len(outputs[0]) == 7  # the suite, and a scores file, metrics document and report per language
    assert all(output == outputs[0] for output in outputs)


def test_score_and_metrics_count_one_missing_rule(tmp_path, suite_path, capsys):
    """An instance without slots and without translation is missing for neither `gnt score` nor `gnt metrics`."""
    lines = suite_path.read_text(encoding="utf-8").splitlines()
    empty = dict(json.loads(lines[0]), id="no-slots-1", slots=[])
    suite = tmp_path / "suite.jsonl"
    suite.write_text("\n".join(lines + [json.dumps(empty)]) + "\n", encoding="utf-8")
    translations = tmp_path / "translations.jsonl"
    translations.write_text("".join(
        json.dumps({"system": "s", "lang": "es", "id": json.loads(line)["id"], "text": "fuerte"}) + "\n"
        for line in lines[::2]
    ), encoding="utf-8")
    scores, metrics = tmp_path / "scores.jsonl", tmp_path / "metrics.json"
    assert main(["score", "--suite", str(suite), "--translations", str(translations),
                 "--lexicon-dir", str(lexicon_dir()), "--lang", "es", "--out", str(scores)]) == 0
    printed = int(re.search(r"(\d+) instances without translation", capsys.readouterr().out).group(1))
    assert main(["metrics", "--scores", str(scores), "--suite", str(suite),
                 "--lang", "es", "--out", str(metrics)]) == 0
    doc = json.loads(metrics.read_text(encoding="utf-8"))
    assert printed == doc["coverage"]["missing_translations"] == len(lines) - len(lines[::2])


def _he_man_manifest(tmp_path) -> Path:
    """The demo manifest with a descriptor that leaks "he" into T5's ambiguous members."""
    manifest = tmp_path / "manifest.json"
    doc = json.loads(demo_manifest_path().read_text(encoding="utf-8"))
    doc["descriptor_pairs"][0]["masculine"] = "he-man"
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    return manifest


def test_run_checks_balance_before_reading_the_translations(tmp_path, capsys):
    """`gnt run` prints what `gnt generate` prints for an unbalanced suite, and exits 1 after writing the suite only."""
    manifest = _he_man_manifest(tmp_path)
    generated = tmp_path / "generated.jsonl"
    assert main(["generate", "--manifest", str(manifest), "--out", str(generated)]) == 1
    printed = capsys.readouterr().err
    out = tmp_path / "out"
    # a translations file that does not exist: reading it would be exit 2
    assert main(["run", "--manifest", str(manifest), "--translations", str(tmp_path / "nowhere.jsonl"),
                 "--lexicon-dir", str(lexicon_dir()), "--out-dir", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == printed
    assert len([line for line in printed.splitlines() if line.startswith("violation: ")]) == 6
    assert captured.out == ""
    assert [path.name for path in out.iterdir()] == ["suite.jsonl"]
    assert (out / "suite.jsonl").read_bytes() == generated.read_bytes()


def test_run_builds_each_metrics_document_without_a_suite_copy(tmp_path, monkeypatch, full_scale_manifest):
    """Inside `gnt run`, `build_metrics_doc` allocates far less than a copy of the suite's id -> instance map, the
    map of the group it reads the scores of is already freed, and no later group's map is built."""
    build = gnt.pipeline.build_metrics_doc
    maps: list[weakref.ref] = []
    entries: list[tuple[list[bool], int]] = []

    def traced(*args, **kwargs):
        alive = [ref() is not None for ref in maps]
        tracemalloc.start()
        try:
            doc = build(*args, **kwargs)
            entries.append((alive, tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
        return doc

    monkeypatch.setattr(gnt.pipeline, "parse_translations", _parse_weakly(gnt.pipeline.parse_translations, maps))
    monkeypatch.setattr(gnt.pipeline, "build_metrics_doc", traced)
    suite = generate_suite(full_scale_manifest)
    translations = tmp_path / "translations.jsonl"
    write_translations({("echo", Language(lang)): {i.id: i.source_text for i in suite} for lang in ("cs", "es")},
                       translations)
    copy = sys.getsizeof({instance.id: instance for instance in suite})
    assert main(["run", "--manifest", str(full_scale_manifest_path()), "--translations", str(translations),
                 "--lexicon-dir", str(lexicon_dir()), "--out-dir", str(tmp_path / "out")]) == 0
    assert [alive for alive, _ in entries] == [[False], [False, False]]
    assert all(peak < copy / 4 for _, peak in entries), (entries, copy)


def test_run_rejects_two_systems_with_one_file_stem(tmp_path, suite_path, capsys):
    first = json.loads(suite_path.read_text(encoding="utf-8").splitlines()[0])
    translations = tmp_path / "translations.jsonl"
    translations.write_text("".join(
        json.dumps({"system": system, "lang": "es", "id": first["id"], "text": "fuerte"}) + "\n"
        for system in ("my sys", "my_sys")
    ), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["run", "--manifest", str(demo_manifest_path()), "--translations", str(translations),
                 "--lexicon-dir", str(lexicon_dir()), "--out-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: systems 'my sys' and 'my_sys' share the file stem 'my_sys'; rename one\n"
    assert [path.name for path in out.iterdir()] == ["suite.jsonl"]


def test_run_rejects_a_language_without_a_lexicon_before_writing_any_group(tmp_path, suite_path, capsys):
    lexicons = tmp_path / "lexicons"
    shutil.copytree(lexicon_dir() / "es", lexicons / "es")
    first = json.loads(suite_path.read_text(encoding="utf-8").splitlines()[0])
    translations = tmp_path / "translations.jsonl"
    translations.write_text("".join(
        json.dumps({"system": "s", "lang": lang, "id": first["id"], "text": "fuerte"}) + "\n" for lang in ("es", "is")
    ), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["run", "--manifest", str(demo_manifest_path()), "--translations", str(translations),
                 "--lexicon-dir", str(lexicons), "--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: no lexicon for 'is': ")
    assert [path.name for path in out.iterdir()] == ["suite.jsonl"]


def test_run_loads_each_language_once_before_scoring(tmp_path, monkeypatch):
    """Two systems in two languages: two loads, both before the first group is scored, each shared by its systems."""
    events = []
    load = gnt.pipeline.load_language_resources
    score_group = gnt.pipeline.score_group

    def loaded(lexicons, language):
        events.append(("load", language.value))
        return load(lexicons, language)

    def scored(suite, known_ids, records, resources):
        events.append(("score", id(resources), resources.language.value))
        return score_group(suite, known_ids, records, resources)

    monkeypatch.setattr(gnt.pipeline, "load_language_resources", loaded)
    monkeypatch.setattr(gnt.pipeline, "score_group", scored)
    translations = _echo_translations(tmp_path, ("es", "cs"))
    lines = translations.read_text(encoding="utf-8").splitlines(keepends=True)
    translations.write_text("".join(lines + [line.replace('"echo"', '"other"') for line in lines]), encoding="utf-8")
    assert main(_run_argv(translations, tmp_path / "out")) == 0
    assert events[:2] == [("load", "cs"), ("load", "es")]
    scores = events[2:]
    assert [(event[0], event[2]) for event in scores] == [("score", "cs"), ("score", "es")] * 2
    assert scores[0][1] == scores[2][1] != scores[1][1] == scores[3][1]


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
    if slot_index == 99:
        n = len(first["slots"])
        assert err == (f"error: {scores}:1: score for instance {first['id']!r} has slot_index 99, "
                       f"but the instance has {n} slot(s)\n")


def test_metrics_names_the_scores_line_of_an_unknown_instance(tmp_path, suite_path, capsys):
    first = json.loads(suite_path.read_text(encoding="utf-8").splitlines()[0])
    scores = tmp_path / "scores.jsonl"
    scores.write_text("".join(json.dumps({"instance_id": instance_id, "slot_index": 0, "label": "M"}) + "\n"
                              for instance_id in (first["id"], "nope")), encoding="utf-8")
    assert main(["metrics", "--scores", str(scores), "--suite", str(suite_path),
                 "--lang", "es", "--out", str(tmp_path / "metrics.json")]) == 2
    assert capsys.readouterr().err == f"error: {scores}:2: score references unknown instance 'nope'\n"
    assert not (tmp_path / "metrics.json").exists()


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


@pytest.mark.parametrize("flags, batch_size, timeout", [
    ([], 83, 60.0),  # the demo suite's 166 instances over a window of 2
    (["--batch-size", "32"], 32, 60.0),
], ids=["default", "batch-size-32"])
def test_translate_batch_size_defaults_to_the_adapter_default(tmp_path, suite_path, monkeypatch,
                                                              flags, batch_size, timeout):
    argv = ["translate", "--suite", str(suite_path), "--adapter", "cmd:cat", "--lang", "es",
            "--system", "s", "--out", str(tmp_path / "tr.jsonl")]
    args = build_parser().parse_args(argv)
    assert args.batch_size is None and args.timeout is None
    configs = []
    monkeypatch.setattr(gnt.cli, "translate_suite", lambda suite, config, resume_path: configs.append(config) or {})
    assert main(argv + flags) == 0
    assert (configs[0].batch_size, configs[0].timeout) == (batch_size, timeout)


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


@pytest.mark.parametrize("flags, code", [
    (["--adapter", "ftp:x"], 2), (["--adapter", "cmd:"], 2), (["--batch-size", "0"], 2),
    ([], 0),  # the control: the patched reader is the one translate reads through
], ids=["unknown-adapter", "empty-command", "batch-size", "valid"])
def test_translate_checks_its_settings_before_reading_the_suite(tmp_path, suite_path, monkeypatch, flags, code):
    reads = []
    read = gnt.cli.iter_suite

    def iter_suite(path):
        reads.append(path)
        return read(path)

    monkeypatch.setattr(gnt.cli, "iter_suite", iter_suite)
    argv = ["translate", "--suite", str(suite_path), "--adapter", "cmd:cat", "--lang", "es",
            "--system", "s", "--out", str(tmp_path / "tr.jsonl")]
    assert main(argv + flags) == code
    assert reads == ([str(suite_path)] if code == 0 else [])


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


def _logging_backend(log_dir: Path) -> str:
    """A cmd: adapter that echoes each batch and keeps a copy of it, one file per spawn, in `log_dir`."""
    log_dir.mkdir()
    return f"cmd:sh -c 'f=$(mktemp {log_dir}/batch.XXXXXX); tee \"$f\"'"


def _received_ids(log_dir: Path) -> list[str]:
    return sorted(line.split("\t", 1)[0] for batch in log_dir.iterdir()
                  for line in batch.read_text(encoding="utf-8").splitlines())


@pytest.mark.parametrize("edit, message", [
    (lambda line, first: line[:-20], "invalid JSON"),
    (lambda line, first: json.dumps({**json.loads(line), "id": json.loads(first)["id"]}), "duplicate instance id"),
    (lambda line, first: json.dumps({**json.loads(line), "id": "T1-bad\nid"}), "cannot be framed"),
], ids=["malformed-json", "duplicate-id", "newline-in-id"])
def test_a_bad_line_fails_its_batch_after_the_batches_before_it_are_sent(tmp_path, suite_path, capsys, edit, message):
    lines = suite_path.read_text(encoding="utf-8").splitlines(keepends=True)
    ids = [json.loads(line)["id"] for line in lines]
    argv = ["translate", "--suite", str(suite_path), "--lang", "es", "--system", "s", "--batch-size", "8"]
    clean = tmp_path / "clean.jsonl"
    assert main(argv + ["--adapter", "cmd:cat", "--out", str(clean)]) == 0

    bad = 19  # line 20, in batch 2 of 8 ids each
    good = lines[bad]
    lines[bad] = edit(good.rstrip("\n"), lines[0]) + "\n"
    suite_path.write_text("".join(lines), encoding="utf-8")
    out = tmp_path / "tr.jsonl"
    partial = tmp_path / "tr.jsonl.partial"
    first_run = tmp_path / "first"
    capsys.readouterr()
    assert main(argv + ["--adapter", _logging_backend(first_run), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {suite_path}:20: ") and message in err and "Traceback" not in err
    # batches 0 and 1 were sent and persisted; no id of batch 2 or after reached the backend
    assert sorted(parse_translations(partial)["s", Language.ES]) == sorted(ids[:16])
    assert _received_ids(first_run) == sorted(ids[:16])
    assert not out.exists()

    lines[bad] = good
    suite_path.write_text("".join(lines), encoding="utf-8")
    rerun = tmp_path / "rerun"
    assert main(argv + ["--adapter", _logging_backend(rerun), "--out", str(out)]) == 0
    assert _received_ids(rerun) == sorted(ids[16:])
    assert out.read_bytes() == clean.read_bytes()
    assert not partial.exists()


def test_translate_reports_a_missing_suite_and_starts_no_backend(tmp_path, capsys):
    missing = str(tmp_path / "missing.jsonl")
    log = tmp_path / "batches"
    assert main(["translate", "--suite", missing, "--adapter", _logging_backend(log), "--lang", "es",
                 "--system", "s", "--out", str(tmp_path / "tr.jsonl")]) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {missing!r}\n"
    assert list(log.iterdir()) == []
    assert not (tmp_path / "tr.jsonl.partial").exists()


def test_translate_reports_a_missing_out_directory_and_starts_no_backend(tmp_path, suite_path, capsys):
    log = tmp_path / "batches"
    out = tmp_path / "nodir" / "tr.jsonl"
    assert main(["translate", "--suite", str(suite_path), "--adapter", _logging_backend(log), "--lang", "es",
                 "--system", "s", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --out directory {str(tmp_path / 'nodir')!r} is not an existing directory\n"
    assert list(log.iterdir()) == []
    assert not out.exists() and not Path(f"{out}.partial").exists()
    assert not out.parent.exists()


def test_translate_reports_an_out_directory_and_starts_no_backend(tmp_path, suite_path, capsys):
    log = tmp_path / "batches"
    out = tmp_path / "existing"
    out.mkdir()
    assert main(["translate", "--suite", str(suite_path), "--adapter", _logging_backend(log), "--lang", "es",
                 "--system", "s", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --out {str(out)!r} is a directory, not a file\n"
    assert list(log.iterdir()) == []
    assert list(out.iterdir()) == [] and not Path(f"{out}.partial").exists()


@pytest.mark.parametrize("timeout, message", [
    ("nan", "timeout must be finite, got nan"),
    ("inf", "timeout must be finite, got inf"),
    ("-inf", "timeout must be positive, got -inf"),
])
@pytest.mark.parametrize("kind", ["cmd", "http"])
def test_translate_rejects_a_timeout_that_is_not_finite_before_any_backend_call(
        tmp_path, suite_path, capsys, monkeypatch, kind, timeout, message):
    log = tmp_path / "batches"
    spec = _logging_backend(log) if kind == "cmd" else "http://127.0.0.1:9/translate"
    calls = []
    monkeypatch.setattr(adapter, "_call_backend", lambda config, payload: calls.append(payload))
    out = tmp_path / "tr.jsonl"
    assert main(["translate", "--suite", str(suite_path), "--adapter", spec, "--lang", "es", "--system", "s",
                 f"--timeout={timeout}", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert calls == [] and not out.exists() and not Path(f"{out}.partial").exists()
    if kind == "cmd":
        assert list(log.iterdir()) == []


@pytest.mark.parametrize("kind", ["cmd", "http"])
def test_translate_rejects_a_timeout_above_the_ceiling_before_the_suite_is_read(tmp_path, capsys, monkeypatch, kind):
    log = tmp_path / "batches"
    spec = _logging_backend(log) if kind == "cmd" else "http://127.0.0.1:9/translate"
    calls = []
    monkeypatch.setattr(adapter, "_call_backend", lambda config, payload: calls.append(payload))
    out = tmp_path / "tr.jsonl"
    assert main(["translate", "--suite", str(tmp_path / "missing.jsonl"), "--adapter", spec, "--lang", "es",
                 "--system", "s", "--timeout", "2147484", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: timeout must be at most 2147483 s, got 2147484.0\n"
    assert calls == [] and not out.exists() and not Path(f"{out}.partial").exists()
    if kind == "cmd":
        assert list(log.iterdir()) == []


def _reads_and_sends(monkeypatch, tmp_path, suite_path, window: int) -> list[str]:
    """The order in which `gnt translate` reads suite instances and calls the backend, one event each."""
    events = []
    read, call_backend = gnt.cli.iter_suite, adapter._call_backend

    def iter_suite(path):
        for instance in read(path):
            events.append("read")
            yield instance

    def counted_call(config, payload):
        events.append("send")
        return call_backend(config, payload)

    monkeypatch.setattr(gnt.cli, "iter_suite", iter_suite)
    monkeypatch.setattr(adapter, "_call_backend", counted_call)
    assert main(["translate", "--suite", str(suite_path), "--adapter", "cmd:cat", "--lang", "es", "--system", "s",
                 "--out", str(tmp_path / "tr.jsonl"), "--batch-size", "8",
                 "--max-concurrent-batches", str(window)]) == 0
    return events


def test_translate_sends_the_first_batches_before_it_has_read_the_suite(tmp_path, suite_path, monkeypatch):
    events = _reads_and_sends(monkeypatch, tmp_path, suite_path, window=2)
    instances = len(suite_path.read_text(encoding="utf-8").splitlines())
    reads_before_send = [events[:i].count("read") for i, event in enumerate(events) if event == "send"]
    assert events.count("read") == instances > 16
    assert len(reads_before_send) == -(-instances // 8)
    # at most the window's two batches are read ahead of the backend
    assert reads_before_send[0] <= 16
    assert all(reads <= 8 * (i + 2) for i, reads in enumerate(reads_before_send))


def test_a_window_of_one_alternates_reading_and_sending_batch_by_batch(tmp_path, suite_path, monkeypatch):
    events = _reads_and_sends(monkeypatch, tmp_path, suite_path, window=1)
    instances = len(suite_path.read_text(encoding="utf-8").splitlines())
    sizes = [min(8, instances - start) for start in range(0, instances, 8)]
    assert events == [event for size in sizes for event in ["read"] * size + ["send"]]


def _t7_suite(path: Path, size: int) -> list[str]:
    """Write a suite file of `size` T7 instances and return their ids."""
    suite = [expand_template(TemplateFamily.T7_ADVERB_STEREOTYPE, {"A": "fit"}, f"T7-{i:06d}a") for i in range(size)]
    write_suite(suite, path)
    return [instance.id for instance in suite]


def _batch_sizes(log_dir: Path) -> list[int]:
    """The number of ids each spawn of a `_logging_backend` received, largest first."""
    return sorted((len(batch.read_text(encoding="utf-8").splitlines()) for batch in log_dir.iterdir()), reverse=True)


@pytest.mark.parametrize("flags, sizes", [
    ([], [1050, 1050]),
    (["--max-concurrent-batches", "1"], [2100]),
    (["--max-concurrent-batches", "3"], [700, 700, 700]),
    (["--batch-size", "500"], [500, 500, 500, 500, 100]),
], ids=["default", "window-1", "window-3", "batch-size-500"])
def test_a_default_cmd_batch_is_one_window_slot_of_the_suite(tmp_path, flags, sizes):
    suite = tmp_path / "suite.jsonl"
    ids = _t7_suite(suite, 2100)
    log = tmp_path / "batches"
    out = tmp_path / "tr.jsonl"
    assert main(["translate", "--suite", str(suite), "--adapter", _logging_backend(log), "--lang", "es",
                 "--system", "s", "--out", str(out)] + flags) == 0
    assert _batch_sizes(log) == sizes
    assert _received_ids(log) == ids
    assert list(parse_translations(out)["s", Language.ES]) == ids


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="names the pipe /dev/fd/N, as a shell's <(...) does")
def test_a_piped_suite_is_read_once_in_the_default_cmd_batches(tmp_path):
    """A suite given as `<(cat suite.jsonl)` can be read only once: it is not counted, and goes out in
    translate_suite's default batches of 1,024 ids, to the bytes of a run on the file."""
    suite = tmp_path / "suite.jsonl"
    _t7_suite(suite, 2100)
    argv = ["translate", "--lang", "es", "--system", "s"]
    clean = tmp_path / "clean.jsonl"
    assert main(argv + ["--suite", str(suite), "--adapter", "cmd:cat", "--out", str(clean)]) == 0
    read_end, write_end = os.pipe()

    def feed():
        with open(write_end, "wb") as fh:
            fh.write(suite.read_bytes())

    writer = threading.Thread(target=feed)
    writer.start()
    log, out = tmp_path / "batches", tmp_path / "tr.jsonl"
    try:
        code = main(argv + ["--suite", f"/dev/fd/{read_end}", "--adapter", _logging_backend(log), "--out", str(out)])
    finally:
        writer.join(timeout=30)
        os.close(read_end)
    assert not writer.is_alive()
    assert code == 0
    assert _batch_sizes(log) == [1024, 1024, 52]
    assert out.read_bytes() == clean.read_bytes()


def test_a_resumed_run_spawns_at_most_once_per_window_slot(tmp_path):
    suite = tmp_path / "suite.jsonl"
    ids = _t7_suite(suite, 2100)
    argv = ["translate", "--suite", str(suite), "--lang", "es", "--system", "s"]
    clean = tmp_path / "clean.jsonl"
    assert main(argv + ["--adapter", "cmd:cat", "--out", str(clean)]) == 0
    out = tmp_path / "tr.jsonl"
    partial = tmp_path / "tr.jsonl.partial"
    done = list(parse_translations(clean)["s", Language.ES].items())[300:1300]
    write_translations({("s", Language.ES): dict(done)}, partial)
    log = tmp_path / "batches"
    assert main(argv + ["--adapter", _logging_backend(log), "--out", str(out)]) == 0
    # the batch is sized from the whole suite: the 1,100 ids left fit in the window's 2 spawns
    assert _batch_sizes(log) == [1050, 50]
    assert _received_ids(log) == ids[:300] + ids[1300:]
    assert out.read_bytes() == clean.read_bytes()
    assert not partial.exists()


@pytest.mark.parametrize("flags, message", [
    (["--adapter", "cmd:sh -c 'echo x >> {spawns}; cat'", "--max-concurrent-batches", "0"],
     "max_concurrent_batches must be >= 1, got 0"),
    (["--adapter", "cmd:"], "adapter spec 'cmd:' must be cmd:<command> with a non-empty command"),
], ids=["window-0", "empty-command"])
@pytest.mark.parametrize("exists", [True, False], ids=["suite", "missing-suite"])
def test_a_default_cmd_batch_is_sized_after_the_settings_are_checked(tmp_path, capsys, monkeypatch,
                                                                     flags, message, exists):
    suite = tmp_path / "suite.jsonl"
    if exists:
        _t7_suite(suite, 10)
    opened = []
    real_open = open
    monkeypatch.setattr("builtins.open", lambda file, *args, **kwargs: opened.append(str(file))
                        or real_open(file, *args, **kwargs))
    spawns = tmp_path / "spawns"
    argv = ["translate", "--suite", str(suite), "--lang", "es", "--system", "s", "--out", str(tmp_path / "tr.jsonl")]
    assert main(argv + [flag.format(spawns=spawns) for flag in flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert str(suite) not in opened
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


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory) -> dict[str, Path]:
    """A demo suite, its echoed translations, their scores and metrics document, and the demo manifest."""
    root = tmp_path_factory.mktemp("valid")
    files = {name: root / name for name in ("suite.jsonl", "tr.jsonl", "scores.jsonl", "metrics.json")}
    assert main(["generate", "--manifest", str(demo_manifest_path()), "--out", str(files["suite.jsonl"])]) == 0
    assert main(["translate", "--suite", str(files["suite.jsonl"]), "--adapter", "cmd:cat", "--lang", "es",
                 "--system", "s", "--out", str(files["tr.jsonl"])]) == 0
    assert main(["score", "--suite", str(files["suite.jsonl"]), "--translations", str(files["tr.jsonl"]),
                 "--lexicon-dir", str(lexicon_dir()), "--lang", "es", "--out", str(files["scores.jsonl"])]) == 0
    assert main(["metrics", "--scores", str(files["scores.jsonl"]), "--suite", str(files["suite.jsonl"]),
                 "--lang", "es", "--out", str(files["metrics.json"])]) == 0
    return {**files, "manifest.json": Path(demo_manifest_path())}


# the file a command reads, whether it is line-delimited, and the command's arguments given the bad file
_READERS = {
    "suite": ("suite.jsonl", True, lambda bad, ok: ["validate", "--suite", bad]),
    "translations": ("tr.jsonl", True, lambda bad, ok: [
        "score", "--suite", ok["suite.jsonl"], "--translations", bad, "--lexicon-dir", str(lexicon_dir()),
        "--lang", "es", "--out", str(Path(bad).with_name("out.jsonl"))]),
    "scores": ("scores.jsonl", True, lambda bad, ok: [
        "metrics", "--scores", bad, "--suite", ok["suite.jsonl"], "--lang", "es",
        "--out", str(Path(bad).with_name("out.json"))]),
    "manifest": ("manifest.json", False, lambda bad, ok: [
        "generate", "--manifest", bad, "--out", str(Path(bad).with_name("out.jsonl"))]),
    "metrics": ("metrics.json", False, lambda bad, ok: ["report", "--metrics", bad]),
    "partial": ("tr.jsonl", True, lambda bad, ok: [
        "translate", "--suite", ok["suite.jsonl"], "--adapter", "cmd:cat", "--lang", "es", "--system", "s",
        "--out", bad[: -len(".partial")]]),
}


@pytest.mark.parametrize("value, message", [
    ("1e999", "1e999 is not a finite number"),
    ("1" * 5001, f"an integer of more than {sys.get_int_max_str_digits()} digits"),
    ("[" * 100_000 + "]" * 100_000, "nested too deeply"),
], ids=["non-finite", "long-integer", "deep"])
@pytest.mark.parametrize("reader", _READERS)
def test_every_reader_rejects_json_that_python_reads_and_json_does_not(
        tmp_path, capsys, valid_files, reader, value, message):
    name, line_delimited, argv = _READERS[reader]
    bad = tmp_path / (f"{name}.partial" if reader == "partial" else name)
    lines = valid_files[name].read_text(encoding="utf-8").splitlines(keepends=True)
    # an ignored field: the second record's, or the document's
    edited = 1 if line_delimited else len(lines) - 1
    lines[edited] = lines[edited].rstrip()[:-1] + f', "ignored": {value}}}\n'
    bad.write_text("".join(lines), encoding="utf-8")
    ok = {key: str(path) for key, path in valid_files.items()}
    assert main(argv(str(bad), ok)) == 2
    where = f"{bad}:2" if line_delimited else str(bad)
    assert capsys.readouterr().err == f"error: {where}: invalid JSON ({message})\n"


@pytest.mark.parametrize("row", [0, 2], ids=["header", "row"])
def test_score_names_the_lexicon_line_of_a_cell_over_the_csv_field_limit(tmp_path, suite_path, capsys, row):
    lexicons = tmp_path / "lexicons"
    shutil.copytree(lexicon_dir(), lexicons)
    phrases = lexicons / "es" / "alt_phrases.csv"
    lines = phrases.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[row] = "x" * 131_073 + "," + lines[row]
    phrases.write_text("".join(lines), encoding="utf-8")
    translations = tmp_path / "tr.jsonl"
    assert main(["translate", "--suite", str(suite_path), "--adapter", "cmd:cat", "--lang", "es", "--system", "s",
                 "--out", str(translations)]) == 0
    capsys.readouterr()
    assert main(["score", "--suite", str(suite_path), "--translations", str(translations),
                 "--lexicon-dir", str(lexicons), "--lang", "es", "--out", str(tmp_path / "scores.jsonl")]) == 2
    assert capsys.readouterr().err == f"error: {phrases}:{row + 1}: field larger than field limit (131072)\n"

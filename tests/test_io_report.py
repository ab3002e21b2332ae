from __future__ import annotations

import copy
import itertools
import json
import random
import re
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings, strategies as st

from gnt import (
    GenderLabel,
    Language,
    SlotScore,
    TranslationRecord,
    generate_suite,
    label_cells,
    parse_manifest,
    parse_scores,
    parse_suite,
    parse_translations,
    render_report,
    run_pipeline,
    write_scores,
    write_suite,
    write_translations,
)
from gnt.errors import DuplicateRecord, GntError, InvalidEntry, ParseError
from gnt.formats import metrics_doc_to_text, parse_metrics_doc, split_orphans, write_metrics_doc
from gnt.data import demo_manifest_path, lexicon_dir
from gnt.pipeline import build_metrics_doc, score_suite
from gnt.suite import (
    AMBIGUOUS_ACTIVE,
    QUOTA_KEYS,
    AdjectiveSlot,
    AmbiguityKind,
    DescriptorPair,
    GenderCondition,
    GenderKind,
    Referent,
    StereotypeCondition,
    StereotypeKind,
    SuiteManifest,
    TemplateFamily,
)
from gnt.suite import TestInstance as SuiteInstance  # a name pytest does not collect
from conftest import GOLDEN
from helpers import instance_to_dict


# --- translations ------------------------------------------------------------


def _write_lines(path, lines):
    path.write_text("".join(json.dumps(line, ensure_ascii=False) + "\n" for line in lines), encoding="utf-8")
    return path


def test_parse_translations_happy_path(tmp_path):
    path = _write_lines(
        tmp_path / "tr.jsonl",
        [
            {"system": "sysA", "lang": "es", "id": "T7-000000a", "text": "Estoy en forma."},
            {"system": "sysA", "lang": "es", "id": "T7-000001a", "text": "Soy fuerte."},
            {"system": "sysB", "lang": "is", "id": "T7-000000a", "text": "Ég er sterkur."},
        ],
    )
    records = parse_translations(path)
    assert len(records) == 3
    assert records[0] == TranslationRecord("sysA", Language.ES, "T7-000000a", "Estoy en forma.")


def test_parse_translations_rejects_unknown_language(tmp_path):
    path = _write_lines(tmp_path / "tr.jsonl", [{"system": "s", "lang": "fr", "id": "x", "text": "t"}])
    with pytest.raises(ParseError, match="language"):
        parse_translations(path)


def test_parse_translations_rejects_duplicates(tmp_path):
    line = {"system": "s", "lang": "es", "id": "T7-000000a", "text": "t"}
    path = _write_lines(tmp_path / "tr.jsonl", [line, line])
    with pytest.raises(DuplicateRecord, match="line 1"):
        parse_translations(path)


def test_parse_translations_reports_malformed_line_number(tmp_path):
    path = tmp_path / "tr.jsonl"
    good = b'{"system": "s", "lang": "es", "id": "x", "text": "t"}\n'
    latin1 = '{"system": "s", "lang": "es", "id": "y", "text": "café"}\n'.encode("latin-1")
    for bad in (b"not json\n", latin1):
        path.write_bytes(good + bad)
        with pytest.raises(ParseError, match=":2"):
            parse_translations(path)


def test_orphans_are_split_not_fatal():
    records = [
        TranslationRecord("s", Language.ES, "T7-000000a", "a"),
        TranslationRecord("s", Language.ES, "ghost", "b"),
    ]
    valid, orphans = split_orphans(records, {"T7-000000a"})
    assert [r.instance_id for r in valid] == ["T7-000000a"]
    assert [r.instance_id for r in orphans] == ["ghost"]


# --- round trips ----------------------------------------------------------------


def test_suite_file_round_trip_is_byte_identical(tmp_path, demo_manifest):
    suite = generate_suite(demo_manifest)
    first = tmp_path / "suite.jsonl"
    second = tmp_path / "suite2.jsonl"
    write_suite(suite, first)
    write_suite(parse_suite(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_scores_file_round_trip_is_byte_identical(tmp_path):
    scores = [
        SlotScore("T7-000000a", 0, GenderLabel.N1_COMMON_FORM, "fuerte", "lexicon:fuerte:common"),
        SlotScore("T7-000001a", 0, GenderLabel.UNMATCHED, "", ""),
    ]
    first = tmp_path / "scores.jsonl"
    second = tmp_path / "scores2.jsonl"
    write_scores(scores, first)
    assert parse_scores(first) == scores
    write_scores(parse_scores(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_duplicate_suite_ids_rejected(tmp_path, demo_manifest):
    suite = generate_suite(demo_manifest)
    path = tmp_path / "suite.jsonl"
    write_suite(suite + suite[:1], path)
    with pytest.raises(DuplicateRecord):
        parse_suite(path)


def _set_slot(index, **fields):
    def edit(record):
        record["slots"][index].update(fields)
    return edit


def _drop_slot_field(index, key):
    def edit(record):
        del record["slots"][index][key]
    return edit


@pytest.mark.parametrize("edit", [
    _set_slot(0, gender_kind="ambiguous", ambiguity_kind="none"),
    _drop_slot_field(0, "gender_kind"),
    _set_slot(0, stereotype_kind="none", stereotype_cue="gently"),
    lambda record: record.update(slots=5),
    _set_slot(1, slot_index="1"),
    _set_slot(1, slot_index=True),
    _set_slot(1, slot_index=0),
    _set_slot(3, slot_index=4),
    lambda record: record.update(bindings=[]),
    _set_slot(0, lemma=7),
    lambda record: record.update(source_text=7),
    lambda record: record.update(bindings={**record["bindings"], "A1": ["fit"]}),
    lambda record: record.update(pair_id=7),
    lambda record: record.update(id=7),
    _set_slot(0, stereotype_kind="masculine", stereotype_cue=7),
], ids=["ambiguous-without-kind", "missing-gender-kind", "cue-without-kind", "slots-not-a-list",
        "string-index", "bool-index", "duplicated-index", "index-gap",
        "bindings-not-an-object", "int-lemma", "int-source-text", "list-binding", "int-pair-id",
        "int-id", "int-cue"])
def test_parse_suite_rejects_malformed_slot_records(tmp_path, demo_manifest, edit):
    suite = generate_suite(demo_manifest)
    good = instance_to_dict(suite[0])
    bad = instance_to_dict(next(inst for inst in suite if len(inst.slots) == 4))
    edit(bad)
    path = _write_lines(tmp_path / "suite.jsonl", [good, bad])
    with pytest.raises(ParseError, match=r"suite\.jsonl:2: "):
        parse_suite(path)


def test_instance_to_dict_copies_bindings(demo_manifest):
    instance = generate_suite(demo_manifest)[0]
    before = dict(instance.bindings)
    instance_to_dict(instance)["bindings"]["A"] = "edited"
    assert instance.bindings == before


@pytest.mark.parametrize("index", [True, 1.0], ids=["bool-index", "float-index"])
def test_a_repeated_slot_record_with_an_equal_but_invalid_index_is_rejected(tmp_path, demo_manifest, index):
    # line 2 repeats line 1's slot 1 but for its index, which equals 1 without being an integer
    good = instance_to_dict(next(inst for inst in generate_suite(demo_manifest) if len(inst.slots) == 4))
    bad = copy.deepcopy(good)
    bad["id"] += "-repeated"
    bad["slots"][1]["slot_index"] = index
    path = _write_lines(tmp_path / "suite.jsonl", [good, bad])
    with pytest.raises(ParseError) as caught:
        parse_suite(path)
    assert str(caught.value) == f"{path}:2: slot_index must be an integer, got {index!r}"


@pytest.mark.parametrize("extra", [[1, "x"], {"note": [1]}], ids=["array", "object"])
def test_a_slot_with_an_unhashable_unknown_field_parses_as_without_it(tmp_path, demo_manifest, extra):
    records = [instance_to_dict(instance) for instance in generate_suite(demo_manifest)[:6]]
    records.append({**copy.deepcopy(records[0]), "id": "T9-repeated"})
    plain = parse_suite(_write_lines(tmp_path / "plain.jsonl", records))
    for record in records:
        for slot in record["slots"]:
            slot["extra"] = extra
    assert parse_suite(_write_lines(tmp_path / "extra.jsonl", records)) == plain


@pytest.fixture(scope="module")
def full_scale_suite_file(tmp_path_factory, full_scale_manifest):
    path = tmp_path_factory.mktemp("full_scale") / "suite.jsonl"
    write_suite(generate_suite(full_scale_manifest), path)
    return path


def test_full_scale_suite_file_round_trip_is_byte_identical(tmp_path, full_scale_suite_file):
    again = tmp_path / "suite.jsonl"
    write_suite(parse_suite(full_scale_suite_file), again)
    assert again.read_bytes() == full_scale_suite_file.read_bytes()


def test_a_parsed_suite_shares_slots_but_not_bindings(full_scale_suite_file):
    suite = parse_suite(full_scale_suite_file)
    lines = full_scale_suite_file.read_text(encoding="utf-8").splitlines()
    records = {json.dumps(slot) for line in lines for slot in json.loads(line)["slots"]}
    assert len(records) == 232
    assert len({id(slot) for instance in suite for slot in instance.slots}) <= len(records)
    first, *others = [instance for instance in suite if instance.bindings]
    before = [dict(instance.bindings) for instance in others]
    first.bindings[next(iter(first.bindings))] = "edited"
    assert [instance.bindings for instance in others] == before


@pytest.mark.parametrize("line", ['{"id": "x"} trailing', '\ufeff{"id": "x"}', "not json", '{"id": ', '{"id": "x"}}'],
                         ids=["extra-data", "byte-order-mark", "not-json", "cut", "extra-brace"])
def test_an_invalid_json_line_carries_the_decoder_message(tmp_path, line):
    with pytest.raises(json.JSONDecodeError) as decoded:
        json.loads(line)
    path = tmp_path / "tr.jsonl"
    path.write_text(json.dumps(_TRANSLATION) + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as caught:
        parse_translations(path)
    assert str(caught.value) == f"{path}:2: invalid JSON ({decoded.value.msg})"


# quotes, escapes, control and line-break characters, and a non-BMP character, among any others
_TEXTS = st.lists(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\x85", "\u2028", "\u2029", "\U0001f600", "\n", "\t", "é"])
    | st.characters(blacklist_categories=("Cs",)),
    max_size=6,
).map("".join)
_CONDITIONS = [
    GenderCondition(GenderKind.DETERMINED_MASCULINE), GenderCondition(GenderKind.DETERMINED_FEMININE),
    GenderCondition(GenderKind.AMBIGUOUS, AmbiguityKind.OMISSION), AMBIGUOUS_ACTIVE,
]


def _draw_instance(data) -> SuiteInstance:
    slots = []
    for index in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(StereotypeKind))
        cue = "" if kind is StereotypeKind.NONE else data.draw(_TEXTS)
        slots.append(AdjectiveSlot(index, data.draw(_TEXTS), data.draw(st.sampled_from(Referent)),
                                   data.draw(st.sampled_from(_CONDITIONS)), StereotypeCondition(kind, cue)))
    return SuiteInstance(
        id=data.draw(_TEXTS),
        family=data.draw(st.sampled_from(TemplateFamily)),
        source_text=data.draw(_TEXTS),
        slots=tuple(slots),
        pair_id=data.draw(st.none() | _TEXTS),
        bindings=data.draw(st.dictionaries(_TEXTS, st.none() | st.booleans() | st.integers() | _TEXTS, max_size=3)),
    )


@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data())
def test_each_record_writer_writes_what_the_json_encoder_writes(tmp_path_factory, data):
    instance = _draw_instance(data)
    translation = TranslationRecord(data.draw(_TEXTS), data.draw(st.sampled_from(Language)),
                                    data.draw(_TEXTS), data.draw(_TEXTS))
    score = SlotScore(data.draw(_TEXTS), data.draw(st.integers(0, 10**6)), data.draw(st.sampled_from(GenderLabel)),
                      data.draw(_TEXTS), data.draw(_TEXTS))
    expected = {
        "suite": instance_to_dict(instance),
        "translations": {"system": translation.system_id, "lang": translation.language.value,
                         "id": translation.instance_id, "text": translation.target_text},
        "scores": {"instance_id": score.instance_id, "slot_index": score.slot_index, "label": score.label.value,
                   "matched_text": score.matched_text, "rule": score.rule},
    }
    base = tmp_path_factory.getbasetemp()
    write_suite([instance], base / "suite.jsonl")
    write_translations([translation], base / "translations.jsonl")
    write_scores([score], base / "scores.jsonl")
    for name, record in expected.items():
        written = (base / f"{name}.jsonl").read_bytes()
        assert written == (json.dumps(record, ensure_ascii=False) + "\n").encode("utf-8"), name
    assert parse_suite(base / "suite.jsonl") == [instance]


_MANIFEST = json.loads(demo_manifest_path().read_text(encoding="utf-8"))
_TRANSLATION = {"system": "s", "lang": "es", "id": "T7-000000a", "text": "t"}
_SCORE = {"instance_id": "T7-000000a", "slot_index": 0, "label": "M", "matched_text": "", "rule": ""}


@pytest.mark.parametrize("name, parse, text", [
    ("manifest.json", parse_manifest, json.dumps({**_MANIFEST, "adjectives": "fit"})),
    ("manifest.json", parse_manifest, json.dumps({**_MANIFEST, "quotas": {"T1-Det": 2.7}})),
    ("manifest.json", parse_manifest, json.dumps({**_MANIFEST, "quotas": {"T1-Det": "x"}})),
    ("manifest.json", parse_manifest, json.dumps({**_MANIFEST, "quotas": {"T9-Det": 2}})),
    ("manifest.json", parse_manifest, json.dumps({**_MANIFEST, "seed": "abc"})),
    ("manifest.json", parse_manifest, json.dumps({**_MANIFEST, "descriptor_pairs": [{"masculine": "strong doctor"}]})),
    ("manifest.json", parse_manifest, '{"seed": 7,'),
    ("tr.jsonl", parse_translations, json.dumps({**_TRANSLATION, "id": [1]})),
    ("tr.jsonl", parse_translations, json.dumps({**_TRANSLATION, "system": 1})),
    ("scores.jsonl", parse_scores, json.dumps({**_SCORE, "instance_id": [1]})),
    ("scores.jsonl", parse_scores, json.dumps({**_SCORE, "rule": 5})),
], ids=["string-adjectives", "float-quota", "string-quota", "unknown-quota-key", "string-seed",
        "pair-without-feminine", "invalid-json", "list-id", "int-system", "list-instance-id", "int-rule"])
def test_readers_reject_wrongly_typed_fields(tmp_path, name, parse, text):
    path = tmp_path / name
    path.write_text(text + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(str(path))):
        parse(path)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)
_DELETE = object()


def _field_paths(record):
    """Every field of a record, and the fields one object or array deeper."""
    paths = []
    for key, value in record.items():
        paths.append((key,))
        if isinstance(value, list) and value:
            paths.append((key, 0))
            if isinstance(value[0], dict):
                paths.extend((key, 0, inner) for inner in value[0])
        elif isinstance(value, dict):
            paths.extend((key, inner) for inner in value)
    return paths


@pytest.fixture(scope="module")
def valid_records(demo_manifest):
    instance = next(inst for inst in generate_suite(demo_manifest) if len(inst.slots) == 4 and inst.pair_id)
    return {
        "suite": (parse_suite, instance_to_dict(instance)),
        "translations": (parse_translations, _TRANSLATION),
        "scores": (parse_scores, _SCORE),
        "manifest": (parse_manifest, _MANIFEST),
    }


@pytest.mark.parametrize("reader", ["suite", "translations", "scores", "manifest"])
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_a_fuzzed_field_parses_or_is_a_parse_error(tmp_path_factory, valid_records, reader, data):
    parse, record = valid_records[reader]
    *parents, last = data.draw(st.sampled_from(_field_paths(record)), label="field")
    value = data.draw(st.just(_DELETE) | _JSON_VALUES, label="value")
    fuzzed = copy.deepcopy(record)
    target = fuzzed
    for step in parents:
        target = target[step]
    if value is _DELETE:
        del target[last]
    else:
        target[last] = value
    path = tmp_path_factory.getbasetemp() / f"fuzzed_{reader}.json"
    path.write_text(json.dumps(fuzzed, ensure_ascii=False) + "\n", encoding="utf-8")
    # manifests are only parsed: their quotas are unbounded, so no suite is generated
    try:
        parse(path)
    except ParseError as exc:
        assert str(path) in str(exc)


_SUITE_RECORD = {
    "id": "T3-000000a", "family": "T3", "source_text": "I am fit, he said calmly.",
    "slots": [
        {"slot_index": 0, "lemma": "fit", "referent": "speaker", "gender_kind": "determined_feminine",
         "ambiguity_kind": "none", "stereotype_kind": "masculine", "stereotype_cue": "calmly"},
        {"slot_index": 1, "lemma": "calm", "referent": "listener", "gender_kind": "ambiguous",
         "ambiguity_kind": "omission", "stereotype_kind": "none", "stereotype_cue": ""},
    ],
    "pair_id": "T3-000000", "bindings": {"A1": "fit", "first_person": 1},
}
_SMALL_MANIFEST = {
    "seed": 7, "adjectives": ["fit", "calm"],
    "descriptor_pairs": [{"masculine": "strong doctor", "feminine": "pretty nurse"}],
    "adverbs_masculine": ["firmly"], "adverbs_feminine": ["gently"], "quotas": {"T1-Det": 2, "T7-None": 1},
}
_READERS = {
    "suite": (parse_suite, _SUITE_RECORD),
    "translations": (parse_translations, _TRANSLATION),
    "scores": (parse_scores, _SCORE),
    "manifest": (parse_manifest, _SMALL_MANIFEST),
}
# (reader, field, edit) -> the message after "<file>:1: " ("<file>: " for a manifest), or None when the
# record still parses; a slot's fields are the suite's ("slots", 0, <key>)
_EXACT_ERRORS = {
    ("suite", ("id",), "delete"): "missing field 'id'",
    ("suite", ("id",), "mistype"): "id must be a string, got []",
    ("suite", ("family",), "delete"): "missing field 'family'",
    ("suite", ("family",), "mistype"): "family must be one of 'T1', 'T2', 'T3', 'T4', 'T5', 'T7', got []",
    ("suite", ("source_text",), "delete"): "missing field 'source_text'",
    ("suite", ("source_text",), "mistype"): "source_text must be a string, got []",
    ("suite", ("slots",), "delete"): "missing field 'slots'",
    ("suite", ("slots",), "mistype"): "slots must be an array, got {}",
    ("suite", ("slots", 0), "delete"): "slot indices must be 0..0, got [1]",
    ("suite", ("slots", 0), "mistype"): "each slot must be an object, got []",
    ("suite", ("slots", 0, "slot_index"), "delete"): "missing field 'slot_index'",
    ("suite", ("slots", 0, "slot_index"), "mistype"): "slot_index must be an integer, got []",
    ("suite", ("slots", 0, "lemma"), "delete"): "missing field 'lemma'",
    ("suite", ("slots", 0, "lemma"), "mistype"): "lemma must be a string, got []",
    ("suite", ("slots", 0, "referent"), "delete"): "missing field 'referent'",
    ("suite", ("slots", 0, "referent"), "mistype"): "referent must be one of 'speaker', 'listener', got []",
    ("suite", ("slots", 0, "gender_kind"), "delete"): "missing field 'gender_kind'",
    ("suite", ("slots", 0, "gender_kind"), "mistype"):
        "gender_kind must be one of 'determined_masculine', 'determined_feminine', 'ambiguous', got []",
    ("suite", ("slots", 0, "ambiguity_kind"), "delete"): "missing field 'ambiguity_kind'",
    ("suite", ("slots", 0, "ambiguity_kind"), "mistype"):
        "ambiguity_kind must be one of 'none', 'omission', 'active', got []",
    ("suite", ("slots", 0, "stereotype_kind"), "delete"): "missing field 'stereotype_kind'",
    ("suite", ("slots", 0, "stereotype_kind"), "mistype"):
        "stereotype_kind must be one of 'none', 'masculine', 'feminine', got []",
    ("suite", ("slots", 0, "stereotype_cue"), "delete"): None,
    ("suite", ("slots", 0, "stereotype_cue"), "mistype"): "stereotype_cue must be a string, got []",
    ("suite", ("pair_id",), "delete"): None,
    ("suite", ("pair_id",), "mistype"): "pair_id must be a string or null, got []",
    ("suite", ("bindings",), "delete"): None,
    ("suite", ("bindings",), "mistype"): "bindings must be an object, got []",
    ("suite", ("bindings", "A1"), "delete"): None,
    ("suite", ("bindings", "A1"), "mistype"): "binding 'A1' must be a string, integer, boolean or null, got []",
    ("suite", ("bindings", "first_person"), "delete"): None,
    ("suite", ("bindings", "first_person"), "mistype"):
        "binding 'first_person' must be a string, integer, boolean or null, got []",
    ("translations", ("system",), "delete"): "missing field 'system'",
    ("translations", ("system",), "mistype"): "system must be a string, got []",
    ("translations", ("lang",), "delete"): "missing field 'lang'",
    ("translations", ("lang",), "mistype"): "lang must be a string, got []",
    ("translations", ("id",), "delete"): "missing field 'id'",
    ("translations", ("id",), "mistype"): "id must be a string, got []",
    ("translations", ("text",), "delete"): "missing field 'text'",
    ("translations", ("text",), "mistype"): "text must be a string, got []",
    ("scores", ("instance_id",), "delete"): "missing field 'instance_id'",
    ("scores", ("instance_id",), "mistype"): "instance_id must be a string, got []",
    ("scores", ("slot_index",), "delete"): "missing field 'slot_index'",
    ("scores", ("slot_index",), "mistype"): "slot_index must be an integer, got []",
    ("scores", ("label",), "delete"): "missing field 'label'",
    ("scores", ("label",), "mistype"): "label must be one of 'M', 'F', 'N1', 'N2', 'N3', 'N4', 'N5', 'U', got []",
    ("scores", ("matched_text",), "delete"): None,
    ("scores", ("matched_text",), "mistype"): "matched_text must be a string, got []",
    ("scores", ("rule",), "delete"): None,
    ("scores", ("rule",), "mistype"): "rule must be a string, got []",
    ("manifest", ("seed",), "delete"): None,
    ("manifest", ("seed",), "mistype"): "seed must be an integer, got []",
    ("manifest", ("adjectives",), "delete"): None,
    ("manifest", ("adjectives",), "mistype"): "adjectives must be an array, got {}",
    ("manifest", ("adjectives", 0), "delete"): None,
    ("manifest", ("adjectives", 0), "mistype"): "adjectives must be an array of strings, got [[], 'calm']",
    ("manifest", ("descriptor_pairs",), "delete"): None,
    ("manifest", ("descriptor_pairs",), "mistype"): "descriptor_pairs must be an array, got {}",
    ("manifest", ("descriptor_pairs", 0), "delete"): None,
    ("manifest", ("descriptor_pairs", 0), "mistype"): "each descriptor pair must be an object, got []",
    ("manifest", ("descriptor_pairs", 0, "masculine"), "delete"): "missing field 'masculine'",
    ("manifest", ("descriptor_pairs", 0, "masculine"), "mistype"): "masculine must be a string, got []",
    ("manifest", ("descriptor_pairs", 0, "feminine"), "delete"): "missing field 'feminine'",
    ("manifest", ("descriptor_pairs", 0, "feminine"), "mistype"): "feminine must be a string, got []",
    ("manifest", ("adverbs_masculine",), "delete"): None,
    ("manifest", ("adverbs_masculine",), "mistype"): "adverbs_masculine must be an array, got {}",
    ("manifest", ("adverbs_masculine", 0), "delete"): None,
    ("manifest", ("adverbs_masculine", 0), "mistype"): "adverbs_masculine must be an array of strings, got [[]]",
    ("manifest", ("adverbs_feminine",), "delete"): None,
    ("manifest", ("adverbs_feminine",), "mistype"): "adverbs_feminine must be an array, got {}",
    ("manifest", ("adverbs_feminine", 0), "delete"): None,
    ("manifest", ("adverbs_feminine", 0), "mistype"): "adverbs_feminine must be an array of strings, got [[]]",
    ("manifest", ("quotas",), "delete"): None,
    ("manifest", ("quotas",), "mistype"): "quotas must be an object, got []",
    ("manifest", ("quotas", "T1-Det"), "delete"): None,
    ("manifest", ("quotas", "T1-Det"), "mistype"): "quota T1-Det must be a non-negative integer, got []",
    ("manifest", ("quotas", "T7-None"), "delete"): None,
    ("manifest", ("quotas", "T7-None"), "mistype"): "quota T7-None must be a non-negative integer, got []",
}


@pytest.mark.parametrize("reader, field, edit", [
    (reader, field, edit)
    for reader, (_, record) in _READERS.items() for field in _field_paths(record) for edit in ("delete", "mistype")
], ids=lambda value: ".".join(map(str, value)) if isinstance(value, tuple) else value)
def test_a_deleted_or_mistyped_field_gives_the_same_parse_error_text(tmp_path, reader, field, edit):
    parse, record = _READERS[reader]
    expected = _EXACT_ERRORS[reader, field, edit]
    record = copy.deepcopy(record)
    *parents, last = field
    target = record
    for step in parents:
        target = target[step]
    if edit == "delete":
        del target[last]
    else:  # a wrongly typed value: an object for an array, else an array
        target[last] = {} if type(target[last]) is list else []
    path = tmp_path / f"{reader}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    if expected is None:
        parse(path)
        return
    with pytest.raises(ParseError) as caught:
        parse(path)
    assert str(caught.value) == f"{path}{': ' if reader == 'manifest' else ':1: '}{expected}"


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_a_manifest_reads_back_as_it_was_written(tmp_path_factory, data):
    words = st.lists(_TEXTS, max_size=3)
    manifest = SuiteManifest(
        adjectives=data.draw(words),
        descriptor_pairs=[DescriptorPair(*pair) for pair in data.draw(st.lists(st.tuples(_TEXTS, _TEXTS), max_size=2))],
        adverbs_masculine=data.draw(words),
        adverbs_feminine=data.draw(words),
        quotas=data.draw(st.dictionaries(st.sampled_from(QUOTA_KEYS), st.integers(0, 10**6), max_size=4)),
        seed=data.draw(st.integers(-(2**63), 2**63)),
    )
    # a field left at its default may also be left out
    record = {key: value for key, value in asdict(manifest).items() if value or data.draw(st.booleans())}
    path = tmp_path_factory.getbasetemp() / "manifest.json"
    path.write_text(json.dumps(record, ensure_ascii=False), encoding="utf-8")
    assert parse_manifest(path) == manifest


@settings(derandomize=True, max_examples=40, deadline=None)
@given(weights=st.lists(st.integers(0, 3), min_size=len(GenderLabel), max_size=len(GenderLabel)),
       stride=st.integers(0, 4), threshold=st.floats(0, 1), orphans=st.integers(0, 3))
def test_a_built_metrics_document_reads_back_as_it_was_written(tmp_path_factory, demo_manifest, weights, stride,
                                                              threshold, orphans):
    suite = generate_suite(demo_manifest)
    # the slots take the drawn label counts in turn, and every stride-th instance has no score
    labels = itertools.cycle([label for label, weight in zip(GenderLabel, weights) for _ in range(weight)]
                             or [GenderLabel.UNMATCHED])
    scores = [SlotScore(instance.id, slot.slot_index, next(labels), "", "")
              for number, instance in enumerate(suite, start=1) if not stride or number % stride
              for slot in instance.slots]
    doc = build_metrics_doc(suite, scores, "sys", Language.ES, threshold, orphan_translations=orphans)
    path = tmp_path_factory.getbasetemp() / "metrics.json"
    write_metrics_doc(doc, path)
    assert parse_metrics_doc(path) == doc


# --- rendering ---------------------------------------------------------------------


def _reference_row_doc():
    def breakdown(m, f, n):
        return {"m": m, "f": f, "n": n, "n1": n, "n2": 0.0, "n3": 0.0, "n4": 0.0,
                "n5": 0.0, "u": 0.0, "count": 100, "u_count": 0}

    response = {
        "det": breakdown(0.42, 0.36, 0.22),
        "amb": breakdown(0.51, 0.09, 0.40),
        "delta_m": 0.087,
        "delta_f": -0.267,
        "delta_n": 0.180,
        "delta_ni": [0.180, 0.0, 0.0, 0.0, 0.0],
        "significant_m": True,
        "significant_n": True,
    }
    return {
        "system": "sys", "lang": "is", "threshold": 0.07,
        "baseline": None, "omission_response": None,
        "active_response": {"families": ["T5"], "per_family": {"T5": response}, "macro": response},
        "stereotype": None,
        "coverage": {"subsets": {}, "orphan_translations": 0, "missing_translations": 0},
    }


def test_markdown_row_matches_reference_layout():
    rendered = render_report(_reference_row_doc(), "md")
    assert "| T5 | (0.42, 0.36, 0.22) | (0.51, 0.09, 0.40) | **0.087** | -0.267 | **0.180** |" in rendered


def test_markdown_on_empty_document_is_header_only():
    doc = {"system": "sys", "lang": "es", "threshold": 0.07, "baseline": None,
           "omission_response": None, "active_response": None, "stereotype": None,
           "coverage": {"subsets": {}, "orphan_translations": 0, "missing_translations": 0}}
    rendered = render_report(doc, "md")
    assert "| Family | (M, F, N) Det | (M, F, N) Amb |" in rendered
    assert "| T5 |" not in rendered


def test_csv_rendering_has_boolean_significance_columns():
    rendered = render_report(_reference_row_doc(), "csv")
    header = rendered.splitlines()[0].split(",")
    assert "significant_m" in header and "significant_n" in header
    row = next(line for line in rendered.splitlines() if line.startswith("active,T5"))
    assert ",true," in row


def test_structured_format_round_trips_bytes(tmp_path):
    doc = _reference_row_doc()
    rendered = render_report(doc, "json")
    path = tmp_path / "metrics.json"
    path.write_text(rendered, encoding="utf-8")
    assert render_report(parse_metrics_doc(path), "json") == rendered


def test_unknown_format_rejected():
    with pytest.raises(ValueError, match="format"):
        render_report(_reference_row_doc(), "xml")


_GOLDEN_METRICS = json.loads((GOLDEN / "metrics_echo_sensitive_es.json").read_text(encoding="utf-8"))


def _nested_paths(value, prefix=()):
    """The path of every value nested in a JSON document."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    paths = []
    for key, inner in items:
        paths.append(prefix + (key,))
        paths.extend(_nested_paths(inner, prefix + (key,)))
    return paths


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_a_fuzzed_metrics_document_renders_or_is_a_parse_error(tmp_path_factory, data):
    *parents, last = data.draw(st.sampled_from(_nested_paths(_GOLDEN_METRICS)), label="field")
    value = data.draw(st.just(_DELETE) | _JSON_VALUES, label="value")
    fuzzed = copy.deepcopy(_GOLDEN_METRICS)
    target = fuzzed
    for step in parents:
        target = target[step]
    if value is _DELETE:
        del target[last]
    else:
        target[last] = value
    path = tmp_path_factory.getbasetemp() / "fuzzed_metrics.json"
    path.write_text(json.dumps(fuzzed, ensure_ascii=False) + "\n", encoding="utf-8")
    try:
        doc = parse_metrics_doc(path)
    except ParseError as exc:
        assert str(path) in str(exc)
        return
    for fmt in ("md", "csv", "json"):
        render_report(doc, fmt)


def test_a_document_with_a_strategy_breakdown_renders_as_before(tmp_path):
    # documents written before `strategy_breakdown` was dropped still carry it,
    # a copy of the baseline's strategy shares; unknown keys are ignored
    def by_type(cell):
        return {"n_det": cell["n"], **{key: cell[key] for key in ("n1", "n2", "n3", "n4", "n5")}}

    baseline = _GOLDEN_METRICS["baseline"]
    old = {}
    for key, value in _GOLDEN_METRICS.items():
        if key == "stereotype":
            old["strategy_breakdown"] = {
                "families": baseline["families"],
                "per_family": {tag: by_type(cell) for tag, cell in baseline["per_family"].items()},
                "macro": by_type(baseline["macro"]),
            }
        old[key] = value
    path = tmp_path / "metrics.json"
    write_metrics_doc(old, path)
    rendered = render_report(parse_metrics_doc(path), "md")
    assert rendered.encode("utf-8") == (GOLDEN / "report_echo_sensitive_es.md").read_bytes()


# --- pipeline ------------------------------------------------------------------------


def _fake_system_translations(suite, resources, system="fake", neutral_on_they=True):
    forms = {}
    for entry in resources.lexicon.entries:
        slot = forms.setdefault(entry.lemma, {})
        slot.setdefault(entry.form_gender.value, entry.surface_form)
    records = []
    for instance in suite:
        neutral = neutral_on_they and ',"' + " they said" in instance.source_text
        words = []
        for word in instance.source_text.split():
            lemma = word.strip('.,"').lower()
            if lemma in forms:
                choice = forms[lemma].get("common") if neutral else forms[lemma].get("m")
                words.append(choice or next(iter(forms[lemma].values())))
        records.append(
            TranslationRecord(system, Language.ES, instance.id, " ".join(words) + ".")
        )
    return records


@pytest.mark.parametrize("slot_index", [-1, False, 1.0, None])
def test_parse_scores_rejects_bad_slot_index(tmp_path, slot_index):
    path = _write_lines(tmp_path / "scores.jsonl", [
        {"instance_id": "T7-000000a", "slot_index": 0, "label": "M"},
        {"instance_id": "T7-000001a", "slot_index": slot_index, "label": "F"},
    ])
    with pytest.raises(ParseError, match=r"scores\.jsonl:2: slot_index"):
        parse_scores(path)


def test_label_cells_rejects_slot_index_past_the_instance(demo_manifest):
    suite = generate_suite(demo_manifest)
    instance = suite[0]
    past = len(instance.slots)
    with pytest.raises(GntError, match=rf"{instance.id}.*slot_index {past}"):
        label_cells([SlotScore(instance.id, past, GenderLabel.MASCULINE)], {instance.id: instance})


def test_build_metrics_doc_counts_instances_without_scores(demo_manifest, es_resources):
    suite = generate_suite(demo_manifest)
    records = _fake_system_translations(suite, es_resources)[:-3]
    scores, missing = score_suite(suite, records, es_resources)
    doc = build_metrics_doc(suite, scores, "fake", Language.ES)
    assert doc["coverage"]["missing_translations"] == missing == 3


@pytest.mark.parametrize("hand_edited", [False, True])
def test_metrics_sections_count_the_coverage_cells(demo_manifest, hand_edited):
    suite = generate_suite(demo_manifest)
    if hand_edited:
        # an active-ambiguous T3 slot, which the generator never produces
        index = next(i for i, inst in enumerate(suite) if inst.family is TemplateFamily.T3_ONE_PERSON_PARTIAL
                     and inst.slots[0].gender.is_ambiguous)
        slots = (replace(suite[index].slots[0], gender=AMBIGUOUS_ACTIVE),) + suite[index].slots[1:]
        suite[index] = replace(suite[index], slots=slots)
    rng = random.Random(7)
    scores = [SlotScore(inst.id, slot.slot_index, rng.choice(list(GenderLabel)))
              for inst in suite for slot in inst.slots]
    doc = build_metrics_doc(suite, scores, "fake", Language.ES)
    subsets = doc["coverage"]["subsets"]

    def covered(key):
        return subsets[key]["classified"] + subsets[key]["unmatched"]

    def counted(breakdown):
        return breakdown["count"] + breakdown["u_count"]

    for section in ("omission_response", "active_response"):
        for family, report in doc[section]["per_family"].items():
            assert counted(report["det"]) == covered(f"{family}-Det")
            assert counted(report["amb"]) == covered(f"{family}-Amb")
    for family, breakdown in doc["baseline"]["per_family"].items():
        assert counted(breakdown) == covered(f"{family}-Det")
    for name, key in (("neutral", "T7-None"), ("stereo_m", "T7-StereoM"), ("stereo_f", "T7-StereoF")):
        assert counted(doc["stereotype"][name]) == covered(key)
    assert sum(covered(key) for key in subsets) == len(scores)


def test_score_suite_counts_missing_translations(demo_manifest, es_resources):
    suite = generate_suite(demo_manifest)
    records = _fake_system_translations(suite, es_resources)[:-3]
    scores, missing = score_suite(suite, records, es_resources)
    assert missing == 3
    translated = {record.instance_id for record in records}
    assert len(scores) == sum(len(i.slots) for i in suite if i.id in translated)


def test_build_metrics_doc_engineered_active_response(demo_manifest, es_resources):
    suite = generate_suite(demo_manifest)
    records = _fake_system_translations(suite, es_resources)
    scores, missing = score_suite(suite, records, es_resources)
    assert missing == 0
    doc = build_metrics_doc(suite, scores, "fake", Language.ES)
    active = doc["active_response"]["macro"]
    assert active["delta_n"] == 1.0
    assert active["delta_m"] == -1.0
    assert active["significant_n"] is True
    assert doc["omission_response"]["macro"]["delta_n"] == 0.0
    assert doc["stereotype"]["delta_g_avg"] == 0.0
    baseline = doc["baseline"]["macro"]
    assert {key: baseline[key] for key in ("n", "n1", "n2", "n3", "n4", "n5")} == {
        "n": 0.0, "n1": 0.0, "n2": 0.0, "n3": 0.0, "n4": 0.0, "n5": 0.0,
    }
    assert all(cell["unmatched"] == 0 for cell in doc["coverage"]["subsets"].values())


def test_run_pipeline_end_to_end(tmp_path, demo_manifest, es_resources):
    suite = generate_suite(demo_manifest)
    translations = tmp_path / "translations.jsonl"
    write_translations(_fake_system_translations(suite, es_resources), translations)
    documents = run_pipeline(demo_manifest, translations, lexicon_dir(), tmp_path / "out")
    assert len(documents) == 1
    document = documents[0]
    assert document.system_id == "fake"
    assert document.report_path.exists()
    assert "**1.000**" in document.markdown
    reparsed = parse_metrics_doc(document.metrics_path)
    assert reparsed == document.doc


def test_orphan_translations_never_alter_metrics(tmp_path, demo_manifest, es_resources):
    suite = generate_suite(demo_manifest)
    records = _fake_system_translations(suite, es_resources)
    clean = tmp_path / "clean.jsonl"
    noisy = tmp_path / "noisy.jsonl"
    write_translations(records, clean)
    write_translations(
        records + [TranslationRecord("fake", Language.ES, "ghost-id", "Soy fuerte.")], noisy
    )
    clean_doc = run_pipeline(demo_manifest, clean, lexicon_dir(), tmp_path / "a")[0].doc
    noisy_doc = run_pipeline(demo_manifest, noisy, lexicon_dir(), tmp_path / "b")[0].doc
    assert noisy_doc["coverage"]["orphan_translations"] == 1
    noisy_doc["coverage"]["orphan_translations"] = 0
    assert noisy_doc == clean_doc


def test_run_pipeline_accepts_unknown_systems(tmp_path, demo_manifest, es_resources):
    suite = generate_suite(demo_manifest)
    records = _fake_system_translations(suite, es_resources, system="never-seen-before")
    translations = tmp_path / "translations.jsonl"
    write_translations(records, translations)
    documents = run_pipeline(demo_manifest, translations, lexicon_dir(), tmp_path / "out")
    assert [d.system_id for d in documents] == ["never-seen-before"]


def test_run_pipeline_missing_lexicon_dir_fails_in_score_stage(tmp_path, demo_manifest, es_resources):
    suite = generate_suite(demo_manifest)
    translations = tmp_path / "translations.jsonl"
    write_translations(_fake_system_translations(suite, es_resources), translations)
    with pytest.raises(InvalidEntry, match="nowhere"):
        run_pipeline(demo_manifest, translations, tmp_path / "nowhere", tmp_path / "out")


def test_metrics_doc_write_parse_write_is_byte_identical(tmp_path, demo_manifest, es_resources):
    suite = generate_suite(demo_manifest)
    records = _fake_system_translations(suite, es_resources)
    scores, _ = score_suite(suite, records, es_resources)
    doc = build_metrics_doc(suite, scores, "fake", Language.ES)
    first = tmp_path / "metrics.json"
    second = tmp_path / "metrics2.json"
    write_metrics_doc(doc, first)
    write_metrics_doc(parse_metrics_doc(first), second)
    assert first.read_bytes() == second.read_bytes()
    assert metrics_doc_to_text(doc).encode() == first.read_bytes()

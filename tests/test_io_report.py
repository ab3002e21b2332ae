from __future__ import annotations

import copy
import itertools
import json
import os
import random
import re
import threading

import pytest
from hypothesis import given, settings, strategies as st

from gnt import (
    GenderLabel,
    Language,
    SlotScore,
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
from gnt.formats import (
    _score_line, _suite_line, metrics_doc_to_text, parse_metrics_doc, split_orphans, write_metrics_doc,
)
from gnt.data import demo_manifest_path, lexicon_dir
from gnt.pipeline import build_metrics_doc, missing_translations, score_group, score_suite
from gnt.suite import (
    AMBIGUOUS_ACTIVE,
    AMBIGUOUS_OMISSION,
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
    assert parse_translations(path) == {
        ("sysA", Language.ES): {"T7-000000a": "Estoy en forma.", "T7-000001a": "Soy fuerte."},
        ("sysB", Language.IS): {"T7-000000a": "Ég er sterkur."},
    }


def test_parse_translations_rejects_unknown_language(tmp_path):
    path = _write_lines(tmp_path / "tr.jsonl", [{"system": "s", "lang": "fr", "id": "x", "text": "t"}])
    with pytest.raises(ParseError, match="language"):
        parse_translations(path)


def test_parse_translations_rejects_duplicates(tmp_path):
    line = {"system": "s", "lang": "es", "id": "T7-000000a", "text": "t"}
    path = _write_lines(tmp_path / "tr.jsonl", [line, line])
    with pytest.raises(DuplicateRecord, match="line 1"):
        parse_translations(path)


def test_parse_translations_keys_a_duplicate_by_system_language_and_id(tmp_path):
    records = [{"system": system, "lang": lang, "id": "x", "text": "t"}
               for system, lang in (("s", "es"), ("t", "es"), ("s", "cs"), ("s", "ES"))]
    path = _write_lines(tmp_path / "tr.jsonl", records)
    with pytest.raises(DuplicateRecord) as excinfo:
        parse_translations(path)
    assert str(excinfo.value) == f"{path}:4: duplicate record for ('s', 'es', 'x') (first seen on line 1)"
    assert len(parse_translations(_write_lines(tmp_path / "distinct.jsonl", records[:3]))) == 3


def _line(system, lang, instance_id):
    return {"system": system, "lang": lang, "id": instance_id, "text": f"{system} {lang} {instance_id}"}


@pytest.mark.parametrize("records, number, first, key", [
    # other ids of the group, and of other groups, between the first record and the duplicate
    ([_line("s", "es", "x"), _line("s", "es", "y"), _line("t", "es", "x"), _line("s", "es", "z"), _line("s", "es", "x")],
     5, 1, "('s', 'es', 'x')"),
    # the second group's third id is repeated, after a record of the first group
    ([_line("a", "cs", "x"), _line("a", "cs", "y"), _line("b", "is", "x"), _line("b", "is", "y"), _line("b", "is", "z"),
      _line("a", "cs", "z"), _line("b", "is", "z")], 7, 5, "('b', 'is', 'z')"),
], ids=["ids-between", "second-group"])
def test_a_duplicate_names_the_line_its_key_was_first_read_on(tmp_path, records, number, first, key):
    path = _write_lines(tmp_path / "tr.jsonl", records)
    with pytest.raises(DuplicateRecord) as excinfo:
        parse_translations(path)
    assert str(excinfo.value) == f"{path}:{number}: duplicate record for {key} (first seen on line {first})"
    # with a system that no record names, every group is one that is not returned
    with pytest.raises(DuplicateRecord) as dropped:
        parse_translations(path, system="nobody")
    assert str(dropped.value) == str(excinfo.value)


def test_a_duplicate_read_from_a_pipe_names_the_line_its_key_was_first_read_on(tmp_path):
    """A FIFO can be read once: the first line is found without a second read."""
    fifo = tmp_path / "tr.fifo"
    os.mkfifo(fifo)
    lines = [_line("s", "es", "x"), _line("s", "cs", "x"), _line("s", "es", "y"), _line("s", "es", "x")]
    text = "".join(json.dumps(line) + "\n" for line in lines)

    def feed():
        with open(fifo, "w", encoding="utf-8") as fh:  # blocks until the reader opens the FIFO
            fh.write(text)

    # with a system that no record names, every group is one that is not returned
    for select in ({}, {"system": "nobody"}):
        writer = threading.Thread(target=feed)
        writer.start()
        try:
            with pytest.raises(DuplicateRecord) as excinfo:
                parse_translations(fifo, **select)
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert str(excinfo.value) == f"{fifo}:4: duplicate record for ('s', 'es', 'x') (first seen on line 1)"


def test_parse_translations_reads_each_group_at_its_offsets_to_the_maps_of_one_read(tmp_path):
    """Interleaved groups, blank and padded lines and multi-byte texts: each group read at the offsets that the check
    pass returns is its map of one read, in the same order and keyed by the given ids."""
    records = [{"system": system, "lang": lang, "id": f"T7-{i:06d}a", "text": f"{system} {lang} {i} é \U0001f600"}
               for system in ("b", "a") for lang in ("es", "cs", "is") for i in range(6)]
    random.Random(11).shuffle(records)
    lines = [json.dumps(record, ensure_ascii=False) + "\n" for record in records]
    lines[3:3] = ["\n", "  \t\n"]
    lines[10] = "  " + lines[10].rstrip("\n") + "  \n"
    path = tmp_path / "tr.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    ids = ["".join(("T7-", f"{i:06d}a")) for i in range(4)]  # built at run time, so no literal shares them
    given = {id(instance_id) for instance_id in ids}
    whole = parse_translations(path, ids)
    offsets = parse_translations(path, ids, offsets=True)
    assert list(offsets) == list(whole)
    for key, group_offsets in offsets.items():
        group = parse_translations(path, ids, at={key: group_offsets})
        assert list(group) == [key] and list(group[key].items()) == list(whole[key].items())
        assert sum(id(instance_id) in given for instance_id in group[key]) == len(ids)
    assert parse_translations(path, ids, at=offsets) == whole
    assert list(parse_translations(path, offsets=True, system="b")) == [("b", Language.CS), ("b", Language.ES),
                                                                         ("b", Language.IS)]


def test_a_group_read_at_an_offset_inside_a_line_is_refused(tmp_path):
    """Past its indent, a line would still give its group's record: each offset must start a line."""
    path = tmp_path / "tr.jsonl"
    path.write_text('{"system": "s", "lang": "es", "id": "x", "text": "t"}\n'
                    '   {"system": "s", "lang": "es", "id": "y", "text": "u"}\n', encoding="utf-8")
    key = ("s", Language.ES)
    offsets = parse_translations(path, offsets=True)[key]
    assert parse_translations(path, at={key: offsets}) == {key: {"x": "t", "y": "u"}}
    for inside in ([offsets[0], offsets[1] + 3], [offsets[1] + 3]):
        with pytest.raises(ParseError) as excinfo:
            parse_translations(path, at={key: inside})
        assert str(excinfo.value) == f"{path}: changed while it was read"


def test_a_pipe_read_for_offsets_returns_its_maps(tmp_path):
    """A FIFO cannot be read again at offsets: asked for them, its one read keeps each group's map."""
    fifo = tmp_path / "tr.fifo"
    os.mkfifo(fifo)
    records = [_line("s", "es", "x"), _line("s", "cs", "x"), _line("s", "es", "y")]

    def feed():
        with open(fifo, "w", encoding="utf-8") as fh:  # blocks until the reader opens the FIFO
            fh.writelines(json.dumps(record) + "\n" for record in records)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        groups = parse_translations(fifo, offsets=True)
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert groups == {("s", Language.CS): {"x": "s cs x"}, ("s", Language.ES): {"x": "s es x", "y": "s es y"}}


def test_parse_translations_reports_malformed_line_number(tmp_path):
    path = tmp_path / "tr.jsonl"
    good = b'{"system": "s", "lang": "es", "id": "x", "text": "t"}\n'
    latin1 = '{"system": "s", "lang": "es", "id": "y", "text": "café"}\n'.encode("latin-1")
    for bad in (b"not json\n", latin1):
        path.write_bytes(good + bad)
        with pytest.raises(ParseError, match=":2"):
            parse_translations(path)


def test_orphans_are_split_not_fatal():
    texts = {"T7-000000a": "a", "ghost": "b"}
    assert split_orphans(texts, {"T7-000000a"}) == ["ghost"]


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
    assert str(caught.value) == f"{path}:2: slots.1.slot_index must be an integer, got {index!r}"


def test_a_field_error_inside_an_array_names_the_element(tmp_path, demo_manifest):
    # line 12 repeats a four-slot instance whose slot 2 has lost its lemma; the intact slot records
    # before it were checked and shared already, the bad one is checked where it stands
    records = [instance_to_dict(instance) for instance in generate_suite(demo_manifest)[:11]]
    bad = copy.deepcopy(next(record for record in records if len(record["slots"]) == 4))
    bad["id"] += "-repeated"
    del bad["slots"][2]["lemma"]
    path = _write_lines(tmp_path / "suite.jsonl", [*records, bad])
    with pytest.raises(ParseError) as caught:
        parse_suite(path)
    assert str(caught.value) == f"{path}:12: missing field 'slots.2.lemma'"

    manifest = copy.deepcopy(_SMALL_MANIFEST)
    manifest["descriptor_pairs"] = [{"masculine": "m", "feminine": "f"}] * 2 + [{"masculine": "m"}]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(ParseError) as caught:
        parse_manifest(path)
    assert str(caught.value) == f"{path}: missing field 'descriptor_pairs.2.feminine'"


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


def test_a_parsed_suite_holds_one_text_per_distinct_source_text(full_scale_suite_file):
    suite = parse_suite(full_scale_suite_file)
    texts = {instance.source_text for instance in suite}
    assert len(texts) == 196
    assert len({id(instance.source_text) for instance in suite}) == len(texts)


def _hand_slot(index, lemma="fit") -> AdjectiveSlot:
    return AdjectiveSlot(index, lemma, Referent.SPEAKER, AMBIGUOUS_OMISSION)


def test_write_suite_formats_shared_content_as_each_instance_alone(tmp_path):
    """Equal but differently typed bindings, or a bool index, are never taken for formatted ones."""
    shared = (_hand_slot(0), _hand_slot(1, "calm"))
    bool_index = (_hand_slot(0), _hand_slot(True, "calm"))
    bindings = [
        {"x": 1}, {"x": True}, {"x": 1}, {"x": 1.0}, {"x": 0.0}, {"x": -0.0}, {"x": [1]}, {"x": [True]},
        {1: "a"}, {True: "a"}, {"x": None}, {"x": "1"}, {"x": 1, "y": 2}, {"y": 2, "x": 1}, {},
    ]
    instances = [
        SuiteInstance("T1-000000d", TemplateFamily.T1_ONE_PERSON_KNOWN, "t", slots, None, binding)
        for slots, binding in itertools.product((shared, bool_index, shared), bindings)
    ]
    path = tmp_path / "suite.jsonl"
    write_suite(instances, path)
    expected = [_suite_line(instance) for instance in instances]
    assert path.read_text(encoding="utf-8").splitlines(keepends=True) == expected
    # every binding but the repeated {"x": 1} writes its own line, once per kind of slot index
    assert len(set(expected)) == (len(bindings) - 1) * 2


@pytest.mark.parametrize("index", [True, False])
def test_a_bool_slot_index_is_written_as_json_and_rejected_by_name(tmp_path, index):
    """The writers encode a bool index as JSON does; the readers then reject it as no integer, not as bad JSON."""
    suite = tmp_path / "suite.jsonl"
    slots = (_hand_slot(0), _hand_slot(index, "calm")) if index else (_hand_slot(index),)
    write_suite([SuiteInstance("T1-000000d", TemplateFamily.T1_ONE_PERSON_KNOWN, "t", slots)], suite)
    assert json.loads(suite.read_text(encoding="utf-8"))["slots"][-1]["slot_index"] is index
    with pytest.raises(ParseError, match=rf"^{re.escape(str(suite))}:1: slots\.\d\.slot_index must be an integer, "
                                         rf"got {index}$"):
        parse_suite(suite)
    scores = tmp_path / "scores.jsonl"
    write_scores([SlotScore("T7-000000a", 0, GenderLabel.MASCULINE), SlotScore("T7-000001a", index, GenderLabel.FEMININE)],
                 scores)
    assert json.loads(scores.read_text(encoding="utf-8").splitlines()[1])["slot_index"] is index
    with pytest.raises(ParseError, match=rf"^{re.escape(str(scores))}:2: slot_index must be an integer, got {index}$"):
        parse_scores(scores)


def test_parse_translations_shares_one_id_string_across_groups(tmp_path):
    path = tmp_path / "translations.jsonl"
    # json.loads builds a new string for each occurrence
    path.write_text("".join(
        json.dumps({"system": system, "lang": lang, "id": f"T7-{i:06d}a", "text": "t"}) + "\n"
        for system in ("a", "b") for lang in ("es", "cs") for i in range(3)
    ), encoding="utf-8")
    groups = parse_translations(path)
    assert sum(map(len, groups.values())) == 12
    assert len({id(instance_id) for texts in groups.values() for instance_id in texts}) == 3
    assert len({id(system) for system, _ in groups}) == 2


def test_parse_translations_keys_its_maps_by_the_given_ids_and_keeps_the_asked_groups(tmp_path):
    path = tmp_path / "translations.jsonl"
    path.write_text("".join(
        json.dumps({"system": system, "lang": lang, "id": f"T7-{i:06d}a", "text": f"{system}-{lang}-{i}"}) + "\n"
        for system in ("a", "b") for lang in ("es", "cs") for i in range(3)
    ), encoding="utf-8")
    ids = ["".join(("T7-", f"{i:06d}a")) for i in range(2)]  # built at run time, so no literal shares them
    groups = parse_translations(path, ids)
    assert len(groups) == 4
    for texts in groups.values():
        keys = list(texts)
        assert keys[0] is ids[0] and keys[1] is ids[1] and keys[2] == "T7-000002a"
    assert groups == parse_translations(path)
    assert parse_translations(path, system="b", language=Language.CS) == {
        ("b", Language.CS): {f"T7-{i:06d}a": f"b-cs-{i}" for i in range(3)}}
    assert list(parse_translations(path, language=Language.ES)) == [("a", Language.ES), ("b", Language.ES)]
    assert list(parse_translations(path, system="a")) == [("a", Language.CS), ("a", Language.ES)]
    assert parse_translations(path, system="c") == {}


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
    # groups as parse_translations orders them: by system, then language code; each map in its drawn order
    keys = data.draw(st.lists(st.tuples(_TEXTS, st.sampled_from(Language)), min_size=1, max_size=3, unique=True))
    groups = {key: data.draw(st.dictionaries(_TEXTS, _TEXTS, min_size=1, max_size=3))
              for key in sorted(keys, key=lambda key: (key[0], key[1].value))}
    score = SlotScore(data.draw(_TEXTS), data.draw(st.integers(0, 10**6)), data.draw(st.sampled_from(GenderLabel)),
                      data.draw(_TEXTS), data.draw(_TEXTS))
    expected = {
        "suite": [instance_to_dict(instance)],
        "translations": [{"system": system, "lang": language.value, "id": instance_id, "text": text}
                         for (system, language), texts in groups.items() for instance_id, text in texts.items()],
        "scores": [{"instance_id": score.instance_id, "slot_index": score.slot_index, "label": score.label.value,
                    "matched_text": score.matched_text, "rule": score.rule}],
    }
    base = tmp_path_factory.getbasetemp()
    write_suite([instance], base / "suite.jsonl")
    write_translations(groups, base / "translations.jsonl")
    write_scores([score], base / "scores.jsonl")
    for name, records in expected.items():
        written = (base / f"{name}.jsonl").read_bytes()
        assert written == "".join(json.dumps(record, ensure_ascii=False) + "\n" for record in records).encode(), name
    assert parse_suite(base / "suite.jsonl") == [instance]
    # the translations reader and writer are each other's inverse, the order of groups and of ids included
    parsed = parse_translations(base / "translations.jsonl")
    assert [(key, list(texts.items())) for key, texts in parsed.items()] == [
        (key, list(texts.items())) for key, texts in groups.items()]
    write_translations(parsed, base / "rewritten.jsonl")
    assert (base / "rewritten.jsonl").read_bytes() == (base / "translations.jsonl").read_bytes()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_write_scores_writes_each_line_as_it_is_formatted_alone(tmp_path_factory, data):
    """Tails shared by many scores, texts that need escaping and bool slot indices: the file, whose tails are
    formatted once each, is every score's line formatted on its own."""
    texts = data.draw(st.lists(_TEXTS, min_size=1, max_size=3))
    tails = data.draw(st.lists(st.tuples(st.sampled_from(GenderLabel), st.sampled_from(texts), st.sampled_from(texts)),
                               min_size=1, max_size=3))
    heads = st.tuples(_TEXTS, st.integers(0, 10**6) | st.booleans())
    scores = [SlotScore(*head, *tail) for head, tail in data.draw(st.lists(st.tuples(heads, st.sampled_from(tails)),
                                                                           max_size=12))]
    path = tmp_path_factory.getbasetemp() / "tails.jsonl"
    write_scores(scores, path)
    assert path.read_bytes() == "".join(map(_score_line, scores)).encode()


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
    ("suite", ("slots", 0, "slot_index"), "delete"): "missing field 'slots.0.slot_index'",
    ("suite", ("slots", 0, "slot_index"), "mistype"): "slots.0.slot_index must be an integer, got []",
    ("suite", ("slots", 0, "lemma"), "delete"): "missing field 'slots.0.lemma'",
    ("suite", ("slots", 0, "lemma"), "mistype"): "slots.0.lemma must be a string, got []",
    ("suite", ("slots", 0, "referent"), "delete"): "missing field 'slots.0.referent'",
    ("suite", ("slots", 0, "referent"), "mistype"): "slots.0.referent must be one of 'speaker', 'listener', got []",
    ("suite", ("slots", 0, "gender_kind"), "delete"): "missing field 'slots.0.gender_kind'",
    ("suite", ("slots", 0, "gender_kind"), "mistype"):
        "slots.0.gender_kind must be one of 'determined_masculine', 'determined_feminine', 'ambiguous', got []",
    ("suite", ("slots", 0, "ambiguity_kind"), "delete"): "missing field 'slots.0.ambiguity_kind'",
    ("suite", ("slots", 0, "ambiguity_kind"), "mistype"):
        "slots.0.ambiguity_kind must be one of 'none', 'omission', 'active', got []",
    ("suite", ("slots", 0, "stereotype_kind"), "delete"): "missing field 'slots.0.stereotype_kind'",
    ("suite", ("slots", 0, "stereotype_kind"), "mistype"):
        "slots.0.stereotype_kind must be one of 'none', 'masculine', 'feminine', got []",
    ("suite", ("slots", 0, "stereotype_cue"), "delete"): None,
    ("suite", ("slots", 0, "stereotype_cue"), "mistype"): "slots.0.stereotype_cue must be a string, got []",
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
    ("manifest", ("descriptor_pairs", 0, "masculine"), "delete"): "missing field 'descriptor_pairs.0.masculine'",
    ("manifest", ("descriptor_pairs", 0, "masculine"), "mistype"): "descriptor_pairs.0.masculine must be a string, got []",
    ("manifest", ("descriptor_pairs", 0, "feminine"), "delete"): "missing field 'descriptor_pairs.0.feminine'",
    ("manifest", ("descriptor_pairs", 0, "feminine"), "mistype"): "descriptor_pairs.0.feminine must be a string, got []",
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
    word = _TEXTS.filter(str.strip)  # a blank word is an error (see test_cli)
    words = st.lists(word, max_size=3)
    manifest = SuiteManifest(
        adjectives=data.draw(words),
        descriptor_pairs=[DescriptorPair(*pair) for pair in data.draw(st.lists(st.tuples(word, word), max_size=2))],
        adverbs_masculine=data.draw(words),
        adverbs_feminine=data.draw(words),
        quotas=data.draw(st.dictionaries(st.sampled_from(QUOTA_KEYS), st.integers(0, 10**6), max_size=4)),
        seed=data.draw(st.integers(-(2**63), 2**63)),
    )
    # the pairs are written as objects; a field left at its default may also be left out
    fields = {**manifest._asdict(), "descriptor_pairs": [pair._asdict() for pair in manifest.descriptor_pairs]}
    record = {key: value for key, value in fields.items() if value or data.draw(st.booleans())}
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
    missing = missing_translations(suite, {score.instance_id for score in scores})
    doc = build_metrics_doc({instance.id: instance for instance in suite}, scores, "sys", Language.ES, threshold,
                            orphan_translations=orphans, missing_translations=missing)
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


def _fake_system_translations(suite, resources, neutral_on_they=True) -> dict[str, str]:
    """A fake es system's id -> text map for `suite`: each known adjective's `common` form on a they-dialogue,
    else its masculine form."""
    forms = {}
    for entry in resources.lexicon.entries:
        slot = forms.setdefault(entry.lemma, {})
        slot.setdefault(entry.form_gender.value, entry.surface_form)
    texts = {}
    for instance in suite:
        neutral = neutral_on_they and ',"' + " they said" in instance.source_text
        words = []
        for word in instance.source_text.split():
            lemma = word.strip('.,"').lower()
            if lemma in forms:
                choice = forms[lemma].get("common") if neutral else forms[lemma].get("m")
                words.append(choice or next(iter(forms[lemma].values())))
        texts[instance.id] = " ".join(words) + "."
    return texts


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
    index = {instance.id: instance for instance in suite}
    texts = _fake_system_translations(suite[:-3], es_resources)
    scores, orphans, missing = score_group(suite, index, texts, es_resources)
    doc = build_metrics_doc(index, scores, "fake", Language.ES, orphan_translations=orphans,
                            missing_translations=missing)
    assert doc["coverage"]["missing_translations"] == 3


@pytest.mark.parametrize("hand_edited", [False, True])
def test_metrics_sections_count_the_coverage_cells(demo_manifest, hand_edited):
    suite = generate_suite(demo_manifest)
    if hand_edited:
        # an active-ambiguous T3 slot, which the generator never produces
        index = next(i for i, inst in enumerate(suite) if inst.family is TemplateFamily.T3_ONE_PERSON_PARTIAL
                     and inst.slots[0].gender.is_ambiguous)
        slots = (suite[index].slots[0]._replace(gender=AMBIGUOUS_ACTIVE),) + suite[index].slots[1:]
        suite[index] = suite[index]._replace(slots=slots)
    rng = random.Random(7)
    scores = [SlotScore(inst.id, slot.slot_index, rng.choice(list(GenderLabel)))
              for inst in suite for slot in inst.slots]
    doc = build_metrics_doc({inst.id: inst for inst in suite}, scores, "fake", Language.ES)
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
    scores = score_suite(suite, _fake_system_translations(suite[:-3], es_resources), es_resources)
    assert missing_translations(suite, {score.instance_id for score in scores}) == 3
    assert len(scores) == sum(len(i.slots) for i in suite[:-3])


def test_build_metrics_doc_engineered_active_response(demo_manifest, es_resources):
    suite = generate_suite(demo_manifest)
    scores = score_suite(suite, _fake_system_translations(suite, es_resources), es_resources)
    missing = missing_translations(suite, {score.instance_id for score in scores})
    doc = build_metrics_doc({instance.id: instance for instance in suite}, scores, "fake", Language.ES,
                            missing_translations=missing)
    assert doc["coverage"]["missing_translations"] == 0
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
    write_translations({("fake", Language.ES): _fake_system_translations(suite, es_resources)}, translations)
    reports = run_pipeline(demo_manifest, translations, lexicon_dir(), tmp_path / "out")
    assert len(reports) == 1
    system, language, report_path = reports[0]
    assert (system, language) == ("fake", Language.ES)
    markdown = report_path.read_text(encoding="utf-8")
    assert "**1.000**" in markdown
    assert render_report(parse_metrics_doc(tmp_path / "out" / "metrics_fake_es.json"), "md") == markdown


def test_orphan_translations_never_alter_metrics(tmp_path, demo_manifest, es_resources):
    suite = generate_suite(demo_manifest)
    texts = _fake_system_translations(suite, es_resources)
    clean = tmp_path / "clean.jsonl"
    noisy = tmp_path / "noisy.jsonl"
    write_translations({("fake", Language.ES): texts}, clean)
    write_translations({("fake", Language.ES): {**texts, "ghost-id": "Soy fuerte."}}, noisy)
    run_pipeline(demo_manifest, clean, lexicon_dir(), tmp_path / "a")
    run_pipeline(demo_manifest, noisy, lexicon_dir(), tmp_path / "b")
    clean_doc = parse_metrics_doc(tmp_path / "a" / "metrics_fake_es.json")
    noisy_doc = parse_metrics_doc(tmp_path / "b" / "metrics_fake_es.json")
    assert noisy_doc["coverage"]["orphan_translations"] == 1
    noisy_doc["coverage"]["orphan_translations"] = 0
    assert noisy_doc == clean_doc


def test_run_pipeline_accepts_unknown_systems(tmp_path, demo_manifest, es_resources):
    suite = generate_suite(demo_manifest)
    translations = tmp_path / "translations.jsonl"
    write_translations({("never-seen-before", Language.ES): _fake_system_translations(suite, es_resources)},
                       translations)
    reports = run_pipeline(demo_manifest, translations, lexicon_dir(), tmp_path / "out")
    assert [system for system, _, _ in reports] == ["never-seen-before"]


def test_run_pipeline_missing_lexicon_dir_fails_in_score_stage(tmp_path, demo_manifest, es_resources):
    suite = generate_suite(demo_manifest)
    translations = tmp_path / "translations.jsonl"
    write_translations({("fake", Language.ES): _fake_system_translations(suite, es_resources)}, translations)
    with pytest.raises(InvalidEntry, match="nowhere"):
        run_pipeline(demo_manifest, translations, tmp_path / "nowhere", tmp_path / "out")


def test_metrics_doc_write_parse_write_is_byte_identical(tmp_path, demo_manifest, es_resources):
    suite = generate_suite(demo_manifest)
    scores = score_suite(suite, _fake_system_translations(suite, es_resources), es_resources)
    doc = build_metrics_doc({instance.id: instance for instance in suite}, scores, "fake", Language.ES)
    first = tmp_path / "metrics.json"
    second = tmp_path / "metrics2.json"
    write_metrics_doc(doc, first)
    write_metrics_doc(parse_metrics_doc(first), second)
    assert first.read_bytes() == second.read_bytes()
    assert metrics_doc_to_text(doc).encode() == first.read_bytes()

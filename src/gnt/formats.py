"""Line-delimited JSON file formats for suites, translations and scores.

Writers emit one UTF-8 JSON object per line with a fixed key order, so a
parse -> write round trip reproduces a valid file byte for byte.
"""

from __future__ import annotations

import json
from collections import namedtuple
from copy import copy
from dataclasses import dataclass
from enum import EnumMeta
from functools import partial
from json.encoder import encode_basestring
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Mapping

from .classify import GenderLabel, SlotScore
from .errors import DuplicateRecord, ParseError
from .lexicon import Language
from .metrics import ResponseReport, StrategyBreakdown
from .suite import (
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
    TestInstance,
)


# json.dumps(record, ensure_ascii=False) builds a new encoder on every call
_dump = json.JSONEncoder(ensure_ascii=False).encode
# the fixed-key writers build each line as _dump would: strings through the
# encoder's own escaping, Enum values as their constant JSON text
_str = encode_basestring
# json.loads less its per-call checks; _read_lines strips each line first
_raw_decode = json.JSONDecoder().raw_decode

_MISSING = object()
_NULL = type(None)
_KIND_NAMES = {
    str: "a string", int: "an integer", float: "a number", bool: "a boolean", list: "an array", dict: "an object",
    _NULL: "null",
}
_BINDING_KINDS = (str, int, bool, _NULL)
# Enum.__call__ is slow, and a suite holds tens of thousands of Enum fields
_MEMBERS = {
    kind: {member.value: member for member in kind}
    for kind in (TemplateFamily, Referent, GenderKind, AmbiguityKind, StereotypeKind, GenderLabel)
}
_LANGUAGES = {member.value: member for member in Language}
_TEXT = {member: _str(member.value) for members in (*_MEMBERS.values(), _LANGUAGES) for member in members.values()}


# an object field that may be absent: checked against `shape`, or else read as a copy of `value`
_Default = namedtuple("_Default", "shape value")


def _check(value, shape, name: str, path: str, line: int = 0):
    """Check `value`, named `name` ("" for a whole record), against `shape` and return it read.

    A shape is a tuple of JSON types, matched exactly so that a boolean is no integer; a string-valued Enum class,
    read as the member whose value the string is; a function `(value, name, path, line)` that checks the value and
    returns it read; or an object's fields mapped to their shapes, read as the list of the field values. Fields are
    checked in table order, each is required unless its shape is a `_Default`, and keys not listed are ignored.
    A mismatch is a ParseError naming the file, and the line when `line` is not 0.
    """
    if type(shape) is dict:
        if type(value) is not dict:
            raise ParseError(f"{name} must be an object, got {value!r}", path, line)
        fields = []
        for key, inner in shape.items():
            item = value.get(key, _MISSING)
            # the common case: a leaf checked with no call, and no field name built
            if type(inner) is tuple and type(item) in inner:
                fields.append(item)
                continue
            if type(inner) is _Default:
                if item is _MISSING:
                    fields.append(copy(inner.value))
                    continue
                inner = inner.shape
            field = f"{name}.{key}" if name else key
            if item is _MISSING:
                raise ParseError(f"missing field {field!r}", path, line)
            fields.append(_check(item, inner, field, path, line))
        return fields
    if type(shape) is tuple:
        if type(value) in shape:
            return value
        raise ParseError(f"{name} must be {_kind_names(shape)}, got {value!r}", path, line)
    if type(shape) is not EnumMeta:
        return shape(value, name, path, line)
    members = _MEMBERS[shape]
    if type(value) is str and value in members:
        return members[value]
    raise ParseError(f"{name} must be one of {', '.join(map(repr, members))}, got {value!r}", path, line)


def _kind_names(kinds: tuple) -> str:
    return " or ".join(_KIND_NAMES[kind] for kind in kinds)


def _decode(raw: bytes, path: str, line: int = 0) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 ({exc.reason} at byte {exc.start})", path, line) from None


def _read_lines(path: str):
    with open(path, "rb") as fh:
        for number, raw in enumerate(fh, start=1):
            line = _decode(raw, path, number).strip()
            if not line:
                continue
            try:
                record, end = _raw_decode(line)
                if end != len(line):
                    raise json.JSONDecodeError("Extra data", line, end)
            except json.JSONDecodeError as exc:
                # the messages of json.loads, which looks for a byte order mark first
                message = "Unexpected UTF-8 BOM (decode using utf-8-sig)" if line[0] == "\ufeff" else exc.msg
                raise ParseError(f"invalid JSON ({message})", path, number) from None
            if not isinstance(record, dict):
                raise ParseError("record must be a JSON object", path, number)
            yield number, record


def _read_document(path: str) -> dict:
    with open(path, "rb") as fh:
        text = _decode(fh.read(), path)

    # json.loads accepts NaN, Infinity and -Infinity, which are not JSON
    def reject(constant: str):
        raise ParseError(f"invalid JSON ({constant} is not a number)", path)

    try:
        doc = json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON ({exc.msg})", path, exc.lineno) from None
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object", path)
    return doc


# --- manifest ----------------------------------------------------------------


def _string_array(value, name: str, path: str, line: int) -> list[str]:
    if type(value) is not list or any(type(item) is not str for item in value):
        raise ParseError(f"{name} must be an array of strings, got {value!r}", path, line)
    return value


def _word_list(value, name: str, path: str, line: int) -> list[str]:
    return _string_array(_check(value, (list,), name, path, line), name, path, line)


_DESCRIPTOR_PAIR = {"masculine": (str,), "feminine": (str,)}


def _descriptor_pairs(value, name: str, path: str, line: int) -> list[DescriptorPair]:
    pairs = []
    for raw in _check(value, (list,), name, path, line):
        if type(raw) is not dict:
            raise ParseError(f"each descriptor pair must be an object, got {raw!r}", path, line)
        pairs.append(DescriptorPair(*_check(raw, _DESCRIPTOR_PAIR, "", path, line)))
    return pairs


_MANIFEST = {
    "descriptor_pairs": _Default(_descriptor_pairs, []),
    **dict.fromkeys(("adjectives", "adverbs_masculine", "adverbs_feminine"), _Default(_word_list, [])),
    "quotas": _Default((dict,), {}),
    "seed": _Default((int,), 0),
}


def parse_manifest(path: str | Path) -> SuiteManifest:
    """Read a suite manifest; a malformed one raises ParseError naming the file."""
    path = str(path)
    # the pairs are checked first, then the manifest's fields in their order
    pairs, adjectives, *others = _check(_read_document(path), _MANIFEST, "", path)
    try:
        return SuiteManifest(adjectives, pairs, *others)
    except ValueError as exc:
        raise ParseError(str(exc), path) from None


# --- suite -------------------------------------------------------------------


_SLOT = {
    "gender_kind": GenderKind, "ambiguity_kind": AmbiguityKind, "stereotype_kind": StereotypeKind,
    "stereotype_cue": _Default((str,), ""), "slot_index": (int,), "lemma": (str,), "referent": Referent,
}


def _slots(known_slots: dict | None, value, name: str, path: str, line: int) -> tuple[AdjectiveSlot, ...]:
    """An instance's slots, sorted by index.

    `known_slots` maps each slot record already checked to its slot, which every
    instance that repeats the record shares (None: share within this instance).
    The index's type is part of the key: 1, 1.0 and true are equal, but only 1
    is a valid index.
    """
    known_slots = {} if known_slots is None else known_slots
    slots = []
    for raw in _check(value, (list,), name, path, line):
        if type(raw) is not dict:
            raise ParseError(f"each slot must be an object, got {raw!r}", path, line)
        slot_key = (*raw.items(), type(raw.get("slot_index")))
        try:
            slot = known_slots.get(slot_key)
        except TypeError:  # an array or object value cannot be hashed
            slot = slot_key = None
        if slot is None:
            gender_kind, ambiguity_kind, stereotype_kind, cue, index, lemma, referent = _check(
                raw, _SLOT, "", path, line
            )
            try:
                gender = GenderCondition(gender_kind, ambiguity_kind)
                stereotype = StereotypeCondition(stereotype_kind, cue)
            except ValueError as exc:
                raise ParseError(f"invalid slot record: {exc}", path, line) from None
            slot = AdjectiveSlot(index, lemma, referent, gender, stereotype)
            if slot_key is not None:
                known_slots[slot_key] = slot
        slots.append(slot)
    slots.sort(key=attrgetter("slot_index"))
    # scores name their slot by index, so indices must be exactly 0..n-1
    indices = [slot.slot_index for slot in slots]
    if indices != list(range(len(slots))):
        raise ParseError(f"slot indices must be 0..{len(slots) - 1}, got {indices!r}", path, line)
    return tuple(slots)


def _bindings(value, name: str, path: str, line: int) -> dict:
    for key, item in _check(value, (dict,), name, path, line).items():
        if type(item) not in _BINDING_KINDS:
            raise ParseError(f"binding {key!r} must be a string, integer, boolean or null, got {item!r}", path, line)
    return value


_INSTANCE = {
    "slots": partial(_slots, None), "bindings": _Default(_bindings, {}), "id": (str,), "family": TemplateFamily,
    "source_text": (str,), "pair_id": _Default((str, _NULL), None),
}


def _suite_line(instance: TestInstance) -> str:
    slots = ", ".join(
        f'{{"slot_index": {slot.slot_index}, "lemma": {_str(slot.lemma)}, "referent": {_TEXT[slot.referent]}, '
        f'"gender_kind": {_TEXT[slot.gender.kind]}, "ambiguity_kind": {_TEXT[slot.gender.ambiguity]}, '
        f'"stereotype_kind": {_TEXT[slot.stereotype.kind]}, "stereotype_cue": {_str(slot.stereotype.cue)}}}'
        for slot in instance.slots
    )
    pair_id = "null" if instance.pair_id is None else _str(instance.pair_id)
    return (
        f'{{"id": {_str(instance.id)}, "family": {_TEXT[instance.family]}, "source_text": {_str(instance.source_text)}, '
        f'"slots": [{slots}], "pair_id": {pair_id}, "bindings": {_dump(instance.bindings)}}}\n'
    )


def write_suite(instances: Iterable[TestInstance], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(map(_suite_line, instances))


def parse_suite(path: str | Path) -> list[TestInstance]:
    path = str(path)
    instances = []
    seen: set[str] = set()
    # one slot cache for the whole file
    table = {**_INSTANCE, "slots": partial(_slots, {})}
    for number, record in _read_lines(path):
        slots, bindings, instance_id, family, source_text, pair_id = _check(record, table, "", path, number)
        if instance_id in seen:
            raise DuplicateRecord(f"{path}:{number}: duplicate instance id {instance_id!r}")
        seen.add(instance_id)
        instances.append(TestInstance(instance_id, family, source_text, slots, pair_id, bindings))
    return instances


# --- translations --------------------------------------------------------------


@dataclass(frozen=True)
class TranslationRecord:
    system_id: str
    language: Language
    instance_id: str
    target_text: str


def translation_line(record: TranslationRecord) -> str:
    """One translations-file line, newline included."""
    return (
        f'{{"system": {_str(record.system_id)}, "lang": {_TEXT[record.language]}, '
        f'"id": {_str(record.instance_id)}, "text": {_str(record.target_text)}}}\n'
    )


def write_translations(records: Iterable[TranslationRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(translation_line(record) for record in records)


_TRANSLATION = {"system": (str,), "lang": (str,), "id": (str,), "text": (str,)}


def _first_seen(seen: dict, key: tuple, path: str, number: int) -> None:
    """Note that `key` is read on line `number`; a key read on an earlier line is a DuplicateRecord."""
    first = seen.setdefault(key, number)
    if first != number:
        raise DuplicateRecord(f"{path}:{number}: duplicate record for {key} (first seen on line {first})")


def parse_translations(path: str | Path) -> list[TranslationRecord]:
    """Parse and validate a translations file.

    Raises ParseError (with line number) on malformed lines or languages
    outside the closed is/cs/es set, and DuplicateRecord when one
    (system, lang, id) key appears twice.
    """
    path = str(path)
    records = []
    seen: dict[tuple[str, str, str], int] = {}
    for number, record in _read_lines(path):
        system, lang, instance_id, text = _check(record, _TRANSLATION, "", path, number)
        language = _LANGUAGES.get(lang.lower())
        if language is None:
            raise ParseError(f"unknown language {lang!r}", path, number)
        _first_seen(seen, (system, language.value, instance_id), path, number)
        records.append(TranslationRecord(system, language, instance_id, text))
    return records


def split_orphans(
    records: Iterable[TranslationRecord], known_ids: set[str]
) -> tuple[list[TranslationRecord], list[TranslationRecord]]:
    """Separate records whose instance id is not part of the loaded suite."""
    valid, orphans = [], []
    for record in records:
        (valid if record.instance_id in known_ids else orphans).append(record)
    return valid, orphans


# --- scores ----------------------------------------------------------------------


def _score_line(score: SlotScore) -> str:
    return (
        f'{{"instance_id": {_str(score.instance_id)}, "slot_index": {score.slot_index}, "label": {_TEXT[score.label]}, '
        f'"matched_text": {_str(score.matched_text)}, "rule": {_str(score.rule)}}}\n'
    )


def write_scores(scores: Iterable[SlotScore], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(map(_score_line, scores))


def _slot_index(value, name: str, path: str, line: int) -> int:
    # a negative index would count against another slot
    if _check(value, (int,), name, path, line) < 0:
        raise ParseError(f"{name} must be a non-negative integer, got {value}", path, line)
    return value


_SCORE = {
    "slot_index": _slot_index, "instance_id": (str,), "label": GenderLabel,
    "matched_text": _Default((str,), ""), "rule": _Default((str,), ""),
}


def parse_scores(path: str | Path) -> list[SlotScore]:
    """Parse and validate a scores file; one (instance_id, slot_index) read twice is a DuplicateRecord."""
    path = str(path)
    scores = []
    seen: dict[tuple[str, int], int] = {}
    for number, record in _read_lines(path):
        slot_index, instance_id, label, matched_text, rule = _check(record, _SCORE, "", path, number)
        _first_seen(seen, (instance_id, slot_index), path, number)
        scores.append(SlotScore(instance_id, slot_index, label, matched_text, rule))
    return scores


# --- metrics documents -------------------------------------------------------------


def write_metrics_doc(doc: Mapping, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(metrics_doc_to_text(doc))


def metrics_doc_to_text(doc: Mapping) -> str:
    return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


# The shapes below are the whole metrics document as `report.py` reads it;
# every field is required, and keys not listed are ignored.
_NUMBER = (float, int)
_BREAKDOWN = {
    **dict.fromkeys(("m", "f", "n", "n1", "n2", "n3", "n4", "n5", "u"), _NUMBER),
    **dict.fromkeys(("count", "u_count"), (int,)),
}


def _strategy_shift(value, name: str, path: str, line: int) -> list:
    if type(value) is not list or len(value) != 5 or any(type(v) not in _NUMBER for v in value):
        raise ParseError(f"{name} must be an array of 5 numbers, got {value!r}", path, line)
    return value


def _each(entry):
    """Shape of an object whose every value has shape `entry`."""
    def check(value, name: str, path: str, line: int) -> dict:
        for key, item in _check(value, (dict,), name, path, line).items():
            _check(item, entry, f"{name}.{key}", path, line)
        return value
    return check


def _by_family(entry):
    """Shape of a section with an `entry` for each of its `families`, and their `macro`."""
    def check(section, name: str, path: str, line: int) -> dict:
        shape = {"families": _string_array, "per_family": (dict,), "macro": entry}
        families, per_family, _ = _check(section, shape, name, path, line)
        _check(per_family, dict.fromkeys(families, entry), f"{name}.per_family", path, line)
        return section
    return check


def _section(shape):
    """Shape of a section: null when no classified slot counts toward it, else `shape`."""
    def check(value, name: str, path: str, line: int):
        if _check(value, (dict, _NULL), name, path, line) is not None:
            _check(value, shape, name, path, line)
        return value
    return check


_RESPONSE = {
    "det": _BREAKDOWN,
    "amb": _BREAKDOWN,
    **dict.fromkeys(("delta_m", "delta_f", "delta_n"), _NUMBER),
    "delta_ni": _strategy_shift,
    **dict.fromkeys(("significant_m", "significant_n"), (bool,)),
}
_METRICS_DOC = {
    "system": (str,),
    "lang": (str,),
    "threshold": _NUMBER,
    "baseline": _section(_by_family(_BREAKDOWN)),
    "omission_response": _section(_by_family(_RESPONSE)),
    "active_response": _section(_by_family(_RESPONSE)),
    "stereotype": _section({
        **dict.fromkeys(("neutral", "stereo_m", "stereo_f"), _BREAKDOWN),
        **dict.fromkeys(("delta_g_avg", "delta_n_avg"), _NUMBER),
        "significant_g": (bool,),
    }),
    "coverage": {
        "subsets": _each({"classified": (int,), "unmatched": (int,), "unmatched_rate": _NUMBER}),
        "orphan_translations": (int,),
        "missing_translations": (int,),
    },
}


def parse_metrics_doc(path: str | Path) -> dict:
    """Read a metrics document; a missing or wrongly typed field raises ParseError naming the file."""
    path = str(path)
    doc = _read_document(path)
    _check(doc, _METRICS_DOC, "", path)
    return doc


_ENTRY_SHAPES = {StrategyBreakdown: _BREAKDOWN, ResponseReport: _RESPONSE}


def metrics_entry(value: StrategyBreakdown | ResponseReport) -> dict:
    """The metrics-document object of `value`: each field of its shape read from the attribute of that name."""
    entry = {}
    for key, shape in _ENTRY_SHAPES[type(value)].items():
        item = getattr(value, key)
        if type(shape) is dict:
            item = metrics_entry(item)
        elif shape is _NUMBER:  # an exact fraction
            item = float(item)
        elif shape is _strategy_shift:
            item = [float(v) for v in item]
        entry[key] = item
    return entry


def by_family_entry(per_family: Mapping[str, StrategyBreakdown | ResponseReport], macro) -> dict:
    """A section of one entry per family, and the entry of their `macro` average."""
    entries = {family: metrics_entry(value) for family, value in per_family.items()}
    return {"families": sorted(entries), "per_family": entries, "macro": metrics_entry(macro)}

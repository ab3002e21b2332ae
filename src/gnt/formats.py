"""Line-delimited JSON file formats for suites, translations and scores.

Writers emit one UTF-8 JSON object per line with a fixed key order, so a
parse -> write round trip reproduces a valid file byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .classify import GenderLabel, SlotScore
from .errors import DuplicateRecord, ParseError
from .lexicon import Language
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


def _take(record: dict, key: str, kinds, path: str, line: int = 0, default=_MISSING):
    """Field `key` of a JSON record; a wrong type, or a missing field without `default`, is a ParseError.

    `kinds` is a tuple of JSON types, matched exactly so that a boolean is no
    integer, or a string-valued Enum class, which reads the member whose value
    the field's string is.
    """
    value = record.get(key, _MISSING)
    if value is _MISSING:
        if default is _MISSING:
            raise ParseError(f"missing field {key!r}", path, line)
        return default
    if type(kinds) is tuple:
        if type(value) in kinds:
            return value
        expected = _kind_names(kinds)
    else:
        members = _MEMBERS[kinds]
        if type(value) is str and value in members:
            return members[value]
        expected = "one of " + ", ".join(map(repr, members))
    raise ParseError(f"{key} must be {expected}, got {value!r}", path, line)


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
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON ({exc.msg})", path, number) from None
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


def _string_array(value, name: str, path: str) -> None:
    if type(value) is not list or any(type(item) is not str for item in value):
        raise ParseError(f"{name} must be an array of strings, got {value!r}", path)


def _strings(data: dict, key: str, path: str) -> list[str]:
    values = _take(data, key, (list,), path, default=[])
    _string_array(values, key, path)
    return values


def parse_manifest(path: str | Path) -> SuiteManifest:
    """Read a suite manifest; a malformed one raises ParseError naming the file."""
    path = str(path)
    data = _read_document(path)
    pairs = []
    for raw in _take(data, "descriptor_pairs", (list,), path, default=[]):
        if type(raw) is not dict:
            raise ParseError(f"each descriptor pair must be an object, got {raw!r}", path)
        pairs.append(DescriptorPair(_take(raw, "masculine", (str,), path), _take(raw, "feminine", (str,), path)))
    try:
        return SuiteManifest(
            adjectives=_strings(data, "adjectives", path),
            descriptor_pairs=pairs,
            adverbs_masculine=_strings(data, "adverbs_masculine", path),
            adverbs_feminine=_strings(data, "adverbs_feminine", path),
            quotas=_take(data, "quotas", (dict,), path, default={}),
            seed=_take(data, "seed", (int,), path, default=0),
        )
    except ValueError as exc:
        raise ParseError(str(exc), path) from None


# --- suite -------------------------------------------------------------------


def instance_to_dict(instance: TestInstance) -> dict:
    return {
        "id": instance.id,
        "family": instance.family.tag,
        "source_text": instance.source_text,
        "slots": [
            {
                "slot_index": slot.slot_index,
                "lemma": slot.lemma,
                "referent": slot.referent.value,
                "gender_kind": slot.gender.kind.value,
                "ambiguity_kind": slot.gender.ambiguity.value,
                "stereotype_kind": slot.stereotype.kind.value,
                "stereotype_cue": slot.stereotype.cue,
            }
            for slot in instance.slots
        ],
        "pair_id": instance.pair_id,
        "bindings": dict(instance.bindings),
    }


def instance_from_dict(record: dict, path: str = "", number: int = 0) -> TestInstance:
    """Build a suite instance; a malformed record raises ParseError (path:line)."""
    slots = []
    for raw in _take(record, "slots", (list,), path, number):
        if type(raw) is not dict:
            raise ParseError(f"each slot must be an object, got {raw!r}", path, number)
        try:
            gender = GenderCondition(
                _take(raw, "gender_kind", GenderKind, path, number),
                _take(raw, "ambiguity_kind", AmbiguityKind, path, number),
            )
            stereotype = StereotypeCondition(
                _take(raw, "stereotype_kind", StereotypeKind, path, number),
                _take(raw, "stereotype_cue", (str,), path, number, ""),
            )
        except ValueError as exc:
            raise ParseError(f"invalid slot record: {exc}", path, number) from None
        slots.append(
            AdjectiveSlot(
                slot_index=_take(raw, "slot_index", (int,), path, number),
                lemma=_take(raw, "lemma", (str,), path, number),
                referent=_take(raw, "referent", Referent, path, number),
                gender=gender,
                stereotype=stereotype,
            )
        )
    slots.sort(key=lambda s: s.slot_index)
    # scores name their slot by index, so indices must be exactly 0..n-1
    if any(slot.slot_index != i for i, slot in enumerate(slots)):
        indices = [slot.slot_index for slot in slots]
        raise ParseError(f"slot indices must be 0..{len(slots) - 1}, got {indices!r}", path, number)
    bindings = _take(record, "bindings", (dict,), path, number, {})
    for key, value in bindings.items():
        if type(value) not in _BINDING_KINDS:
            raise ParseError(f"binding {key!r} must be a string, integer, boolean or null, got {value!r}", path, number)
    return TestInstance(
        id=_take(record, "id", (str,), path, number),
        family=_take(record, "family", TemplateFamily, path, number),
        source_text=_take(record, "source_text", (str,), path, number),
        slots=tuple(slots),
        pair_id=_take(record, "pair_id", (str, _NULL), path, number, None),
        bindings=bindings,
    )


def write_suite(instances: Iterable[TestInstance], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for instance in instances:
            fh.write(_dump(instance_to_dict(instance)) + "\n")


def parse_suite(path: str | Path) -> list[TestInstance]:
    path = str(path)
    instances = []
    seen: set[str] = set()
    for number, record in _read_lines(path):
        instance = instance_from_dict(record, path, number)
        if instance.id in seen:
            raise DuplicateRecord(f"{path}:{number}: duplicate instance id {instance.id!r}")
        seen.add(instance.id)
        instances.append(instance)
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
    return _dump(
        {
            "system": record.system_id,
            "lang": record.language.value,
            "id": record.instance_id,
            "text": record.target_text,
        }
    ) + "\n"


def write_translations(records: Iterable[TranslationRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(translation_line(record) for record in records)


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
        system = _take(record, "system", (str,), path, number)
        lang = _take(record, "lang", (str,), path, number)
        instance_id = _take(record, "id", (str,), path, number)
        text = _take(record, "text", (str,), path, number)
        try:
            language = Language(lang.lower())
        except ValueError:
            raise ParseError(f"unknown language {lang!r}", path, number) from None
        key = (system, language.value, instance_id)
        if key in seen:
            raise DuplicateRecord(
                f"{path}:{number}: duplicate record for {key} (first seen on line {seen[key]})"
            )
        seen[key] = number
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


def write_scores(scores: Iterable[SlotScore], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for score in scores:
            fh.write(
                _dump(
                    {
                        "instance_id": score.instance_id,
                        "slot_index": score.slot_index,
                        "label": score.label.value,
                        "matched_text": score.matched_text,
                        "rule": score.rule,
                    }
                )
                + "\n"
            )


def parse_scores(path: str | Path) -> list[SlotScore]:
    path = str(path)
    scores = []
    for number, record in _read_lines(path):
        slot_index = _take(record, "slot_index", (int,), path, number)
        # a negative index would count against another slot
        if slot_index < 0:
            raise ParseError(f"slot_index must be a non-negative integer, got {slot_index}", path, number)
        scores.append(
            SlotScore(
                instance_id=_take(record, "instance_id", (str,), path, number),
                slot_index=slot_index,
                label=_take(record, "label", GenderLabel, path, number),
                matched_text=_take(record, "matched_text", (str,), path, number, ""),
                rule=_take(record, "rule", (str,), path, number, ""),
            )
        )
    return scores


# --- metrics documents -------------------------------------------------------------


def write_metrics_doc(doc: Mapping, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(metrics_doc_to_text(doc))


def metrics_doc_to_text(doc: Mapping) -> str:
    return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


# The shapes below are the whole metrics document as `report.py` reads it;
# every field is required, and keys not listed are ignored. A shape is a tuple
# of JSON types, an object's fields mapped to their shapes, or a function that
# checks the value itself.
_NUMBER = (float, int)
_BREAKDOWN = {
    **dict.fromkeys(("m", "f", "n", "n1", "n2", "n3", "n4", "n5", "u"), _NUMBER),
    **dict.fromkeys(("count", "u_count"), (int,)),
}


def _check(value, shape, name: str, path: str) -> None:
    """Check a metrics-document value against `shape`; a mismatch is a ParseError naming the file."""
    if type(shape) is tuple:
        if type(value) not in shape:
            raise ParseError(f"{name} must be {_kind_names(shape)}, got {value!r}", path)
    elif type(shape) is dict:
        _check(value, (dict,), name, path)
        for key, inner in shape.items():
            field = f"{name}.{key}" if name else key
            if key not in value:
                raise ParseError(f"missing field {field!r}", path)
            _check(value[key], inner, field, path)
    else:
        shape(value, name, path)


def _strategy_shift(value, name: str, path: str) -> None:
    if type(value) is not list or len(value) != 5 or any(type(v) not in _NUMBER for v in value):
        raise ParseError(f"{name} must be an array of 5 numbers, got {value!r}", path)


def _each(entry):
    """Shape of an object whose every value has shape `entry`."""
    def check(value, name: str, path: str) -> None:
        _check(value, (dict,), name, path)
        for key, item in value.items():
            _check(item, entry, f"{name}.{key}", path)
    return check


def _by_family(entry):
    """Shape of a section with an `entry` for each of its `families`, and their `macro`."""
    def check(section, name: str, path: str) -> None:
        _check(section, {"families": _string_array, "per_family": (dict,), "macro": entry}, name, path)
        _check(section["per_family"], dict.fromkeys(section["families"], entry), f"{name}.per_family", path)
    return check


def _section(shape):
    """Shape of a section: null when no classified slot counts toward it, else `shape`."""
    def check(value, name: str, path: str) -> None:
        _check(value, (dict, _NULL), name, path)
        if value is not None:
            _check(value, shape, name, path)
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

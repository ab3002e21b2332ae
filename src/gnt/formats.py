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
    GenderCondition,
    GenderKind,
    Referent,
    StereotypeCondition,
    StereotypeKind,
    TemplateFamily,
    TestInstance,
)


# json.dumps(record, ensure_ascii=False) builds a new encoder on every call
_dump = json.JSONEncoder(ensure_ascii=False).encode


def _read_lines(path: str | Path):
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON ({exc.msg})", str(path), number) from None
            if not isinstance(record, dict):
                raise ParseError("record must be a JSON object", str(path), number)
            yield number, record


def _field(record: dict, key: str, path: str, number: int):
    if key not in record:
        raise ParseError(f"missing field {key!r}", path, number)
    return record[key]


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
        "bindings": instance.bindings,
    }


def _enum_value(enum_cls, value, field_name: str, path: str, number: int):
    try:
        return enum_cls(value)
    except ValueError:
        raise ParseError(f"invalid {field_name} {value!r}", path, number) from None


def instance_from_dict(record: dict, path: str = "", number: int = 0) -> TestInstance:
    """Build a suite instance; a malformed record raises ParseError (path:line)."""
    family = _enum_value(TemplateFamily, _field(record, "family", path, number), "family", path, number)
    try:
        slots = []
        for raw in _field(record, "slots", path, number):
            lemma, cue = raw["lemma"], raw.get("stereotype_cue", "")
            if not isinstance(lemma, str) or not isinstance(cue, str):
                raise ParseError(
                    f"slot fields 'lemma' and 'stereotype_cue' must be strings, got {lemma!r} and {cue!r}",
                    path, number,
                )
            gender = GenderCondition(
                _enum_value(GenderKind, raw["gender_kind"], "gender_kind", path, number),
                _enum_value(AmbiguityKind, raw["ambiguity_kind"], "ambiguity_kind", path, number),
            )
            stereotype = StereotypeCondition(
                _enum_value(StereotypeKind, raw["stereotype_kind"], "stereotype_kind", path, number),
                cue,
            )
            slots.append(
                AdjectiveSlot(
                    slot_index=raw["slot_index"],
                    lemma=lemma,
                    referent=_enum_value(Referent, raw["referent"], "referent", path, number),
                    gender=gender,
                    stereotype=stereotype,
                )
            )
        slots.sort(key=lambda s: s.slot_index)
    except KeyError as exc:
        raise ParseError(f"missing slot field {exc}", path, number) from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"invalid slot record: {exc}", path, number) from None
    # scores name their slot by index, so indices must be exactly 0..n-1
    if any(type(slot.slot_index) is not int or slot.slot_index != i for i, slot in enumerate(slots)):
        indices = [slot.slot_index for slot in slots]
        raise ParseError(f"slot indices must be 0..{len(slots) - 1}, got {indices!r}", path, number)
    instance_id = _field(record, "id", path, number)
    source_text = _field(record, "source_text", path, number)
    if not isinstance(instance_id, str) or not isinstance(source_text, str):
        raise ParseError(
            f"fields 'id' and 'source_text' must be strings, got {instance_id!r} and {source_text!r}", path, number
        )
    pair_id = record.get("pair_id")
    if pair_id is not None and not isinstance(pair_id, str):
        raise ParseError(f"field 'pair_id' must be a string or null, got {pair_id!r}", path, number)
    bindings = record.get("bindings", {})
    if not isinstance(bindings, dict):
        raise ParseError(f"field 'bindings' must be an object, got {bindings!r}", path, number)
    for key, value in bindings.items():
        # bool is an int subclass, so booleans pass too
        if value is not None and not isinstance(value, (str, int)):
            raise ParseError(f"binding {key!r} must be a string, integer, boolean or null, got {value!r}", path, number)
    return TestInstance(
        id=instance_id,
        family=family,
        source_text=source_text,
        slots=tuple(slots),
        pair_id=pair_id,
        bindings=bindings,
    )


def write_suite(instances: Iterable[TestInstance], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for instance in instances:
            fh.write(_dump(instance_to_dict(instance)) + "\n")


def parse_suite(path: str | Path) -> list[TestInstance]:
    instances = []
    seen: set[str] = set()
    for number, record in _read_lines(path):
        instance = instance_from_dict(record, str(path), number)
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
    records = []
    seen: dict[tuple[str, str, str], int] = {}
    for number, record in _read_lines(path):
        system = _field(record, "system", path, number)
        lang_value = _field(record, "lang", path, number)
        instance_id = _field(record, "id", path, number)
        text = _field(record, "text", path, number)
        try:
            language = Language(str(lang_value).lower())
        except ValueError:
            raise ParseError(f"unknown language {lang_value!r}", str(path), number) from None
        if not isinstance(text, str):
            raise ParseError("field 'text' must be a string", str(path), number)
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
    scores = []
    for number, record in _read_lines(path):
        label = _enum_value(GenderLabel, _field(record, "label", str(path), number), "label", str(path), number)
        slot_index = _field(record, "slot_index", str(path), number)
        # bool is an int subclass, and a negative index would count against another slot
        if type(slot_index) is not int or slot_index < 0:
            raise ParseError(f"slot_index must be a non-negative integer, got {slot_index!r}", str(path), number)
        scores.append(
            SlotScore(
                instance_id=_field(record, "instance_id", str(path), number),
                slot_index=slot_index,
                label=label,
                matched_text=record.get("matched_text", ""),
                rule=record.get("rule", ""),
            )
        )
    return scores


# --- metrics documents -------------------------------------------------------------


def write_metrics_doc(doc: Mapping, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(metrics_doc_to_text(doc))


def metrics_doc_to_text(doc: Mapping) -> str:
    return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


def parse_metrics_doc(path: str | Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON ({exc.msg})", str(path), exc.lineno) from None
    if not isinstance(doc, dict):
        raise ParseError("metrics document must be a JSON object", str(path))
    return doc

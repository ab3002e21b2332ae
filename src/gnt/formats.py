"""Line-delimited JSON file formats for suites, translations and scores.

Writers emit one UTF-8 JSON object per line with a fixed key order, so a
parse -> write round trip reproduces a valid file byte for byte.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections import namedtuple
from copy import copy
from enum import EnumMeta
from functools import partial
from json.encoder import encode_basestring
from operator import attrgetter
from pathlib import Path
from typing import Container, Iterable, Iterator, Mapping, Sequence

from .classify import GenderLabel, SlotScore
from .errors import DuplicateRecord, ParseError, ProtocolViolation
from .lexicon import Language
from .metrics import ResponseReport, StereotypeReport, StrategyBreakdown
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


class _NotJson(ValueError):
    """A number that Python's json module reads but JSON does not allow."""


def _finite(text: str) -> float:  # the constants too: json reads NaN, Infinity and -Infinity
    value = float(text)
    if not math.isfinite(value):
        raise _NotJson(f"{text} is not a finite number")
    return value


_DECODER = json.JSONDecoder(parse_constant=_finite, parse_float=_finite)
# json.loads less its per-call checks and raw_decode's Python frame, as gnt run decodes each translations line twice;
# the lines are stripped first. Where raw_decode raises "Expecting value", it raises StopIteration with the index.
_scan = _DECODER.scan_once


def _invalid_json(exc: Exception, text: str, path: str, line: int = 0) -> ParseError:
    """The error for `exc`, raised decoding `text`: it names the file, and `line` or else the line of the fault."""
    message = str(exc)  # a _NotJson's
    if isinstance(exc, StopIteration):
        exc = json.JSONDecodeError("Expecting value", text, exc.value)
    if isinstance(exc, json.JSONDecodeError):
        # the messages of json.loads, which looks for a byte order mark first
        message = "Unexpected UTF-8 BOM (decode using utf-8-sig)" if text[:1] == "\ufeff" else exc.msg
        line = line or exc.lineno
    elif isinstance(exc, RecursionError):
        message = "nested too deeply"
    elif not isinstance(exc, _NotJson):  # int's limit on the digits it converts
        message = f"an integer of more than {sys.get_int_max_str_digits()} digits"
    return ParseError(f"invalid JSON ({message})", path, line)


def _read_lines(path: str):
    """(line number, byte offset, record) of each non-blank line of `path`."""
    with open(path, "rb") as fh:
        end_of_line = 0
        for number, raw in enumerate(fh, start=1):
            offset, end_of_line = end_of_line, end_of_line + len(raw)
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                _decode(raw, path, number)  # raises the ParseError that names the byte
            if not line:
                continue
            try:
                record, end = _scan(line, 0)
                if end != len(line):
                    raise json.JSONDecodeError("Extra data", line, end)
            except (StopIteration, ValueError, RecursionError) as exc:
                raise _invalid_json(exc, line, path, number) from None
            if not isinstance(record, dict):
                raise ParseError("record must be a JSON object", path, number)
            yield number, offset, record


def _lines_at(path: str, offsets: Iterable[int]) -> Iterator[bytes]:
    """The lines of `path` that start at `offsets`, ascending byte offsets, up to one that no line starts at.

    A line that follows the one before it is read on from there. Over a gap, such as the lines of other groups, the
    file seeks, and the byte before the offset must be a newline.
    """
    with open(path, "rb") as fh:
        position = 0
        for want in offsets:
            if want != position:
                fh.seek(want - 1)
                if fh.read(1) != b"\n":
                    return
            raw = fh.readline()
            if not raw:
                return
            position = want + len(raw)
            yield raw


def _read_document(path: str) -> dict:
    with open(path, "rb") as fh:
        text = _decode(fh.read(), path)
    try:
        doc = _DECODER.decode(text)
    except (ValueError, RecursionError) as exc:
        raise _invalid_json(exc, text, path) from None
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
    for i, raw in enumerate(_check(value, (list,), name, path, line)):
        if type(raw) is not dict:
            raise ParseError(f"each descriptor pair must be an object, got {raw!r}", path, line)
        pairs.append(DescriptorPair(*_check(raw, _DESCRIPTOR_PAIR, f"{name}.{i}", path, line)))
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


def _slots(known_slots: dict, value, name: str, path: str, line: int) -> tuple[AdjectiveSlot, ...]:
    """An instance's slots, sorted by index.

    `known_slots` maps each slot record already checked to its slot, which every
    instance that repeats the record shares. The index's type is part of the
    key: 1, 1.0 and true are equal, but only 1 is a valid index.
    """
    slots = []
    for i, raw in enumerate(_check(value, (list,), name, path, line)):
        if type(raw) is not dict:
            raise ParseError(f"each slot must be an object, got {raw!r}", path, line)
        slot_key = (*raw.items(), type(raw.get("slot_index")))
        try:
            slot = known_slots.get(slot_key)
        except TypeError:  # an array or object value cannot be hashed
            slot = slot_key = None
        if slot is None:
            gender_kind, ambiguity_kind, stereotype_kind, cue, index, lemma, referent = _check(
                raw, _SLOT, f"{name}.{i}", path, line
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


# the fields after "slots", whose shape iter_suite binds to one slot cache per file
_INSTANCE = {
    "bindings": _Default(_bindings, {}), "id": (str,), "family": TemplateFamily,
    "source_text": (str,), "pair_id": _Default((str, _NULL), None),
}


def _index(value: int) -> str:
    """A slot index as JSON writes it: a bool as true or false, which the readers then reject as no integer."""
    return f"{value}" if type(value) is int else _dump(value)


def _slots_text(slots: tuple[AdjectiveSlot, ...]) -> str:
    return ", ".join(
        f'{{"slot_index": {_index(slot.slot_index)}, "lemma": {_str(slot.lemma)}, "referent": {_TEXT[slot.referent]}, '
        f'"gender_kind": {_TEXT[slot.gender.kind]}, "ambiguity_kind": {_TEXT[slot.gender.ambiguity]}, '
        f'"stereotype_kind": {_TEXT[slot.stereotype.kind]}, "stereotype_cue": {_str(slot.stereotype.cue)}}}'
        for slot in slots
    )


def _suite_line(instance: TestInstance, slots: str | None = None) -> str:
    """The suite-file line of `instance`, with its slots' JSON when they are already formatted."""
    if slots is None:
        slots = _slots_text(instance.slots)
    pair_id = "null" if instance.pair_id is None else _str(instance.pair_id)
    return (
        f'{{"id": {_str(instance.id)}, "family": {_TEXT[instance.family]}, "source_text": {_str(instance.source_text)}, '
        f'"slots": [{slots}], "pair_id": {pair_id}, "bindings": {_dump(instance.bindings)}}}\n'
    )


def write_suite(instances: Iterable[TestInstance], path: str | Path) -> None:
    """Write a suite file, formatting each distinct slots tuple once."""
    # id(slots) -> (slots, their text): the held tuple keeps its id from being reused by another
    slot_texts: dict[int, tuple[tuple[AdjectiveSlot, ...], str]] = {}
    with open(path, "w", encoding="utf-8") as fh:
        for instance in instances:
            slots = instance.slots
            known = slot_texts.get(id(slots))
            if known is None:
                known = slot_texts[id(slots)] = (slots, _slots_text(slots))
            fh.write(_suite_line(instance, known[1]))


def iter_suite(path: str | Path) -> Iterator[TestInstance]:
    """Read a suite file one instance at a time, checking each line as it is read.

    The file is opened at the first instance asked for. A malformed line raises
    ParseError and a repeated id DuplicateRecord, each naming the file and line,
    once the reader gets there. A ProtocolViolation thrown into the reader at an
    instance (`generator.throw`) is raised again naming that instance's line.
    """
    path = str(path)
    seen: set[str] = set()
    # one slot cache and one string per distinct source text for the whole file
    table = {"slots": partial(_slots, {}), **_INSTANCE}
    texts: dict[str, str] = {}
    for number, _, record in _read_lines(path):
        slots, bindings, instance_id, family, source_text, pair_id = _check(record, table, "", path, number)
        if instance_id in seen:
            raise DuplicateRecord(f"{path}:{number}: duplicate instance id {instance_id!r}")
        seen.add(instance_id)
        source_text = texts.setdefault(source_text, source_text)
        try:
            yield TestInstance(instance_id, family, source_text, slots, pair_id, bindings)
        except ProtocolViolation as exc:
            raise ProtocolViolation(f"{path}:{number}: {exc}") from None


def parse_suite(path: str | Path) -> list[TestInstance]:
    return list(iter_suite(path))


# --- translations --------------------------------------------------------------


def translation_line(system: str, language: Language, instance_id: str, text: str) -> str:
    """One translations-file line, newline included."""
    return (
        f'{{"system": {_str(system)}, "lang": {_TEXT[language]}, '
        f'"id": {_str(instance_id)}, "text": {_str(text)}}}\n'
    )


def write_translations(groups: Mapping[tuple[str, Language], Mapping[str, str]], path: str | Path) -> None:
    """Write one id -> text map per (system, language), in mapping order: the shape `parse_translations` returns.

    It is the reader's inverse: writing back what `parse_translations` read reproduces, byte for byte, a file
    written this way with its groups in the reader's order (by system, then language code).
    """
    with open(path, "w", encoding="utf-8") as fh:
        for (system, language), texts in groups.items():
            fh.writelines(translation_line(system, language, instance_id, text) for instance_id, text in texts.items())


_TRANSLATION = {"system": (str,), "lang": (str,), "id": (str,), "text": (str,)}


def _translation(record: dict, path: str, number: int) -> tuple[str, str, str, str]:
    """A translations record's system, lang, id and text, checked as `_check` checks them against `_TRANSLATION`."""
    get = record.get
    fields = get("system"), get("lang"), get("id"), get("text")
    if type(fields[0]) is type(fields[1]) is type(fields[2]) is type(fields[3]) is str:
        return fields
    return _check(record, _TRANSLATION, "", path, number)  # raises the error of the first field that is no string


def _duplicate(key: tuple, path: str, number: int, first: int) -> DuplicateRecord:
    return DuplicateRecord(f"{path}:{number}: duplicate record for {key} (first seen on line {first})")


def parse_translations(
    path: str | Path,
    ids: Iterable[str] = (),
    *,
    system: str | None = None,
    language: Language | None = None,
    offsets: bool = False,
    at: Mapping[tuple[str, Language], Sequence[int]] | None = None,
) -> dict[tuple[str, Language], dict[str, str] | Sequence[int]]:
    """Parse and validate a translations file into one id -> text map per (system, language).

    The groups are ordered by system, then language code; each map keeps the
    order in which the file first gives its ids. A map's key is the string of
    `ids` (say, the suite's instance ids) that it equals, so a suite's ids are
    not held twice. With `system` or `language`, only the groups of that
    system and language are returned, and no text of another group is kept;
    every line is still checked: a group that is not returned costs one bit
    per id it gives, not a map, in a regular file. Raises ParseError (with
    line number) on malformed lines or languages outside the closed is/cs/es
    set, and DuplicateRecord when one (system, lang, id) key appears twice.

    With `offsets`, every line is checked alike but no text is kept: in a
    regular file, each group returned is the array of its lines' byte offsets
    instead of its map. A file that cannot be read twice, such as a pipe,
    still returns its maps. With `at`, a mapping of groups to such offsets,
    the file is not checked again and the other keywords are ignored: only
    the lines at those offsets are read, into the groups' maps. A line that
    no longer gives a record of its group there raises ParseError("changed
    while it was read").
    """
    from array import array  # here, so that `import gnt.cli` loads no module that only a read of translations uses

    path = str(path)
    if at is not None:
        strings = {instance_id: instance_id for instance_id in ids}
        return {key: _read_group(path, key, group_offsets, strings) for key, group_offsets in at.items()}
    rereadable = os.path.isfile(path)
    offsets = offsets and rereadable
    typecode = "Q" if offsets and os.path.getsize(path) >> 32 else "I"
    # Per (system, language code), one of two shapes. A map group: its map (of None for a group that is not
    # returned); the line each of its ids was first read on, in the order of the map's keys, so the file is read once;
    # and whether it is returned. With `offsets`, or for a group not returned in a regular file, a bit group: the
    # offsets of its lines when it is returned, else None; and its bit in `bits`. A bit group's duplicate has its first
    # line read again.
    groups: dict[tuple[str, str], tuple[dict[str, str | None], array[int], bool] | tuple[array[int] | None, int]] = {}
    kept: list[tuple[str, str]] = []
    # one string per system id and per instance id, shared by every map that names it
    strings: dict[str, str] = {} if offsets else {instance_id: instance_id for instance_id in ids}
    # id -> the bits of the bit groups that give it; begun with `ids` when no map holds them, so keyed by their strings
    bits: dict[str, int] = dict.fromkeys(ids, 0) if offsets else {}
    for number, offset, record in _read_lines(path):
        name, lang, instance_id, text = _translation(record, path, number)
        code = lang.lower()
        if code not in _LANGUAGES:
            raise ParseError(f"unknown language {lang!r}", path, number)
        key = (name, code)
        group = groups.get(key)
        if group is None:
            key = (strings.setdefault(name, name), code)
            keep = (system is None or name == system) and (language is None or _LANGUAGES[code] is language)
            if keep:
                kept.append(key)
            if offsets or rereadable and not keep:
                group = groups[key] = (array(typecode) if keep else None, 1 << len(groups))
            else:
                group = groups[key] = ({}, array("I"), keep)
        if type(group[1]) is int:
            starts, bit = group
            seen = bits.get(instance_id, 0)
            if seen & bit:
                raise _duplicate((name, code, instance_id), path, number, _first_line(path, key, instance_id))
            bits[strings.get(instance_id, instance_id)] = seen | bit
            if starts is not None:
                try:
                    starts.append(offset)
                except OverflowError:  # the file grew past the size its offsets were typed for
                    raise ParseError("changed while it was read", path) from None
            continue
        instance_id = strings.setdefault(instance_id, instance_id)
        texts, lines, keep = group
        size = len(texts)
        texts.setdefault(instance_id, text if keep else None)
        if len(texts) == size:
            raise _duplicate((name, code, instance_id), path, number, lines[list(texts).index(instance_id)])
        lines.append(number)
    return {(name, _LANGUAGES[code]): groups[name, code][0] for name, code in sorted(kept)}


def _read_group(path: str, key: tuple[str, Language], offsets: Sequence[int], strings: Mapping[str, str]) -> dict:
    """The id -> text map of `key`'s lines of `path`, which start at `offsets`, keyed by the strings of `strings`.

    Unless each offset still starts a line that gives one more record of `key`, it raises ParseError.
    """
    name, code = key[0], key[1].value
    texts: dict[str, str] = {}
    try:
        for raw in _lines_at(path, offsets):
            line = raw.decode("utf-8").strip()
            record, end = _scan(line, 0)
            system, lang, instance_id, text = _translation(record, path, 0)
            if end != len(line) or system != name or lang.lower() != code:
                break
            texts[strings.get(instance_id, instance_id)] = text
        else:
            if len(texts) == len(offsets):
                return texts
    except (ParseError, StopIteration, ValueError, RecursionError, AttributeError):  # the line gives no record now
        pass
    raise ParseError("changed while it was read", path)


def _first_line(path: str, key: tuple[str, str], instance_id: str) -> int:
    """The line of `path` that first gives the record of `key`, a (system, language code), for `instance_id`."""
    for number, _, record in _read_lines(path):
        name, lang, record_id, _ = _translation(record, path, number)
        if record_id == instance_id and name == key[0] and lang.lower() == key[1]:
            return number
    raise ParseError("changed while it was read", path)


def split_orphans(texts: Iterable[str], known_ids: Container[str]) -> list[str]:
    """The ids of `texts` (an id -> text map, or its ids) that `known_ids` lacks: translations of no suite instance."""
    return [instance_id for instance_id in texts if instance_id not in known_ids]


# --- scores ----------------------------------------------------------------------


def _score_tail(score: SlotScore) -> str:
    """The end of `score`'s scores-file line: its label, matched text and rule."""
    return f'"label": {_TEXT[score.label]}, "matched_text": {_str(score.matched_text)}, "rule": {_str(score.rule)}}}\n'


def _score_line(score: SlotScore, tail: str | None = None) -> str:
    """The scores-file line of `score`, with its `_score_tail` when it is already formatted."""
    if tail is None:
        tail = _score_tail(score)
    return f'{{"instance_id": {_str(score.instance_id)}, "slot_index": {_index(score.slot_index)}, {tail}'


def write_scores(scores: Iterable[SlotScore], path: str | Path) -> None:
    """Write a scores file, formatting each distinct (label, matched text, rule) once."""
    tails: dict[tuple[GenderLabel, str, str], str] = {}
    with open(path, "w", encoding="utf-8") as fh:
        for score in scores:
            tail = tails.get(score[2:])
            if tail is None:
                tail = tails[score[2:]] = _score_tail(score)
            fh.write(_score_line(score, tail))


def _slot_index(value, name: str, path: str, line: int) -> int:
    # a negative index would count against another slot
    if _check(value, (int,), name, path, line) < 0:
        raise ParseError(f"{name} must be a non-negative integer, got {value}", path, line)
    return value


_SCORE = {
    "slot_index": _slot_index, "instance_id": (str,), "label": GenderLabel,
    "matched_text": _Default((str,), ""), "rule": _Default((str,), ""),
}


def parse_scores(path: str | Path, index: Mapping[str, TestInstance] | None = None) -> list[SlotScore]:
    """Parse and validate a scores file; one (instance_id, slot_index) read twice is a DuplicateRecord.

    With `index` (instance id -> instance), a score for an unknown instance or
    past its instance's slots is a ParseError naming the file and line.
    """
    path = str(path)
    scores = []
    seen: dict[tuple[str, int], int] = {}
    for number, _, record in _read_lines(path):
        slot_index, instance_id, label, matched_text, rule = _check(record, _SCORE, "", path, number)
        if index is not None:
            instance = index.get(instance_id)
            if instance is None:
                raise ParseError(f"score references unknown instance {instance_id!r}", path, number)
            if slot_index >= len(instance.slots):
                raise ParseError(
                    f"score for instance {instance_id!r} has slot_index {slot_index}, "
                    f"but the instance has {len(instance.slots)} slot(s)", path, number
                )
        first = seen.setdefault((instance_id, slot_index), number)
        if first != number:
            raise _duplicate((instance_id, slot_index), path, number, first)
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
_STEREOTYPE = {
    **dict.fromkeys(("neutral", "stereo_m", "stereo_f"), _BREAKDOWN),
    **dict.fromkeys(("delta_g_avg", "delta_n_avg"), _NUMBER),
    "significant_g": (bool,),
}
_METRICS_DOC = {
    "system": (str,),
    "lang": (str,),
    "threshold": _NUMBER,
    "baseline": _section(_by_family(_BREAKDOWN)),
    "omission_response": _section(_by_family(_RESPONSE)),
    "active_response": _section(_by_family(_RESPONSE)),
    "stereotype": _section(_STEREOTYPE),
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


_ENTRY_SHAPES = {StrategyBreakdown: _BREAKDOWN, ResponseReport: _RESPONSE, StereotypeReport: _STEREOTYPE}


def metrics_entry(value: StrategyBreakdown | ResponseReport | StereotypeReport) -> dict:
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

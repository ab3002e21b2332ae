"""Per-language gender lexicons, morphology patterns and alt-phrase tables.

All classification resources are flat CSV files so that the adjective
dictionaries stay user-editable data rather than code. Lookups are
case-insensitive (casefold) with diacritics significant; everything is NFC
normalised at load time.
"""

from __future__ import annotations

import csv
import unicodedata
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping

from .errors import InvalidEntry, LexiconConflict


class Language(Enum):
    IS = "is"
    CS = "cs"
    ES = "es"

    @classmethod
    def parse(cls, value: str) -> "Language":
        try:
            return cls(value.lower())
        except ValueError:
            raise InvalidEntry(
                f"unknown language {value!r}; supported: {', '.join(l.value for l in cls)}"
            ) from None


class FormGender(Enum):
    MASCULINE_ONLY = "m"
    FEMININE_ONLY = "f"
    NEUTER_CASE = "neu"
    COMMON_FORM = "common"


class PatternKind(Enum):
    SLASH_SUFFIX = "slash"
    PAREN_SUFFIX = "paren"
    AT_SIGN = "at"


def nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


@dataclass(frozen=True)
class LexiconEntry:
    lemma: str
    language: Language
    surface_form: str
    form_gender: FormGender


@dataclass(frozen=True)
class AltPhraseEntry:
    lemma: str
    language: Language
    phrase: str

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(self.phrase.split())


@dataclass(frozen=True)
class MorphPattern:
    """One annotated-morphology shape, e.g. stem+"o/a" or stem+"(ur)".

    The template names the suffix alternation: slash patterns match both the
    bare ("musculoso/a") and parenthesised ("musculos(o/a)") spellings, paren
    patterns match an optional suffix ("sterk(ur)"), and at patterns match a
    trailing "@" standing in for the alternation.
    """

    language: Language
    kind: PatternKind
    template: str

    def __post_init__(self):
        if not self.template:
            raise InvalidEntry("pattern template must be non-empty")
        if self.kind in (PatternKind.SLASH_SUFFIX, PatternKind.AT_SIGN):
            if self.template.count("/") != 1:
                raise InvalidEntry(
                    f"{self.kind.value} pattern template must name one alternation like 'o/a', got {self.template!r}"
                )
        elif "/" in self.template or any(c in self.template for c in "()@"):
            raise InvalidEntry(f"paren pattern template must be a plain suffix, got {self.template!r}")


class Lexicon:
    """Immutable per-language lookup over declined adjective surface forms."""

    def __init__(self, language: Language, entries: Iterable[LexiconEntry]):
        self.language = language
        by_key: dict[tuple[str, str], LexiconEntry] = {}
        for entry in entries:
            if entry.language is not language:
                raise InvalidEntry(f"entry {entry} does not belong to lexicon language {language.value}")
            if language is Language.ES and entry.form_gender is FormGender.NEUTER_CASE:
                raise InvalidEntry(
                    f"{entry.lemma!r}/{entry.surface_form!r}: Spanish adjectives have no neuter case"
                )
            key = (entry.lemma.casefold(), entry.surface_form.casefold())
            known = by_key.get(key)
            if known is None:
                by_key[key] = entry
            elif known.form_gender is not entry.form_gender:
                raise LexiconConflict(
                    f"form {entry.surface_form!r} for lemma {entry.lemma!r} listed as both "
                    f"{known.form_gender.value!r} and {entry.form_gender.value!r}"
                )
            # identical duplicate rows are silently deduplicated
        self._entries = tuple(by_key.values())
        self._by_lemma: dict[str, dict[str, LexiconEntry]] = {}
        for entry in self._entries:
            self._by_lemma.setdefault(entry.lemma.casefold(), {})[entry.surface_form.casefold()] = entry

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> tuple[LexiconEntry, ...]:
        return self._entries

    @property
    def lemmas(self) -> tuple[str, ...]:
        return tuple(sorted(self._by_lemma))

    def forms_for_lemma(self, lemma: str) -> Mapping[str, LexiconEntry]:
        """All registered surface forms of a lemma, keyed by casefolded form."""
        return self._by_lemma.get(nfc(lemma).casefold(), {})


def _decoded_lines(path: Path, lines: Iterable[bytes]):
    for number, raw in enumerate(lines, start=1):
        try:
            yield raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InvalidEntry(f"{path}:{number}: not UTF-8 ({exc.reason} at byte {exc.start})") from None


def _csv_rows(path: Path, expected_header: list[str]):
    with open(path, "rb") as fh:
        reader = csv.reader(_decoded_lines(path, fh))
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != expected_header:
            raise InvalidEntry(f"{path}: expected header {','.join(expected_header)!r}, got {header!r}")
        for number, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(expected_header):
                raise InvalidEntry(f"{path}:{number}: expected {len(expected_header)} fields, got {len(row)}")
            yield number, [nfc(cell.strip()) for cell in row]


def load_lexicon(language: Language, source: str | Path | Iterable[LexiconEntry]) -> Lexicon:
    """Build a lexicon from a CSV file (header lemma,form,gender) or entries."""
    if isinstance(source, (str, Path)):
        entries = []
        for number, (lemma, form, gender) in _csv_rows(Path(source), ["lemma", "form", "gender"]):
            try:
                form_gender = FormGender(gender)
            except ValueError:
                raise InvalidEntry(
                    f"{source}:{number}: gender must be one of m/f/neu/common, got {gender!r}"
                ) from None
            if not lemma or not form:
                raise InvalidEntry(f"{source}:{number}: lemma and form must be non-empty")
            if len(form.split()) != 1:
                raise InvalidEntry(
                    f"{source}:{number}: surface forms are single tokens; use the alt-phrases file for {form!r}"
                )
            entries.append(LexiconEntry(lemma, language, form, form_gender))
        return Lexicon(language, entries)
    return Lexicon(language, source)


def load_alt_phrases(
    language: Language, source: str | Path | Iterable[AltPhraseEntry]
) -> tuple[AltPhraseEntry, ...]:
    """Load the lemma,phrase table; matching is whole-token and contiguous."""
    if isinstance(source, (str, Path)):
        entries = []
        for number, (lemma, phrase) in _csv_rows(Path(source), ["lemma", "phrase"]):
            if not lemma or not phrase.split():
                raise InvalidEntry(f"{source}:{number}: phrase must contain at least one token")
            entries.append(AltPhraseEntry(nfc(lemma), language, " ".join(phrase.split())))
        return tuple(entries)
    return tuple(source)


def load_patterns(language: Language, source: str | Path | Iterable[MorphPattern]) -> tuple[MorphPattern, ...]:
    """Load the kind,template pattern table (kinds: slash, paren, at)."""
    if isinstance(source, (str, Path)):
        patterns = []
        for number, (kind, template) in _csv_rows(Path(source), ["kind", "template"]):
            try:
                pattern_kind = PatternKind(kind)
            except ValueError:
                raise InvalidEntry(
                    f"{source}:{number}: pattern kind must be one of slash/paren/at, got {kind!r}"
                ) from None
            patterns.append(MorphPattern(language, pattern_kind, template))
        return tuple(patterns)
    return tuple(source)


@dataclass(frozen=True)
class LanguageResources:
    """Everything the classifier needs for one target language."""

    language: Language
    lexicon: Lexicon
    patterns: tuple[MorphPattern, ...] = ()
    alt_phrases: tuple[AltPhraseEntry, ...] = ()


def load_language_resources(lexicon_dir: str | Path, language: Language) -> LanguageResources:
    """Load `<dir>/<lang>/{lexicon,alt_phrases,patterns}.csv`.

    The lexicon file is required; the other two default to empty when absent.
    """
    root = Path(lexicon_dir) / language.value
    lexicon_path = root / "lexicon.csv"
    if not lexicon_path.is_file():
        raise InvalidEntry(f"no lexicon for {language.value!r}: {lexicon_path} not found")
    lexicon = load_lexicon(language, lexicon_path)
    phrases_path = root / "alt_phrases.csv"
    patterns_path = root / "patterns.csv"
    alt_phrases = load_alt_phrases(language, phrases_path) if phrases_path.is_file() else ()
    patterns = load_patterns(language, patterns_path) if patterns_path.is_file() else ()
    return LanguageResources(language, lexicon, patterns, alt_phrases)

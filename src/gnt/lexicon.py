"""Per-language gender lexicons, morphology patterns and alt-phrase tables.

All classification resources are flat CSV files so that the adjective
dictionaries stay user-editable data rather than code. Lookups are
case-insensitive (casefold) with diacritics significant: every lemma, form
and phrase word is keyed by `lookup_key`, and the loaders NFC-normalise
every cell.
"""

from __future__ import annotations

import csv
import unicodedata
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple

from .errors import InvalidEntry, LexiconConflict


class Language(Enum):
    __hash__ = object.__hash__  # members are singletons: hash by identity, in C

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
    __hash__ = object.__hash__  # members are singletons: hash by identity, in C

    MASCULINE_ONLY = "m"
    FEMININE_ONLY = "f"
    NEUTER_CASE = "neu"
    COMMON_FORM = "common"


class PatternKind(Enum):
    __hash__ = object.__hash__  # members are singletons: hash by identity, in C

    SLASH_SUFFIX = "slash"
    PAREN_SUFFIX = "paren"
    AT_SIGN = "at"


def nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


def lookup_key(text: str) -> str:
    """The key every lemma, surface form and phrase word is looked up by: NFC, then casefold."""
    return nfc(text).casefold()


class LexiconEntry(NamedTuple):
    lemma: str
    surface_form: str
    form_gender: FormGender


class AltPhraseEntry(NamedTuple):
    lemma: str
    phrase: str


class _MorphPatternFields(NamedTuple):
    kind: PatternKind
    template: str


class MorphPattern(_MorphPatternFields):
    """One annotated-morphology shape, e.g. stem+"o/a" or stem+"(ur)".

    The template names the suffix alternation: slash patterns match both the
    bare ("musculoso/a") and parenthesised ("musculos(o/a)") spellings, paren
    patterns match an optional suffix ("sterk(ur)"), and at patterns match a
    trailing "@" standing in for the alternation.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.template:
            raise InvalidEntry("pattern template must be non-empty")
        if self.kind in (PatternKind.SLASH_SUFFIX, PatternKind.AT_SIGN):
            if self.template.count("/") != 1:
                raise InvalidEntry(
                    f"{self.kind.value} pattern template must name one alternation like 'o/a', got {self.template!r}"
                )
        elif "/" in self.template or any(c in self.template for c in "()@"):
            raise InvalidEntry(f"paren pattern template must be a plain suffix, got {self.template!r}")
        return self


class Lexicon:
    """Per-language lookup over declined adjective surface forms."""

    def __init__(self, language: Language, entries: Iterable[LexiconEntry] = ()):
        self.language = language
        self._by_lemma: dict[str, dict[str, LexiconEntry]] = {}
        for entry in entries:
            self.add(entry)

    def add(self, entry: LexiconEntry) -> None:
        """Register one form; an identical duplicate is a no-op, a contradicting one an error."""
        if self.language is Language.ES and entry.form_gender is FormGender.NEUTER_CASE:
            raise InvalidEntry(f"{entry.lemma!r}/{entry.surface_form!r}: Spanish adjectives have no neuter case")
        forms = self._by_lemma.setdefault(lookup_key(entry.lemma), {})
        known = forms.setdefault(lookup_key(entry.surface_form), entry)
        if known.form_gender is not entry.form_gender:
            raise LexiconConflict(
                f"form {entry.surface_form!r} for lemma {entry.lemma!r} listed as both "
                f"{known.form_gender.value!r} and {entry.form_gender.value!r}"
            )

    def __len__(self) -> int:
        return sum(len(forms) for forms in self._by_lemma.values())

    @property
    def entries(self) -> tuple[LexiconEntry, ...]:
        return tuple(entry for forms in self._by_lemma.values() for entry in forms.values())

    @property
    def lemmas(self) -> tuple[str, ...]:
        return tuple(sorted(self._by_lemma))

    def forms_for_lemma(self, lemma: str) -> Mapping[str, LexiconEntry]:
        """All registered surface forms of a lemma, keyed by `lookup_key` of the form."""
        return self._by_lemma.get(lookup_key(lemma), {})


def _decoded_lines(path: Path, lines: Iterable[bytes]):
    for number, raw in enumerate(lines, start=1):
        try:
            yield raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InvalidEntry(f"{path}:{number}: not UTF-8 ({exc.reason} at byte {exc.start})") from None


def _csv_rows(path: Path, header: list[str], build: Callable[..., object]) -> list:
    """`build(*cells)` for each non-blank row; a row it rejects is an error naming path:line."""
    built = []
    with open(path, "rb") as fh:
        reader = csv.reader(_decoded_lines(path, fh))
        try:
            found = next(reader, None)
            if found is None or [h.strip() for h in found] != header:
                raise InvalidEntry(f"{path}: expected header {','.join(header)!r}, got {found!r}")
            for row in reader:
                if not row or all(not cell.strip() for cell in row):
                    continue
                if len(row) != len(header):
                    raise InvalidEntry(f"{path}:{reader.line_num}: expected {len(header)} fields, got {len(row)}")
                try:
                    built.append(build(*(nfc(cell.strip()) for cell in row)))
                except (InvalidEntry, LexiconConflict) as exc:
                    raise type(exc)(f"{path}:{reader.line_num}: {exc}") from None
        except csv.Error as exc:  # a cell over csv's field size limit, say
            raise InvalidEntry(f"{path}:{reader.line_num}: {exc}") from None
    return built


def load_lexicon(language: Language, path: str | Path) -> Lexicon:
    """Build a lexicon from a CSV file with the header lemma,form,gender."""
    lexicon = Lexicon(language)

    def add(lemma: str, form: str, gender: str) -> None:
        try:
            form_gender = FormGender(gender)
        except ValueError:
            raise InvalidEntry(f"gender must be one of m/f/neu/common, got {gender!r}") from None
        if not lemma or not form:
            raise InvalidEntry("lemma and form must be non-empty")
        if len(form.split()) != 1:
            raise InvalidEntry(f"surface forms are single tokens; use the alt-phrases file for {form!r}")
        lexicon.add(LexiconEntry(lemma, form, form_gender))

    _csv_rows(Path(path), ["lemma", "form", "gender"], add)
    return lexicon


def load_alt_phrases(path: str | Path) -> tuple[AltPhraseEntry, ...]:
    """Load the lemma,phrase table; matching is whole-token and contiguous."""

    def entry(lemma: str, phrase: str) -> AltPhraseEntry:
        if not lemma or not phrase.split():
            raise InvalidEntry("phrase must contain at least one token")
        return AltPhraseEntry(lemma, " ".join(phrase.split()))

    return tuple(_csv_rows(Path(path), ["lemma", "phrase"], entry))


def load_patterns(path: str | Path) -> tuple[MorphPattern, ...]:
    """Load the kind,template pattern table (kinds: slash, paren, at)."""

    def pattern(kind: str, template: str) -> MorphPattern:
        try:
            pattern_kind = PatternKind(kind)
        except ValueError:
            raise InvalidEntry(f"pattern kind must be one of slash/paren/at, got {kind!r}") from None
        return MorphPattern(pattern_kind, template)

    return tuple(_csv_rows(Path(path), ["kind", "template"], pattern))


class LemmaTable:
    """What the classifier knows about one lemma, worked out on the lemma's first use.

    `key` is the lemma's `lookup_key`; `forms` are its lexicon forms and `phrases` its registered phrases, each
    as its folded tokens and its text, in registration order. `token_rules` maps each token met so far, as
    written, to the rule it fires for this lemma (or None), and is filled by the classifier.
    """

    __slots__ = ("key", "forms", "phrases", "token_rules")

    def __init__(self, key: str, forms: Mapping[str, LexiconEntry], phrases: list[tuple[tuple[str, ...], str]]):
        self.key, self.forms, self.phrases = key, forms, phrases
        self.token_rules: dict[str, tuple | None] = {}


class LanguageResources:
    """Everything the classifier needs for one target language.

    Two caches fill as translations are scored: `lemma_table` keeps one `LemmaTable` per lemma as written,
    and `stripped_tokens` maps each whitespace-split token to its edge-stripped form.
    """

    __slots__ = ("language", "lexicon", "patterns", "alt_phrases", "stripped_tokens", "_tables")

    def __init__(self, language: Language, lexicon: Lexicon, patterns: tuple[MorphPattern, ...] = (),
                 alt_phrases: tuple[AltPhraseEntry, ...] = ()):
        self.language = language
        self.lexicon = lexicon
        self.patterns = patterns
        self.alt_phrases = alt_phrases
        self.stripped_tokens: dict[str, str] = {}
        self._tables: dict[str, LemmaTable] = {}

    def lemma_table(self, lemma: str) -> LemmaTable:
        """The table of `lemma`, built on its first use."""
        table = self._tables.get(lemma)
        if table is None:
            key = lookup_key(lemma)
            phrases = [(tuple(map(lookup_key, entry.phrase.split())), entry.phrase)
                       for entry in self.alt_phrases if lookup_key(entry.lemma) == key]
            table = self._tables[lemma] = LemmaTable(key, self.lexicon.forms_for_lemma(lemma), phrases)
        return table


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
    alt_phrases = load_alt_phrases(phrases_path) if phrases_path.is_file() else ()
    patterns = load_patterns(patterns_path) if patterns_path.is_file() else ()
    return LanguageResources(language, lexicon, patterns, alt_phrases)

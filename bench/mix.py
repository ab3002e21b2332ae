"""Seeded mixed-label translation generator, shared by the backend and the
`evaluate-mixed` workload.

For each adjective slot it draws the label it intends the classifier to
assign (M, F, N1..N5 or U) and writes target-language tokens that carry that
label under the documented rules: a lexicon form for M/F/N1/N2, an annotated
morphology token for N5, an alternative phrase for N3, the English lemma for
N4 and nothing at all for U. Only the standard library is used and `gnt` is
never imported: the lexicon CSVs are read as plain data.
"""

from __future__ import annotations

import csv
import random
from pathlib import Path
from typing import Sequence

LANGUAGES = ("is", "cs", "es")

# Relative draw weights; a label a lemma cannot carry (no neuter form, no
# phrase, no pattern-compatible form) is left out and the rest renormalised.
LABEL_WEIGHTS = (("M", 20), ("F", 20), ("N1", 14), ("N2", 12), ("N5", 12), ("N3", 8), ("N4", 8), ("U", 6))
LABELS = tuple(label for label, _ in LABEL_WEIGHTS)
PAST_LEXICON = frozenset({"N5", "N3", "N4", "U"})

# Classifier rule order: a lexicon form beats a pattern, which beats a phrase,
# which beats a copied lemma. Slots sharing a lemma take that lemma's tokens in
# this order first and text order second.
_RULE_RANK = {"M": 0, "F": 0, "N1": 0, "N2": 0, "N5": 1, "N3": 2, "N4": 3, "U": 4}
_GENDER_LABEL = {"m": "M", "f": "F", "common": "N1", "neu": "N2"}

# Words around the slot tokens; none of them is classifiable for any lemma.
_FILLER = {
    "is": ("og", "já", "hún", "sagði", "kannski"),
    "cs": ("a", "ano", "řekla", "prý", "možná"),
    "es": ("y", "sí", "dijo", "que", "quizás"),
}
_EDGE_PUNCT = ".,\"'!?;:()"


def _rows(path: Path) -> list[dict[str, str]]:
    if not path.is_file():
        return []
    with open(path, encoding="utf-8", newline="") as fh:
        return [{k.strip(): v.strip() for k, v in row.items()} for row in csv.DictReader(fh)]


def _pattern_tokens(forms: Sequence[str], patterns: Sequence[tuple[str, str]]) -> list[str]:
    """Annotated spellings whose reconstructed variants include one of `forms`."""
    tokens: list[str] = []
    for kind, template in patterns:
        alternatives = template.split("/") if kind in ("slash", "at") else [template]
        for form in forms:
            for suffix in alternatives:
                stem = form[: -len(suffix)]
                if not form.endswith(suffix) or not stem or not stem[-1].isalpha():
                    continue
                if kind == "slash":
                    tokens += [f"{stem}{template}", f"{stem}({template})"]
                elif kind == "at":
                    tokens.append(f"{stem}@")
                else:
                    tokens.append(f"{stem}({template})")
    return list(dict.fromkeys(tokens))


class LanguageTable:
    """Per-lemma token options for every label one language supports."""

    def __init__(self, lang: str, options: dict[str, dict[str, tuple[tuple[str, ...], ...]]]):
        self.lang = lang
        self.options = options
        self.filler = _FILLER[lang]

    @classmethod
    def load(cls, lexicon_dir: str | Path, lang: str) -> "LanguageTable":
        root = Path(lexicon_dir) / lang
        lexicon = _rows(root / "lexicon.csv")
        if not lexicon:
            raise FileNotFoundError(f"no lexicon rows in {root / 'lexicon.csv'}")
        patterns = [(row["kind"], row["template"]) for row in _rows(root / "patterns.csv")]
        phrases: dict[str, list[tuple[str, ...]]] = {}
        for row in _rows(root / "alt_phrases.csv"):
            phrases.setdefault(row["lemma"], []).append(tuple(row["phrase"].split()))

        options: dict[str, dict[str, list[tuple[str, ...]]]] = {}
        for row in lexicon:
            cell = options.setdefault(row["lemma"], {})
            cell.setdefault(_GENDER_LABEL[row["gender"]], []).append((row["form"],))
        for lemma, cell in options.items():
            forms = [seq[0] for label in ("M", "F", "N1", "N2") for seq in cell.get(label, ())]
            pattern_tokens = _pattern_tokens(forms, patterns)
            if pattern_tokens:
                cell["N5"] = [(token,) for token in pattern_tokens]
            if lemma in phrases:
                cell["N3"] = phrases[lemma]
            cell["N4"] = [(lemma,)]
            cell["U"] = [()]

        # A single token or a whole phrase offered for two lemmas has no single
        # intended label, so it is never written. Filler words must not occur
        # in any option.
        owners: dict[str, set[str]] = {}
        words: set[str] = set()
        for lemma, cell in options.items():
            for sequences in cell.values():
                for seq in sequences:
                    if not seq:
                        continue
                    owners.setdefault(" ".join(seq).casefold(), set()).add(lemma)
                    words.update(token.casefold() for token in seq)
        shared = {key for key, lemmas in owners.items() if len(lemmas) > 1}
        clash = [word for word in _FILLER[lang] if word.casefold() in words]
        if clash:
            raise ValueError(f"{lang}: filler words {clash} occur in lexicon options")

        def usable(lemma: str, seq: tuple[str, ...]) -> bool:
            keys = [" ".join(seq).casefold()] + [token.casefold() for token in seq] if seq else []
            return not any(key in shared or owners.get(key, {lemma}) != {lemma} for key in keys)

        table = {}
        for lemma, cell in options.items():
            kept = {}
            for label, sequences in cell.items():
                sequences = tuple(seq for seq in sequences if usable(lemma, seq))
                if sequences:
                    kept[label] = sequences
            table[lemma] = kept
        return cls(lang, table)

    def lemmas_in(self, source: str) -> list[str]:
        """Known lemmas in the order they occur in an English source text."""
        words = (word.strip(_EDGE_PUNCT).lower() for word in source.split())
        return [word for word in words if word in self.options]

    def render(self, key: str, lemmas: Sequence[str]) -> tuple[str, list[str]]:
        """Deterministic (text, intended labels) for slots with these lemmas."""
        rng = random.Random(key)
        labels = [self._draw(rng, lemma) for lemma in lemmas]
        for lemma in set(lemmas):
            positions = [i for i, other in enumerate(lemmas) if other == lemma]
            if len(positions) > 1:
                ordered = sorted((labels[i] for i in positions), key=_RULE_RANK.__getitem__)
                for i, label in zip(positions, ordered):
                    labels[i] = label
        words: list[str] = []
        for lemma, label in zip(lemmas, labels):
            words.append(rng.choice(self.filler))
            words.extend(rng.choice(self.options[lemma][label]))
        words.append(rng.choice(self.filler))
        return " ".join(words) + ".", labels

    def _draw(self, rng: random.Random, lemma: str) -> str:
        cell = self.options[lemma]
        choices = [(label, weight) for label, weight in LABEL_WEIGHTS if label in cell]
        return rng.choices([c[0] for c in choices], weights=[c[1] for c in choices])[0]


def reply_key(seed: int, lang: str, instance_id: str, source: str) -> str:
    return f"{seed}\x1f{lang}\x1f{instance_id}\x1f{source}"


def backend_reply(table: LanguageTable, seed: int, instance_id: str, source: str) -> str:
    """The scripted backend's translation of one source line."""
    text, _ = table.render(reply_key(seed, table.lang, instance_id, source), table.lemmas_in(source))
    return text

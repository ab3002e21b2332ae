"""Shared randomized-input builders for the property and acceptance tests."""

from __future__ import annotations

import random

from gnt import DescriptorPair, Language, StrategyBreakdown, SuiteManifest
from gnt.lexicon import (
    AltPhraseEntry,
    FormGender,
    LexiconEntry,
    MorphPattern,
    PatternKind,
    load_lexicon,
)

def reference_breakdown(m: float, f: float, n: float, strategies=None) -> StrategyBreakdown:
    """A breakdown holding a reference table row's rounded (M, F, N) floats as they are.

    A row printed without its N1..N5 split gets (n, 0, 0, 0, 0), so n is still
    the sum of the split; no replay of such a row reads the strategy deltas.
    """
    n1, n2, n3, n4, n5 = strategies if strategies is not None else (n, 0.0, 0.0, 0.0, 0.0)
    return StrategyBreakdown(m=m, f=f, n=n, n1=n1, n2=n2, n3=n3, n4=n4, n5=n5, u=0, count=1000, u_count=0)


_ADJECTIVE_POOL = [
    "stubborn", "fit", "nonsensical", "cautious", "strong", "happy", "tired",
    "smart", "brave", "calm", "gentle", "proud", "quiet", "wise", "funny",
    "kind", "honest", "patient", "curious", "eager", "modest", "loyal",
    "serious", "cheerful",
]

_PAIR_POOL = [
    DescriptorPair("strong doctor", "pretty nurse"),
    DescriptorPair("tough mechanic", "graceful dancer"),
    DescriptorPair("stern engineer", "cheerful secretary"),
    DescriptorPair("burly firefighter", "soft-spoken nanny"),
    DescriptorPair("rugged carpenter", "charming florist"),
]

_ADVERBS_M = ["brusquely", "gruffly", "firmly", "bluntly", "sternly", "roughly"]
_ADVERBS_F = ["gently", "softly", "sweetly", "tenderly", "delicately", "warmly"]


def random_manifest(rng: random.Random, big: bool = False) -> SuiteManifest:
    """A manifest satisfying the generator's feasibility constraints."""
    if big:
        quotas = {
            "T1-Det": 600, "T2-Det": 400,
            "T3-Det": 200, "T3-Amb": 200,
            "T4-Det": 400, "T4-Amb": 400,
            "T5-Det": 120, "T5-Amb": 60,
            "T7-None": 30, "T7-StereoM": 45, "T7-StereoF": 45,
        }
    else:
        t3 = 2 * rng.randint(0, 10)
        t4 = 4 * rng.randint(0, 6)
        t5_amb = rng.randint(0, 12)
        quotas = {
            "T1-Det": 2 * rng.randint(0, 12),
            "T2-Det": 4 * rng.randint(0, 8),
            "T3-Det": t3, "T3-Amb": t3,
            "T4-Det": t4, "T4-Amb": t4,
            "T5-Det": 2 * t5_amb, "T5-Amb": t5_amb,
            "T7-None": rng.randint(0, 8),
            "T7-StereoM": rng.randint(0, 10),
            "T7-StereoF": rng.randint(0, 10),
        }
    adjectives = rng.sample(_ADJECTIVE_POOL, rng.randint(4, len(_ADJECTIVE_POOL)))
    return SuiteManifest(
        adjectives=adjectives,
        descriptor_pairs=rng.sample(_PAIR_POOL, rng.randint(1, len(_PAIR_POOL))),
        adverbs_masculine=rng.sample(_ADVERBS_M, rng.randint(1, len(_ADVERBS_M))),
        adverbs_feminine=rng.sample(_ADVERBS_F, rng.randint(1, len(_ADVERBS_F))),
        quotas=quotas,
        seed=rng.randint(0, 10**6),
    )


_STEM_LETTERS = "bcdfglmnprstvz"
_VOWELS = "aeiou"
_DIACRITIC_LETTERS = "áéíóúýčšžðþæö"

_PATTERN_CHOICES = [
    (PatternKind.SLASH_SUFFIX, "o/a"),
    (PatternKind.SLASH_SUFFIX, "ý/á"),
    (PatternKind.PAREN_SUFFIX, "ur"),
    (PatternKind.PAREN_SUFFIX, "l"),
    (PatternKind.AT_SIGN, "o/a"),
]


def _random_word(rng: random.Random, with_diacritics: bool = True) -> str:
    length = rng.randint(3, 8)
    letters = _STEM_LETTERS + _VOWELS + (_DIACRITIC_LETTERS if with_diacritics else "")
    return "".join(rng.choice(letters) for _ in range(length))


def random_classifier_case(rng: random.Random):
    """One randomized (resources, lemma, tokens, consumed) classifier input."""
    language = rng.choice(list(Language))
    lemmas = [_random_word(rng, with_diacritics=False) for _ in range(rng.randint(1, 4))]

    entries: dict[tuple[str, str], LexiconEntry] = {}
    genders = [FormGender.MASCULINE_ONLY, FormGender.FEMININE_ONLY, FormGender.COMMON_FORM]
    if language is not Language.ES:
        genders.append(FormGender.NEUTER_CASE)
    for lemma in lemmas:
        for _ in range(rng.randint(0, 4)):
            form = _random_word(rng)
            key = (lemma.casefold(), form.casefold())
            if key not in entries:
                entries[key] = LexiconEntry(lemma, language, form, rng.choice(genders))
    lexicon = load_lexicon(language, list(entries.values()))

    pattern_picks = rng.sample(_PATTERN_CHOICES, rng.randint(0, len(_PATTERN_CHOICES)))
    patterns = tuple(MorphPattern(language, kind, template) for kind, template in pattern_picks)

    alt_phrases = []
    for lemma in lemmas:
        for _ in range(rng.randint(0, 2)):
            phrase = " ".join(_random_word(rng) for _ in range(rng.randint(1, 3)))
            alt_phrases.append(AltPhraseEntry(lemma, language, phrase))

    def mangle(word: str) -> str:
        if rng.random() < 0.3:
            return word.capitalize()
        if rng.random() < 0.1:
            return word.upper()
        return word

    tokens: list[str] = []
    all_forms = [entry.surface_form for entry in lexicon.entries]
    for _ in range(rng.randint(2, 10)):
        roll = rng.random()
        if roll < 0.30 and all_forms:
            tokens.append(mangle(rng.choice(all_forms)))
        elif roll < 0.45 and all_forms:
            form = rng.choice(all_forms)
            kind, template = rng.choice(_PATTERN_CHOICES)
            left = template.split("/")[0]
            stem = form[: -len(left)] if left and form.endswith(left) else form
            if kind is PatternKind.SLASH_SUFFIX:
                tokens.append(stem + (template if rng.random() < 0.5 else f"({template})"))
            elif kind is PatternKind.PAREN_SUFFIX:
                tokens.append(stem + f"({template})")
            else:
                tokens.append(stem + "@")
        elif roll < 0.55:
            tokens.append(mangle(rng.choice(lemmas)))
        elif roll < 0.65 and alt_phrases:
            tokens.extend(rng.choice(alt_phrases).phrase.split())
        elif roll < 0.72:
            # annotated garbage that must not validate into N5
            tokens.append(_random_word(rng) + rng.choice(["(o/a)", "o/a", "(ur)", "@", "(l)"]))
        else:
            tokens.append(mangle(_random_word(rng)))

    consumed = {i for i in range(len(tokens)) if rng.random() < 0.15}
    lemma = rng.choice(lemmas)
    return language, lexicon, patterns, tuple(alt_phrases), lemma, tokens, consumed

"""Dictionary-based gender classification of translated adjective slots.

Each slot is assigned exactly one label. Rules fire in a fixed priority
order, and within a priority the earliest unconsumed token position wins:

1. exact lexicon form of the slot's lemma (common -> N1, neuter -> N2,
   masculine/feminine -> M/F)
2. annotated-morphology pattern whose reconstructed variants include a known
   form of the lemma -> N5
3. registered alternative phrase for the lemma -> N3
4. the English lemma itself copied into the translation -> N4
5. otherwise Unmatched

A shared consumed-position set keeps two slots of one instance from matching
the same token, assigning repeated lemmas in textual order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .lexicon import LanguageResources, MorphPattern, PatternKind, nfc
from .suite import AdjectiveSlot, TestInstance


class GenderLabel(Enum):
    MASCULINE = "M"
    FEMININE = "F"
    N1_COMMON_FORM = "N1"
    N2_NEUTER_CASE = "N2"
    N3_ALT_PART_OF_SPEECH = "N3"
    N4_SOURCE_COPY = "N4"
    N5_ALT_MORPHOLOGY = "N5"
    UNMATCHED = "U"


_LABEL_BY_FORM_GENDER = {
    "common": GenderLabel.N1_COMMON_FORM,
    "neu": GenderLabel.N2_NEUTER_CASE,
    "m": GenderLabel.MASCULINE,
    "f": GenderLabel.FEMININE,
}


@dataclass(frozen=True)
class SlotScore:
    instance_id: str
    slot_index: int
    label: GenderLabel
    matched_text: str = ""
    rule: str = ""


_ANNOTATION_CHARS = "/()@"


def _strip_token(raw: str) -> str:
    """Strip edge punctuation, keeping annotation chars that follow a letter."""
    token = raw
    while token and not token[0].isalnum():
        token = token[1:]
    while token:
        last = token[-1]
        if last.isalnum():
            break
        if last in _ANNOTATION_CHARS and len(token) >= 2 and token[-2].isalpha():
            break
        token = token[:-1]
    return token


def normalize(text: str) -> list[str]:
    """NFC-normalise and tokenise; case is preserved, diacritics significant."""
    tokens = []
    for raw in nfc(text).split():
        token = _strip_token(raw)
        if token:
            tokens.append(token)
    return tokens


def _pattern_variants(pattern: MorphPattern, token: str, folded: str) -> tuple[str, ...]:
    """Surface forms a pattern-annotated token (casefolded: `folded`) stands for, or () if no match."""
    if pattern.kind is PatternKind.SLASH_SUFFIX:
        first, second = pattern.template.split("/")
        for tail in (f"{first}/{second}", f"({first}/{second})"):
            if folded.endswith(tail.casefold()) and len(token) > len(tail):
                stem = token[: -len(tail)]
                if stem and stem[-1].isalpha():
                    return (stem + first, stem + second)
        return ()
    if pattern.kind is PatternKind.PAREN_SUFFIX:
        tail = f"({pattern.template})"
        if folded.endswith(tail.casefold()) and len(token) > len(tail):
            stem = token[: -len(tail)]
            if stem and stem[-1].isalpha():
                return (stem, stem + pattern.template)
        return ()
    if folded.endswith("@") and len(token) > 1:
        stem = token[:-1]
        if stem and stem[-1].isalpha():
            first, second = pattern.template.split("/")
            return (stem + first, stem + second)
    return ()


def classify_slot(
    slot: AdjectiveSlot,
    tokens: Sequence[str],
    resources: LanguageResources,
    consumed: set[int],
    instance_id: str = "",
) -> SlotScore:
    """Classify one slot against the `normalize`d tokens of a translation.

    `consumed` holds token positions claimed by earlier slots of the same
    instance and is extended with whatever this call matches. Every input
    yields a SlotScore; Unmatched is a value, not an error.
    """
    lemma_key = nfc(slot.lemma).casefold()
    forms = resources.lexicon.forms_for_lemma(slot.lemma)
    unclaimed = [
        (position, token, token.casefold()) for position, token in enumerate(tokens) if position not in consumed
    ]

    def score(label: GenderLabel, matched: str, rule: str) -> SlotScore:
        return SlotScore(instance_id, slot.slot_index, label, matched, rule)

    for position, token, folded in unclaimed:
        entry = forms.get(folded)
        if entry is not None:
            consumed.add(position)
            label = _LABEL_BY_FORM_GENDER[entry.form_gender.value]
            return score(label, token, f"lexicon:{entry.surface_form}:{entry.form_gender.value}")

    for position, token, folded in unclaimed:
        for pattern in resources.patterns:
            variants = _pattern_variants(pattern, token, folded)
            if variants and any(variant.casefold() in forms for variant in variants):
                consumed.add(position)
                return score(
                    GenderLabel.N5_ALT_MORPHOLOGY,
                    token,
                    f"pattern:{pattern.kind.value}:{pattern.template}",
                )

    phrases = resources.phrases_by_lemma.get(lemma_key)
    if phrases:
        # a consumed position, or one past the end, reads None and matches no phrase token
        folded_at = {position: folded for position, _, folded in unclaimed}
        for start in range(len(tokens)):
            for phrase_words, phrase in phrases:
                positions = range(start, start + len(phrase_words))
                if tuple(folded_at.get(p) for p in positions) == phrase_words:
                    consumed.update(positions)
                    matched = " ".join(tokens[start : positions.stop])
                    return score(GenderLabel.N3_ALT_PART_OF_SPEECH, matched, f"phrase:{phrase}")

    for position, token, folded in unclaimed:
        if folded == lemma_key:
            consumed.add(position)
            return score(GenderLabel.N4_SOURCE_COPY, token, "copy")

    return score(GenderLabel.UNMATCHED, "", "")


def classify_instance(
    instance: TestInstance,
    translation: str,
    resources: LanguageResources,
) -> list[SlotScore]:
    """Score every slot of an instance in slot order with a shared consumed set."""
    tokens = normalize(translation)
    consumed: set[int] = set()
    return [
        classify_slot(slot, tokens, resources, consumed, instance.id)
        for slot in sorted(instance.slots, key=lambda s: s.slot_index)
    ]

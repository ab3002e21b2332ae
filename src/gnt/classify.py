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

The three single-token rules depend only on the lemma and the token, so each
token's best one is worked out once per (lemma as written, token) and kept in
the lemma's `LemmaTable` as a rank: 0 lexicon, 1 pattern, 3 copy. A slot is then
classified in one pass over the unconsumed positions that keeps the lowest
(rank, position); rank 0 or 1 wins at once, else the phrase rule runs, else a
rank-3 copy wins. A shared consumed-position set keeps two slots of one
instance from matching the same token, assigning repeated lemmas in textual
order.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Sequence

from .lexicon import LanguageResources, LemmaTable, MorphPattern, PatternKind, nfc
from .suite import AdjectiveSlot, TestInstance


class GenderLabel(Enum):
    __hash__ = object.__hash__  # members are singletons: hash by identity, in C

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


class SlotScore(NamedTuple):
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
    return _tokens(text, {})


def _tokens(text: str, stripped: dict[str, str]) -> list[str]:
    """`normalize(text)`, with `stripped` memoising `_strip_token` per whitespace-split token."""
    tokens = []
    for raw in nfc(text).split():
        token = stripped.get(raw)
        if token is None:
            token = stripped[raw] = _strip_token(raw)
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


def _token_rule(
    token: str, table: LemmaTable, patterns: Sequence[MorphPattern]
) -> tuple[int, GenderLabel, str] | None:
    """The best single-token rule `token` fires for the table's lemma: (rank, label, rule), or None."""
    folded = token.casefold()
    entry = table.forms.get(folded)
    if entry is not None:
        gender = entry.form_gender.value
        return 0, _LABEL_BY_FORM_GENDER[gender], f"lexicon:{entry.surface_form}:{gender}"
    for pattern in patterns:
        variants = _pattern_variants(pattern, token, folded)
        if variants and any(variant.casefold() in table.forms for variant in variants):
            return 1, GenderLabel.N5_ALT_MORPHOLOGY, f"pattern:{pattern.kind.value}:{pattern.template}"
    if folded == table.key:
        return 3, GenderLabel.N4_SOURCE_COPY, "copy"
    return None


_UNSEEN = object()


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
    table = resources.lemma_table(slot.lemma)
    token_rules = table.token_rules
    best = None
    best_position = -1
    for position, token in enumerate(tokens):
        if position in consumed:
            continue
        hit = token_rules.get(token, _UNSEEN)
        if hit is _UNSEEN:
            hit = token_rules[token] = _token_rule(token, table, resources.patterns)
        if hit is not None and (best is None or hit[0] < best[0]):
            best, best_position = hit, position
            if hit[0] == 0:  # no later position can beat the earliest lexicon form
                break

    if table.phrases and (best is None or best[0] > 1):
        # a consumed position reads None and matches no phrase word; a slice cut
        # short by the end of the tokens matches no phrase either
        folded = tuple(None if position in consumed else token.casefold() for position, token in enumerate(tokens))
        for start in range(len(tokens)):
            for phrase_words, phrase in table.phrases:
                stop = start + len(phrase_words)
                if folded[start:stop] == phrase_words:
                    consumed.update(range(start, stop))
                    matched = " ".join(tokens[start:stop])
                    return SlotScore(
                        instance_id, slot.slot_index, GenderLabel.N3_ALT_PART_OF_SPEECH, matched, f"phrase:{phrase}"
                    )

    if best is None:
        return SlotScore(instance_id, slot.slot_index, GenderLabel.UNMATCHED, "", "")
    consumed.add(best_position)
    return SlotScore(instance_id, slot.slot_index, best[1], tokens[best_position], best[2])


def classify_instance(
    instance: TestInstance,
    translation: str,
    resources: LanguageResources,
) -> list[SlotScore]:
    """Score every slot of an instance in slot order with a shared consumed set."""
    tokens = _tokens(translation, resources.stripped_tokens)
    consumed: set[int] = set()
    return [
        classify_slot(slot, tokens, resources, consumed, instance.id)
        for slot in sorted(instance.slots, key=lambda s: s.slot_index)
    ]

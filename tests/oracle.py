"""Brute-force classification oracle, independent of the production scanner.

Enumerates every (rule, token/phrase) candidate over the whole translation,
filters out consumed positions, and picks the winner by
(priority, textual position, registration order).
"""

from __future__ import annotations

from gnt import GenderLabel
from gnt.lexicon import PatternKind, lookup_key

_LABELS = {
    "common": GenderLabel.N1_COMMON_FORM,
    "neu": GenderLabel.N2_NEUTER_CASE,
    "m": GenderLabel.MASCULINE,
    "f": GenderLabel.FEMININE,
}


def _variants(pattern, token: str) -> list[str]:
    folded = token.casefold()
    if pattern.kind is PatternKind.AT_SIGN:
        if not folded.endswith("@") or len(token) < 2:
            return []
        stem = token[:-1]
        if not stem[-1].isalpha():
            return []
        left, right = pattern.template.split("/")
        return [stem + left, stem + right]
    if pattern.kind is PatternKind.SLASH_SUFFIX:
        left, right = pattern.template.split("/")
        tails = [left + "/" + right, "(" + left + "/" + right + ")"]
        suffixes = [(tail, [left, right]) for tail in tails]
    else:
        tails = ["(" + pattern.template + ")"]
        suffixes = [(tails[0], ["", pattern.template])]
    for tail, endings in suffixes:
        if folded.endswith(tail.casefold()) and len(token) > len(tail):
            stem = token[: -len(tail)]
            if stem and stem[-1].isalpha():
                return [stem + ending for ending in endings]
    return []


def oracle_classify(lemma, tokens, lexicon, patterns, alt_phrases, consumed):
    """Returns (label, matched_text, matched_positions)."""
    lemma_key = lookup_key(lemma)
    forms = lexicon.forms_for_lemma(lemma)
    candidates = []

    for pos, token in enumerate(tokens):
        entry = forms.get(token.casefold())
        if entry is not None:
            candidates.append((1, pos, 0, _LABELS[entry.form_gender.value], token, (pos,)))

    for order, pattern in enumerate(patterns):
        for pos, token in enumerate(tokens):
            variants = _variants(pattern, token)
            if variants and any(variant.casefold() in forms for variant in variants):
                candidates.append((2, pos, order, GenderLabel.N5_ALT_MORPHOLOGY, token, (pos,)))

    phrase_entries = [p for p in alt_phrases if lookup_key(p.lemma) == lemma_key]
    for order, entry in enumerate(phrase_entries):
        phrase_tokens = [lookup_key(t) for t in entry.phrase.split()]
        width = len(phrase_tokens)
        for start in range(len(tokens) - width + 1):
            if [t.casefold() for t in tokens[start : start + width]] == phrase_tokens:
                candidates.append(
                    (3, start, order, GenderLabel.N3_ALT_PART_OF_SPEECH,
                     " ".join(tokens[start : start + width]), tuple(range(start, start + width)))
                )

    for pos, token in enumerate(tokens):
        if token.casefold() == lemma_key:
            candidates.append((4, pos, 0, GenderLabel.N4_SOURCE_COPY, token, (pos,)))

    viable = [c for c in candidates if not (set(c[5]) & consumed)]
    if not viable:
        return GenderLabel.UNMATCHED, "", ()
    viable.sort(key=lambda c: (c[0], c[1], c[2]))
    _, _, _, label, matched, positions = viable[0]
    return label, matched, positions

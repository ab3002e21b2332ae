from __future__ import annotations

import random

import pytest

from gnt import (
    GenderLabel,
    Language,
    classify_instance,
    classify_slot,
    expand_template,
    load_lexicon,
    normalize,
)
from gnt.errors import InvalidEntry, LexiconConflict
from gnt.lexicon import FormGender, LexiconEntry
from gnt.suite import AMBIGUOUS_OMISSION, AdjectiveSlot, Referent, TemplateFamily
from helpers import random_classifier_case
from oracle import oracle_classify


def _slot(lemma: str, index: int = 0) -> AdjectiveSlot:
    return AdjectiveSlot(index, lemma, Referent.SPEAKER, AMBIGUOUS_OMISSION)


# --- normalize -----------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ('"musculos(o/a)," dijo.', ["musculos(o/a)", "dijo"]),
        ("Ég er huglítil(l).", ["Ég", "er", "huglítil(l)"]),
        ("", []),
        ("  \t \n ", []),
        ('"I think I\'m fit," I said.', ["I", "think", "I'm", "fit", "I", "said"]),
        ("¿Eres fuerte?", ["Eres", "fuerte"]),
        ("musculoso/a, claro", ["musculoso/a", "claro"]),
        ("musculos@.", ["musculos@"]),
        ("(una nota)", ["una", "nota)"]),
        ("--- *** ---", []),
    ],
)
def test_normalize(text, expected):
    assert normalize(text) == expected


def test_normalize_is_idempotent_on_its_own_output():
    tokens = normalize('"musculos(o/a)," dijo huglítil(l).')
    assert [normalize(t)[0] for t in tokens] == tokens


def test_normalize_composes_decomposed_accents():
    decomposed = "varkár"  # a + combining acute
    assert normalize(decomposed) == ["varkár"]


# --- lexicon loading --------------------------------------------------------------


def test_load_lexicon_from_rows():
    lexicon = load_lexicon(
        Language.ES, [LexiconEntry("fit", Language.ES, "fuerte", FormGender.COMMON_FORM)]
    )
    assert len(lexicon) == 1
    assert lexicon.lemmas == ("fit",)
    assert lexicon.forms_for_lemma("fit")["fuerte"].form_gender is FormGender.COMMON_FORM


def test_neuter_rows_accepted_for_czech():
    lexicon = load_lexicon(
        Language.CS, [LexiconEntry("nonsensical", Language.CS, "nesmyslné", FormGender.NEUTER_CASE)]
    )
    assert lexicon.forms_for_lemma("nonsensical")["nesmyslné"].form_gender is FormGender.NEUTER_CASE


def test_neuter_rows_rejected_for_spanish():
    with pytest.raises(InvalidEntry, match="neuter"):
        load_lexicon(
            Language.ES, [LexiconEntry("fit", Language.ES, "musculoso", FormGender.NEUTER_CASE)]
        )


def test_conflicting_rows_raise():
    rows = [
        LexiconEntry("fit", Language.ES, "fuerte", FormGender.COMMON_FORM),
        LexiconEntry("fit", Language.ES, "fuerte", FormGender.MASCULINE_ONLY),
    ]
    with pytest.raises(LexiconConflict, match="fuerte"):
        load_lexicon(Language.ES, rows)


def test_identical_duplicate_rows_are_deduplicated():
    rows = [
        LexiconEntry("fit", Language.ES, "fuerte", FormGender.COMMON_FORM),
        LexiconEntry("fit", Language.ES, "fuerte", FormGender.COMMON_FORM),
    ]
    assert len(load_lexicon(Language.ES, rows)) == 1


def test_csv_round_trip(tmp_path):
    path = tmp_path / "lexicon.csv"
    path.write_text("lemma,form,gender\nfit,fuerte,common\nfit,musculoso,m\n", encoding="utf-8")
    lexicon = load_lexicon(Language.ES, path)
    assert sorted(lexicon.forms_for_lemma("fit")) == ["fuerte", "musculoso"]


def test_csv_bad_gender_reports_line(tmp_path):
    path = tmp_path / "lexicon.csv"
    path.write_text("lemma,form,gender\nfit,fuerte,neutral\n", encoding="utf-8")
    with pytest.raises(InvalidEntry, match=":2"):
        load_lexicon(Language.ES, path)


# --- classify_slot ---------------------------------------------------------------


def test_exact_common_form_wins(es_resources):
    score = classify_slot(
        _slot("fit"), "Creo que soy fuerte, dijo.",
        es_resources.lexicon, es_resources.patterns, es_resources.alt_phrases,
    )
    assert score.label is GenderLabel.N1_COMMON_FORM
    assert score.matched_text == "fuerte"
    assert score.rule == "lexicon:fuerte:common"


def test_source_copy_detected_case_insensitively(is_resources):
    score = classify_slot(
        _slot("cautious"), "Ég er Cautious, sagði hún.",
        is_resources.lexicon, is_resources.patterns, is_resources.alt_phrases,
    )
    assert score.label is GenderLabel.N4_SOURCE_COPY
    assert score.matched_text == "Cautious"


def test_slash_annotation_yields_alt_morphology(es_resources):
    score = classify_slot(
        _slot("fit"), "Eres musculos(o/a).",
        es_resources.lexicon, es_resources.patterns, es_resources.alt_phrases,
    )
    assert score.label is GenderLabel.N5_ALT_MORPHOLOGY
    assert score.rule == "pattern:slash:o/a"


def test_alt_phrase_yields_n3(cs_resources):
    score = classify_slot(
        _slot("nonsensical"), "To je nemám smysl.",
        cs_resources.lexicon, cs_resources.patterns, cs_resources.alt_phrases,
    )
    assert score.label is GenderLabel.N3_ALT_PART_OF_SPEECH
    assert score.matched_text == "nemám smysl"


def test_unknown_translation_is_unmatched(es_resources):
    score = classify_slot(
        _slot("stubborn"), "Una frase sin pistas.",
        es_resources.lexicon, es_resources.patterns, es_resources.alt_phrases,
    )
    assert score.label is GenderLabel.UNMATCHED
    assert score.matched_text == ""


def test_diacritics_are_significant(is_resources):
    score = classify_slot(
        _slot("cautious"), "Ég er varkar.",  # missing accent
        is_resources.lexicon, is_resources.patterns, is_resources.alt_phrases,
    )
    assert score.label is GenderLabel.UNMATCHED


def test_unvalidated_annotation_stays_unmatched(es_resources):
    # "(o/a)" on a stem that is not a known form of the lemma must not fire
    score = classify_slot(
        _slot("fit"), "Eres zanahori(o/a).",
        es_resources.lexicon, es_resources.patterns, es_resources.alt_phrases,
    )
    assert score.label is GenderLabel.UNMATCHED


def test_priority_prefers_exact_form_over_copy(es_resources):
    score = classify_slot(
        _slot("fit"), "fit fuerte",
        es_resources.lexicon, es_resources.patterns, es_resources.alt_phrases,
    )
    assert score.label is GenderLabel.N1_COMMON_FORM


def test_textual_order_breaks_ties_within_a_priority(es_resources):
    score = classify_slot(
        _slot("fit"), "Eres musculosa o musculoso.",
        es_resources.lexicon, es_resources.patterns, es_resources.alt_phrases,
    )
    assert score.label is GenderLabel.FEMININE
    assert score.matched_text == "musculosa"


# --- classify_instance ----------------------------------------------------------


def test_four_slot_instance_fully_classified(es_resources):
    instance = expand_template(
        TemplateFamily.T2_TWO_PERSON_KNOWN,
        {"char_gender": "m", "A1": "stubborn", "A2": "fit", "A3": "calm", "A4": "wise"},
        "T2-000000d",
    )
    translation = "Soy obstinado y eres musculosa, no, eres tranquila, pero soy sabio."
    scores = classify_instance(instance, translation, es_resources)
    assert [s.label.value for s in scores] == ["M", "F", "F", "M"]
    assert all(s.instance_id == "T2-000000d" for s in scores)


def test_repeated_lemma_consumes_matches_in_textual_order(es_resources):
    slots = [_slot("fit", 0), _slot("fit", 1)]
    consumed: set[int] = set()
    tokens = normalize("Estoy fuerte hoy.")
    first = classify_slot(slots[0], tokens, es_resources.lexicon,
                          es_resources.patterns, es_resources.alt_phrases, consumed)
    second = classify_slot(slots[1], tokens, es_resources.lexicon,
                           es_resources.patterns, es_resources.alt_phrases, consumed)
    assert first.label is GenderLabel.N1_COMMON_FORM
    assert second.label is GenderLabel.UNMATCHED


def test_repeated_lemma_with_two_occurrences_matches_both(es_resources):
    slots = [_slot("fit", 0), _slot("fit", 1)]
    consumed: set[int] = set()
    tokens = normalize("Estoy fuerte y muy fuerte.")
    labels = [
        classify_slot(slot, tokens, es_resources.lexicon,
                      es_resources.patterns, es_resources.alt_phrases, consumed).label
        for slot in slots
    ]
    assert labels == [GenderLabel.N1_COMMON_FORM, GenderLabel.N1_COMMON_FORM]
    assert consumed == {1, 4}


def test_phrase_consumes_all_its_positions(es_resources):
    slots = [_slot("fit", 0), _slot("fit", 1)]
    consumed: set[int] = set()
    tokens = normalize("Estoy en forma.")
    first = classify_slot(slots[0], tokens, es_resources.lexicon,
                          es_resources.patterns, es_resources.alt_phrases, consumed)
    second = classify_slot(slots[1], tokens, es_resources.lexicon,
                           es_resources.patterns, es_resources.alt_phrases, consumed)
    assert first.label is GenderLabel.N3_ALT_PART_OF_SPEECH
    assert consumed == {1, 2}
    assert second.label is GenderLabel.UNMATCHED


def test_empty_translation_leaves_all_slots_unmatched(es_resources):
    instance = expand_template(
        TemplateFamily.T2_TWO_PERSON_KNOWN,
        {"char_gender": "m", "A1": "stubborn", "A2": "fit", "A3": "calm", "A4": "wise"},
        "T2-000001d",
    )
    scores = classify_instance(instance, "", es_resources)
    assert [s.label for s in scores] == [GenderLabel.UNMATCHED] * 4


def test_classification_is_pure(es_resources):
    instance = expand_template(
        TemplateFamily.T7_ADVERB_STEREOTYPE, {"A": "fit"}, "T7-000000a"
    )
    first = classify_instance(instance, "Estoy en forma.", es_resources)
    second = classify_instance(instance, "Estoy en forma.", es_resources)
    assert first == second


# --- oracle equivalence ------------------------------------------------------------


def test_classifier_agrees_with_brute_force_oracle():
    rng = random.Random(404)
    for _ in range(2000):
        language, lexicon, patterns, alt_phrases, lemma, tokens, consumed = random_classifier_case(rng)
        expected_label, expected_match, expected_positions = oracle_classify(
            lemma, tokens, lexicon, patterns, alt_phrases, set(consumed)
        )
        mutable = set(consumed)
        score = classify_slot(_slot(lemma), tokens, lexicon, patterns, alt_phrases, mutable)
        assert score.label is expected_label, (language, lemma, tokens, consumed, score)
        assert score.matched_text == expected_match
        assert mutable == consumed | set(expected_positions)

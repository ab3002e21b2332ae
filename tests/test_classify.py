from __future__ import annotations

import random
import unicodedata

import pytest
from hypothesis import example, given, settings, strategies as st

from gnt import (
    GenderLabel,
    Language,
    classify_instance,
    classify_slot,
    expand_template,
    load_language_resources,
    load_lexicon,
    normalize,
)
from gnt import classify
from gnt.data import lexicon_dir
from gnt.errors import InvalidEntry, LexiconConflict
from gnt.lexicon import (
    AltPhraseEntry,
    FormGender,
    LanguageResources,
    Lexicon,
    LexiconEntry,
    MorphPattern,
    PatternKind,
    load_alt_phrases,
    lookup_key,
)
from gnt.pipeline import score_suite
from gnt.suite import AMBIGUOUS_OMISSION, AdjectiveSlot, Referent, TemplateFamily, generate_suite
from gnt.suite import TestInstance as SuiteInstance  # a name pytest does not collect
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
    lexicon = Lexicon(Language.ES, [LexiconEntry("fit", "fuerte", FormGender.COMMON_FORM)])
    assert len(lexicon) == 1
    assert lexicon.lemmas == ("fit",)
    assert lexicon.forms_for_lemma("fit")["fuerte"].form_gender is FormGender.COMMON_FORM


def test_neuter_rows_accepted_for_czech():
    lexicon = Lexicon(Language.CS, [LexiconEntry("nonsensical", "nesmyslné", FormGender.NEUTER_CASE)])
    assert lexicon.forms_for_lemma("nonsensical")["nesmyslné"].form_gender is FormGender.NEUTER_CASE


def test_neuter_rows_rejected_for_spanish():
    with pytest.raises(InvalidEntry, match="neuter"):
        Lexicon(Language.ES, [LexiconEntry("fit", "musculoso", FormGender.NEUTER_CASE)])


def test_conflicting_rows_raise():
    rows = [
        LexiconEntry("fit", "fuerte", FormGender.COMMON_FORM),
        LexiconEntry("fit", "fuerte", FormGender.MASCULINE_ONLY),
    ]
    with pytest.raises(LexiconConflict, match="fuerte"):
        Lexicon(Language.ES, rows)


def test_identical_duplicate_rows_are_deduplicated():
    rows = [
        LexiconEntry("fit", "fuerte", FormGender.COMMON_FORM),
        LexiconEntry("fit", "fuerte", FormGender.COMMON_FORM),
    ]
    assert len(Lexicon(Language.ES, rows)) == 1


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


def test_csv_row_error_names_the_physical_line_after_a_multiline_cell(tmp_path):
    path = tmp_path / "alt_phrases.csv"
    path.write_text('lemma,phrase\nfit,"en\nforma"\nfit,\n', encoding="utf-8")
    with pytest.raises(InvalidEntry, match=r"alt_phrases\.csv:4: phrase must contain at least one token"):
        load_alt_phrases(path)


def test_entries_built_in_nfd_are_found_by_their_nfc_lemma():
    def nfd(text: str) -> str:
        return unicodedata.normalize("NFD", text)

    lemma = "naïve"
    assert nfd(lemma) != lemma
    lexicon = Lexicon(Language.ES, [
        LexiconEntry(nfd(lemma), nfd("cándido"), FormGender.MASCULINE_ONLY),
        LexiconEntry(nfd(lemma.upper()), "cándida", FormGender.FEMININE_ONLY),
    ])
    resources = LanguageResources(Language.ES, lexicon, (), (AltPhraseEntry(nfd(lemma), nfd("de buen corazón")),))
    assert sorted(lexicon.forms_for_lemma(lemma)) == ["cándida", "cándido"]
    assert lexicon.lemmas == (lemma,)

    def labelled(text: str) -> tuple[str, str]:
        score = classify_slot(_slot(lemma), normalize(text), resources, set())
        return score.label.value, score.matched_text

    assert labelled("Soy cándido.") == ("M", "cándido")
    assert labelled("Soy CÁNDIDA.") == ("F", "CÁNDIDA")
    assert labelled("Soy de buen corazón.") == ("N3", "de buen corazón")
    assert labelled("Soy Naïve.") == ("N4", "Naïve")


# --- classify_slot ---------------------------------------------------------------


def test_exact_common_form_wins(es_resources):
    score = classify_slot(_slot("fit"), normalize("Creo que soy fuerte, dijo."), es_resources, set())
    assert score.label is GenderLabel.N1_COMMON_FORM
    assert score.matched_text == "fuerte"
    assert score.rule == "lexicon:fuerte:common"


def test_source_copy_detected_case_insensitively(is_resources):
    score = classify_slot(_slot("cautious"), normalize("Ég er Cautious, sagði hún."), is_resources, set())
    assert score.label is GenderLabel.N4_SOURCE_COPY
    assert score.matched_text == "Cautious"


def test_slash_annotation_yields_alt_morphology(es_resources):
    score = classify_slot(_slot("fit"), normalize("Eres musculos(o/a)."), es_resources, set())
    assert score.label is GenderLabel.N5_ALT_MORPHOLOGY
    assert score.rule == "pattern:slash:o/a"


def test_alt_phrase_yields_n3(cs_resources):
    score = classify_slot(_slot("nonsensical"), normalize("To je nemám smysl."), cs_resources, set())
    assert score.label is GenderLabel.N3_ALT_PART_OF_SPEECH
    assert score.matched_text == "nemám smysl"


def test_unknown_translation_is_unmatched(es_resources):
    score = classify_slot(_slot("stubborn"), normalize("Una frase sin pistas."), es_resources, set())
    assert score.label is GenderLabel.UNMATCHED
    assert score.matched_text == ""


def test_diacritics_are_significant(is_resources):
    score = classify_slot(_slot("cautious"), normalize("Ég er varkar."), is_resources, set())  # missing accent
    assert score.label is GenderLabel.UNMATCHED


def test_unvalidated_annotation_stays_unmatched(es_resources):
    # "(o/a)" on a stem that is not a known form of the lemma must not fire
    score = classify_slot(_slot("fit"), normalize("Eres zanahori(o/a)."), es_resources, set())
    assert score.label is GenderLabel.UNMATCHED


def test_priority_prefers_exact_form_over_copy(es_resources):
    score = classify_slot(_slot("fit"), normalize("fit fuerte"), es_resources, set())
    assert score.label is GenderLabel.N1_COMMON_FORM


def test_textual_order_breaks_ties_within_a_priority(es_resources):
    score = classify_slot(_slot("fit"), normalize("Eres musculosa o musculoso."), es_resources, set())
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
    first = classify_slot(slots[0], tokens, es_resources, consumed)
    second = classify_slot(slots[1], tokens, es_resources, consumed)
    assert first.label is GenderLabel.N1_COMMON_FORM
    assert second.label is GenderLabel.UNMATCHED


def test_repeated_lemma_with_two_occurrences_matches_both(es_resources):
    slots = [_slot("fit", 0), _slot("fit", 1)]
    consumed: set[int] = set()
    tokens = normalize("Estoy fuerte y muy fuerte.")
    labels = [
        classify_slot(slot, tokens, es_resources, consumed).label
        for slot in slots
    ]
    assert labels == [GenderLabel.N1_COMMON_FORM, GenderLabel.N1_COMMON_FORM]
    assert consumed == {1, 4}


def test_phrase_consumes_all_its_positions(es_resources):
    slots = [_slot("fit", 0), _slot("fit", 1)]
    consumed: set[int] = set()
    tokens = normalize("Estoy en forma.")
    first = classify_slot(slots[0], tokens, es_resources, consumed)
    second = classify_slot(slots[1], tokens, es_resources, consumed)
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
        resources = LanguageResources(language, lexicon, patterns, alt_phrases)
        score = classify_slot(_slot(lemma), tokens, resources, mutable)
        assert score.label is expected_label, (language, lemma, tokens, consumed, score)
        assert score.matched_text == expected_match
        assert mutable == consumed | set(expected_positions)


_SHIPPED = {language: load_language_resources(lexicon_dir(), language) for language in Language}
_LETTERS = "abcdefghijklmnopqrstuvwxyzáéíóúýčěřšžůñðþæö"
_ANNOTATION_TAILS = ["o/a", "(o/a)", "ý/á", "(ý/á)", "(ur)", "(l)", "@", "/", "()"]
_CASE_CHANGES = [str, str.upper, str.capitalize, str.swapcase]


@st.composite
def _shipped_translations(draw):
    """A shipped language, one of its lemmas, a translation and the positions earlier slots took."""
    resources = _SHIPPED[draw(st.sampled_from(list(Language)))]
    # half the cases take a lemma that has a registered phrase, which few lemmas have
    phrase_lemmas = sorted({entry.lemma.casefold() for entry in resources.alt_phrases})
    lemma = draw(st.sampled_from(resources.lexicon.lemmas) | st.sampled_from(phrase_lemmas))
    forms = [entry.surface_form for entry in resources.lexicon.forms_for_lemma(lemma).values()]
    copies = [entry.phrase for entry in resources.alt_phrases if entry.lemma.casefold() == lemma] + [lemma]
    words = []
    # f: a lexicon form, a: an annotated form, c: a phrase or the lemma, n: noise; forms are drawn
    # less often than annotations and copies, or the lexicon rule would decide almost every case
    for kind in draw(st.lists(st.sampled_from("faaaccn"), max_size=8)):
        if kind == "f":
            word = draw(st.sampled_from(forms))
        elif kind == "a":
            form = draw(st.sampled_from(forms))
            word = form[: len(form) - draw(st.integers(0, 2))] + draw(st.sampled_from(_ANNOTATION_TAILS))
        elif kind == "c":
            word = draw(st.sampled_from(copies))
        else:
            word = draw(st.text(alphabet=_LETTERS + "/()@", min_size=1, max_size=8))
        word = unicodedata.normalize(draw(st.sampled_from(["NFC", "NFD"])), draw(st.sampled_from(_CASE_CHANGES))(word))
        words.append(word + draw(st.sampled_from(["", ",", ".", ")"])))
    tokens = normalize(" ".join(words))
    consumed = draw(st.sets(st.integers(0, len(tokens)), max_size=3))
    return resources, lemma, tokens, consumed


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_shipped_translations())
def test_classifier_agrees_with_the_oracle_on_drawn_translations(case):
    resources, lemma, tokens, consumed = case
    expected_label, expected_match, expected_positions = oracle_classify(
        lemma, tokens, resources.lexicon, resources.patterns, resources.alt_phrases, set(consumed)
    )
    mutable = set(consumed)
    score = classify_slot(_slot(lemma), tokens, resources, mutable)
    assert score.label is expected_label, (lemma, tokens, consumed, score)
    assert score.matched_text == expected_match
    assert mutable == consumed | set(expected_positions)


# --- the per-lemma token memo -------------------------------------------------------

# one token serving two lemmas: "fit" is a form of "strong" and the copy of "fit", and "tranquil(o/a)" a
# form of "odd" and a slash-pattern hit of "calm"; "naïve" is written in NFD, which the lookup key folds away
_NAIVE_NFD = unicodedata.normalize("NFD", "naïve")
_CROSSED = LanguageResources(
    Language.ES,
    Lexicon(Language.ES, [
        LexiconEntry("fit", "fuerte", FormGender.COMMON_FORM),
        LexiconEntry("fit", "musculoso", FormGender.MASCULINE_ONLY),
        LexiconEntry("strong", "fit", FormGender.MASCULINE_ONLY),
        LexiconEntry("calm", "tranquilo", FormGender.MASCULINE_ONLY),
        LexiconEntry("calm", "tranquila", FormGender.FEMININE_ONLY),
        LexiconEntry("odd", "tranquil(o/a)", FormGender.COMMON_FORM),
        LexiconEntry(_NAIVE_NFD, "ingenuo", FormGender.MASCULINE_ONLY),
        LexiconEntry(_NAIVE_NFD, "ingenua", FormGender.FEMININE_ONLY),
    ]),
    (MorphPattern(PatternKind.SLASH_SUFFIX, "o/a"), MorphPattern(PatternKind.AT_SIGN, "o/a")),
    (AltPhraseEntry("calm", "en calma"), AltPhraseEntry(_NAIVE_NFD, "sin malicia")),
)


@st.composite
def _case_sequences(draw):
    """Resources and a sequence of (slot lemmas, translation) cases over a few of its lemmas.

    Every word is drawn from the forms, annotations and copies of all the drawn lemmas, so one token
    meets several lemmas, and every translation comes back once more in another case. Each drawn lemma
    also comes upper-cased and in NFD, so that one resources object serves a lemma written several ways.
    """
    resources = draw(st.sampled_from([_CROSSED, *_SHIPPED.values()]))
    lemmas = sorted({entry.lemma.casefold() for entry in resources.alt_phrases} | set(resources.lexicon.lemmas))
    drawn = draw(st.lists(st.sampled_from(lemmas), min_size=1, max_size=3, unique=True))
    pool = list(dict.fromkeys(
        spelling for lemma in drawn for spelling in (lemma, lemma.upper(), unicodedata.normalize("NFD", lemma))
    ))
    forms = [entry.surface_form for lemma in pool for entry in resources.lexicon.forms_for_lemma(lemma).values()]
    copies = pool + [entry.phrase for entry in resources.alt_phrases if entry.lemma.casefold() in pool]
    cases = []
    for _ in range(draw(st.integers(1, 4))):
        words = []
        for kind in draw(st.lists(st.sampled_from("faacn" if forms else "cn"), max_size=6)):
            if kind == "f":
                word = draw(st.sampled_from(forms))
            elif kind == "a":
                form = draw(st.sampled_from(forms))
                word = form[: len(form) - draw(st.integers(0, 2))] + draw(st.sampled_from(_ANNOTATION_TAILS))
            elif kind == "c":
                word = draw(st.sampled_from(copies))
            else:
                word = draw(st.text(alphabet=_LETTERS + "/()@", min_size=1, max_size=8))
            words.append(draw(st.sampled_from(_CASE_CHANGES))(word) + draw(st.sampled_from(["", ",", ".", ")"])))
        slot_lemmas = tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3)))
        translation = " ".join(words)
        cases.append((slot_lemmas, translation))
        cases.append((slot_lemmas, draw(st.sampled_from([str.upper, str.swapcase, str.capitalize]))(translation)))
    return resources, cases


def _classified(resources: LanguageResources, lemmas: tuple[str, ...], translation: str):
    slots = tuple(_slot(lemma, index) for index, lemma in enumerate(lemmas))
    instance = SuiteInstance("T1-000000a", TemplateFamily.T1_ONE_PERSON_KNOWN, "", slots)
    return classify_instance(instance, translation, resources)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_case_sequences())
@example((_CROSSED, [
    (("strong",), "Soy Fit."), (("fit",), "soy FIT"), (("fit", "fit"), "fit, Fit"), (("strong", "fit"), "FIT fit"),
    (("calm",), "Tranquil(o/a) tranquila"), (("odd", "calm"), "tranquil(o/a) TRANQUIL(O/A)"), (("calm",), "en calma"),
    ((_NAIVE_NFD,), "Soy naïve."), ((_NAIVE_NFD, "naïve"), "ingenua, Sin malicia"), (("NAÏVE",), f"un {_NAIVE_NFD}"),
]))
def test_the_token_memo_never_changes_a_result(case):
    base, cases = case
    shared = LanguageResources(base.language, base.lexicon, base.patterns, base.alt_phrases)
    for lemmas, translation in cases:
        scores = _classified(shared, lemmas, translation)
        fresh = LanguageResources(base.language, base.lexicon, base.patterns, base.alt_phrases)
        assert scores == _classified(fresh, lemmas, translation)
        tokens = normalize(translation)
        consumed: set[int] = set()
        for lemma, score in zip(lemmas, scores):
            label, matched, positions = oracle_classify(
                lemma, tokens, base.lexicon, base.patterns, base.alt_phrases, consumed
            )
            assert (score.label, score.matched_text) == (label, matched), (lemma, translation, score)
            consumed |= set(positions)


def test_each_token_rule_is_worked_out_once_per_lemma(monkeypatch, full_scale_manifest):
    """Scoring echoed English sources works out at most one rule per distinct (lemma key, token) pair."""
    calls = 0
    token_rule = classify._token_rule

    def counted(*args):
        nonlocal calls
        calls += 1
        return token_rule(*args)

    monkeypatch.setattr(classify, "_token_rule", counted)
    suite = generate_suite(full_scale_manifest)
    echoed = {instance.id: instance.source_text for instance in suite}
    scores = score_suite(suite, echoed, load_language_resources(lexicon_dir(), Language.ES))
    pairs = {
        (lookup_key(slot.lemma), token)
        for instance in suite
        for token in normalize(instance.source_text)
        for slot in instance.slots
    }
    assert len(scores) == 13918
    assert 0 < calls <= len(pairs)


def test_a_lemma_written_two_ways_gets_two_tables_of_equal_content():
    resources = LanguageResources(_CROSSED.language, _CROSSED.lexicon, _CROSSED.patterns, _CROSSED.alt_phrases)
    lower, upper = resources.lemma_table("calm"), resources.lemma_table("CALM")
    assert resources.lemma_table("calm") is lower and upper is not lower
    for table in (lower, upper):
        assert table.key == "calm" and table.phrases == [(("en", "calma"), "en calma")]
        assert sorted(table.forms) == ["tranquila", "tranquilo"]
    # each table memoises its own token rules
    assert lower.token_rules == {} and upper.token_rules is not lower.token_rules

from __future__ import annotations

import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from gnt import (
    DescriptorPair,
    GenderCondition,
    SuiteManifest,
    TemplateFamily,
    expand_template,
    generate_suite,
    quota_key,
    validate_balance,
)
from gnt.errors import InconsistentBinding, MissingBinding, QuotaInfeasible
from gnt.formats import parse_suite, write_suite
from gnt.suite import (
    AMBIGUOUS_ACTIVE, AMBIGUOUS_OMISSION, QUOTA_KEYS, AmbiguityKind, BalanceDiagnostics, GenderKind, Referent,
    StereotypeKind, _GENDERED_PRONOUNS, _SHAPES, _SPEECH_PRONOUN, _UNSEEN, _WORD_RE, _add_member, _split_check,
)
from helpers import instance_to_dict, random_manifest

T1 = TemplateFamily.T1_ONE_PERSON_KNOWN
T2 = TemplateFamily.T2_TWO_PERSON_KNOWN
T3 = TemplateFamily.T3_ONE_PERSON_PARTIAL
T4 = TemplateFamily.T4_TWO_PERSON_PARTIAL
T5 = TemplateFamily.T5_CHAR_STEREOTYPE
T7 = TemplateFamily.T7_ADVERB_STEREOTYPE


# --- expand_template ---------------------------------------------------------


def test_t5_expansion_matches_documented_example():
    instance = expand_template(
        T5,
        {
            "C_g": "pretty nurse",
            "C_gbar": "strong doctor",
            "C_g_stereotype": "f",
            "pronoun": "they",
            "A": "stubborn",
        },
    )
    assert instance.source_text == (
        'The pretty nurse smiled. "I think I\'m stubborn," they said to the strong doctor.'
    )
    (slot,) = instance.slots
    assert slot.lemma == "stubborn"
    assert slot.referent is Referent.SPEAKER
    assert slot.gender.kind is GenderKind.AMBIGUOUS
    assert slot.gender.ambiguity is AmbiguityKind.ACTIVE
    assert slot.stereotype.kind is StereotypeKind.FEMININE
    assert slot.stereotype.cue == "pretty nurse"


def test_t7_expansion_without_adverb():
    instance = expand_template(T7, {"A": "fit"})
    assert instance.source_text == '"I think I\'m fit," I said.'
    (slot,) = instance.slots
    assert slot.referent is Referent.SPEAKER
    assert slot.gender.ambiguity is AmbiguityKind.OMISSION
    assert slot.stereotype.kind is StereotypeKind.NONE


def test_t7_expansion_with_adverb():
    instance = expand_template(T7, {"A": "fit", "adverb": "gently", "adverb_stereotype": "f"})
    assert instance.source_text == '"I think I\'m fit," I said gently.'
    (slot,) = instance.slots
    assert slot.stereotype.kind is StereotypeKind.FEMININE
    assert slot.stereotype.cue == "gently"


def test_t5_rejects_pronoun_outside_he_she_they():
    with pytest.raises(InconsistentBinding, match="pronoun"):
        expand_template(
            T5,
            {"C_g": "pretty nurse", "C_gbar": "strong doctor", "C_g_stereotype": "f",
             "pronoun": "it", "A": "stubborn"},
        )


def test_missing_binding_is_reported_by_name():
    with pytest.raises(MissingBinding, match="'A2'"):
        expand_template(T1, {"char_gender": "f", "dialogue": "self", "bracket": True, "A1": "fit"})


# Valid bindings per family, their required keys in check order: T7's
# 'adverb' is optional and 'adverb_stereotype' is required only with it.
_BINDINGS = {
    T1: ({"char_gender": "f", "dialogue": "self", "bracket": True, "A1": "stubborn", "A2": "fit"},
         ("char_gender", "dialogue", "bracket", "A1", "A2")),
    T2: ({"char_gender": "m", "A1": "stubborn", "A2": "fit", "A3": "calm", "A4": "wise"},
         ("char_gender", "A1", "A2", "A3", "A4")),
    T3: ({"named_gender": "f", "first_person": 1, "dialogue": "self", "bracket": True, "A1": "stubborn", "A2": "fit"},
         ("named_gender", "first_person", "dialogue", "bracket", "A1", "A2")),
    T4: ({"named_gender": "m", "first_person": 2, "A1": "stubborn", "A2": "fit", "A3": "calm", "A4": "wise"},
         ("named_gender", "first_person", "A1", "A2", "A3", "A4")),
    T5: ({"C_g": "pretty nurse", "C_gbar": "strong doctor", "C_g_stereotype": "f", "pronoun": "they", "A": "fit"},
         ("C_g", "C_gbar", "C_g_stereotype", "pronoun", "A")),
    T7: ({"A": "fit", "adverb": "gently", "adverb_stereotype": "f"}, ("A", "adverb_stereotype")),
}
_REQUIRED = [(family, key) for family, (_, keys) in _BINDINGS.items() for key in keys]


@pytest.mark.parametrize("family,key", _REQUIRED, ids=[f"{f.value}-{k}" for f, k in _REQUIRED])
@pytest.mark.parametrize("absent", ["deleted", "null"])
def test_each_required_binding_is_reported_by_name(family, key, absent):
    bindings = dict(_BINDINGS[family][0])
    if absent == "deleted":
        del bindings[key]
    else:
        bindings[key] = None
    with pytest.raises(MissingBinding) as excinfo:
        expand_template(family, bindings)
    assert str(excinfo.value) == f"{family.value} expansion requires binding {key!r}"


@pytest.mark.parametrize("family", list(_BINDINGS), ids=lambda f: f.value)
def test_bindings_are_checked_in_a_fixed_order(family):
    bindings, keys = _BINDINGS[family]
    expand_template(family, bindings)
    # with the i-th required key and every later one gone, the i-th is named
    for i, key in enumerate(keys):
        kept = {k: v for k, v in bindings.items() if k not in keys[i:]}
        with pytest.raises(MissingBinding) as excinfo:
            expand_template(family, kept)
        assert str(excinfo.value) == f"{family.value} expansion requires binding {key!r}"
    with pytest.raises(MissingBinding) as excinfo:
        expand_template(family, {})
    assert str(excinfo.value) == f"{family.value} expansion requires binding {keys[0]!r}"


_INCONSISTENT = [
    (T1, "char_gender", "x", "T1 binding 'char_gender' must be 'f' or 'm', got 'x'"),
    (T2, "char_gender", "I", "T2 binding 'char_gender' must be 'f' or 'm', got 'I'"),
    (T3, "named_gender", "x", "T3 binding 'named_gender' must be 'f' or 'm', got 'x'"),
    (T4, "named_gender", 1, "T4 binding 'named_gender' must be 'f' or 'm', got 1"),
    (T1, "dialogue", "both", "T1 binding 'dialogue' must be 'self' or 'listener', got 'both'"),
    (T3, "dialogue", "both", "T3 binding 'dialogue' must be 'self' or 'listener', got 'both'"),
    (T3, "first_person", 3, "T3/T4 binding 'first_person' must be 1 or 2, got 3"),
    (T4, "first_person", 3, "T3/T4 binding 'first_person' must be 1 or 2, got 3"),
    (T4, "first_person", "1", "T3/T4 binding 'first_person' must be 1 or 2, got '1'"),
    (T5, "C_g_stereotype", "x", "T5 binding 'C_g_stereotype' must be 'f' or 'm', got 'x'"),
    (T5, "pronoun", "it", "T5 binding 'pronoun' must be one of he/she/they, got 'it'"),
    (T7, "adverb_stereotype", "x", "T7 binding 'adverb_stereotype' must be 'f' or 'm', got 'x'"),
]


@pytest.mark.parametrize("family,key,value,message", _INCONSISTENT,
                         ids=[f"{f.value}-{k}-{v}" for f, k, v, _ in _INCONSISTENT])
def test_inconsistent_binding_texts_are_pinned(family, key, value, message):
    with pytest.raises(InconsistentBinding) as excinfo:
        expand_template(family, {**_BINDINGS[family][0], key: value})
    assert str(excinfo.value) == message


# Each binding has one exact type: a boolean is no integer, and a string is no boolean.
_MISTYPED = [
    (T3, "first_person", True, "T3/T4 binding 'first_person' must be 1 or 2, got True"),
    (T1, "bracket", "no", "T1 binding 'bracket' must be a boolean, got 'no'"),
    (T1, "A1", 5, "T1 binding 'A1' must be a string, got 5"),
    (T5, "C_g", 7, "T5 binding 'C_g' must be a string, got 7"),
    (T7, "adverb", 5, "T7 binding 'adverb' must be a string, got 5"),
]


@pytest.mark.parametrize("family,key,value,message", _MISTYPED,
                         ids=[f"{f.value}-{k}-{v}" for f, k, v, _ in _MISTYPED])
def test_mistyped_binding_texts_are_pinned(family, key, value, message):
    with pytest.raises(InconsistentBinding) as excinfo:
        expand_template(family, {**_BINDINGS[family][0], key: value})
    assert str(excinfo.value) == message


@pytest.mark.parametrize("adverb", ["deleted", None, ""])
def test_an_unset_adverb_means_no_adverb(adverb):
    bindings = dict(_BINDINGS[T7][0])
    if adverb == "deleted":
        del bindings["adverb"]
    else:
        bindings["adverb"] = adverb
    instance = expand_template(T7, bindings)
    assert instance.source_text == '"I think I\'m fit," I said.'
    assert instance.slots[0].stereotype.kind is StereotypeKind.NONE
    assert instance.bindings == bindings


# arbitrary JSON-like values, and the ones some binding allows, so that edited bindings often still expand
_VALUES = (st.none() | st.booleans() | st.integers() | st.floats() | st.text()
           | st.sampled_from(["f", "m", "self", "listener", "he", "she", "they", 1, 2, ""]))
_DELETE = object()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_edited_bindings_expand_to_a_round_tripping_instance_or_raise_a_binding_error(tmp_path_factory, data):
    family = data.draw(st.sampled_from(list(_BINDINGS)))
    bindings = dict(_BINDINGS[family][0])
    for key, value in data.draw(st.dictionaries(st.sampled_from(list(bindings)), st.just(_DELETE) | _VALUES)).items():
        if value is _DELETE:
            del bindings[key]
        else:
            bindings[key] = value
    try:
        instance = expand_template(family, bindings, "X-000000a")
    except (MissingBinding, InconsistentBinding):
        return
    base = tmp_path_factory.getbasetemp()
    write_suite([instance], base / "expanded.jsonl")
    write_suite(parse_suite(base / "expanded.jsonl"), base / "again.jsonl")
    assert (base / "again.jsonl").read_bytes() == (base / "expanded.jsonl").read_bytes()


def test_t1_self_dialogue_with_bracket():
    instance = expand_template(
        T1, {"char_gender": "f", "dialogue": "self", "bracket": True, "A1": "stubborn", "A2": "fit"}
    )
    assert instance.source_text == (
        'The woman smiled. "I think I\'m stubborn," she said. '
        'He laughed back. "No, you\'re not stubborn, but you are fit," he replied.'
    )
    assert [s.lemma for s in instance.slots] == ["stubborn", "fit"]
    assert [s.referent for s in instance.slots] == [Referent.SPEAKER, Referent.LISTENER]
    assert all(s.gender.kind is GenderKind.DETERMINED_FEMININE for s in instance.slots)
    assert instance.source_text.count("stubborn") == 2


def test_t1_listener_dialogue_flips_referent_to_other_character():
    instance = expand_template(
        T1, {"char_gender": "f", "dialogue": "listener", "bracket": False, "A1": "stubborn", "A2": "fit"}
    )
    assert instance.source_text == (
        'The woman smiled. "I think you\'re stubborn," she said. '
        'He laughed back. "No, I am fit," he replied.'
    )
    assert [s.referent for s in instance.slots] == [Referent.LISTENER, Referent.SPEAKER]
    assert all(s.gender.kind is GenderKind.DETERMINED_MASCULINE for s in instance.slots)


def test_t2_four_slots_alternate_characters():
    instance = expand_template(
        T2, {"char_gender": "m", "A1": "stubborn", "A2": "fit", "A3": "nonsensical", "A4": "cautious"}
    )
    assert instance.source_text == (
        'The man smiled. "I think I\'m stubborn and you\'re fit," he said. '
        'She laughed back. "No, you\'re nonsensical, but I\'m cautious," she replied.'
    )
    kinds = [s.gender.kind for s in instance.slots]
    assert kinds == [
        GenderKind.DETERMINED_MASCULINE,
        GenderKind.DETERMINED_FEMININE,
        GenderKind.DETERMINED_MASCULINE,
        GenderKind.DETERMINED_FEMININE,
    ]
    assert [s.referent for s in instance.slots] == [
        Referent.SPEAKER, Referent.LISTENER, Referent.LISTENER, Referent.SPEAKER,
    ]


def test_t3_first_person_referent_is_ambiguous_by_omission():
    instance = expand_template(
        T3,
        {"named_gender": "f", "first_person": 1, "dialogue": "self", "bracket": True,
         "A1": "stubborn", "A2": "fit"},
    )
    assert instance.source_text == (
        'I smiled. "I think I\'m stubborn," I said. '
        'She laughed back. "No, you\'re not stubborn, but you are fit," she replied.'
    )
    assert all(s.gender.ambiguity is AmbiguityKind.OMISSION for s in instance.slots)


def test_t3_named_referent_stays_determined():
    instance = expand_template(
        T3,
        {"named_gender": "f", "first_person": 1, "dialogue": "listener", "bracket": True,
         "A1": "stubborn", "A2": "fit"},
    )
    assert instance.source_text == (
        'I smiled. "I think you\'re stubborn," I said. '
        'She laughed back. "No, I\'m not stubborn, but I am fit," she replied.'
    )
    assert all(s.gender.kind is GenderKind.DETERMINED_FEMININE for s in instance.slots)


def test_t4_mixes_conditions_within_one_instance():
    instance = expand_template(
        T4,
        {"named_gender": "f", "first_person": 2,
         "A1": "stubborn", "A2": "fit", "A3": "nonsensical", "A4": "cautious"},
    )
    assert instance.source_text == (
        'The woman smiled. "I think I\'m stubborn and you\'re fit," she said. '
        'I laughed back. "No, you\'re nonsensical, but I\'m cautious," I replied.'
    )
    ambiguous = [s.gender.is_ambiguous for s in instance.slots]
    assert ambiguous == [False, True, False, True]
    assert all(
        s.gender.ambiguity is AmbiguityKind.OMISSION for s in instance.slots if s.gender.is_ambiguous
    )


def test_lemmas_always_surface_in_text():
    rng = random.Random(11)
    for _ in range(50):
        manifest = random_manifest(rng)
        for instance in generate_suite(manifest):
            for slot in instance.slots:
                assert slot.lemma in instance.source_text


# --- generate_suite ----------------------------------------------------------


def _slot_counts(suite):
    counts = {}
    for instance in suite:
        for slot in instance.slots:
            key = quota_key(instance.family, slot.gender.kind, slot.stereotype.kind)
            counts[key] = counts.get(key, 0) + 1
    return counts


def test_demo_t5_quota_balances_pronouns():
    manifest = SuiteManifest(
        adjectives=["a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9", "a10"],
        descriptor_pairs=[
            DescriptorPair("strong doctor", "pretty nurse"),
            DescriptorPair("tough mechanic", "graceful dancer"),
            DescriptorPair("stern engineer", "cheerful secretary"),
            DescriptorPair("burly firefighter", "soft-spoken nanny"),
        ],
        quotas={"T5-Det": 40, "T5-Amb": 20},
        seed=3,
    )
    suite = generate_suite(manifest)
    assert sum(len(i.slots) for i in suite) == 60
    pronouns = {"he": 0, "she": 0, "they": 0}
    for instance in suite:
        pronouns[instance.bindings["pronoun"]] += 1
    assert pronouns == {"he": 20, "she": 20, "they": 20}


def test_all_quotas_zero_yields_empty_suite():
    manifest = SuiteManifest(adjectives=["fit", "calm", "wise", "kind"], quotas={}, seed=1)
    assert generate_suite(manifest) == []


def test_generation_is_deterministic(demo_manifest):
    import json

    first = [json.dumps(instance_to_dict(i), ensure_ascii=False) for i in generate_suite(demo_manifest)]
    second = [json.dumps(instance_to_dict(i), ensure_ascii=False) for i in generate_suite(demo_manifest)]
    assert first == second


def test_seed_changes_order_but_not_ids(demo_manifest):
    base = generate_suite(demo_manifest)
    reseeded = generate_suite(demo_manifest, seed=demo_manifest.seed + 1)
    assert [i.id for i in base] != [i.id for i in reseeded]
    assert sorted(i.id for i in base) == sorted(i.id for i in reseeded)


def test_exact_quota_counts(demo_manifest):
    counts = _slot_counts(generate_suite(demo_manifest))
    assert counts == demo_manifest.quotas


@pytest.mark.parametrize("family,det_key,amb_key", [("T3", "T3-Det", "T3-Amb"), ("T4", "T4-Det", "T4-Amb")])
def test_pairing_links_are_minimal_perturbations(demo_manifest, family, det_key, amb_key):
    suite = generate_suite(demo_manifest)
    by_id = {i.id: i for i in suite}
    paired = [i for i in suite if i.family.value == family and i.id.endswith("a")]
    assert paired
    for amb in paired:
        det = by_id[amb.pair_id + "d"]
        assert [s.lemma for s in det.slots] == [s.lemma for s in amb.slots]
        differing = {
            key for key in set(det.bindings) | set(amb.bindings)
            if det.bindings.get(key) != amb.bindings.get(key)
        }
        assert differing == ({"dialogue"} if family == "T3" else {"first_person"})


def test_t5_groups_share_everything_but_the_pronoun(demo_manifest):
    suite = generate_suite(demo_manifest)
    by_id = {i.id: i for i in suite}
    they = [i for i in suite if i.family is T5 and i.bindings["pronoun"] == "they"]
    assert len(they) == 20
    for amb in they:
        he = by_id[amb.pair_id + "d1"]
        she = by_id[amb.pair_id + "d2"]
        for det in (he, she):
            assert det.bindings["A"] == amb.bindings["A"]
            assert det.bindings["C_g"] == amb.bindings["C_g"]
        assert he.bindings["pronoun"] == "he"
        assert she.bindings["pronoun"] == "she"
    det_count = sum(1 for i in suite if i.family is T5 and not i.slots[0].gender.is_ambiguous)
    assert det_count == 2 * len(they)


def test_ambiguous_t5_instances_never_leak_gendered_pronouns(demo_manifest):
    suite = generate_suite(demo_manifest)
    for instance in suite:
        if instance.family is T5 and instance.slots[0].gender.is_ambiguous:
            words = {w.strip('.,"').lower() for w in instance.source_text.split()}
            assert not words & {"he", "she", "him", "her", "his", "hers"}


def test_infeasible_quota_names_the_limiting_list():
    manifest = SuiteManifest(adjectives=["fit", "calm"], quotas={"T2-Det": 8}, seed=0)
    with pytest.raises(QuotaInfeasible, match="adjectives"):
        generate_suite(manifest)

    manifest = SuiteManifest(adjectives=["fit"], quotas={"T5-Det": 4, "T5-Amb": 2}, seed=0)
    with pytest.raises(QuotaInfeasible, match="descriptor_pairs"):
        generate_suite(manifest)

    manifest = SuiteManifest(adjectives=["fit"], quotas={"T7-StereoM": 3}, seed=0)
    with pytest.raises(QuotaInfeasible, match="adverbs_masculine"):
        generate_suite(manifest)


@pytest.mark.parametrize("key", ["T1-Det", "T2-Det", "T3-Det", "T4-Det"])
def test_a_repeated_adjective_is_rejected_where_an_instance_takes_several(key):
    quotas = {key: 8, key.replace("Det", "Amb"): 8} if key[:2] in ("T3", "T4") else {key: 8}
    manifest = SuiteManifest(adjectives=["fit", "calm", "wise", "kind", "calm"], quotas=quotas)
    with pytest.raises(QuotaInfeasible) as excinfo:
        generate_suite(manifest)
    width = 2 if key[:2] in ("T1", "T3") else 4
    assert str(excinfo.value) == (
        f"{key[:2]} instances need {width} distinct adjectives per instance; manifest list 'adjectives' repeats 'calm'"
    )


def test_a_repeated_adjective_only_reweights_single_slot_families():
    manifest = SuiteManifest(
        adjectives=["fit", "fit", "calm"],
        descriptor_pairs=[DescriptorPair("strong doctor", "pretty nurse")],
        quotas={"T5-Det": 4, "T5-Amb": 2, "T7-None": 3},
    )
    suite = generate_suite(manifest)
    # T5 takes fit, fit for its two triplets; T7 fit, fit, calm
    assert sorted(i.slots[0].lemma for i in suite) == ["calm"] + ["fit"] * 8
    assert validate_balance(suite, manifest.quotas).ok


def test_mismatched_pair_quotas_are_rejected():
    manifest = SuiteManifest(adjectives=["a", "b", "c", "d"], quotas={"T3-Det": 4, "T3-Amb": 2}, seed=0)
    with pytest.raises(QuotaInfeasible, match="T3"):
        generate_suite(manifest)
    manifest = SuiteManifest(adjectives=["a", "b", "c", "d"], quotas={"T5-Det": 5, "T5-Amb": 2}, seed=0)
    with pytest.raises(QuotaInfeasible, match="T5"):
        generate_suite(manifest)


def test_odd_t5_quota_warns_and_stays_within_one():
    manifest = SuiteManifest(
        adjectives=["a", "b", "c", "d"],
        descriptor_pairs=[DescriptorPair("strong doctor", "pretty nurse")],
        quotas={"T5-Det": 6, "T5-Amb": 3},
        seed=0,
    )
    suite = generate_suite(manifest)
    diagnostics = validate_balance(suite, manifest.quotas)
    assert not diagnostics.violations
    assert any(w.startswith("odd split") for w in diagnostics.warnings)
    for pronoun, (m_count, f_count) in diagnostics.cue_split_by_pronoun.items():
        assert abs(m_count - f_count) <= 1


# --- validate_balance ----------------------------------------------------------


def test_generated_suites_validate_cleanly(demo_manifest):
    diagnostics = validate_balance(generate_suite(demo_manifest), demo_manifest.quotas)
    assert diagnostics.ok
    assert diagnostics.warnings == []
    assert diagnostics.det_gender_split["T1"] == (12, 12)
    assert diagnostics.speaker_position_split["T3"] == (12, 12)
    assert diagnostics.speaker_position_split["T4"] == (12, 12)
    assert diagnostics.pronoun_counts == {"he": 20, "she": 20, "they": 20}


def test_deleting_an_instance_breaks_counts(demo_manifest):
    suite = generate_suite(demo_manifest)
    index = next(i for i, inst in enumerate(suite) if inst.family is T3 and inst.id.endswith("d"))
    del suite[index]
    diagnostics = validate_balance(suite, demo_manifest.quotas)
    assert any(v.startswith("count-mismatch") for v in diagnostics.violations)
    assert any(v.startswith("pairing") for v in diagnostics.violations)


def test_conditions_a_family_never_produces_are_flagged(demo_manifest):
    suite = generate_suite(demo_manifest)
    impossible = {
        "T1": AMBIGUOUS_OMISSION,
        "T3": AMBIGUOUS_ACTIVE,
        "T5": AMBIGUOUS_OMISSION,
        "T7": GenderCondition.determined("m"),
    }
    edited = []
    for family, condition in impossible.items():
        index = next(i for i, inst in enumerate(suite) if inst.family.value == family)
        instance = suite[index]
        suite[index] = instance._replace(slots=(instance.slots[0]._replace(gender=condition),) + instance.slots[1:])
        edited.append(instance.id)
    violations = [v for v in validate_balance(suite).violations if v.startswith("condition:")]
    assert sorted(v.split()[1] for v in violations) == sorted(edited)


@pytest.mark.parametrize("keep", [0, 1], ids=["emptied", "one-slot-dropped"])
def test_instance_with_a_foreign_slot_count_is_flagged(demo_manifest, keep):
    suite = generate_suite(demo_manifest)
    index = next(i for i, inst in enumerate(suite) if inst.family is T1)
    suite[index] = suite[index]._replace(slots=suite[index].slots[:keep])
    violations = [v for v in validate_balance(suite).violations if v.startswith("slots:")]
    assert violations == [f"slots: {suite[index].id} has {keep} slots, T1 instances have 2"]


@pytest.mark.parametrize("family,slots", [(T3, 2), (T4, 4), (T5, 1)], ids=["T3", "T4", "T5"])
def test_validate_skips_slot_zero_reads_of_an_instance_without_slots(demo_manifest, family, slots):
    """Position, pronoun and cue are read from slot 0; an instance without one is only counted as malformed."""
    suite = generate_suite(demo_manifest)
    index = next(i for i, inst in enumerate(suite) if inst.family is family)
    suite[index] = suite[index]._replace(slots=())
    violations = [v for v in validate_balance(suite).violations if v.startswith("slots:")]
    assert violations == [f"slots: {suite[index].id} has 0 slots, {family.value} instances have {slots}"]


def _by_id_pairing(suite) -> list[str]:
    """The pairing violations as a check that holds the whole suite and an id -> instance dict finds them: the
    oracle of the one-pass pair check in `validate_balance`."""
    instances = list(suite)
    by_id = {inst.id: inst for inst in instances}
    pair_groups: dict[str, TemplateFamily] = {}
    for inst in instances:
        if inst.pair_id is not None:
            pair_groups.setdefault(inst.pair_id, inst.family)
    violations = []
    for pair_id, family in pair_groups.items():
        suffixes = _SHAPES[family].suffixes
        if len(suffixes) < 2:
            continue
        partners = [pair_id + suffix for suffix in suffixes]
        missing = [pid for pid in partners if pid not in by_id]
        if missing:
            violations.append(f"pairing: group {pair_id} incomplete, missing {', '.join(missing)}")
        elif len({tuple(s.lemma for s in by_id[pid].slots) for pid in partners}) != 1:
            violations.append(f"pairing: group {pair_id} members disagree on adjectives")
    return violations


_EDITS = ("family", "suffix", "lemma", "empty", "move")


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_the_one_pass_pair_check_finds_what_an_id_index_finds(demo_manifest, data):
    """Relabelled members (family, id suffix, adjectives, slots, moved to a group of their own), then dropped and
    duplicated ones, in any order: the pairing violations equal the id-index oracle's, in its order.

    Ids stay unique except for verbatim copies, and every member keeps its group's pair_id, as in a suite file."""
    suite = generate_suite(demo_manifest)
    index = st.integers(0, len(suite) - 1)
    for number, (kind, i) in enumerate(data.draw(st.lists(st.tuples(st.sampled_from(_EDITS), index), max_size=8))):
        inst = suite[i]
        suffix = inst.id[len(inst.pair_id):] if inst.pair_id else "d"
        if kind == "family":
            suite[i] = inst._replace(family=data.draw(st.sampled_from(list(TemplateFamily))))
        elif kind == "suffix":
            suite[i] = inst._replace(id=(inst.pair_id or inst.id) + "x")
        elif kind == "lemma" and inst.slots:
            suite[i] = inst._replace(slots=(inst.slots[0]._replace(lemma="edited"),) + inst.slots[1:])
        elif kind == "empty":
            suite[i] = inst._replace(slots=())
        elif kind == "move":
            suite[i] = inst._replace(id=f"moved-{number}-{suffix}", pair_id=f"moved-{number}-")
    for i in sorted(data.draw(st.sets(index, max_size=6)), reverse=True):
        del suite[i]
    for i in data.draw(st.lists(st.integers(0, len(suite) - 1), max_size=6)):
        suite.insert(data.draw(st.integers(0, len(suite))), suite[i])
    random.Random(data.draw(st.integers(0, 2**32))).shuffle(suite)
    found = [v for v in validate_balance(suite).violations if v.startswith("pairing:")]
    assert found == _by_id_pairing(suite)


def _per_instance_balance(suite, quotas=None) -> BalanceDiagnostics:
    """`validate_balance` as it checked and counted each instance on its own, whatever content it shares: the oracle
    of the check and count made once per distinct content."""
    violations: list[str] = []
    warnings: list[str] = []

    conditions: Counter = Counter()  # (family, gender kind, stereotype kind) -> slots
    positions: Counter = Counter()  # (family, first-person position) -> instances
    pronoun_counts: dict[str, int] = {"he": 0, "she": 0, "they": 0}
    cues: Counter = Counter()  # (T5 pronoun, stereotype kind) -> instances
    # pair_id -> [family, bitmask of the family's id suffixes seen, first suffixed member's slots or None once
    # two of them disagree on adjectives]
    pairs: dict[str, list] = {}

    for inst in suite:
        family = inst.family.value
        shape = _SHAPES[inst.family]
        if len(inst.slots) != shape.slots:
            violations.append(f"slots: {inst.id} has {len(inst.slots)} slots, {family} instances have {shape.slots}")
        for slot in inst.slots:
            conditions[inst.family, slot.gender.kind, slot.stereotype.kind] += 1
            if slot.lemma not in inst.source_text:
                violations.append(f"text: {inst.id} slot {slot.slot_index} lemma {slot.lemma!r} absent from source")
            if slot.gender.ambiguity not in shape.ambiguity:
                violations.append(
                    f"condition: {inst.id} slot {slot.slot_index} is {slot.gender.kind.value}"
                    f"/{slot.gender.ambiguity.value}, which {family} never produces"
                )

        # position, pronoun and cue are read from slot 0, as the metrics score it, not from the bindings
        first = inst.slots[0] if inst.slots else None
        if shape.position_unit is not None and first:
            # position 1 ("I" opens): slot 0 is ambiguous exactly when its referent is the speaker
            positions[family, 1 if (first.referent is Referent.SPEAKER) == first.gender.is_ambiguous else 2] += 1

        if family == "T5":
            if first:
                pronoun = _SPEECH_PRONOUN[first.gender.kind]
                pronoun_counts[pronoun] += 1
                cues[pronoun, first.stereotype.kind] += 1
            if any(slot.gender.is_ambiguous for slot in inst.slots):
                words = {w.lower() for w in _WORD_RE.findall(inst.source_text)}
                leaked = sorted(words & _GENDERED_PRONOUNS)
                if leaked:
                    violations.append(f"leakage: {inst.id} is ambiguous but contains {', '.join(leaked)}")

        if inst.pair_id is not None:
            pair = pairs.get(inst.pair_id)
            if pair is None:
                pair = pairs[inst.pair_id] = [inst.family, 0, _UNSEEN]
            _add_member(pair, inst)

    for pair_id, (family, seen, slots) in pairs.items():
        suffixes = _SHAPES[family].suffixes
        if len(suffixes) < 2:
            continue
        missing = [pair_id + suffix for bit, suffix in enumerate(suffixes) if not seen >> bit & 1]
        if missing:
            violations.append(f"pairing: group {pair_id} incomplete, missing {', '.join(missing)}")
        elif slots is None:
            violations.append(f"pairing: group {pair_id} members disagree on adjectives")

    slot_counts: dict[str, int] = {}
    genders: Counter = Counter()  # (family, gender kind) -> slots
    for (family, gender_kind, stereotype_kind), count in conditions.items():
        key = quota_key(family, gender_kind, stereotype_kind)
        slot_counts[key] = slot_counts.get(key, 0) + count
        genders[family.value, gender_kind] += count

    if quotas is not None:
        for key in QUOTA_KEYS:
            expected = quotas.get(key, 0)
            found = slot_counts.get(key, 0)
            if expected != found:
                violations.append(f"count-mismatch: {key} expected {expected}, found {found}")

    # paired families must keep their construction ratios even without quotas
    for family, shape in _SHAPES.items():
        if shape.det and shape.amb:
            ratio = shape.det // shape.amb
            det = slot_counts.get(f"{family.value}-Det", 0)
            amb = slot_counts.get(f"{family.value}-Amb", 0)
            if det != ratio * amb:
                times = f"{ratio} x " if ratio != 1 else ""
                violations.append(f"count-mismatch: {family.value}-Det ({det}) != {times}{family.value}-Amb ({amb})")

    det_gender_split = {}
    for family in sorted({family for family, kind in genders if kind is not GenderKind.AMBIGUOUS}):
        f_count = genders[family, GenderKind.DETERMINED_FEMININE]
        m_count = genders[family, GenderKind.DETERMINED_MASCULINE]
        det_gender_split[family] = (f_count, m_count)
        _split_check(
            f"{family} determined gender", f_count, m_count, violations, warnings,
            unit=_SHAPES[TemplateFamily(family)].gender_unit,
        )

    speaker_position_split = {}
    for family in sorted({family for family, _ in positions}):
        one, two = positions[family, 1], positions[family, 2]
        speaker_position_split[family] = (one, two)
        _split_check(
            f"{family} first-person position", one, two, violations, warnings,
            unit=_SHAPES[TemplateFamily(family)].position_unit,
        )

    cue_split = {p: (cues[p, StereotypeKind.MASCULINE], cues[p, StereotypeKind.FEMININE]) for p in pronoun_counts}
    if any(pronoun_counts.values()):
        # every generated triplet carries all three pronouns, so any spread
        # means the suite was edited by hand
        if max(pronoun_counts.values()) - min(pronoun_counts.values()) > 0:
            violations.append(
                "imbalance: T5 pronouns he/she/they split "
                f"{pronoun_counts['he']}/{pronoun_counts['she']}/{pronoun_counts['they']}"
            )
        for pronoun, (m_count, f_count) in cue_split.items():
            if m_count or f_count:
                _split_check(f"T5 {pronoun!r} stereotype cues", m_count, f_count, violations, warnings)

    return BalanceDiagnostics(
        slot_counts=slot_counts,
        det_gender_split=det_gender_split,
        speaker_position_split=speaker_position_split,
        pronoun_counts=pronoun_counts,
        cue_split_by_pronoun=cue_split,
        violations=violations,
        warnings=warnings,
    )



_CONTENT_EDITS = ("lemma", "condition", "leak", "cue", "slots", "family", "suffix", "drop", "copy")
# slot 0's condition, edited: one that the family may never produce, or another T5 pronoun
_OFF_CONDITIONS = (AMBIGUOUS_OMISSION, AMBIGUOUS_ACTIVE, GenderCondition.determined("m"),
                   GenderCondition.determined("f"))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_balance_checked_once_per_content_equals_the_per_instance_check(demo_manifest, data):
    """Hand-edited suites whose edited contents are shared by several instances: absent lemmas, conditions a family
    never produces, leaked and changed T5 pronouns, foreign slot counts and families, broken pairs. Every field of
    the diagnostics equals the per-instance check's, the order of violations, warnings and counts included."""
    suite = generate_suite(demo_manifest)
    index = st.integers(0, len(suite) - 1)
    for kind, i in data.draw(st.lists(st.tuples(st.sampled_from(_CONTENT_EDITS), index), max_size=8)):
        if i >= len(suite):
            continue
        inst = suite[i]
        slots = inst.slots
        if kind == "drop":
            del suite[i]
            continue
        if kind == "copy":
            suite.insert(data.draw(st.integers(0, len(suite))), inst)
            continue
        if kind == "suffix":
            suite[i] = inst._replace(id=(inst.pair_id or inst.id) + "x")
            continue
        first = slots[0] if slots else None
        if kind == "lemma" and first:
            edit = {"slots": (first._replace(lemma="absent"),) + slots[1:]}
        elif kind == "condition" and first:
            edit = {"slots": (first._replace(gender=data.draw(st.sampled_from(_OFF_CONDITIONS))),) + slots[1:]}
        elif kind == "leak":
            edit = {"source_text": inst.source_text + data.draw(st.sampled_from([" he said.", " Her own.", " they"]))}
        elif kind == "cue" and first:
            edit = {"slots": (first._replace(stereotype=first.stereotype._replace(
                kind=data.draw(st.sampled_from(StereotypeKind)))),) + slots[1:]}
        elif kind == "slots":
            edit = {"slots": slots[:data.draw(st.integers(0, len(slots)))]}
        elif kind == "family":
            edit = {"family": data.draw(st.sampled_from(TemplateFamily))}
        else:
            continue
        # the one edited content goes to this instance and, when drawn, to every other that shares its content
        shared = data.draw(st.booleans())
        content = (inst.family, inst.source_text, slots)
        for j, other in enumerate(suite):
            if j == i or shared and (other.family, other.source_text, other.slots) == content:
                suite[j] = other._replace(**edit)
    random.Random(data.draw(st.integers(0, 2**32))).shuffle(suite)
    quotas = data.draw(st.sampled_from([None, demo_manifest.quotas]))
    found, expected = validate_balance(suite, quotas), _per_instance_balance(suite, quotas)
    assert found == expected
    for field, value in zip(BalanceDiagnostics._fields, found):
        if isinstance(value, dict):
            assert list(value.items()) == list(getattr(expected, field).items()), field


def test_hand_built_pronoun_imbalance_is_flagged():
    base = {"C_g": "pretty nurse", "C_gbar": "strong doctor", "C_g_stereotype": "f", "A": "fit"}
    suite = [
        expand_template(T5, {**base, "pronoun": "he"}, f"T5-{i:06d}d1") for i in range(3)
    ] + [expand_template(T5, {**base, "pronoun": "she"}, "T5-000003d2")]
    diagnostics = validate_balance(suite)
    assert any("imbalance" in v and "T5" in v for v in diagnostics.violations)


def test_randomized_manifests_generate_balanced_suites():
    rng = random.Random(2024)
    for _ in range(15):
        manifest = random_manifest(rng)
        suite = generate_suite(manifest)
        diagnostics = validate_balance(suite, manifest.quotas)
        assert diagnostics.violations == []
        assert _slot_counts(suite) == {k: v for k, v in manifest.quotas.items() if v}
        # residual splits never exceed one balancing unit of the family
        for family, (f_count, m_count) in diagnostics.det_gender_split.items():
            assert abs(f_count - m_count) <= {"T1": 2, "T2": 0, "T3": 2, "T4": 4, "T5": 0}[family]
        for family, (first, second) in diagnostics.speaker_position_split.items():
            assert abs(first - second) <= {"T3": 2, "T4": 0}[family]


@pytest.mark.parametrize("manifest_name,seed,digest", [
    ("demo_manifest", None, "838db1402ea2d970d8d6165c3298834b0675fc34b90328fe9048a09d585c69d6"),
    ("demo_manifest", 1, "9d0a8969c3760d20c03f8069babe8b271bfa1a5c211ea11651dd428c99cef25c"),
    ("full_scale_manifest", None, "3a51f72c3a32c1738803129f21f71b3044a6778b8a8fb8594383cc9b4956b116"),
    ("full_scale_manifest", 1, "cf5ced9178908dda623afd18f5b7dbd10272e82c32ef671073426469af34883e"),
])
def test_generated_suite_bytes_are_pinned(request, tmp_path, manifest_name, seed, digest):
    manifest = request.getfixturevalue(manifest_name)
    path = tmp_path / "suite.jsonl"
    write_suite(generate_suite(manifest, seed), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("manifest_name", ["demo_manifest", "full_scale_manifest"])
def test_a_generated_suite_shares_texts_and_slots_but_not_bindings(request, manifest_name):
    suite = generate_suite(request.getfixturevalue(manifest_name))
    contents = {(instance.family, *instance.bindings.items()) for instance in suite}
    texts = {id(instance.source_text) for instance in suite}
    slots = {id(instance.slots) for instance in suite}
    assert len(texts) == len({instance.source_text for instance in suite}) <= len(contents) < len(suite)
    assert len(slots) == len({instance.slots for instance in suite}) <= len(contents)
    assert len({id(instance.bindings) for instance in suite}) == len(suite)
    first = suite[0]
    twins = [instance for instance in suite[1:] if instance.bindings == first.bindings]
    assert twins and all(twin.source_text is first.source_text for twin in twins)
    before = [dict(instance.bindings) for instance in suite]
    first.bindings[next(iter(first.bindings))] = "edited"
    assert [instance.bindings for instance in suite[1:]] == before[1:]


def _generate_t3(monkeypatch, members: list[tuple[dict, dict]]) -> dict:
    """generate_suite over one T3 group per entry of `members`, each its (d, a) bindings; the instances by id."""
    patched = _SHAPES[T3]._replace(members=lambda manifest, i, adjectives: members[i])
    monkeypatch.setitem(_SHAPES, T3, patched)
    manifest = SuiteManifest(["fit", "calm"], quotas={"T3-Det": 2 * len(members), "T3-Amb": 2 * len(members)})
    return {instance.id: instance for instance in generate_suite(manifest)}


def test_a_shared_expansion_checks_bindings_equal_to_a_known_one(monkeypatch):
    """1 == True and hashing fails on a list: neither may reuse a known expansion or skip expand_template's check."""
    bindings = {"named_gender": "f", "first_person": 1, "dialogue": "self", "bracket": True, "A1": "fit", "A2": "calm"}
    suite = _generate_t3(monkeypatch, [(bindings, dict(bindings))])
    first, twin = suite["T3-000000d"], suite["T3-000000a"]
    assert first == expand_template(T3, bindings, "T3-000000d", "T3-000000")
    assert twin.source_text is first.source_text and twin.slots is first.slots and twin.bindings is not first.bindings
    with pytest.raises(InconsistentBinding, match=r"^T3/T4 binding 'first_person' must be 1 or 2, got True$"):
        _generate_t3(monkeypatch, [(bindings, {**bindings, "first_person": True})])
    with pytest.raises(InconsistentBinding, match=r"^T3 binding 'bracket' must be a boolean, got 1$"):
        _generate_t3(monkeypatch, [(bindings, {**bindings, "bracket": 1})])
    with pytest.raises(InconsistentBinding, match=r"^T3 binding 'A1' must be a string, got \['fit'\]$"):
        _generate_t3(monkeypatch, [(bindings, {**bindings, "A1": ["fit"]})])


@pytest.mark.parametrize("manifest_name", ["demo_manifest", "full_scale_manifest", "random"])
def test_each_generated_instance_equals_its_own_expansion(request, manifest_name):
    """expand_template, with no table shared between instances, is the reference for generate_suite's sharing."""
    if manifest_name == "random":
        rng = random.Random(27)
        manifests = [random_manifest(rng, big=i % 4 == 0) for i in range(24)]
    else:
        manifests = [request.getfixturevalue(manifest_name)]
    for manifest in manifests:
        for i in generate_suite(manifest):
            assert i == expand_template(i.family, i.bindings, i.id, i.pair_id)

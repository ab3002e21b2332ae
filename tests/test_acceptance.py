"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from gnt import (
    GenderLabel,
    Language,
    StrategyBreakdown,
    classify_slot,
    compute_stereotype_effect,
    generate_suite,
    load_language_resources,
    normalize,
    paired_response,
    quota_key,
    validate_balance,
)
from gnt.cli import main
from gnt.data import demo_manifest_path, lexicon_dir
from gnt.formats import (
    parse_metrics_doc,
    parse_scores,
    parse_suite,
    write_metrics_doc,
    write_scores,
    write_suite,
)
from gnt.lexicon import LanguageResources
from gnt.suite import AMBIGUOUS_OMISSION, AdjectiveSlot, Referent
from conftest import GOLDEN, backend_command
from helpers import random_classifier_case, random_manifest, reference_breakdown
from oracle import oracle_classify


def _passed(number: int, description: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS - {description}")


def _slot(lemma: str) -> AdjectiveSlot:
    return AdjectiveSlot(0, lemma, Referent.SPEAKER, AMBIGUOUS_OMISSION)


def test_criterion_01_full_scale_suite_counts(full_scale_manifest):
    start = time.perf_counter()
    suite = generate_suite(full_scale_manifest)
    elapsed = time.perf_counter() - start

    counts: dict[str, int] = {}
    for instance in suite:
        for slot in instance.slots:
            key = quota_key(instance.family, slot.gender.kind, slot.stereotype.kind)
            counts[key] = counts.get(key, 0) + 1
    assert sum(counts.values()) == 13918
    assert counts == {
        "T1-Det": 2400, "T2-Det": 3840,
        "T3-Det": 1200, "T3-Amb": 1200,
        "T4-Det": 1920, "T4-Amb": 1920,
        "T5-Det": 352, "T5-Amb": 176,
        "T7-None": 130, "T7-StereoM": 390, "T7-StereoF": 390,
    }
    assert elapsed < 5.0, f"generation took {elapsed:.2f}s"
    _passed(1, f"full-scale suite has 13,918 slots with exact per-family counts ({elapsed:.2f}s)")


def test_criterion_02_balance_properties():
    rng = random.Random(1234)
    manifests = [random_manifest(rng) for _ in range(10)] + [random_manifest(rng, big=True)]
    total_instances = 0
    for manifest in manifests:
        suite = generate_suite(manifest)
        total_instances += len(suite)
        diagnostics = validate_balance(suite, manifest.quotas)
        assert diagnostics.violations == [], diagnostics.violations
        counts = diagnostics.pronoun_counts
        assert counts["he"] == counts["she"] == counts["they"]
    assert total_instances >= 1000

    big = generate_suite(random_manifest(rng, big=True))
    diagnostics = validate_balance(big)
    for family, (f_count, m_count) in diagnostics.det_gender_split.items():
        assert f_count == m_count, (family, f_count, m_count)
    for family, (first, second) in diagnostics.speaker_position_split.items():
        assert first == second, (family, first, second)
    _passed(2, f"zero balance violations across {total_instances} randomized instances; exact splits at scale")


def test_criterion_03_classifier_golden_set():
    cells = [
        ("es", "fit", "fuerte", "N1"),
        ("es", "fit", "en forma", "N3"),
        ("es", "fit", "fit", "N4"),
        ("es", "fit", "musculos(o/a)", "N5"),
        ("cs", "nonsensical", "absurdní", "N1"),
        ("cs", "nonsensical", "nesmyslné", "N2"),
        ("cs", "nonsensical", "nemám smysl", "N3"),
        ("cs", "nonsensical", "nonsensical", "N4"),
        ("cs", "nonsensical", "nesmysln(ý/á)", "N5"),
        ("is", "cautious", "varkár", "N1"),
        ("is", "cautious", "varkárt", "N2"),
        ("is", "cautious", "á varðbergi", "N3"),
        ("is", "cautious", "cautious", "N4"),
        ("is", "cautious", "huglítil(l)", "N5"),
    ]
    resources = {code: load_language_resources(lexicon_dir(), Language(code)) for code in ("is", "cs", "es")}
    for code, lemma, cell_text, expected in cells:
        r = resources[code]
        score = classify_slot(_slot(lemma), normalize(f"Creo que soy {cell_text}, dijo."), r, set())
        assert score.label.value == expected, (code, lemma, cell_text, score)
    _passed(3, f"all {len(cells)} golden lexicon cells classify to their strategy labels")


def test_criterion_04_oracle_equivalence_10000_cases():
    rng = random.Random(31337)
    for case in range(10000):
        language, lexicon, patterns, alt_phrases, lemma, tokens, consumed = random_classifier_case(rng)
        expected_label, expected_match, _ = oracle_classify(
            lemma, tokens, lexicon, patterns, alt_phrases, set(consumed)
        )
        resources = LanguageResources(language, lexicon, patterns, alt_phrases)
        score = classify_slot(_slot(lemma), tokens, resources, set(consumed))
        assert score.label is expected_label, (case, lemma, tokens, consumed)
        assert score.matched_text == expected_match, (case, lemma, tokens, consumed)
    _passed(4, "classifier agrees with the brute-force oracle on 10,000 randomized cases")


def test_criterion_05_response_metric_replay():
    rows = [
        ("active IS row", (0.42, 0.36, 0.22), (0.51, 0.09, 0.40), 0.087, -0.267, 0.180),
        ("omission IS row", (0.56, 0.31, 0.13), (0.67, 0.19, 0.14), 0.110, -0.113, 0.003),
        ("omission ES row", (0.33, 0.29, 0.38), (0.56, 0.06, 0.37), 0.235, -0.230, -0.005),
    ]
    for name, det, amb, delta_m, delta_f, delta_n in rows:
        report = paired_response(reference_breakdown(*det), reference_breakdown(*amb))
        assert report.delta_m == pytest.approx(delta_m, abs=0.01), name
        assert report.delta_f == pytest.approx(delta_f, abs=0.01), name
        assert report.delta_n == pytest.approx(delta_n, abs=0.01), name
    _passed(5, "reference response triplets reproduce their deltas within 0.01")


def test_criterion_06_strategy_additivity():
    det = reference_breakdown(0.42, 0.36, 0.221, strategies=(0.015, 0.012, 0.009, 0.0, 0.185))
    amb = reference_breakdown(0.51, 0.09, 0.400, strategies=(0.0, 0.0, 0.0, 0.0, 0.400))
    report = paired_response(det, amb)
    assert report.delta_ni == pytest.approx((-0.015, -0.012, -0.009, 0.0, 0.215), abs=1e-9)
    assert report.delta_n == pytest.approx(0.180, abs=0.01)
    assert abs(sum(report.delta_ni) - report.delta_n) <= 1e-12

    rng = random.Random(88)
    labels = [GenderLabel.MASCULINE, GenderLabel.FEMININE, GenderLabel.N1_COMMON_FORM,
              GenderLabel.N2_NEUTER_CASE, GenderLabel.N3_ALT_PART_OF_SPEECH,
              GenderLabel.N4_SOURCE_COPY, GenderLabel.N5_ALT_MORPHOLOGY]
    for _ in range(500):
        from collections import Counter

        det = StrategyBreakdown.from_label_counts(Counter(rng.choices(labels, k=rng.randint(1, 60))))
        amb = StrategyBreakdown.from_label_counts(Counter(rng.choices(labels, k=rng.randint(1, 60))))
        synthetic = paired_response(det, amb)
        assert sum(synthetic.delta_ni) == synthetic.delta_n  # exact rational arithmetic
    _passed(6, "strategy deltas sum to the neutral delta (reference within 0.01, synthetic exactly)")


def test_criterion_07_stereotype_replay():
    rows = [
        ((0.29, 0.48, 0.23), (0.47, 0.32, 0.21), (0.24, 0.54, 0.22), 0.119, -0.014),
        ((0.64, 0.18, 0.17), (0.78, 0.06, 0.16), (0.48, 0.35, 0.17), 0.147, -0.005),
        ((0.48, 0.16, 0.36), (0.51, 0.12, 0.36), (0.28, 0.36, 0.36), 0.116, 0.001),
    ]
    for neutral, stereo_m, stereo_f, expected_g, expected_n in rows:
        report = compute_stereotype_effect(
            reference_breakdown(*neutral),
            reference_breakdown(*stereo_m),
            reference_breakdown(*stereo_f),
        )
        assert report.delta_g_avg == pytest.approx(expected_g, abs=0.01)
        assert report.delta_n_avg == pytest.approx(expected_n, abs=0.01)
    _passed(7, "all three reference stereotype rows reproduce ΔG_avg and ΔN_avg within 0.01")


def test_criterion_08_closure_properties():
    from collections import Counter

    rng = random.Random(4242)
    labels = list(GenderLabel)
    for _ in range(500):
        det_counts = Counter(rng.choices(labels, k=rng.randint(2, 100)))
        amb_counts = Counter(rng.choices(labels, k=rng.randint(2, 100)))
        det = StrategyBreakdown.from_label_counts(det_counts)
        amb = StrategyBreakdown.from_label_counts(amb_counts)
        if det.is_empty or amb.is_empty:
            continue
        assert det.m + det.f + det.n == Fraction(1)
        report = paired_response(det, amb)
        assert report.delta_m + report.delta_f + report.delta_n == 0
    _passed(8, "every synthetic breakdown satisfies m+f+n=1 and ΔM+ΔF+ΔN=0 within 1e-12 (exact)")


@pytest.fixture(scope="module")
def e2e_corpus(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    suite_path = tmp / "suite.jsonl"
    translations = tmp / "translations.jsonl"
    out_dir = tmp / "out"
    es_lexicon = lexicon_dir() / "es" / "lexicon.csv"
    adapter = "cmd:" + backend_command("--mode", "sensitive", "--lexicon", str(es_lexicon))

    assert main(["generate", "--manifest", str(demo_manifest_path()), "--out", str(suite_path)]) == 0
    assert main(["translate", "--suite", str(suite_path), "--adapter", adapter,
                 "--lang", "es", "--system", "echo-sensitive", "--out", str(translations)]) == 0
    assert main(["run", "--manifest", str(demo_manifest_path()), "--translations", str(translations),
                 "--lexicon-dir", str(lexicon_dir()), "--out-dir", str(out_dir)]) == 0
    return tmp


def test_criterion_09_end_to_end_fixture(e2e_corpus, demo_manifest):
    assert sum(demo_manifest.quotas.values()) >= 200
    out_dir = e2e_corpus / "out"
    doc = parse_metrics_doc(out_dir / "metrics_echo-sensitive_es.json")
    assert doc["active_response"]["macro"]["delta_n"] == 1.0  # engineered response, exact
    assert doc["active_response"]["macro"]["delta_m"] == -1.0
    assert doc["coverage"]["missing_translations"] == 0

    report = (out_dir / "report_echo-sensitive_es.md").read_bytes()
    golden = (GOLDEN / "report_echo_sensitive_es.md").read_bytes()
    assert report == golden, "rendered report deviates from the hand-checked golden file"
    metrics = (out_dir / "metrics_echo-sensitive_es.json").read_bytes()
    golden = (GOLDEN / "metrics_echo_sensitive_es.json").read_bytes()
    assert metrics == golden, "metrics document deviates from its golden file"
    _passed(9, "gnt run on the scripted backend reproduces the golden report and metrics document with ΔN = 1.000 exactly")


def test_criterion_10_round_trips(e2e_corpus, tmp_path):
    out_dir = e2e_corpus / "out"
    suite_src = e2e_corpus / "suite.jsonl"
    scores_src = out_dir / "scores_echo-sensitive_es.jsonl"
    metrics_src = out_dir / "metrics_echo-sensitive_es.json"

    suite_copy = tmp_path / "suite.jsonl"
    write_suite(parse_suite(suite_src), suite_copy)
    assert suite_copy.read_bytes() == suite_src.read_bytes()

    scores_copy = tmp_path / "scores.jsonl"
    write_scores(parse_scores(scores_src), scores_copy)
    assert scores_copy.read_bytes() == scores_src.read_bytes()

    metrics_copy = tmp_path / "metrics.json"
    write_metrics_doc(parse_metrics_doc(metrics_src), metrics_copy)
    assert metrics_copy.read_bytes() == metrics_src.read_bytes()
    _passed(10, "suite, scores and metrics files round-trip byte-identically")

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

from gnt import (
    GenderLabel,
    Language,
    SlotScore,
    StrategyBreakdown,
    build_metrics_doc,
    compute_stereotype_effect,
    expand_template,
    flag_significance,
    label_cells,
    macro_average,
    paired_response,
)
from gnt.errors import EmptySelection, InvalidThreshold
from gnt.suite import TemplateFamily
from helpers import reference_breakdown

_LABELS = [
    GenderLabel.MASCULINE,
    GenderLabel.FEMININE,
    GenderLabel.N1_COMMON_FORM,
    GenderLabel.N2_NEUTER_CASE,
    GenderLabel.N3_ALT_PART_OF_SPEECH,
    GenderLabel.N4_SOURCE_COPY,
    GenderLabel.N5_ALT_MORPHOLOGY,
]


def _t7_suite(size: int):
    return [
        expand_template(TemplateFamily.T7_ADVERB_STEREOTYPE, {"A": "fit"}, f"T7-{i:06d}a")
        for i in range(size)
    ]


def _scores_for(suite, labels):
    return [SlotScore(inst.id, 0, label) for inst, label in zip(suite, labels)]


def _aggregate(scores, suite):
    """One breakdown over all scores, from their label_cells counts."""
    labels: Counter = Counter()
    for counts in label_cells(scores, {inst.id: inst for inst in suite}).values():
        labels.update(counts)
    return StrategyBreakdown.from_label_counts(labels)


# --- label counts ------------------------------------------------------------------


def test_aggregate_quarter_split():
    suite = _t7_suite(4)
    labels = [GenderLabel.MASCULINE, GenderLabel.FEMININE,
              GenderLabel.N1_COMMON_FORM, GenderLabel.N2_NEUTER_CASE]
    breakdown = _aggregate(_scores_for(suite, labels), suite)
    assert breakdown.m == Fraction(1, 4)
    assert breakdown.f == Fraction(1, 4)
    assert breakdown.n == Fraction(1, 2)
    assert breakdown.n1 == Fraction(1, 4)
    assert breakdown.n2 == Fraction(1, 4)
    assert breakdown.count == 4


def test_aggregate_excludes_unmatched_from_denominator():
    suite = _t7_suite(3)
    labels = [GenderLabel.MASCULINE, GenderLabel.UNMATCHED, GenderLabel.UNMATCHED]
    breakdown = _aggregate(_scores_for(suite, labels), suite)
    assert breakdown.m == 1
    assert breakdown.count == 1
    assert breakdown.u_count == 2
    assert breakdown.u == Fraction(2, 3)


def test_aggregate_matches_direct_count_oracle():
    rng = random.Random(99)
    suite = _t7_suite(1000)
    labels = [rng.choice(_LABELS + [GenderLabel.UNMATCHED]) for _ in range(1000)]
    breakdown = _aggregate(_scores_for(suite, labels), suite)
    counts = Counter(labels)
    classified = 1000 - counts[GenderLabel.UNMATCHED]
    assert breakdown.m == Fraction(counts[GenderLabel.MASCULINE], classified)
    assert breakdown.f == Fraction(counts[GenderLabel.FEMININE], classified)
    assert breakdown.n5 == Fraction(counts[GenderLabel.N5_ALT_MORPHOLOGY], classified)
    assert breakdown.u == Fraction(counts[GenderLabel.UNMATCHED], 1000)


def test_aggregate_of_no_score_is_empty_with_zero_shares():
    breakdown = _aggregate([], _t7_suite(2))
    assert breakdown.is_empty
    assert (breakdown.m, breakdown.f, breakdown.n, breakdown.u) == (0, 0, 0, 0)
    assert breakdown.strategy_vector == (0, 0, 0, 0, 0)


def test_aggregate_rejects_scores_for_unknown_instances():
    from gnt.errors import GntError

    suite = _t7_suite(1)
    rogue = SlotScore("T7-999999a", 0, GenderLabel.MASCULINE)
    with pytest.raises(GntError, match="unknown instance"):
        _aggregate([rogue], suite)


def test_aggregate_all_unmatched_yields_empty_marker():
    suite = _t7_suite(2)
    scores = _scores_for(suite, [GenderLabel.UNMATCHED, GenderLabel.UNMATCHED])
    breakdown = _aggregate(scores, suite)
    assert breakdown.is_empty
    assert breakdown.u == 1


def test_aggregate_is_permutation_invariant():
    rng = random.Random(5)
    suite = _t7_suite(60)
    scores = _scores_for(suite, [rng.choice(_LABELS) for _ in range(60)])
    shuffled = scores[:]
    rng.shuffle(shuffled)
    assert _aggregate(scores, suite) == _aggregate(shuffled, suite)


def test_aggregate_is_scale_invariant():
    rng = random.Random(6)
    suite = _t7_suite(30)
    labels = [rng.choice(_LABELS) for _ in range(30)]
    single = _aggregate(_scores_for(suite, labels), suite)
    tripled = _aggregate(_scores_for(suite, labels) * 3, suite)
    assert (single.m, single.f, single.n) == (tripled.m, tripled.f, tripled.n)
    assert tripled.count == 3 * single.count


# --- paired_response --------------------------------------------------------------


def test_response_replay_from_reference_active_row():
    det = reference_breakdown(0.42, 0.36, 0.22)
    amb = reference_breakdown(0.51, 0.09, 0.40)
    report = paired_response(det, amb)
    assert report.delta_m == pytest.approx(0.087, abs=0.01)
    assert report.delta_f == pytest.approx(-0.267, abs=0.01)
    assert report.delta_n == pytest.approx(0.180, abs=0.01)
    assert report.significant_m and report.significant_n


def test_identical_breakdowns_have_zero_deltas():
    same = reference_breakdown(0.4, 0.4, 0.2)
    report = paired_response(same, same)
    assert report.delta_m == 0 and report.delta_f == 0 and report.delta_n == 0
    assert not report.significant_m and not report.significant_n


def test_strategy_delta_vector_replay():
    det = reference_breakdown(0.42, 0.36, 0.221, strategies=(0.015, 0.012, 0.009, 0.0, 0.185))
    amb = reference_breakdown(0.51, 0.09, 0.400, strategies=(0.0, 0.0, 0.0, 0.0, 0.400))
    report = paired_response(det, amb)
    assert report.delta_ni == pytest.approx((-0.015, -0.012, -0.009, 0.0, 0.215), abs=1e-12)
    assert sum(report.delta_ni) == pytest.approx(report.delta_n, abs=1e-12)
    assert report.delta_n == pytest.approx(0.180, abs=0.01)


def test_response_requires_non_empty_sides():
    empty = StrategyBreakdown.from_label_counts({GenderLabel.UNMATCHED: 3})
    full = reference_breakdown(0.5, 0.3, 0.2)
    with pytest.raises(EmptySelection):
        paired_response(empty, full)


# --- closure properties --------------------------------------------------------------


def _random_breakdown(rng, size):
    labels = Counter(rng.choice(_LABELS) for _ in range(size))
    return StrategyBreakdown.from_label_counts(labels)


def test_exact_closure_on_synthetic_counts():
    rng = random.Random(77)
    for _ in range(300):
        det = _random_breakdown(rng, rng.randint(1, 80))
        amb = _random_breakdown(rng, rng.randint(1, 80))
        assert det.m + det.f + det.n == 1  # exact, Fraction arithmetic
        report = paired_response(det, amb)
        assert report.delta_m + report.delta_f + report.delta_n == 0
        assert sum(report.delta_ni) == report.delta_n


# --- macro averaging -----------------------------------------------------------------


def test_macro_average_of_single_report_is_identity():
    det = StrategyBreakdown.from_label_counts({GenderLabel.MASCULINE: 3, GenderLabel.FEMININE: 1})
    amb = StrategyBreakdown.from_label_counts({GenderLabel.MASCULINE: 1, GenderLabel.N1_COMMON_FORM: 3})
    report = paired_response(det, amb)
    macro = macro_average({"T5": report})
    assert macro.delta_m == report.delta_m
    assert macro.delta_ni == report.delta_ni
    assert macro.det.count == report.det.count


def test_macro_average_is_field_wise_mean():
    r1 = paired_response(
        reference_breakdown(0.5, 0.4, 0.1),
        reference_breakdown(0.5, 0.3, 0.2),
    )
    r2 = paired_response(
        reference_breakdown(0.3, 0.5, 0.2),
        reference_breakdown(0.3, 0.3, 0.4),
    )
    macro = macro_average({"T3": r1, "T4": r2})
    assert macro.delta_n == pytest.approx((0.1 + 0.2) / 2)
    assert macro.det.m == pytest.approx(0.4)
    assert macro.amb.n == pytest.approx(0.3)


def test_macro_average_three_families_hand_checked():
    rng = random.Random(123)
    reports = {}
    for family in ("T3", "T4", "T5"):
        reports[family] = paired_response(_random_breakdown(rng, 40), _random_breakdown(rng, 40))
    macro = macro_average(reports)
    members = list(reports.values())
    assert macro.delta_m == sum(r.delta_m for r in members) / 3
    assert macro.delta_n == sum(r.delta_n for r in members) / 3
    assert macro.det.count == sum(r.det.count for r in members)
    # averaging deltas equals delta of averaged breakdowns (linearity)
    assert macro.delta_n == macro.amb.n - macro.det.n


# --- stereotype effects -----------------------------------------------------------------


@pytest.mark.parametrize(
    "neutral,stereo_m,stereo_f,expected_g,expected_n",
    [
        ((0.29, 0.48, 0.23), (0.47, 0.32, 0.21), (0.24, 0.54, 0.22), 0.119, -0.014),
        ((0.64, 0.18, 0.17), (0.78, 0.06, 0.16), (0.48, 0.35, 0.17), 0.147, -0.005),
        ((0.48, 0.16, 0.36), (0.51, 0.12, 0.36), (0.28, 0.36, 0.36), 0.116, 0.001),
    ],
)
def test_stereotype_effect_replay(neutral, stereo_m, stereo_f, expected_g, expected_n):
    report = compute_stereotype_effect(
        reference_breakdown(*neutral),
        reference_breakdown(*stereo_m),
        reference_breakdown(*stereo_f),
    )
    assert report.delta_g_avg == pytest.approx(expected_g, abs=0.01)
    assert report.delta_n_avg == pytest.approx(expected_n, abs=0.01)


def test_identical_conditions_have_zero_stereotype_effect():
    same = reference_breakdown(0.4, 0.4, 0.2)
    report = compute_stereotype_effect(same, same, same)
    assert report.delta_g_avg == 0
    assert report.delta_n_avg == 0


def test_binary_swap_leaves_neutral_share_untouched():
    # swapping M and F counts between conditions must give delta_n_avg == 0 exactly
    rng = random.Random(55)
    for _ in range(100):
        m, f = rng.randint(0, 30), rng.randint(0, 30)
        neutral_counts = {GenderLabel.MASCULINE: m, GenderLabel.FEMININE: f,
                          GenderLabel.N1_COMMON_FORM: rng.randint(1, 30)}
        swapped = dict(neutral_counts)
        swapped[GenderLabel.MASCULINE], swapped[GenderLabel.FEMININE] = f, m
        neutral = StrategyBreakdown.from_label_counts(neutral_counts)
        report = compute_stereotype_effect(
            neutral,
            StrategyBreakdown.from_label_counts(swapped),
            StrategyBreakdown.from_label_counts(swapped),
        )
        assert report.delta_n_avg == 0


# --- significance flag ------------------------------------------------------------------


@pytest.mark.parametrize(
    "delta,threshold,expected",
    [
        (0.180, 0.07, True),
        (0.066, 0.07, False),
        (-0.07, 0.07, True),
        (0.0, 0.0, True),
    ],
)
def test_flag_significance(delta, threshold, expected):
    assert flag_significance(delta, threshold) is expected


def test_negative_threshold_rejected():
    with pytest.raises(InvalidThreshold):
        build_metrics_doc(_t7_suite(1), [], "sys", Language.ES, threshold=-0.01)

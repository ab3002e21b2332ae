"""Proportion vectors and response metrics over classified slots.

Every breakdown is computed from label counts in exact rational arithmetic,
so it carries its N1..N5 split, and the normalisation (m + f + n = 1) and
delta-closure (sum of the ΔNi = ΔN) identities hold exactly.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .classify import GenderLabel, SlotScore
from .errors import EmptySelection, GntError
from .suite import TestInstance

DEFAULT_SIGNIFICANCE_THRESHOLD = 0.07

# the labels whose shares are the fields m, f, n1..n5 of a breakdown, in that order
_SHARE_LABELS = (
    GenderLabel.MASCULINE,
    GenderLabel.FEMININE,
    GenderLabel.N1_COMMON_FORM,
    GenderLabel.N2_NEUTER_CASE,
    GenderLabel.N3_ALT_PART_OF_SPEECH,
    GenderLabel.N4_SOURCE_COPY,
    GenderLabel.N5_ALT_MORPHOLOGY,
)


class StrategyBreakdown(NamedTuple):
    """Masculine/feminine/neutral proportions over classified slots.

    `count` is the denominator (non-Unmatched slots); `u_count` slots were
    unmatched and excluded, with `u` their share of the full selection.
    n1..n5 split the neutral share `n` by strategy.
    """

    m: Fraction
    f: Fraction
    n: Fraction
    n1: Fraction
    n2: Fraction
    n3: Fraction
    n4: Fraction
    n5: Fraction
    u: Fraction
    count: int
    u_count: int

    @property
    def is_empty(self) -> bool:
        return self.count == 0

    @property
    def strategy_vector(self) -> tuple:
        return (self.n1, self.n2, self.n3, self.n4, self.n5)

    @classmethod
    def from_label_counts(cls, labels: Mapping[GenderLabel, int]) -> "StrategyBreakdown":
        """Shares of each label; an empty selection (no classified slot) has all shares 0."""
        u_count = labels.get(GenderLabel.UNMATCHED, 0)
        classified = sum(count for label, count in labels.items() if label is not GenderLabel.UNMATCHED)
        # with no classified slot every count is 0, and so is every share
        m, f, *strategies = (Fraction(labels.get(label, 0), classified or 1) for label in _SHARE_LABELS)
        u = Fraction(u_count, classified + u_count or 1)
        return cls(m, f, sum(strategies), *strategies, u, classified, u_count)


def label_cells(scores: Iterable[SlotScore], index: Mapping[str, TestInstance]) -> Counter:
    """Count the scores by slot condition and label in one pass.

    The table is keyed by (family, gender kind, stereotype kind, label): the
    condition as the suite file records it, so `suite.quota_key` folds it into
    quota-key cells. `index` maps each instance id to its instance. Raises
    GntError for a score whose instance id is unknown or whose slot index is
    outside its instance's slots.
    """
    cells: Counter = Counter()
    for score in scores:
        instance = index.get(score.instance_id)
        if instance is None:
            # data mismatch, not an empty selection: must not be swallowed by
            # section-skipping EmptySelection handlers
            raise GntError(f"score references unknown instance {score.instance_id!r}")
        slots = instance.slots
        if not 0 <= score.slot_index < len(slots):
            raise GntError(
                f"score for instance {score.instance_id!r} has slot_index {score.slot_index}, "
                f"but the instance has {len(slots)} slot(s)"
            )
        slot = slots[score.slot_index]
        cells[instance.family, slot.gender.kind, slot.stereotype.kind, score.label] += 1
    return cells


def flag_significance(delta, threshold) -> bool:
    """True iff |delta|, as the metrics document prints it, reaches the threshold (boundary included).

    An exact delta is compared as a float: the float 0.07 lies above 7/100, so
    the Fraction 7/100 would miss a threshold that its printed 0.07 reaches.
    """
    return float(abs(delta)) >= threshold


class ResponseReport(NamedTuple):
    """Paired determined/ambiguous comparison with its deltas."""

    det: StrategyBreakdown
    amb: StrategyBreakdown
    delta_m: Fraction
    delta_f: Fraction
    delta_n: Fraction
    delta_ni: tuple
    significant_m: bool
    significant_n: bool
    threshold: float


def paired_response(
    det: StrategyBreakdown,
    amb: StrategyBreakdown,
    threshold: float = DEFAULT_SIGNIFICANCE_THRESHOLD,
) -> ResponseReport:
    """Deltas of the ambiguous condition relative to the determined one."""
    if det.is_empty or amb.is_empty:
        raise EmptySelection("paired_response needs two non-empty breakdowns")
    return ResponseReport(
        det=det,
        amb=amb,
        delta_m=amb.m - det.m,
        delta_f=amb.f - det.f,
        delta_n=amb.n - det.n,
        delta_ni=tuple(a - d for a, d in zip(amb.strategy_vector, det.strategy_vector)),
        significant_m=flag_significance(amb.m - det.m, threshold),
        significant_n=flag_significance(amb.n - det.n, threshold),
        threshold=threshold,
    )


def _mean(values: Sequence):
    return sum(values) / len(values)


def macro_average_breakdowns(breakdowns: Mapping[str, StrategyBreakdown]) -> StrategyBreakdown:
    """Unweighted field-wise mean over per-family breakdowns; counts are summed."""
    if not breakdowns:
        raise EmptySelection("macro average needs at least one breakdown")
    members = list(breakdowns.values())
    if any(b.is_empty for b in members):
        raise EmptySelection("macro average over an empty breakdown")
    return StrategyBreakdown._make(
        sum(values) if name in ("count", "u_count") else _mean(values)
        for name, values in zip(StrategyBreakdown._fields, zip(*members))
    )


def macro_average(reports: Mapping[str, ResponseReport]) -> ResponseReport:
    """Unweighted mean of per-family response reports (one entry per family)."""
    if not reports:
        raise EmptySelection("macro average needs at least one report")
    members = list(reports.values())
    thresholds = {r.threshold for r in members}
    if len(thresholds) != 1:
        raise ValueError(f"reports mix significance thresholds: {sorted(thresholds)}")
    det = macro_average_breakdowns({key: r.det for key, r in reports.items()})
    amb = macro_average_breakdowns({key: r.amb for key, r in reports.items()})
    return paired_response(det, amb, threshold=thresholds.pop())


class StereotypeReport(NamedTuple):
    """Average shift of binary gender (and neutrality) under stereotype cues."""

    neutral: StrategyBreakdown
    stereo_m: StrategyBreakdown
    stereo_f: StrategyBreakdown
    delta_g_avg: Fraction
    delta_n_avg: Fraction
    significant_g: bool


def compute_stereotype_effect(
    neutral: StrategyBreakdown,
    stereo_m: StrategyBreakdown,
    stereo_f: StrategyBreakdown,
    threshold: float = DEFAULT_SIGNIFICANCE_THRESHOLD,
) -> StereotypeReport:
    """Mean pull of each cue toward its own gender, and the drift of N.

    delta_g_avg averages the masculine gain under masculine cues with the
    feminine gain under feminine cues; delta_n_avg averages the change of the
    neutral share under both cues. delta_g_avg is flagged against `threshold`.
    """
    for breakdown in (neutral, stereo_m, stereo_f):
        if breakdown.is_empty:
            raise EmptySelection("stereotype effect needs three non-empty breakdowns")
    delta_g = ((stereo_m.m - neutral.m) + (stereo_f.f - neutral.f)) / 2
    delta_n = ((stereo_m.n - neutral.n) + (stereo_f.n - neutral.n)) / 2
    return StereotypeReport(neutral, stereo_m, stereo_f, delta_g, delta_n, flag_significance(delta_g, threshold))

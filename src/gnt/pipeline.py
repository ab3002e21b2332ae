"""End-to-end composition: generate -> score -> metrics -> report.

Systems and languages are discovered from the translations file, so scoring a
new system is purely a data change.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .classify import GenderLabel, SlotScore, classify_instance
from .errors import EmptySelection, InvalidThreshold
from .formats import (
    TranslationRecord,
    parse_translations,
    split_orphans,
    write_metrics_doc,
    write_scores,
    write_suite,
)
from .lexicon import Language, LanguageResources, load_language_resources
from .metrics import (
    DEFAULT_SIGNIFICANCE_THRESHOLD,
    ResponseReport,
    StrategyBreakdown,
    compute_stereotype_effect,
    flag_significance,
    label_cells,
    macro_average,
    macro_average_breakdowns,
    paired_response,
)
from .report import render_report
from .suite import SuiteManifest, TestInstance, generate_suite


def breakdown_to_json(breakdown: StrategyBreakdown) -> dict:
    return {
        "m": float(breakdown.m),
        "f": float(breakdown.f),
        "n": float(breakdown.n),
        "n1": float(breakdown.n1),
        "n2": float(breakdown.n2),
        "n3": float(breakdown.n3),
        "n4": float(breakdown.n4),
        "n5": float(breakdown.n5),
        "u": float(breakdown.u),
        "count": breakdown.count,
        "u_count": breakdown.u_count,
    }


def response_to_json(report: ResponseReport) -> dict:
    return {
        "det": breakdown_to_json(report.det),
        "amb": breakdown_to_json(report.amb),
        "delta_m": float(report.delta_m),
        "delta_f": float(report.delta_f),
        "delta_n": float(report.delta_n),
        "delta_ni": [float(v) for v in report.delta_ni],
        "significant_m": report.significant_m,
        "significant_n": report.significant_n,
    }


def score_suite(
    suite: list[TestInstance],
    translations: list[TranslationRecord],
    resources: LanguageResources,
) -> tuple[list[SlotScore], int]:
    """Classify every translated instance; returns (scores, missing count)."""
    by_id = {record.instance_id: record for record in translations}
    scores: list[SlotScore] = []
    missing = 0
    for instance in suite:
        record = by_id.get(instance.id)
        if record is None:
            missing += 1
            continue
        scores.extend(classify_instance(instance, record.target_text, resources))
    return scores, missing


def _cell(cells: dict[str, Counter], key: str) -> StrategyBreakdown:
    """Breakdown of one quota-key cell; empty when the cell has no slot."""
    return StrategyBreakdown.from_label_counts(cells.get(key, {}))


def _response_section(cells, families, threshold):
    per_family: dict[str, dict] = {}
    reports: dict[str, ResponseReport] = {}
    for family in families:
        try:
            report = paired_response(_cell(cells, f"{family}-Det"), _cell(cells, f"{family}-Amb"), threshold)
        except EmptySelection:
            continue
        reports[family] = report
        per_family[family] = response_to_json(report)
    if not reports:
        return None
    macro = macro_average(reports)
    return {
        "families": sorted(per_family),
        "per_family": per_family,
        "macro": response_to_json(macro),
    }


def _check_threshold(threshold: float) -> None:
    """Raise InvalidThreshold unless the threshold is finite and non-negative."""
    if not (math.isfinite(threshold) and threshold >= 0):
        raise InvalidThreshold(f"threshold must be a finite non-negative number, got {threshold}")


def build_metrics_doc(
    suite: list[TestInstance],
    scores: list[SlotScore],
    system: str,
    language: Language,
    threshold: float = DEFAULT_SIGNIFICANCE_THRESHOLD,
    orphan_translations: int = 0,
) -> dict:
    """Aggregate one system/language score set into the metrics document.

    The scores are counted once into quota-key cells (`T3-Det`, `T3-Amb`,
    `T7-StereoM`, ...) and every section reads the cells it compares by key.
    `missing_translations` counts the suite instances that have slots but no
    score. A threshold that is negative or not finite raises InvalidThreshold.
    """
    _check_threshold(threshold)
    index = {instance.id: instance for instance in suite}
    cells = label_cells(scores, index)

    baseline = None
    per_family_breakdowns: dict[str, StrategyBreakdown] = {}
    for family in ("T1", "T2", "T3", "T4", "T5"):
        breakdown = _cell(cells, f"{family}-Det")
        if not breakdown.is_empty:
            per_family_breakdowns[family] = breakdown
    if per_family_breakdowns:
        macro = macro_average_breakdowns(per_family_breakdowns)
        baseline = {
            "families": sorted(per_family_breakdowns),
            "per_family": {tag: breakdown_to_json(b) for tag, b in per_family_breakdowns.items()},
            "macro": breakdown_to_json(macro),
        }

    omission = _response_section(cells, ("T3", "T4"), threshold)
    active = _response_section(cells, ("T5",), threshold)

    stereotype = None
    try:
        effect = compute_stereotype_effect(
            _cell(cells, "T7-None"), _cell(cells, "T7-StereoM"), _cell(cells, "T7-StereoF")
        )
        stereotype = {
            "neutral": breakdown_to_json(effect.neutral),
            "stereo_m": breakdown_to_json(effect.stereo_m),
            "stereo_f": breakdown_to_json(effect.stereo_f),
            "delta_g_avg": float(effect.delta_g_avg),
            "delta_n_avg": float(effect.delta_n_avg),
            "significant_g": flag_significance(effect.delta_g_avg, threshold),
        }
    except EmptySelection:
        pass

    subsets: dict[str, dict] = {}
    for key, labels in sorted(cells.items()):
        unmatched = labels[GenderLabel.UNMATCHED]
        total = labels.total()
        subsets[key] = {
            "classified": total - unmatched, "unmatched": unmatched, "unmatched_rate": unmatched / total,
        }

    # the index becomes the unscored instances: a new set of score ids would
    # raise the peak memory of the run
    for score in scores:
        index.pop(score.instance_id, None)
    missing_translations = sum(1 for instance in index.values() if instance.slots)

    return {
        "system": system,
        "lang": language.value,
        "threshold": threshold,
        "baseline": baseline,
        "omission_response": omission,
        "active_response": active,
        "stereotype": stereotype,
        "coverage": {
            "subsets": subsets,
            "orphan_translations": orphan_translations,
            "missing_translations": missing_translations,
        },
    }


@dataclass
class ReportDocument:
    system_id: str
    language: Language
    doc: dict
    markdown: str
    scores_path: Path | None = None
    metrics_path: Path | None = None
    report_path: Path | None = None


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", text) or "unnamed"


def run_pipeline(
    manifest: SuiteManifest,
    translations_path: str | Path,
    lexicon_dir: str | Path,
    out_dir: str | Path,
    threshold: float = DEFAULT_SIGNIFICANCE_THRESHOLD,
    seed: int | None = None,
) -> list[ReportDocument]:
    """Generate the suite, score every (system, language) found, and report.

    A bad threshold raises InvalidThreshold before anything is written.
    """
    _check_threshold(threshold)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    suite = generate_suite(manifest, seed)
    write_suite(suite, out / "suite.jsonl")
    records = parse_translations(translations_path)

    known_ids = {instance.id for instance in suite}
    groups: dict[tuple[str, Language], list[TranslationRecord]] = {}
    for record in records:
        groups.setdefault((record.system_id, record.language), []).append(record)

    documents = []
    for (system, language), group in sorted(groups.items(), key=lambda kv: (kv[0][0], kv[0][1].value)):
        valid, orphans = split_orphans(group, known_ids)
        resources = load_language_resources(lexicon_dir, language)
        scores, _ = score_suite(suite, valid, resources)
        doc = build_metrics_doc(suite, scores, system, language, threshold, orphan_translations=len(orphans))
        markdown = render_report(doc, "md")

        stem = f"{_slug(system)}_{language.value}"
        scores_path = out / f"scores_{stem}.jsonl"
        metrics_path = out / f"metrics_{stem}.json"
        report_path = out / f"report_{stem}.md"
        write_scores(scores, scores_path)
        write_metrics_doc(doc, metrics_path)
        report_path.write_text(markdown, encoding="utf-8")

        documents.append(
            ReportDocument(system, language, doc, markdown, scores_path, metrics_path, report_path)
        )
    return documents

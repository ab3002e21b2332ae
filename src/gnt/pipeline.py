"""The evaluation steps, shared by `gnt score`, `gnt metrics` and `run_pipeline`.

`run_pipeline` is generate, then score -> metrics -> report for each (system,
language) found in the translations file, so scoring a new system is purely a
data change.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from pathlib import Path
from typing import Callable, Container, Iterable, Mapping

from .classify import SlotScore, classify_instance
from .errors import EmptySelection, GntError, InvalidThreshold, UnbalancedSuite
from .formats import (
    by_family_entry,
    metrics_entry,
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
    label_cells,
    macro_average,
    macro_average_breakdowns,
    paired_response,
)
from .report import render_report
from .suite import BalanceDiagnostics, SuiteManifest, TestInstance, generate_suite, quota_key, validate_balance


def score_suite(suite: list[TestInstance], texts: dict[str, str], resources: LanguageResources) -> list[SlotScore]:
    """Classify the slots of every suite instance that `texts` (instance id -> translation) translates.

    Consumes `texts`: each suite instance's text is taken out of the map as it is classified (suite ids are unique),
    so afterwards the map holds only the ids that no suite instance has.
    """
    scores: list[SlotScore] = []
    for instance in suite:
        text = texts.pop(instance.id, None)
        if text is not None:
            scores.extend(classify_instance(instance, text, resources))
    return scores


def score_group(
    suite: list[TestInstance],
    known_ids: Container[str],
    texts: dict[str, str],
    resources: LanguageResources,
) -> tuple[list[SlotScore], int, int]:
    """Score one (system, language) group's id -> text map, which `score_suite` consumes.

    Returns (scores, number of ids that `known_ids` lacks, number of suite instances that have slots but no text),
    the last counted before the map is consumed.
    """
    orphans = split_orphans(texts, known_ids)
    missing = missing_translations(suite, texts)
    return score_suite(suite, texts, resources), len(orphans), missing


def missing_translations(suite: Iterable[TestInstance], translated: Container[str]) -> int:
    """How many instances of `suite` have slots but an id that `translated` (say, an id -> text map) lacks."""
    return sum(1 for instance in suite if instance.slots and instance.id not in translated)


_NO_SLOT = StrategyBreakdown.from_label_counts({})  # the breakdown of a quota key that has no scored slot


def _response_section(cells, families, threshold):
    reports: dict[str, ResponseReport] = {}
    for family in families:
        try:
            det, amb = (cells.get(f"{family}-{side}", _NO_SLOT) for side in ("Det", "Amb"))
            reports[family] = paired_response(det, amb, threshold)
        except EmptySelection:
            continue
    return by_family_entry(reports, macro_average(reports)) if reports else None


def _check_threshold(threshold: float) -> None:
    """Raise InvalidThreshold unless the threshold is finite and non-negative."""
    if not (math.isfinite(threshold) and threshold >= 0):
        raise InvalidThreshold(f"threshold must be a finite non-negative number, got {threshold}")


def build_metrics_doc(
    index: Mapping[str, TestInstance],
    scores: list[SlotScore],
    system: str,
    language: Language,
    threshold: float = DEFAULT_SIGNIFICANCE_THRESHOLD,
    orphan_translations: int = 0,
    missing_translations: int = 0,
) -> dict:
    """Aggregate one system/language score set into the metrics document.

    The scores are counted once by slot condition (`label_cells`), the counts
    are folded into one breakdown per quota key (`T3-Det`, `T3-Amb`,
    `T7-StereoM`, ...), and every section reads the breakdowns it compares.
    `index` maps each instance id to its instance and is only read. The two
    coverage counts are recorded as given: `score_group` returns both. A
    threshold that is negative or not finite raises InvalidThreshold.
    """
    _check_threshold(threshold)
    counts: dict[str, Counter] = {}
    for (family, gender_kind, stereotype_kind, label), count in label_cells(scores, index).items():
        counts.setdefault(quota_key(family, gender_kind, stereotype_kind), Counter())[label] += count
    cells = {key: StrategyBreakdown.from_label_counts(labels) for key, labels in sorted(counts.items())}

    breakdowns = {family: cells.get(f"{family}-Det", _NO_SLOT) for family in ("T1", "T2", "T3", "T4", "T5")}
    breakdowns = {family: breakdown for family, breakdown in breakdowns.items() if not breakdown.is_empty}
    baseline = by_family_entry(breakdowns, macro_average_breakdowns(breakdowns)) if breakdowns else None

    omission = _response_section(cells, ("T3", "T4"), threshold)
    active = _response_section(cells, ("T5",), threshold)

    stereotype = None
    try:
        t7 = (cells.get(f"T7-{key}", _NO_SLOT) for key in ("None", "StereoM", "StereoF"))
        stereotype = metrics_entry(compute_stereotype_effect(*t7, threshold))
    except EmptySelection:
        pass

    subsets = {
        key: {"classified": cell.count, "unmatched": cell.u_count, "unmatched_rate": float(cell.u)}
        for key, cell in cells.items()
    }

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


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", text) or "unnamed"


def run_pipeline(
    manifest: SuiteManifest,
    translations_path: str | Path,
    lexicon_dir: str | Path,
    out_dir: str | Path,
    threshold: float = DEFAULT_SIGNIFICANCE_THRESHOLD,
    seed: int | None = None,
    on_balance: Callable[[BalanceDiagnostics], object] | None = None,
) -> list[tuple[str, Language, Path]]:
    """Generate the suite, then score, aggregate and report every (system, language) found.

    Returns each group's (system, language, report path). A bad threshold
    raises InvalidThreshold before anything is written. Once `suite.jsonl` is
    written, the suite's `validate_balance` diagnostics go to `on_balance`,
    and a violation raises UnbalancedSuite, which carries them, before the
    translations are read. Two systems whose names give one file stem raise
    GntError, and a language without a lexicon InvalidEntry, before any group
    is scored. Each language's resources are loaded once and shared by its
    systems. A regular translations file is checked whole first, and each
    group's texts are read from it again when the group is scored; a pipe is
    read once.
    """
    _check_threshold(threshold)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    suite = generate_suite(manifest, seed)
    write_suite(suite, out / "suite.jsonl")
    # nothing after the suite file reads an instance's bindings
    for instance in suite:
        instance.bindings.clear()
    diagnostics = validate_balance(suite, manifest.quotas)
    if on_balance is not None:
        on_balance(diagnostics)
    if diagnostics.violations:
        raise UnbalancedSuite(diagnostics)
    # a dict of the suite's ids takes less memory than a set of them
    known_ids = {instance.id: instance for instance in suite}
    # a regular file's groups are their lines' offsets: each group's texts are read when it is scored
    groups = parse_translations(translations_path, known_ids, offsets=True)
    owners: dict[str, str] = {}
    for system, _ in groups:
        owner = owners.setdefault(_slug(system), system)
        if owner != system:
            raise GntError(f"systems {owner!r} and {system!r} share the file stem {_slug(system)!r}; rename one")
    languages = dict.fromkeys(language for _, language in groups)  # in group order: the first unloadable one is named
    resources = {language: load_language_resources(lexicon_dir, language) for language in languages}

    reports = []
    for key in list(groups):
        system, language = key
        texts = groups.pop(key)
        if not isinstance(texts, dict):  # the offsets of its lines
            texts = parse_translations(translations_path, known_ids, at={key: texts})[key]
        scores, orphans, missing = score_group(suite, known_ids, texts, resources[language])
        del texts  # out of `groups` too, so this group's texts are released once it is scored
        doc = build_metrics_doc(known_ids, scores, system, language, threshold, orphans, missing)
        markdown = render_report(doc, "md")

        stem = f"{_slug(system)}_{language.value}"
        report_path = out / f"report_{stem}.md"
        write_scores(scores, out / f"scores_{stem}.jsonl")
        write_metrics_doc(doc, out / f"metrics_{stem}.json")
        report_path.write_text(markdown, encoding="utf-8")
        reports.append((system, language, report_path))
        # release this group's outputs before the next group is scored
        del scores, doc, markdown
    return reports

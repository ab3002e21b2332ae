"""Command line interface: generate, validate, translate, score, metrics, report, run."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .adapter import AdapterConfig, translate_suite
from .errors import GntError
from .formats import (
    parse_manifest,
    parse_metrics_doc,
    parse_scores,
    parse_suite,
    parse_translations,
    split_orphans,
    write_metrics_doc,
    write_scores,
    write_suite,
    write_translations,
)
from .lexicon import Language, load_language_resources
from .metrics import DEFAULT_SIGNIFICANCE_THRESHOLD
from .pipeline import build_metrics_doc, run_pipeline, score_suite
from .report import render_report
from .suite import QUOTA_KEYS, generate_suite, validate_balance


def _lexicon_dir(value: str | None) -> str:
    directory = value or os.environ.get("GNT_LEXICON_DIR")
    if not directory:
        raise GntError("no lexicon directory: pass --lexicon-dir or set GNT_LEXICON_DIR")
    return directory


def _cmd_generate(args) -> int:
    manifest = parse_manifest(args.manifest)
    suite = generate_suite(manifest, seed=args.seed)
    write_suite(suite, args.out)
    slots = sum(len(instance.slots) for instance in suite)
    print(f"wrote {len(suite)} instances ({slots} slots) to {args.out}")
    diagnostics = validate_balance(suite, manifest.quotas)
    for warning in diagnostics.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def _cmd_validate(args) -> int:
    suite = parse_suite(args.suite)
    quotas = parse_manifest(args.manifest).quotas if args.manifest else None
    diagnostics = validate_balance(suite, quotas)
    for key in QUOTA_KEYS:
        if key in diagnostics.slot_counts:
            print(f"{key}: {diagnostics.slot_counts[key]} slots")
    for family, (f_count, m_count) in diagnostics.det_gender_split.items():
        print(f"{family} determined gender f/m: {f_count}/{m_count}")
    for family, (first, second) in diagnostics.speaker_position_split.items():
        print(f"{family} first-person position 1/2: {first}/{second}")
    if any(diagnostics.pronoun_counts.values()):
        counts = diagnostics.pronoun_counts
        print(f"T5 pronouns he/she/they: {counts['he']}/{counts['she']}/{counts['they']}")
    for warning in diagnostics.warnings:
        print(f"warning: {warning}")
    if diagnostics.violations:
        for violation in diagnostics.violations:
            print(f"violation: {violation}", file=sys.stderr)
        return 1
    print("balance: ok")
    return 0


def _cmd_translate(args) -> int:
    config = AdapterConfig.parse_target(
        args.adapter,
        Language.parse(args.lang),
        args.system,
        batch_size=args.batch_size,
        timeout=args.timeout,
        max_retries=args.max_retries,
        max_concurrent_batches=args.max_concurrent_batches,
    )
    suite = parse_suite(args.suite)  # after the settings, so a bad flag fails before a full read
    resume = Path(str(args.out) + ".partial")
    records = translate_suite(suite, config, resume_path=resume)
    write_translations(records, args.out)
    resume.unlink(missing_ok=True)
    print(f"wrote {len(records)} translations to {args.out}")
    return 0


def _cmd_score(args) -> int:
    suite = parse_suite(args.suite)
    language = Language.parse(args.lang)
    records = parse_translations(args.translations)
    records = [r for r in records if r.language is language]
    systems = sorted({r.system_id for r in records})
    if args.system:
        records = [r for r in records if r.system_id == args.system]
    elif len(systems) > 1:
        raise GntError(f"translations carry several systems ({', '.join(systems)}); pass --system")
    if not records:
        raise GntError(f"no translations for language {language.value!r}" + (f" and system {args.system!r}" if args.system else ""))
    resources = load_language_resources(_lexicon_dir(args.lexicon_dir), language)
    valid, orphans = split_orphans(records, {instance.id for instance in suite})
    scores, missing = score_suite(suite, valid, resources)
    write_scores(scores, args.out)
    print(f"wrote {len(scores)} slot scores to {args.out} "
          f"({len(orphans)} orphan translations, {missing} instances without translation)")
    return 0


def _cmd_metrics(args) -> int:
    suite = parse_suite(args.suite)
    scores = parse_scores(args.scores)
    doc = build_metrics_doc(
        suite, scores, args.system, Language.parse(args.lang), threshold=args.threshold
    )
    write_metrics_doc(doc, args.out)
    print(f"wrote metrics to {args.out}")
    return 0


def _cmd_report(args) -> int:
    doc = parse_metrics_doc(args.metrics)
    rendered = render_report(doc, args.format)
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
        print(f"wrote {args.format} report to {args.out}")
    else:
        print(rendered, end="")
    return 0


def _cmd_run(args) -> int:
    manifest = parse_manifest(args.manifest)
    documents = run_pipeline(
        manifest,
        args.translations,
        _lexicon_dir(args.lexicon_dir),
        args.out_dir,
        threshold=args.threshold,
        seed=args.seed,
    )
    for document in documents:
        print(f"{document.system_id} ({document.language.value}): {document.report_path}")
    print(f"{len(documents)} report(s) in {args.out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnt",
        description="Generate gender-ambiguity test suites, score translations, and report response metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="Expand a manifest into a suite file.")
    p.add_argument("--manifest", required=True)
    p.add_argument("--seed", type=int, default=None, help="Override the manifest seed.")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("validate", help="Re-check balance invariants of a suite file.")
    p.add_argument("--suite", required=True)
    p.add_argument("--manifest", default=None, help="Also compare slot counts against these quotas.")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("translate", help="Collect translations from an external backend.")
    p.add_argument("--suite", required=True)
    p.add_argument("--adapter", required=True, help='cmd:"<command>" or http:<url>')
    p.add_argument("--lang", required=True, choices=[l.value for l in Language])
    p.add_argument("--system", required=True, help="Label recorded in the output file.")
    p.add_argument("--out", required=True)
    p.add_argument("--batch-size", type=int, default=AdapterConfig.batch_size)
    p.add_argument("--timeout", type=float, default=AdapterConfig.timeout)
    p.add_argument("--max-retries", type=int, default=AdapterConfig.max_retries)
    p.add_argument("--max-concurrent-batches", type=int, default=AdapterConfig.max_concurrent_batches,
                   help="Batches in flight at once; 1 for a backend that cannot run twice at once.")
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("score", help="Classify translated adjective slots.")
    p.add_argument("--suite", required=True)
    p.add_argument("--translations", required=True)
    p.add_argument("--lexicon-dir", default=None)
    p.add_argument("--lang", required=True, choices=[l.value for l in Language])
    p.add_argument("--system", default=None, help="Required when the file carries several systems.")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("metrics", help="Aggregate slot scores into response metrics.")
    p.add_argument("--scores", required=True)
    p.add_argument("--suite", required=True)
    p.add_argument("--threshold", type=float, default=DEFAULT_SIGNIFICANCE_THRESHOLD)
    p.add_argument("--system", default="unknown")
    p.add_argument("--lang", required=True, choices=[l.value for l in Language])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("report", help="Render a metrics document.")
    p.add_argument("--metrics", required=True)
    p.add_argument("--format", default="md", choices=["md", "csv", "json"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("run", help="Full pipeline: generate, score, aggregate, report.")
    p.add_argument("--manifest", required=True)
    p.add_argument("--translations", required=True)
    p.add_argument("--lexicon-dir", default=None)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--threshold", type=float, default=DEFAULT_SIGNIFICANCE_THRESHOLD)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GntError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

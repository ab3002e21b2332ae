"""Command line interface: generate, validate, translate, score, metrics, report, run."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .adapter import AdapterConfig, AdapterKind, translate_suite
from .errors import GntError, UnbalancedSuite
from .formats import (
    iter_suite,
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
from .pipeline import build_metrics_doc, missing_translations, run_pipeline, score_group
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
    _print_balance(diagnostics)
    return 1 if diagnostics.violations else 0


def _print_balance(diagnostics) -> None:
    """A generated suite's balance warnings, then its violations, on stderr."""
    for warning in diagnostics.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    for violation in diagnostics.violations:
        print(f"violation: {violation}", file=sys.stderr)


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


def _count_lines(path: str) -> int:
    """The number of non-blank lines in a file, one per instance of a suite file."""
    with open(path, "rb") as fh:
        return sum(1 for line in fh if not line.isspace())


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
    out = Path(args.out)
    # either is found only when the first batch is persisted or the translations written, after the backend work
    if not out.parent.is_dir():
        raise GntError(f"--out directory {str(out.parent)!r} is not an existing directory")
    if out.is_dir():
        raise GntError(f"--out {args.out!r} is a directory, not a file")
    # every spawn pays a start-up, perhaps a model load: one batch per window slot. A pipe can be read only once, so
    # only a regular file is counted; a suite read from anything else gets translate_suite's default.
    if args.batch_size is None and config.kind is AdapterKind.EXTERNAL_COMMAND and os.path.isfile(args.suite):
        batch_size = -(-_count_lines(args.suite) // config.max_concurrent_batches)
        # through the constructor, so that a default timeout follows the new batch size
        config = AdapterConfig(*config._replace(batch_size=max(1, batch_size), timeout=args.timeout))
    resume = Path(str(args.out) + ".partial")
    # read lazily, so the first batches are in flight while the rest of the suite is read
    texts = translate_suite(iter_suite(args.suite), config, resume_path=resume)
    write_translations({(config.system_id, config.language): texts}, args.out)
    resume.unlink(missing_ok=True)
    print(f"wrote {len(texts)} translations to {args.out}")
    return 0


def _cmd_score(args) -> int:
    suite = parse_suite(args.suite)
    language = Language.parse(args.lang)
    index = {instance.id: instance for instance in suite}
    # only the language's groups, or with --system its one group, keep their texts
    groups = parse_translations(args.translations, index, system=args.system or None, language=language)
    systems = [system for system, _ in groups]
    if not args.system and len(systems) > 1:
        raise GntError(f"translations carry several systems ({', '.join(systems)}); pass --system")
    texts = groups.get((args.system or (systems[0] if systems else None), language), {})
    if not texts:
        raise GntError(f"no translations for language {language.value!r}" + (f" and system {args.system!r}" if args.system else ""))
    resources = load_language_resources(_lexicon_dir(args.lexicon_dir), language)
    scores, orphans, missing = score_group(suite, index, texts, resources)
    write_scores(scores, args.out)
    print(f"wrote {len(scores)} slot scores to {args.out} "
          f"({orphans} orphan translations, {missing} instances without translation)")
    return 0


def _cmd_metrics(args) -> int:
    suite = parse_suite(args.suite)
    language = Language.parse(args.lang)
    index = {instance.id: instance for instance in suite}
    orphans = 0
    if args.translations:
        groups = parse_translations(args.translations, index, system=args.system, language=language)
        if not groups:
            raise GntError(f"{args.translations}: no translations for system {args.system!r} "
                           f"and language {language.value!r}")
        orphans = len(split_orphans(groups[args.system, language], index))
    scores = parse_scores(args.scores, index)
    missing = missing_translations(suite, {score.instance_id for score in scores})
    doc = build_metrics_doc(index, scores, args.system, language, threshold=args.threshold,
                            orphan_translations=orphans, missing_translations=missing)
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
    try:
        reports = run_pipeline(
            manifest,
            args.translations,
            _lexicon_dir(args.lexicon_dir),
            args.out_dir,
            threshold=args.threshold,
            seed=args.seed,
            on_balance=_print_balance,
        )
    except UnbalancedSuite:
        return 1  # its warnings and violations are printed
    for system, language, report_path in reports:
        print(f"{system} ({language.value}): {report_path}")
    print(f"{len(reports)} report(s) in {args.out_dir}")
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
    p.add_argument("--batch-size", type=int, default=None,
                   help="Ids per backend call (default for cmd: the suite's share of one window slot, so one "
                        "spawn per slot; 256 for http:).")
    p.add_argument("--timeout", type=float, default=None,
                   help="Seconds one batch may take (default 60 per 256 ids, at least 60).")
    defaults = AdapterConfig._field_defaults
    p.add_argument("--max-retries", type=int, default=defaults["max_retries"])
    p.add_argument("--max-concurrent-batches", type=int, default=defaults["max_concurrent_batches"],
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
    p.add_argument("--translations", default=None,
                   help="The translations file that was scored: count the --system/--lang group's orphan records.")
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

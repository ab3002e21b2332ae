#!/usr/bin/env python3
"""Scripted MT backend speaking the id<TAB>text line protocol on stdio.

Modes:
  echo       reply with the source text unchanged
  sensitive  fake gender-aware system: every known adjective is translated
             with its masculine form, except in singular-they instances,
             where the common (gender-neutral) form is used instead

Failure-injection flags exercise the adapter's error handling and resume
logic; they are inert unless passed.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

_EDGE_PUNCT = ".,\"'!?;:()"


def load_forms(lexicon_csv: str) -> dict[str, tuple[str, str]]:
    masculine: dict[str, str] = {}
    common: dict[str, str] = {}
    with open(lexicon_csv, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            if row["gender"] == "m":
                masculine.setdefault(row["lemma"], row["form"])
            elif row["gender"] == "common":
                common.setdefault(row["lemma"], row["form"])
    return {lemma: (masculine[lemma], common.get(lemma, masculine[lemma])) for lemma in masculine}


def translate(text: str, forms: dict[str, tuple[str, str]], neutral: bool) -> str:
    out = []
    for word in text.split():
        lemma = word.strip(_EDGE_PUNCT).lower()
        if lemma in forms:
            out.append(forms[lemma][1 if neutral else 0])
    return " ".join(out) + "." if out else "..."


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=["echo", "sensitive"], default="echo")
    parser.add_argument("--lexicon", help="lexicon.csv used by sensitive mode")
    parser.add_argument("--shuffle", action="store_true", help="reply in reverse line order")
    parser.add_argument("--drop-id", default=None, help="omit this id from the reply")
    parser.add_argument("--inject-bogus", action="store_true", help="reply with an id outside the batch")
    parser.add_argument("--duplicate-id", default=None, help="reply to this id twice")
    parser.add_argument("--non-utf8", default=None, metavar="ID", help="reply to this id with a Latin-1 byte")
    parser.add_argument("--fail-once", default=None, metavar="MARKER",
                        help="exit 1 on the first run (marker file absent), succeed afterwards")
    parser.add_argument("--fail-on-id", default=None, metavar="ID:MARKER",
                        help="fail the batch containing ID until MARKER exists")
    args = parser.parse_args()

    if args.fail_once:
        marker = Path(args.fail_once)
        if not marker.exists():
            marker.write_text("failed once\n")
            print("transient failure", file=sys.stderr)
            return 1

    forms = load_forms(args.lexicon) if args.mode == "sensitive" else {}

    lines = []
    raw = sys.stdin.buffer.read().decode("utf-8")
    for line in raw.splitlines():
        if not line.strip():
            continue
        instance_id, text = line.split("\t", 1)
        lines.append((instance_id, text))

    if args.fail_on_id:
        target, marker_path = args.fail_on_id.split(":", 1)
        marker = Path(marker_path)
        if any(instance_id == target for instance_id, _ in lines) and not marker.exists():
            marker.write_text("failed batch\n")
            print(f"refusing batch containing {target}", file=sys.stderr)
            return 1

    replies = []
    for instance_id, text in lines:
        if args.drop_id and instance_id == args.drop_id:
            continue
        if args.mode == "sensitive":
            translated = translate(text, forms, neutral='," they said' in text)
        else:
            translated = text
        if args.non_utf8 and instance_id == args.non_utf8:
            translated = "caf\udce9"  # surrogateescape writes the lone byte 0xe9
        replies.append(f"{instance_id}\t{translated}")
        if args.duplicate_id and instance_id == args.duplicate_id:
            replies.append(f"{instance_id}\t{translated} again")
    if args.shuffle:
        replies.reverse()
    if args.inject_bogus:
        replies.append("bogus-id\tnoise")

    sys.stdout.buffer.write(("\n".join(replies) + "\n").encode("utf-8", "surrogateescape"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

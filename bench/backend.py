"""Scripted MT backend for the benchmark; standard library only, never imports gnt.

It speaks the README wire contract: a request is a block of
``id<TAB>source`` lines and the reply a block of ``id<TAB>translation``
lines. The translation is `mix.backend_reply`, deterministic in
(seed, lang, id, source).

    backend.py cmd --lexicon-dir DIR --lang es --seed 7 [--log FILE]
        answers one batch read from stdin, as a ``cmd:`` backend
    backend.py serve --lexicon-dir DIR --seed 7 [--log]
        serves POST /<lang> on a loopback port, single-threaded, as an
        ``http:`` backend; prints the port on its first stdout line

With logging on, every request records its arrival and reply times
(`time.monotonic`, shared by all processes of the machine) and its byte
counts. A ``cmd`` process appends one JSON line to FILE; the server keeps
records in memory and hands them out, and clears them, on GET /log.
"""

import time

_ARRIVAL = time.monotonic()

import argparse
import json
import sys

from mix import LANGUAGES, LanguageTable, backend_reply


def answer(table: LanguageTable, seed: int, request: str, wrong: bool) -> str:
    """Reply block for one request block; `wrong` corrupts each batch's first reply."""
    lines = []
    for line in request.splitlines():
        if not line.strip():
            continue
        instance_id, source = line.split("\t", 1)
        text = backend_reply(table, seed, instance_id, source)
        if wrong and not lines:
            text += " (corrupted)"
        lines.append(f"{instance_id}\t{text}")
    return "\n".join(lines) + "\n"


def log_record(arrival: float, done: float, request: bytes, reply: bytes) -> dict:
    first_line = request.split(b"\n", 1)[0]
    return {
        "arrival": arrival,
        "done": done,
        "first_id": first_line.split(b"\t", 1)[0].decode("utf-8"),
        "bytes_in": len(request),
        "bytes_out": len(reply),
    }


def run_cmd(args) -> int:
    table = LanguageTable.load(args.lexicon_dir, args.lang)
    request = sys.stdin.buffer.read()
    reply = answer(table, args.seed, request.decode("utf-8"), args.wrong).encode("utf-8")
    sys.stdout.buffer.write(reply)
    sys.stdout.flush()
    done = time.monotonic()
    if args.log:
        with open(args.log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(log_record(_ARRIVAL, done, request, reply)) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    cmd_parser = sub.add_parser("cmd")
    cmd_parser.add_argument("--lang", required=True, choices=LANGUAGES)
    cmd_parser.add_argument("--log", default=None)
    serve_parser = sub.add_parser("serve")
    serve_parser.add_argument("--log", action="store_true")
    for p in (cmd_parser, serve_parser):
        p.add_argument("--lexicon-dir", required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--wrong", action="store_true", help="corrupt the first reply of every batch")
    args = parser.parse_args()
    if args.mode == "cmd":
        return run_cmd(args)
    from http_backend import serve  # only the server pays for importing http.server

    return serve(args)


if __name__ == "__main__":
    raise SystemExit(main())

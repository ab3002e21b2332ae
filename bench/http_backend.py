"""Loopback HTTP mode of the scripted backend: `backend.py serve`.

A single-threaded `HTTPServer` answers POST /<lang> with the same reply
function as the ``cmd`` mode. With ``--log`` it keeps one record per request
in memory and returns, then clears, them on GET /log.
"""

import json
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

from backend import answer, log_record
from mix import LANGUAGES, LanguageTable


class _Handler(BaseHTTPRequestHandler):
    server: "_Server"

    def do_POST(self):
        arrival = time.monotonic()
        table = self.server.tables.get(self.path.strip("/"))
        if table is None:
            self.send_error(404, "unknown language")
            return
        request = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        reply = answer(table, self.server.seed, request.decode("utf-8"), self.server.wrong).encode("utf-8")
        self._send(reply, "text/plain; charset=utf-8")
        if self.server.log is not None:
            self.server.log.append(log_record(arrival, time.monotonic(), request, reply))

    def do_GET(self):
        if self.path != "/log":
            self.send_error(404)
            return
        log = self.server.log
        records = list(log or ())
        if log:
            log.clear()
        self._send(json.dumps(records).encode("utf-8"), "application/json")

    def _send(self, body: bytes, content_type: str) -> None:
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self.wfile.flush()

    def log_message(self, format, *args):
        pass


class _Server(HTTPServer):
    def __init__(self, tables: dict[str, LanguageTable], seed: int, wrong: bool, log: bool):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.tables = tables
        self.seed = seed
        self.wrong = wrong
        self.log: list[dict] | None = [] if log else None


def serve(args) -> int:
    tables = {lang: LanguageTable.load(args.lexicon_dir, lang) for lang in LANGUAGES}
    with _Server(tables, args.seed, args.wrong, args.log) as server:
        print(server.server_address[1], flush=True)
        server.serve_forever()
    return 0

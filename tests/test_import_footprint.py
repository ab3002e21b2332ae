"""Which parts of the standard library a gnt command loads.

Each command runs in a fresh `python -I` interpreter, since this process has
already imported everything the tests use.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import gnt
from gnt import Language, TranslationRecord, generate_suite, parse_manifest, write_suite, write_translations
from gnt.data import demo_manifest_path, lexicon_dir

SRC = Path(gnt.__file__).resolve().parents[1]

# Python's HTTP client and what it drags in: only an http: backend needs it, so it is loaded on the first request.
# hashlib is listed on its own because it maps OpenSSL's libcrypto, +3.7 MB of peak RSS measured over a bare
# interpreter; a later digest in gnt (such as a digest of the suite in the translations file) must take it off
# this list on purpose and record what it costs.
HTTP_CLIENT = ("urllib.request", "urllib.error", "http.client", "ssl", "hashlib")
# `dataclasses` and the modules it alone pulls in: gnt's records are NamedTuples and slotted classes, so that no
# command pays for building them with it (`import gnt.cli` took 58 ms with it, 31 ms without, by -X importtime on
# a 2-core host).
DATACLASS_MACHINERY = ("dataclasses", "inspect", "ast", "dis")

_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
import gnt.cli
code = gnt.cli.main(json.loads(sys.argv[2]))
print(json.dumps({"code": code, "loaded": [name for name in json.loads(sys.argv[3]) if name in sys.modules]}))
"""


def _gnt(*argv: str) -> tuple[int, list[str]]:
    """Run one gnt command in a fresh interpreter: its exit code and which of HTTP_CLIENT and DATACLASS_MACHINERY
    it loaded."""
    watched = HTTP_CLIENT + DATACLASS_MACHINERY
    done = subprocess.run([sys.executable, "-I", "-c", _RUN, str(SRC), json.dumps(argv), json.dumps(watched)],
                          capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    return result["code"], result["loaded"]


def _translate(suite_file: Path, out: Path, adapter: str, *flags: str) -> tuple[int, list[str]]:
    return _gnt("translate", "--suite", str(suite_file), "--adapter", adapter, "--lang", "es", "--system", "s",
                "--out", str(out), *flags)


def test_no_command_but_an_http_translate_loads_the_http_client(tmp_path):
    """None of these loads the HTTP client, and none loads the dataclass machinery."""
    suite_file = tmp_path / "suite.jsonl"
    assert _gnt("generate", "--manifest", str(demo_manifest_path()), "--out", str(suite_file)) == (0, [])
    assert _gnt("validate", "--suite", str(suite_file)) == (0, [])
    assert _translate(suite_file, tmp_path / "tr.jsonl", "cmd:cat") == (0, [])
    translations = tmp_path / "echo.jsonl"
    write_translations([TranslationRecord("echo", Language.ES, instance.id, instance.source_text)
                        for instance in generate_suite(parse_manifest(demo_manifest_path()))], translations)
    assert _gnt("run", "--manifest", str(demo_manifest_path()), "--translations", str(translations),
                "--lexicon-dir", str(lexicon_dir()), "--out-dir", str(tmp_path / "out")) == (0, [])


class _Echo(BaseHTTPRequestHandler):
    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_an_http_translate_loads_the_client_from_a_window_of_two(tmp_path):
    suite_file = tmp_path / "suite.jsonl"
    write_suite(generate_suite(parse_manifest(demo_manifest_path())), suite_file)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Echo)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}/translate"
        # two threads each send their first batch, so both may reach the deferred import at once
        http = _translate(suite_file, tmp_path / "http.jsonl", url, "--max-concurrent-batches", "2",
                          "--batch-size", "8")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert http == (0, list(HTTP_CLIENT))  # and none of DATACLASS_MACHINERY
    assert _translate(suite_file, tmp_path / "cmd.jsonl", "cmd:cat") == (0, [])
    assert (tmp_path / "http.jsonl").read_bytes() == (tmp_path / "cmd.jsonl").read_bytes()

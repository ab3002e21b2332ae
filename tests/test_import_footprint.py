"""Which parts of the standard library a gnt command loads.

Each command runs in a fresh `python -I` interpreter, since this process has
already imported everything the tests use.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import gnt
from gnt import Language, generate_suite, parse_manifest, write_suite, write_translations
from gnt.data import demo_manifest_path, lexicon_dir

SRC = Path(gnt.__file__).resolve().parents[1]

# Python's HTTP client and what it drags in: only an https: URL or a proxy needs it, so it is loaded on the first
# such request; a plain http: URL is posted over a socket. hashlib is listed on its own because it maps OpenSSL's
# libcrypto, +3.7 MB of peak RSS measured over a bare interpreter; a later digest in gnt (such as a digest of the
# suite in the translations file) must take it off this list on purpose and record what it costs.
HTTP_CLIENT = ("urllib.request", "urllib.error", "http.client", "ssl", "hashlib")
# what a plain http: request loads, on its first request, and nothing else does
SOCKET = ("socket",)
# what a cmd: translate loads, on its first batch, and nothing else does. With selectors, which socket loads too, they
# were 0.53 MB of `import gnt.cli`.
SUBPROCESS = ("subprocess", "signal")
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


def _gnt(*argv: str, env: dict[str, str] | None = None) -> tuple[int, list[str]]:
    """Run one gnt command in a fresh interpreter: its exit code and which of HTTP_CLIENT, SOCKET, SUBPROCESS and
    DATACLASS_MACHINERY it loaded."""
    watched = HTTP_CLIENT + SOCKET + SUBPROCESS + DATACLASS_MACHINERY
    done = subprocess.run([sys.executable, "-I", "-c", _RUN, str(SRC), json.dumps(argv), json.dumps(watched)],
                          capture_output=True, text=True, timeout=120, check=True, env=env)
    result = json.loads(done.stdout.splitlines()[-1])
    return result["code"], result["loaded"]


def _translate(suite_file: Path, out: Path, adapter: str, *flags: str,
               env: dict[str, str] | None = None) -> tuple[int, list[str]]:
    return _gnt("translate", "--suite", str(suite_file), "--adapter", adapter, "--lang", "es", "--system", "s",
                "--out", str(out), *flags, env=env)


def test_no_command_but_an_http_translate_loads_the_http_client(tmp_path):
    """None of these loads the HTTP client or socket, only a cmd: translate loads subprocess, and none loads the
    dataclass machinery."""
    suite_file = tmp_path / "suite.jsonl"
    assert _gnt("generate", "--manifest", str(demo_manifest_path()), "--out", str(suite_file)) == (0, [])
    assert _gnt("validate", "--suite", str(suite_file)) == (0, [])
    assert _translate(suite_file, tmp_path / "tr.jsonl", "cmd:cat") == (0, list(SUBPROCESS))
    translations = tmp_path / "echo.jsonl"
    suite = generate_suite(parse_manifest(demo_manifest_path()))
    write_translations({("echo", Language.ES): {i.id: i.source_text for i in suite}}, translations)
    assert _gnt("run", "--manifest", str(demo_manifest_path()), "--translations", str(translations),
                "--lexicon-dir", str(lexicon_dir()), "--out-dir", str(tmp_path / "out")) == (0, [])
    scores = tmp_path / "scores.jsonl"
    assert _gnt("score", "--suite", str(suite_file), "--translations", str(translations), "--lang", "es",
                "--lexicon-dir", str(lexicon_dir()), "--out", str(scores)) == (0, [])
    assert _gnt("metrics", "--scores", str(scores), "--suite", str(suite_file), "--lang", "es", "--system", "echo",
                "--translations", str(translations), "--out", str(tmp_path / "metrics.json")) == (0, [])


class _Echo(BaseHTTPRequestHandler):
    def do_POST(self):
        self.server.targets.append(self.path)  # a proxy is sent the absolute form, http://host:port/path
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def _translate_through_echo(suite_file: Path, out: Path, proxy: bool) -> tuple[tuple[int, list[str]], set[str], str]:
    """Translate over http: from a window of two, directly or through `http_proxy`, with the echo server as both the
    backend and the proxy: the command's result, the request targets the server saw and the backend URL."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Echo)
    server.targets = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}/translate"
        env = {name: value for name, value in os.environ.items() if not name.lower().endswith("_proxy")}
        if proxy:
            env["http_proxy"] = f"http://127.0.0.1:{server.server_address[1]}"
        # two threads each send their first batch, so both may reach the deferred import at once
        result = _translate(suite_file, out, url, "--max-concurrent-batches", "2", "--batch-size", "8", env=env)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    return result, set(server.targets), url


def test_an_http_translate_loads_the_client_from_a_window_of_two(tmp_path):
    suite_file = tmp_path / "suite.jsonl"
    write_suite(generate_suite(parse_manifest(demo_manifest_path())), suite_file)
    http, targets, _ = _translate_through_echo(suite_file, tmp_path / "http.jsonl", proxy=False)
    assert http == (0, list(SOCKET))  # none of HTTP_CLIENT, SUBPROCESS or DATACLASS_MACHINERY
    assert targets == {"/translate"}
    assert _translate(suite_file, tmp_path / "cmd.jsonl", "cmd:cat") == (0, list(SUBPROCESS))
    assert (tmp_path / "http.jsonl").read_bytes() == (tmp_path / "cmd.jsonl").read_bytes()


def test_an_http_translate_through_a_proxy_loads_the_http_client(tmp_path):
    suite_file = tmp_path / "suite.jsonl"
    write_suite(generate_suite(parse_manifest(demo_manifest_path())), suite_file)
    proxied, targets, url = _translate_through_echo(suite_file, tmp_path / "proxied.jsonl", proxy=True)
    assert proxied[0] == 0 and "urllib.request" in proxied[1]
    assert targets == {url}  # sent to the proxy
    _translate_through_echo(suite_file, tmp_path / "direct.jsonl", proxy=False)
    assert (tmp_path / "proxied.jsonl").read_bytes() == (tmp_path / "direct.jsonl").read_bytes()

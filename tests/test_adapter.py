from __future__ import annotations

import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer

import pytest

from gnt import AdapterConfig, AdapterKind, Language, expand_template, translate_suite
from gnt.errors import BackendUnavailable, GntError, IncompleteBatch, ProtocolViolation
from gnt.cli import main
from gnt.formats import TranslationRecord, parse_translations, translation_line, write_suite
from gnt.suite import TemplateFamily
from conftest import backend_command


def _suite(size: int):
    return [
        expand_template(TemplateFamily.T7_ADVERB_STEREOTYPE, {"A": "fit"}, f"T7-{i:06d}a")
        for i in range(size)
    ]


def _cmd_config(command: str, **kwargs) -> AdapterConfig:
    defaults = dict(batch_size=4, timeout=30.0, max_retries=1)
    defaults.update(kwargs)
    return AdapterConfig(AdapterKind.EXTERNAL_COMMAND, command, Language.ES, "test-system", **defaults)


def _no_sleep(_seconds: float) -> None:
    pass


def test_echo_backend_returns_sources_verbatim():
    suite = _suite(9)
    records = translate_suite(suite, _cmd_config(backend_command()), sleep=_no_sleep)
    assert len(records) == 9
    by_id = {r.instance_id: r for r in records}
    for instance in suite:
        assert by_id[instance.id].target_text == instance.source_text
        assert by_id[instance.id].system_id == "test-system"


def test_out_of_order_replies_are_paired_by_id():
    suite = _suite(7)
    records = translate_suite(suite, _cmd_config(backend_command("--shuffle")), sleep=_no_sleep)
    assert [r.instance_id for r in records] == sorted(i.id for i in suite)
    by_id = {r.instance_id: r for r in records}
    assert all(by_id[i.id].target_text == i.source_text for i in suite)


def test_dropped_id_raises_incomplete_batch():
    suite = _suite(5)
    with pytest.raises(IncompleteBatch) as excinfo:
        translate_suite(suite, _cmd_config(backend_command("--drop-id", "T7-000002a")), sleep=_no_sleep)
    assert excinfo.value.missing == ["T7-000002a"]


def test_foreign_reply_id_raises_protocol_violation():
    suite = _suite(3)
    with pytest.raises(ProtocolViolation, match="bogus-id"):
        translate_suite(suite, _cmd_config(backend_command("--inject-bogus")), sleep=_no_sleep)


def test_duplicated_reply_id_raises_protocol_violation():
    suite = _suite(3)
    with pytest.raises(ProtocolViolation, match="T7-000001a"):
        translate_suite(suite, _cmd_config(backend_command("--duplicate-id", "T7-000001a")), sleep=_no_sleep)


def test_non_utf8_reply_raises_protocol_violation():
    suite = _suite(3)
    with pytest.raises(ProtocolViolation, match="UTF-8"):
        translate_suite(suite, _cmd_config(backend_command("--non-utf8", "T7-000001a")), sleep=_no_sleep)


def test_failing_command_exhausts_retries():
    suite = _suite(2)
    config = _cmd_config("false", max_retries=2)
    with pytest.raises(BackendUnavailable):
        translate_suite(suite, config, sleep=_no_sleep)


def test_transient_failure_is_retried(tmp_path):
    marker = tmp_path / "flaky.marker"
    suite = _suite(3)
    config = _cmd_config(backend_command("--fail-once", str(marker)), max_retries=2)
    records = translate_suite(suite, config, sleep=_no_sleep)
    assert len(records) == 3
    assert marker.exists()


def test_resume_requests_only_missing_ids(tmp_path):
    suite = _suite(10)
    marker = tmp_path / "batch.marker"
    resume = tmp_path / "partial.jsonl"
    # batches of 4: the batch holding T7-000005a (second batch) fails on the first run
    failing = _cmd_config(
        backend_command("--fail-on-id", f"T7-000005a:{marker}"), max_retries=0, max_concurrent_batches=1
    )
    with pytest.raises(BackendUnavailable):
        translate_suite(suite, failing, resume_path=resume, sleep=_no_sleep)
    assert resume.exists()
    persisted = resume.read_text(encoding="utf-8").strip().splitlines()
    assert len(persisted) == 4  # first batch survived the interruption

    records = translate_suite(suite, failing, resume_path=resume, sleep=_no_sleep)
    uninterrupted = translate_suite(_suite(10), _cmd_config(backend_command()), sleep=_no_sleep)
    assert records == uninterrupted


def test_resume_drops_a_torn_last_line(tmp_path):
    suite = _suite(6)
    resume = tmp_path / "partial.jsonl"
    complete = TranslationRecord("test-system", Language.ES, "T7-000000a", "marker text")
    torn = translation_line(TranslationRecord("test-system", Language.ES, "T7-000001a", "cut"))[:30]
    resume.write_text(translation_line(complete) + torn, encoding="utf-8")
    records = translate_suite(suite, _cmd_config(backend_command()), resume_path=resume, sleep=_no_sleep)
    assert [r.instance_id for r in records] == [i.id for i in suite]
    # the complete record was kept, not requested again
    assert records[0] == complete
    assert len(resume.read_text(encoding="utf-8").splitlines()) == 6


def test_concurrent_batches_collect_the_same_records():
    suite = _suite(12)
    sequential = translate_suite(suite, _cmd_config(backend_command()), sleep=_no_sleep)
    concurrent = translate_suite(
        suite, _cmd_config(backend_command(), max_concurrent_batches=3), sleep=_no_sleep
    )
    assert concurrent == sequential


def _counting_command(counter) -> str:
    # each spawn appends one line to `counter` and fails; the pause keeps the window's first batches in flight together
    return f"sh -c 'echo x >> {counter}; sleep 0.2; exit 1'"


def test_first_failure_stops_new_batches(tmp_path):
    counter = tmp_path / "spawns"
    config = _cmd_config(_counting_command(counter), batch_size=1, max_retries=0, max_concurrent_batches=2)
    with pytest.raises(BackendUnavailable):
        translate_suite(_suite(50), config, sleep=_no_sleep)
    assert len(counter.read_text().splitlines()) == 2


@pytest.mark.parametrize("window", [1, 2])
def test_interrupt_propagates_and_stops_new_batches(tmp_path, window):
    counter = tmp_path / "spawns"
    config = _cmd_config(_counting_command(counter), batch_size=1, max_retries=1, max_concurrent_batches=window)

    def interrupted(_seconds: float) -> None:
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        translate_suite(_suite(50), config, sleep=interrupted)
    # each batch in flight was interrupted before its retry; no later batch was sent
    assert len(counter.read_text().splitlines()) == window


def test_error_of_the_lowest_failed_batch_is_raised():
    # batch 0 replies late with a foreign id; batch 1 fails at once
    script = "read -r line; case \"$line\" in T7-000000a*) sleep 0.3; printf 'bogus\\tx\\n';; *) exit 1;; esac"
    config = _cmd_config(f"sh -c '{script}'", batch_size=1, max_retries=0, max_concurrent_batches=2)
    with pytest.raises(ProtocolViolation, match="bogus"):
        translate_suite(_suite(2), config, sleep=_no_sleep)


def test_window_does_not_change_records_or_output(tmp_path):
    suite_path = tmp_path / "suite.jsonl"
    suite = _suite(13)
    write_suite(suite, suite_path)
    sequential = translate_suite(suite, _cmd_config(backend_command(), max_concurrent_batches=1), sleep=_no_sleep)
    outputs = set()
    for window in (1, 2, 5):
        config = _cmd_config(backend_command("--shuffle"), max_concurrent_batches=window)
        assert translate_suite(suite, config, sleep=_no_sleep) == sequential
        marker = tmp_path / f"marker-{window}"
        out = tmp_path / f"translations-{window}.jsonl"
        adapter = "cmd:" + backend_command("--shuffle", "--fail-on-id", f"T7-000009a:{marker}")
        argv = ["translate", "--suite", str(suite_path), "--adapter", adapter, "--lang", "es",
                "--system", "test-system", "--out", str(out), "--batch-size", "4", "--max-retries", "0",
                "--max-concurrent-batches", str(window)]
        assert main(argv) == 2  # interrupted: the batch holding T7-000009a failed
        assert out.with_name(out.name + ".partial").exists()
        assert main(argv) == 0  # resumed
        assert parse_translations(out) == sequential
        outputs.add(out.read_bytes())
    assert len(outputs) == 1


def test_window_keeps_every_record_under_thread_switching(tmp_path, threaded_echo_server):
    # more workers than cores and a short switch interval, so a lost update or a torn append would show
    suite = _suite(200)
    resume = tmp_path / "partial.jsonl"
    config = AdapterConfig(AdapterKind.HTTP_ENDPOINT, threaded_echo_server, Language.ES, "http-system",
                           batch_size=1, timeout=10.0, max_retries=0, max_concurrent_batches=8)
    result = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: result.append(translate_suite(suite, config, resume_path=resume)))
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert [r.instance_id for r in result[0]] == [i.id for i in suite]
    persisted = sorted(r.instance_id for r in parse_translations(resume))
    assert persisted == [i.id for i in suite]


def test_default_batch_sends_256_ids_per_spawn(tmp_path):
    counter = tmp_path / "spawns"
    config = AdapterConfig(AdapterKind.EXTERNAL_COMMAND, f"sh -c 'echo x >> {counter}; cat'", Language.ES, "s")
    suite = _suite(600)
    records = translate_suite(suite, config)
    assert config.batch_size == 256
    assert len(counter.read_text().splitlines()) == 3  # ceil(600 / 256)
    assert [r.instance_id for r in records] == [i.id for i in suite]
    assert all(r.target_text == i.source_text for r, i in zip(records, suite))


@pytest.mark.parametrize("dropped, synced", [(None, 3), ("T7-000008a", 2)], ids=["every-batch", "empty-batch"])
def test_each_persisted_batch_is_synced_once(tmp_path, monkeypatch, dropped, synced):
    # batches of 4 over 9 ids; dropping the last id leaves the third batch with nothing to persist
    calls = []
    monkeypatch.setattr(os, "fsync", calls.append)
    resume = tmp_path / "partial.jsonl"
    config = _cmd_config(backend_command(*(("--drop-id", dropped) if dropped else ())))
    if dropped:
        with pytest.raises(IncompleteBatch):
            translate_suite(_suite(9), config, resume_path=resume, sleep=_no_sleep)
    else:
        translate_suite(_suite(9), config, resume_path=resume, sleep=_no_sleep)
    assert len(calls) == synced
    assert len(resume.read_text(encoding="utf-8").splitlines()) == (8 if dropped else 9)


def test_timed_out_command_names_the_batch_size_and_the_flags():
    config = _cmd_config("sh -c 'sleep 2'", timeout=0.3, max_retries=0)
    with pytest.raises(BackendUnavailable, match=r"batch of 3 id\(s\).*--timeout.*--batch-size"):
        translate_suite(_suite(3), config, sleep=_no_sleep)


def _process_state(pid: int) -> str | None:
    """The state letter of a process (`Z` for a zombie), or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return None


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_timed_out_command_is_stopped_with_its_children(tmp_path):
    pid_file = tmp_path / "child.pid"
    config = _cmd_config(f"sleep 10 & echo $! > {pid_file}; wait", timeout=0.3, max_retries=0)
    with pytest.raises(BackendUnavailable, match="timed out"):
        translate_suite(_suite(1), config, sleep=_no_sleep)
    child = int(pid_file.read_text())
    deadline = time.monotonic() + 5.0
    while _process_state(child) not in (None, "Z") and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _process_state(child) in (None, "Z")


def test_reply_lines_end_at_newline_only(tmp_path):
    # U+2028, NEL, a form feed and a lone carriage return stay in the text; a CRLF line end does not
    reply = r"T7-000000a\tfuerte\342\200\250bien\r\nT7-000001a\tx\rbien\nT7-000002a\ta\fb\302\205c\n"
    records = translate_suite(_suite(3), _cmd_config(f"cat > /dev/null; printf '{reply}'"), sleep=_no_sleep)
    assert [record.target_text for record in records] == ["fuerte bien", "x\rbien", "a\fb\x85c"]
    path = tmp_path / "translations.jsonl"
    path.write_text("".join(translation_line(record) for record in records), encoding="utf-8")
    assert parse_translations(path) == records


def test_source_text_is_transmitted_byte_identically():
    instance = expand_template(
        TemplateFamily.T5_CHAR_STEREOTYPE,
        {"C_g": "pretty nurse", "C_gbar": "strong doctor", "C_g_stereotype": "f",
         "pronoun": "they", "A": "stubborn"},
        "T5-000000a",
    )
    records = translate_suite([instance], _cmd_config(backend_command()), sleep=_no_sleep)
    assert records[0].target_text == instance.source_text


def test_config_validation():
    with pytest.raises(GntError):
        AdapterConfig(AdapterKind.EXTERNAL_COMMAND, "cat", Language.ES, "s", batch_size=0)
    with pytest.raises(GntError):
        AdapterConfig(AdapterKind.EXTERNAL_COMMAND, "cat", Language.ES, "s", timeout=0)
    with pytest.raises(GntError):
        AdapterConfig(AdapterKind.EXTERNAL_COMMAND, "cat", Language.ES, "s", max_retries=-1)


def test_parse_target_spec():
    config = AdapterConfig.parse_target('cmd:python backend.py', Language.ES, "s")
    assert config.kind is AdapterKind.EXTERNAL_COMMAND
    assert config.target == "python backend.py"
    config = AdapterConfig.parse_target("http://localhost:9000/translate", Language.CS, "s")
    assert config.kind is AdapterKind.HTTP_ENDPOINT
    with pytest.raises(GntError):
        AdapterConfig.parse_target("ftp://nope", Language.ES, "s")


# --- HTTP backend -----------------------------------------------------------------


class _EchoHandler(BaseHTTPRequestHandler):
    fail_first = False
    seen_failures = 0

    def do_POST(self):
        if type(self).fail_first and type(self).seen_failures == 0:
            type(self).seen_failures += 1
            self.send_response(500)
            self.end_headers()
            return
        body = self.rfile.read(int(self.headers["Content-Length"])).decode("utf-8")
        reply = "\n".join(reversed(body.splitlines())) + "\n"
        payload = reply.encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def echo_server():
    _EchoHandler.fail_first = False
    _EchoHandler.seen_failures = 0
    server = HTTPServer(("127.0.0.1", 0), _EchoHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/translate"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@pytest.fixture()
def threaded_echo_server():
    _EchoHandler.fail_first = False
    server = ThreadingHTTPServer(("127.0.0.1", 0), _EchoHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/translate"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def test_http_backend_round_trip(echo_server):
    suite = _suite(6)
    config = AdapterConfig(AdapterKind.HTTP_ENDPOINT, echo_server, Language.ES, "http-system",
                           batch_size=4, timeout=10.0, max_retries=1)
    records = translate_suite(suite, config, sleep=_no_sleep)
    assert len(records) == 6
    by_id = {r.instance_id: r for r in records}
    assert all(by_id[i.id].target_text == i.source_text for i in suite)


def test_http_backend_retries_transient_500(echo_server):
    _EchoHandler.fail_first = True
    suite = _suite(2)
    config = AdapterConfig(AdapterKind.HTTP_ENDPOINT, echo_server, Language.ES, "http-system",
                           batch_size=8, timeout=10.0, max_retries=2)
    records = translate_suite(suite, config, sleep=_no_sleep)
    assert len(records) == 2
    assert _EchoHandler.seen_failures == 1


class _SlowHandler(_EchoHandler):
    def do_POST(self):
        time.sleep(0.6)
        try:
            super().do_POST()
        except OSError:
            pass  # the client has given up


@pytest.fixture()
def slow_server():
    server = HTTPServer(("127.0.0.1", 0), _SlowHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/translate"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def test_timed_out_http_batch_names_the_batch_size_and_the_flags(slow_server):
    config = AdapterConfig(AdapterKind.HTTP_ENDPOINT, slow_server, Language.ES, "http-system",
                           batch_size=8, timeout=0.2, max_retries=0)
    with pytest.raises(BackendUnavailable, match=r"batch of 5 id\(s\).*--timeout.*--batch-size"):
        translate_suite(_suite(5), config, sleep=_no_sleep)

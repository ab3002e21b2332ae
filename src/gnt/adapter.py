"""Batch bridge between a generated suite and an external MT backend.

Two backends share one wire contract: each request is a block of
``id<TAB>source_text`` lines and each reply is a block of
``id<TAB>translation`` lines. Replies are paired by id, never by line order.
The command backend spawns the configured shell command once per batch; the
HTTP backend POSTs the block as UTF-8 ``text/plain`` and reads the same shape
back. A window of batches is in flight at once, and partial progress can be
persisted so an interrupted run resumes with only the missing ids.
"""

from __future__ import annotations

import contextlib
import os
import random
import signal
import subprocess
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .errors import BackendUnavailable, GntError, IncompleteBatch, ProtocolViolation
from .formats import TranslationRecord, parse_translations, translation_line
from .lexicon import Language
from .suite import TestInstance


class AdapterKind(Enum):
    EXTERNAL_COMMAND = "cmd"
    HTTP_ENDPOINT = "http"


@dataclass(frozen=True)
class AdapterConfig:
    kind: AdapterKind
    target: str
    language: Language
    system_id: str
    batch_size: int = 256
    timeout: float = 60.0
    max_retries: int = 2
    max_concurrent_batches: int = 2

    def __post_init__(self):
        if self.batch_size < 1:
            raise GntError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.timeout <= 0:
            raise GntError(f"timeout must be positive, got {self.timeout}")
        if self.max_retries < 0:
            raise GntError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.max_concurrent_batches < 1:
            raise GntError(f"max_concurrent_batches must be >= 1, got {self.max_concurrent_batches}")

    @classmethod
    def parse_target(cls, spec: str, language: Language, system_id: str, **kwargs) -> "AdapterConfig":
        """Build a config from a CLI spec: cmd:"<command>" or http:<url>."""
        if spec.startswith("cmd:"):
            if not spec[4:].strip():
                raise GntError(f"adapter spec {spec!r} must be cmd:<command> with a non-empty command")
            return cls(AdapterKind.EXTERNAL_COMMAND, spec[4:], language, system_id, **kwargs)
        if not spec.startswith(("http:", "https://")):
            raise GntError(f"adapter spec must start with cmd: or http:, got {spec!r}")
        url = spec if spec.startswith(("http://", "https://")) else spec[5:]
        try:
            parts = urllib.parse.urlsplit(url)
            valid = parts.scheme in ("http", "https") and parts.hostname and parts.port != 0
        except ValueError:  # a bad IPv6 address, or a port that is no number in range
            valid = False
        if not valid:
            raise GntError(f"adapter spec {spec!r} must be http:<url> with an http or https URL and a host")
        return cls(AdapterKind.HTTP_ENDPOINT, url, language, system_id, **kwargs)


def _encode_batch(batch: Sequence[TestInstance]) -> str:
    return "".join(f"{instance.id}\t{instance.source_text}\n" for instance in batch)


def _decode_reply(reply: str, batch_ids: set[str]) -> dict[str, str]:
    translations: dict[str, str] = {}
    # lines end at "\n" only: a translation may hold any other line break
    for line in reply.split("\n"):
        if line.endswith("\r"):
            line = line[:-1]
        if not line.strip():
            continue
        if "\t" not in line:
            raise ProtocolViolation(f"reply line without tab separator: {line[:80]!r}")
        instance_id, text = line.split("\t", 1)
        if instance_id not in batch_ids:
            raise ProtocolViolation(f"reply id {instance_id!r} was not part of the batch")
        if instance_id in translations:
            raise ProtocolViolation(f"reply id {instance_id!r} appears more than once")
        translations[instance_id] = text
    return translations


def _run_command(command: str, payload: str, timeout: float) -> str:
    # a session of its own, so that a timeout stops every process of the command and not only its shell
    with subprocess.Popen(
        command,
        shell=True,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    ) as process:
        try:
            stdout, stderr = process.communicate(payload.encode("utf-8"), timeout=timeout)
        except BaseException as exc:  # an interrupt too
            with contextlib.suppress(ProcessLookupError):
                os.killpg(process.pid, signal.SIGKILL)
            if isinstance(exc, subprocess.TimeoutExpired):
                raise _timed_out("command", payload, timeout) from exc
            raise
    if process.returncode != 0:
        stderr = stderr.decode("utf-8", "replace").strip()
        raise BackendUnavailable(f"command exited with {process.returncode}: {stderr[:200]}")
    return _decode_text(stdout)


def _run_http(url: str, payload: str, timeout: float) -> str:
    headers = {"Content-Type": "text/plain; charset=utf-8"}
    token = os.environ.get("GNT_HTTP_TOKEN")
    if token:
        headers["Authorization"] = f"Bearer {token}"
    request = urllib.request.Request(url, data=payload.encode("utf-8"), headers=headers, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            body = response.read()
    except urllib.error.HTTPError as exc:
        exc.close()  # the error holds the response and its socket open
        raise BackendUnavailable(f"HTTP {exc.code} from backend: {exc.reason}") from exc
    except OSError as exc:  # URLError and TimeoutError too
        # a timeout while connecting or sending arrives wrapped in URLError, one while waiting for the reply bare
        if isinstance(exc, TimeoutError) or isinstance(getattr(exc, "reason", None), TimeoutError):
            raise _timed_out("backend", payload, timeout) from exc
        raise BackendUnavailable(f"backend unreachable: {exc}") from exc
    return _decode_text(body)


def _timed_out(what: str, payload: str, timeout: float) -> BackendUnavailable:
    ids = payload.count("\n")  # one line per id
    return BackendUnavailable(
        f"{what} timed out after {timeout}s on a batch of {ids} id(s); raise --timeout or lower --batch-size"
    )


def _decode_text(reply: bytes) -> str:
    try:
        return reply.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolViolation(f"reply is not UTF-8 ({exc.reason} at byte {exc.start})") from None


def _call_backend(config: AdapterConfig, payload: str) -> str:
    if config.kind is AdapterKind.EXTERNAL_COMMAND:
        return _run_command(config.target, payload, config.timeout)
    return _run_http(config.target, payload, config.timeout)


def _with_retries(config: AdapterConfig, payload: str, sleep: Callable[[float], None], rng: random.Random) -> str:
    # exponential backoff with jitter, capped by max_retries
    last: Exception | None = None
    for attempt in range(config.max_retries + 1):
        try:
            return _call_backend(config, payload)
        except BackendUnavailable as exc:
            last = exc
            if attempt < config.max_retries:
                sleep(min(30.0, 0.5 * 2**attempt) * (0.5 + rng.random() / 2))
    assert last is not None
    raise last


def translate_suite(
    suite: Iterable[TestInstance],
    config: AdapterConfig,
    resume_path: str | Path | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> list[TranslationRecord]:
    """Collect one TranslationRecord per instance from the configured backend.

    Up to `config.max_concurrent_batches` batches are in flight at once: the
    calling thread and that many less one helper threads each take the next
    batch in turn. After the first failure no new batch starts; batches in
    flight finish, and the error of the lowest-numbered failed batch is
    raised. When `resume_path` is given, completed records are appended there
    after every batch, in completion order, and a rerun only requests the ids
    still missing. Raises IncompleteBatch when a reply skips ids,
    ProtocolViolation on malformed or foreign reply lines, and
    BackendUnavailable once retries are exhausted. The records are sorted by
    id, whatever the window.
    """
    instances = list(suite)
    done: dict[str, TranslationRecord] = {}
    resume = Path(resume_path) if resume_path else None
    if resume and resume.exists():
        _drop_torn_line(resume)
        for record in parse_translations(resume):
            if record.system_id == config.system_id and record.language is config.language:
                done[record.instance_id] = record

    pending = [instance for instance in instances if instance.id not in done]
    for instance in pending:  # checked before the first batch, so no backend starts on a suite it cannot frame
        if "\n" in instance.source_text or "\t" in instance.id or "\n" in instance.id:
            raise ProtocolViolation(f"instance {instance.id!r} cannot be framed on the line protocol")
    batches = [pending[i : i + config.batch_size] for i in range(0, len(pending), config.batch_size)]
    todo = iter(enumerate(batches))
    rng = random.Random()
    lock = threading.Lock()
    missing: list[str] = []
    errors: dict[int, BaseException] = {}

    def handle_batch(batch: list[TestInstance]) -> None:
        payload = _encode_batch(batch)
        reply = _with_retries(config, payload, sleep, rng)
        translations = _decode_reply(reply, {instance.id for instance in batch})
        records = [
            TranslationRecord(config.system_id, config.language, instance.id, translations[instance.id])
            for instance in batch
            if instance.id in translations
        ]
        with lock:
            # persist before any later batch gets the chance to fail the run
            if resume and records:
                _append_records(resume, records)
            done.update((record.instance_id, record) for record in records)
            missing.extend(instance.id for instance in batch if instance.id not in translations)

    def work() -> None:
        index = -1
        try:
            while True:
                with lock:
                    if errors:
                        return
                    index, batch = next(todo, (index, None))
                if batch is None:
                    return
                handle_batch(batch)
        except BaseException as exc:  # an interrupt too; the calling thread re-raises it
            with lock:
                errors[index] = exc

    # the calling thread is one of the workers, so a window of 1 starts no thread
    helpers = [threading.Thread(target=work) for _ in range(min(config.max_concurrent_batches, len(batches)) - 1)]
    for helper in helpers:
        helper.start()
    work()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[min(errors)]
    if missing:
        raise IncompleteBatch(sorted(missing))
    return sorted(done.values(), key=lambda record: record.instance_id)


def _append_records(path: Path, records: list[TranslationRecord]) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.writelines(translation_line(record) for record in records)
        # durable once the batch counts as done, so a crash loses at most the batches in flight
        fh.flush()
        os.fsync(fh.fileno())


def _drop_torn_line(path: Path) -> None:
    """Cut a last line that an interrupted append left without its newline.

    Its record is requested again, and later appends start on a fresh line.
    """
    with open(path, "rb+") as fh:
        data = fh.read()
        if data and not data.endswith(b"\n"):
            fh.truncate(data.rfind(b"\n") + 1)

"""Batch bridge between a generated suite and an external MT backend.

Two backends share one wire contract: each request is a block of
``id<TAB>source_text`` lines and each reply is a block of
``id<TAB>translation`` lines. Replies are paired by id, never by line order.
The command backend spawns the configured shell command once per batch; the
HTTP backend POSTs the block as UTF-8 ``text/plain`` through gnt's own HTTP/1.1
client, with TLS for ``https://`` and the proxy that urllib's settings name, and
reads the same shape back. A window of batches is in flight at once, and partial
progress can be persisted so an interrupted run resumes with only the missing ids.
"""

from __future__ import annotations

import binascii
import contextlib
import math
import os
import random
import threading
import time
import urllib.parse
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from .errors import BackendUnavailable, GntError, IncompleteBatch, ProtocolViolation
from .formats import parse_translations, translation_line
from .lexicon import Language
from .suite import TestInstance


class AdapterKind(Enum):
    __hash__ = object.__hash__  # members are singletons: hash by identity, in C

    EXTERNAL_COMMAND = "cmd"
    HTTP_ENDPOINT = "http"


# A batch amortises the fixed cost of one backend call. A process spawn costs about 100 ms, and seconds for a
# command that loads a model; a loopback POST costs about 1 ms, and larger http: batches were slower. `gnt translate`
# sizes a default cmd: batch from the suite's line count, one batch per window slot; the 1,024 here serves library
# callers of translate_suite, whose suite may have no known length.
_DEFAULT_BATCH_SIZE = {AdapterKind.EXTERNAL_COMMAND: 1024, AdapterKind.HTTP_ENDPOINT: 256}
# poll() takes at most 2**31 - 1 ms: a cmd: wait on a longer timeout raises OverflowError after the spawn
_MAX_TIMEOUT = 2_147_483


class _AdapterConfigFields(NamedTuple):
    kind: AdapterKind
    target: str
    language: Language
    system_id: str
    batch_size: int | None = None  # None: _DEFAULT_BATCH_SIZE[kind]
    timeout: float | None = None  # None: 60 s per 256 ids, and never less than 60 s
    max_retries: int = 2
    max_concurrent_batches: int = 2


class AdapterConfig(_AdapterConfigFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.batch_size is None:
            self = self._replace(batch_size=_DEFAULT_BATCH_SIZE[self.kind])
        if self.batch_size < 1:
            raise GntError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.timeout is None:
            # the same pace per id at every default batch size, and time for a slow start on a small batch
            self = self._replace(timeout=min(max(60.0, self.batch_size * 60 / 256), _MAX_TIMEOUT))
        if self.timeout <= 0:
            raise GntError(f"timeout must be positive, got {self.timeout}")
        if not self.timeout < math.inf:  # nan too: a wait on it raises deep in selectors or socket
            raise GntError(f"timeout must be finite, got {self.timeout}")
        if self.timeout > _MAX_TIMEOUT:
            raise GntError(f"timeout must be at most {_MAX_TIMEOUT} s, got {self.timeout}")
        if self.max_retries < 0:
            raise GntError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.max_concurrent_batches < 1:
            raise GntError(f"max_concurrent_batches must be >= 1, got {self.max_concurrent_batches}")
        return self

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
            if valid and not parts.hostname.isascii():
                parts.hostname.encode("idna")  # the form a name lookup and the Host header take
        except ValueError:  # a bad IPv6 address, a port that is no number in range, a host name idna cannot encode
            valid = False
        if not valid:
            raise GntError(f"adapter spec {spec!r} must be http:<url> with an http or https URL and a host")
        # urlsplit drops a tab or a line break silently, and the request line cannot carry the others as they are
        if any(ch <= " " or ch == "\x7f" for ch in url) or not (parts.path + parts.query).isascii():
            raise GntError(f"adapter spec {spec!r}: percent-encode each space, control character and non-ASCII "
                           "character in the URL's path and query (a space is %20)")
        if "@" in parts.netloc:
            raise GntError(f"adapter spec {spec!r}: credentials in the URL are not sent; set GNT_HTTP_TOKEN instead")
        _http_token()
        return cls(AdapterKind.HTTP_ENDPOINT, url, language, system_id, **kwargs)


def _decode_reply(reply: str, ids: list[str]) -> dict[str, str | None]:
    """Map each id of the batch, in batch order, to its translation, or to None where the reply skips it."""
    translations: dict[str, str | None] = dict.fromkeys(ids)
    start = 0
    while start < len(reply):
        # lines end at "\n" only: a translation may hold any other line break; one line at a time, so no list of
        # every line is held beside the reply
        end = reply.find("\n", start)
        if end < 0:
            end = len(reply)
        line = reply[start:end]
        start = end + 1
        if line.endswith("\r"):
            line = line[:-1]
        if not line.strip():
            continue
        if "\t" not in line:
            raise ProtocolViolation(f"reply line without tab separator: {line[:80]!r}")
        instance_id, text = line.split("\t", 1)
        if instance_id not in translations:
            raise ProtocolViolation(f"reply id {instance_id!r} was not part of the batch")
        if translations[instance_id] is not None:
            raise ProtocolViolation(f"reply id {instance_id!r} appears more than once")
        translations[instance_id] = text
    return translations


def _run_command(command: str, payload: bytes, timeout: float) -> str:
    # here, so that only a cmd: translate loads subprocess and signal (0.5 MB)
    import signal
    import subprocess

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
            stdout, stderr = process.communicate(payload, timeout=timeout)
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


def _http_token() -> str | None:
    """GNT_HTTP_TOKEN, or None when unset or empty. It is written into a header line, so a line break or another
    control character in it is an error before anything is sent."""
    token = os.environ.get("GNT_HTTP_TOKEN")
    if token and not all(" " <= ch <= "~" for ch in token):
        raise GntError("GNT_HTTP_TOKEN must hold printable ASCII only, with no line break or other control character")
    return token or None


def _proxy(parts: urllib.parse.SplitResult) -> urllib.parse.SplitResult | None:
    """The proxy that urllib's own reader names for this URL: the *_proxy variables, with no_proxy and the CGI rule,
    or on macOS and Windows the system settings."""
    # urllib takes a proxy from any non-empty <scheme>_proxy variable, in either case, and no_proxy only names
    # exceptions; it is loaded only where a proxy can apply, so a plain URL with none of them set loads socket alone
    if parts.scheme == "http" and not any(value and name.lower().endswith("_proxy") and name.lower() != "no_proxy"
                                          for name, value in os.environ.items()):
        return None
    import urllib.request

    proxy = urllib.request.getproxies().get(parts.scheme)
    if not proxy or urllib.request.proxy_bypass(parts.netloc):
        return None
    proxy_parts = urllib.parse.urlsplit(proxy if "://" in proxy else f"//{proxy}")  # as urllib, host:port alone too
    # gnt speaks neither TLS nor SOCKS to a proxy: an https: or socks5: proxy URL is refused, not sent plain text
    with contextlib.suppress(ValueError):  # a port that is no number in range
        if proxy_parts.scheme in ("", "http") and proxy_parts.hostname and proxy_parts.port != 0:
            return proxy_parts
    raise GntError(f"the {parts.scheme} proxy setting must be an http:// URL or host:port, with a host and, if any, a "
                   "port from 1 to 65535")


# the status line and the headers of a reply may take this many bytes, and so may a chunk's size line or the trailer
_MAX_HEAD = 65536


def _post(parts: urllib.parse.SplitResult, payload: bytes, timeout: float, token: str | None,
          proxy: urllib.parse.SplitResult | None) -> str:
    """POST one batch to an http(s) URL over a connection of its own, as HTTP/1.1 with `Connection: close`.

    Through a proxy, an http: URL is sent in absolute form and an https: one through a CONNECT tunnel, and the proxy's
    credentials reach the proxy alone. Connecting, the CONNECT, the TLS handshake, sending and every read share one
    deadline, so `timeout` bounds the whole exchange. The reply body is framed by Content-Length, by chunked encoding
    or by the close, and is returned as soon as it ends. A reply that breaks HTTP's framing raises BackendUnavailable,
    so it is retried as a failed connection is.
    """
    # socket is loaded on the first request (about 0.4 MB and 2 ms), and ssl (about 5 MB) only for https: URLs; the
    # import lock makes that first import safe from every thread
    import socket

    deadline = time.monotonic() + timeout
    host = parts.netloc.rpartition("@")[2]
    host = host if host.isascii() else host.encode("idna").decode("ascii")
    port = parts.port or (443 if parts.scheme == "https" else 80)
    tunnel = proxy is not None and parts.scheme == "https"
    # as urllib: a proxy without a port is reached on the backend scheme's default port
    address = (proxy.hostname, proxy.port or (443 if tunnel else 80)) if proxy else (parts.hostname, port)
    proxy_auth = ""
    if proxy is not None and proxy.username and proxy.password:  # as urllib: both, unquoted
        user_pass = f"{urllib.parse.unquote(proxy.username)}:{urllib.parse.unquote(proxy.password)}".encode()
        proxy_auth = f"Proxy-Authorization: Basic {binascii.b2a_base64(user_pass, newline=False).decode()}\r\n"
    head = (
        f"POST {'http://' + host if proxy and not tunnel else ''}{parts.path or '/'}{'?' if parts.query else ''}"
        f"{parts.query} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        "Accept-Encoding: identity\r\n"  # as urllib sends it: no compressed reply
        "Content-Type: text/plain; charset=utf-8\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n"
        + (f"Authorization: Bearer {token}\r\n" if token else "")
        + ("" if tunnel else proxy_auth)
        + "\r\n"
    )
    peer = "proxy" if proxy else "backend"  # the host that a fault is reported against
    try:
        with socket.create_connection(address, timeout) as sock:
            if tunnel:  # a 2xx reply to a CONNECT has no body
                sock.sendall(f"CONNECT {host if parts.port else f'{host}:{port}'} HTTP/1.0\r\n{proxy_auth}\r\n"
                             .encode())
                _read_head(_Reader(sock, deadline, peer))
            peer = "backend"
            if parts.scheme == "https":  # against the system's trust store, or SSL_CERT_FILE
                import ssl
                sock.settimeout(_time_left(deadline))
                sock = ssl.create_default_context().wrap_socket(sock, server_hostname=parts.hostname)
            with sock:  # the TLS socket, which has taken the connection over, or the plain one again
                sock.settimeout(_time_left(deadline))
                sock.sendall(head.encode("ascii") + payload)  # one send, so Nagle's algorithm holds back no second part
                body = _read_reply(_Reader(sock, deadline, peer))
    except TimeoutError as exc:
        raise _timed_out(peer, payload, timeout) from exc
    except OSError as exc:  # ssl.SSLError too, such as a certificate that does not verify
        raise BackendUnavailable(f"{peer} unreachable: {exc}") from exc
    return _decode_text(body)


def _time_left(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError
    return left


class _Reader:
    """The bytes of one reply from `peer`, received from a socket as they are asked for, each wait within a deadline."""

    __slots__ = ("_sock", "_deadline", "_buffer", "peer")

    def __init__(self, sock, deadline: float, peer: str):
        self._sock = sock
        self._deadline = deadline
        self._buffer = bytearray()
        self.peer = peer

    def malformed(self, detail: str) -> BackendUnavailable:
        return BackendUnavailable(f"malformed reply from {self.peer}: {detail}")

    def _receive(self) -> bool:
        """Append what the peer sends next; False once it has closed the connection."""
        self._sock.settimeout(_time_left(self._deadline))
        data = self._sock.recv(65536)
        self._buffer += data
        return bool(data)

    def line(self, limit: int) -> bytes:
        """The next line, without its line break (LF or CRLF), which must come within `limit` bytes."""
        while (end := self._buffer.find(b"\n", 0, limit)) < 0:
            if len(self._buffer) >= limit:
                raise self.malformed(f"the header or a chunk-size line runs past {_MAX_HEAD} bytes")
            if not self._receive():
                raise self.malformed(f"the {self.peer} closed the connection before the reply ended")
        line = bytes(self._buffer[:end])
        del self._buffer[: end + 1]
        return line[:-1] if line.endswith(b"\r") else line

    def read(self, size: int) -> bytearray:
        while len(self._buffer) < size:
            if not self._receive():
                raise self.malformed(f"the body ended after {len(self._buffer)} of {size} bytes")
        data = self._buffer[:size]
        del self._buffer[:size]
        return data

    def rest(self) -> bytearray:
        """Everything until the peer closes the connection."""
        while self._receive():
            pass
        return self._buffer


def _read_head(reader: _Reader) -> tuple[int, dict[bytes, bytes]]:
    """The status code and the header fields of a 2xx reply; any other status raises BackendUnavailable naming it."""
    code = 100
    while 100 <= code < 200:  # an interim reply, such as 100 Continue, precedes the final one
        status = reader.line(_MAX_HEAD)
        version, _, rest = status.partition(b" ")
        digits, _, reason = rest.partition(b" ")
        if not version.startswith(b"HTTP/") or len(digits) != 3 or not digits.isdigit():
            raise reader.malformed(f"status line {status[:80]!r}")
        code = int(digits)
        headers = _read_fields(reader, _MAX_HEAD - len(status))
    if not 200 <= code < 300:  # a redirect too: it is not followed
        raise BackendUnavailable(f"HTTP {code} from {reader.peer}: {reason.strip().decode('latin-1')}")
    return code, headers


def _read_reply(reader: _Reader) -> bytes | bytearray:
    """The body of a 2xx reply from the backend."""
    code, headers = _read_head(reader)
    if code == 204:
        return b""
    encoding = headers.get(b"transfer-encoding")
    if encoding is not None:  # it overrides Content-Length
        return _read_chunked(reader) if encoding.rpartition(b",")[2].strip().lower() == b"chunked" else reader.rest()
    length = headers.get(b"content-length")
    if length is None:
        return reader.rest()
    lengths = {value.strip() for value in length.split(b",")}  # a repeated header is one list
    if len(lengths) != 1 or not (size := lengths.pop()).isdigit() or len(size) > 18:
        raise reader.malformed(f"Content-Length {length[:80]!r}")
    return reader.read(int(size))


def _read_fields(reader: _Reader, limit: int) -> dict[bytes, bytes]:
    """Header or trailer fields up to the blank line that ends them, together at most `limit` bytes, by lower-case
    name; the values of a repeated name are joined by commas."""
    fields: dict[bytes, bytes] = {}
    while line := reader.line(limit):
        limit -= len(line) + 1
        name, colon, value = line.partition(b":")
        if colon:
            name = name.strip().lower()
            fields[name] = fields[name] + b"," + value.strip() if name in fields else value.strip()
    return fields


def _read_chunked(reader: _Reader) -> bytearray:
    body = bytearray()
    while True:
        line = reader.line(_MAX_HEAD)
        digits = line.partition(b";")[0].strip()  # a chunk extension is ignored
        if not digits or len(digits) > 16 or digits.strip(b"0123456789abcdefABCDEF"):
            raise reader.malformed(f"chunk size {line[:80]!r}")
        size = int(digits, 16)
        if not size:  # the last chunk, then the trailer
            _read_fields(reader, _MAX_HEAD)
            return body
        body += reader.read(size)
        if reader.read(2) != b"\r\n":
            raise reader.malformed("a chunk does not end where its size says")


def _timed_out(what: str, payload: bytes, timeout: float) -> BackendUnavailable:
    ids = payload.count(b"\n")  # one line per id
    return BackendUnavailable(
        f"{what} timed out after {timeout}s on a batch of {ids} id(s); raise --timeout or lower --batch-size"
    )


def _decode_text(reply: bytes) -> str:
    try:
        return reply.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolViolation(f"reply is not UTF-8 ({exc.reason} at byte {exc.start})") from None


def _call_backend(config: AdapterConfig, payload: bytes) -> str:
    if config.kind is AdapterKind.EXTERNAL_COMMAND:
        return _run_command(config.target, payload, config.timeout)
    parts = urllib.parse.urlsplit(config.target)
    return _post(parts, payload, config.timeout, _http_token(), _proxy(parts))


def _with_retries(config: AdapterConfig, payload: bytes, sleep: Callable[[float], None], rng: random.Random) -> str:
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
) -> dict[str, str]:
    """Collect each instance's translation from the configured backend, as an id -> text map in id order.

    The suite is read as batches are needed: up to
    `config.max_concurrent_batches` batches are in flight at once, the calling
    thread and that many less one helper threads each reading the next batch
    in turn and sending it, so reading a lazy suite overlaps the batches
    already sent. A batch in flight holds only its ids and its UTF-8 payload,
    so each instance is released once it is encoded. Each batch is checked
    before it is sent: an instance that cannot be framed on the line protocol
    raises ProtocolViolation, and an error the suite raises while a batch is
    read counts as that batch's failure. After the first failure no new batch
    starts, not even one that was being read when it occurred; batches in
    flight finish, and the error of the lowest-numbered failed batch is
    raised. When `resume_path` is given, each batch's translations are
    appended there as it completes, in completion order, and a rerun only
    requests the ids that the file lacks for this system and language. Raises
    IncompleteBatch when a reply skips ids, ProtocolViolation on malformed or
    foreign reply lines, and BackendUnavailable once retries are exhausted.
    The map is in id order, whatever the window. The suite's iterator is
    closed on every exit, so a suite read from a file leaves no file open.
    """
    if config.kind is AdapterKind.EXTERNAL_COMMAND:
        # imported before any batch thread starts: imported by the first batch, beside a thread reading the suite, a
        # full-scale cmd: translate peaked in its higher mode (+0.5 MB) in 42 of 60 runs instead of 18
        import subprocess  # noqa: F401  (_run_command imports it where it is used)
    instances = iter(suite)
    # one lock for pulling from the suite, one for the results, so a batch whose reply has arrived
    # persists its translations while another thread reads the next batch
    read_lock = threading.Lock()
    done_lock = threading.Lock()
    try:
        key = (config.system_id, config.language)
        done: dict[str, str] = {}
        resume = Path(resume_path) if resume_path else None
        if resume and resume.exists():
            _drop_torn_line(resume)
            # only this group's texts are kept: a .partial shared with other systems or languages holds theirs too
            done = parse_translations(resume, system=config.system_id, language=config.language).get(key, done)
        resumed = set(done)

        def batches():
            # a batch in flight holds its ids and its payload, not its instances; the payload is built as the
            # UTF-8 bytes that are sent, once, and handed out without a copy
            ids: list[str] = []
            payload = bytearray()
            for instance in instances:
                if instance.id in resumed:
                    continue
                if "\n" in instance.source_text or "\t" in instance.id or "\n" in instance.id:
                    error = ProtocolViolation(f"instance {instance.id!r} cannot be framed on the line protocol")
                    if hasattr(instances, "throw"):  # a reader such as iter_suite names the instance's line
                        instances.throw(error)
                    raise error
                ids.append(instance.id)
                payload += f"{instance.id}\t{instance.source_text}\n".encode("utf-8")
                if len(ids) == config.batch_size:
                    yield ids, payload
                    ids, payload = [], bytearray()
            if ids:
                yield ids, payload

        todo = batches()
        started = 0  # batches handed out; a read or framing error fails the next one
        rng = random.Random()
        missing: list[str] = []
        errors: dict[int, BaseException] = {}  # written under done_lock

        def work() -> None:
            nonlocal started
            index = -1
            try:
                while True:
                    with read_lock:
                        if errors:
                            return
                        index = started
                        ids, payload = next(todo, (None, None))
                        if ids is None or errors:  # a batch failed while this one was read
                            return
                        started += 1
                    reply = _with_retries(config, payload, sleep, rng)
                    del payload  # drop the payload and the reply once each is used
                    # the batch's own id strings stay the keys, so the reply's copies of them are released
                    translations = _decode_reply(reply, ids)
                    del reply, ids
                    texts = {instance_id: text for instance_id, text in translations.items() if text is not None}
                    with done_lock:
                        # persist before any later batch gets the chance to fail the run
                        if resume and texts:
                            _append_records(resume, key, texts)
                        done.update(texts)
                        missing.extend(instance_id for instance_id, text in translations.items() if text is None)
            except BaseException as exc:  # an interrupt too; the calling thread re-raises it
                with done_lock:
                    errors[index] = exc

        # the calling thread is one of the workers, so a window of 1 starts no thread
        helpers = [threading.Thread(target=work) for _ in range(config.max_concurrent_batches - 1)]
        for helper in helpers:
            helper.start()
        work()
        for helper in helpers:
            helper.join()
        if errors:
            raise errors[min(errors)]
        if missing:
            raise IncompleteBatch(sorted(missing))
        return {instance_id: done[instance_id] for instance_id in sorted(done)}
    finally:
        if hasattr(instances, "close"):
            with read_lock:  # a helper that outlived an interrupt may be reading
                instances.close()


def _append_records(path: Path, key: tuple[str, Language], texts: dict[str, str]) -> None:
    system, language = key
    with open(path, "a", encoding="utf-8") as fh:
        fh.writelines(translation_line(system, language, instance_id, text) for instance_id, text in texts.items())
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

"""Chat-completion client: live HTTP backend, scripted mock, on-disk cache.

This is the only module that performs network I/O or starts threads.  Responses
are cached by a stable hash of (model_id, temperature, system_text, user_text),
plus the script's sha256 for the mock, in one append-only file per cache
directory; entries store the full request next to the response so a run can be
audited later, and nothing is ever evicted automatically.
"""
from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
import random
import re
import threading
import time
import urllib.parse
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from .corpus import read_json
from .errors import (BackendResponseError, CorpusFormatError, EmptyCompletion, MockScriptMiss,
                     TransportExhausted)

log = logging.getLogger(__name__)

BACKENDS = ("live", "mock")

# Provenance's name for a temperature of None: none is sent, the backend's default is used.
BACKEND_DEFAULT = "backend-default"

# The longest wait that a Retry-After answer can impose before a retry.
RETRY_AFTER_MAX_S = 60.0


@dataclass(frozen=True)
class JudgeRequest:
    """The prompt of one completion; the judge's config sets its temperature."""

    system_text: str
    user_text: str
    pieces: tuple[str, ...] = field(default=(), compare=False, repr=False)

    @classmethod
    def render(
        cls, system_text: str, sections: Iterable[tuple[str, str]],
    ) -> "JudgeRequest":
        """A request whose user text is the `### name` sections, blank-line separated, in pieces."""
        pieces: list[str] = []
        for name, body in sections:
            pieces += (f"\n\n### {name}\n" if pieces else f"### {name}\n", body)
        return cls(system_text, "".join(pieces), tuple(pieces))


@dataclass(frozen=True)
class JudgeResponse:
    text: str
    cached: bool


@dataclass
class JudgeConfig:
    backend: str = "mock"
    model_id: str = "mock-judge"
    endpoint: str = ""
    api_key_env: str = "JUDGE_API_KEY"
    script_path: Path | str | None = None
    temperature: float | None = 0.0
    max_retries: int = 3
    timeout: float = 60.0
    cache_dir: Path | str | None = None
    concurrency_limit: int = 4

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.concurrency_limit < 1:
            raise ValueError("concurrency_limit must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.cache_dir is None:
            raise ValueError("cache_dir is required: every judge keeps a completion cache")


@functools.lru_cache(maxsize=1024)
def _escaped(piece: str) -> bytes:
    """`piece` JSON-escaped, unquoted, in UTF-8; the escape of a join is the join of the escapes."""
    return encode_basestring(piece)[1:-1].encode("utf-8")


def cache_key(model_id: str, temperature: float | None, system_json: bytes, user_json: bytes,
              script: str | None = None) -> str:
    """A completion's stable sha256, over its sorted-key `json.dumps(..., ensure_ascii=False)` payload:
    the texts, as UTF-8 JSON strings, the temperature always, and a mock `script`'s sha256."""
    script_field = b"" if script is None else b'"script": "%s", ' % _escaped(script)
    temperature_text = "default" if temperature is None else repr(float(temperature))
    digest = hashlib.sha256(b'{"model": "%s", %s"system": %s, "temperature": "%s", "user": ' % (
        _escaped(model_id), script_field, system_json, _escaped(temperature_text)))
    digest.update(user_json)
    digest.update(b"}")
    return digest.hexdigest()


def prompt_hash(system_text: str, user_text: str) -> str:
    """Model-independent hash used by mock script "hash" rules."""
    return hashlib.sha256(f"{system_text}\n\n{user_text}".encode("utf-8")).hexdigest()


class MockScript:
    """Ordered pattern rules mapping prompts to canned responses.

    Script file shape:
        {"rules": [{"contains": "...", "regex": "...", "hash": "...",
                    "response": "..."}, ...],
         "default": "..."}

    A rule matches when every condition it carries holds ("contains" may be a
    list, all substrings required).  Rules are tried in order; the optional
    default answers anything unmatched.  A prompt's search tests each needle at
    most once, and an absent needle rules out every rule that needs it.
    """

    def __init__(self, rules: list[dict], default: str | None = None, digest: str | None = None,
                 where: str = "mock script"):
        if not isinstance(rules, list):
            raise CorpusFormatError(f"{where}: rules must be a list")
        if default is not None and not isinstance(default, str):
            raise CorpusFormatError(f"{where}: default must be a string")
        # per rule: its substrings, compiled regex, prompt hash (None where absent), response
        self._rules: list[tuple[list[str] | None, re.Pattern | None, str | None, str]] = []
        for i, rule in enumerate(rules):
            if not isinstance(rule, dict) or not isinstance(rule.get("response"), str):
                raise CorpusFormatError(f"{where}: rule {i}: response must be a string")
            if not any(k in rule for k in ("contains", "regex", "hash")):
                raise CorpusFormatError(f"{where}: rule {i}: needs contains, regex, or hash")
            needles = rule.get("contains")
            needles = [needles] if isinstance(needles, str) else needles
            if "contains" in rule and not (
                    isinstance(needles, list) and all(isinstance(n, str) for n in needles)):
                raise CorpusFormatError(
                    f"{where}: rule {i}: contains must be a string or a list of strings")
            if "hash" in rule and not isinstance(rule["hash"], str):
                raise CorpusFormatError(f"{where}: rule {i}: hash must be a string")
            try:
                pattern = re.compile(rule["regex"]) if "regex" in rule else None
            except (re.error, TypeError) as exc:
                raise CorpusFormatError(f"{where}: rule {i}: bad regex ({exc})") from None
            self._rules.append((needles, pattern, rule.get("hash"), rule["response"]))
        self.default = default
        self.digest = digest  # sha256 of the script file

    @classmethod
    def load(cls, path: Path | str) -> "MockScript":
        raw = Path(path).read_bytes()  # the rules and the digest come from the same bytes
        data = read_json(path, raw)
        return cls(rules=data.get("rules", []), default=data.get("default"),
                   digest=hashlib.sha256(raw).hexdigest(), where=str(path))

    @functools.cached_property
    def _walk(self) -> tuple:
        """Per rule: its distinct needles, most shared first, each with the mask of rules it spares."""
        needed_by: dict[str, int] = {}
        for i, (needles, *_) in enumerate(self._rules):
            for needle in needles or ():
                needed_by[needle] = needed_by.get(needle, 0) | 1 << i
        return tuple((tuple((n, ~needed_by[n]) for n in sorted(
            dict.fromkeys(needles or ()), key=lambda n: -needed_by[n].bit_count())), *rest)
            for needles, *rest in self._rules)

    def respond(self, system_text: str, user_text: str) -> str:
        combined = f"{system_text}\n\n{user_text}"
        live, present, hashed = (1 << len(self._rules)) - 1, set(), None
        while live:  # the lowest live position is the first live rule in script order
            needles, pattern, digest, response = self._walk[(live & -live).bit_length() - 1]
            for needle, keep in needles:
                if needle not in present:
                    if needle not in combined:
                        live &= keep  # out go all the rules that need this needle
                        break
                    present.add(needle)
            else:
                if (pattern is None or pattern.search(combined)) and (digest is None or digest == (
                        hashed := hashed or prompt_hash(system_text, user_text))):
                    return response
                live &= live - 1
        if self.default is not None:
            return self.default
        raise MockScriptMiss(
            f"no mock rule matches prompt (hash {prompt_hash(system_text, user_text)[:16]}...)"
        )


class CompletionLog:
    """`completions.jsonl`: lines of a 64-hex key, a tab and the entry JSON,
    only ever appended.  An index maps each key to the offset and length of its
    last entry.  A torn last line is skipped, and ended before the next append.
    Callers serialize `refresh` and `put`; `read` and `get` need no lock."""

    NAME = "completions.jsonl"

    def __init__(self, directory: Path | str):
        Path(directory).mkdir(parents=True, exist_ok=True)
        self._file = open(Path(directory) / self.NAME, "ab+", buffering=0,
                          opener=lambda path, flags: os.open(path, flags, 0o600))
        weakref.finalize(self, self._file.close)  # the file lives as long as the log
        self._index: dict[str, tuple[int, int]] = {}
        self._end, self._torn = 0, False  # indexed up to _end; torn bytes after it?
        self.refresh()

    def refresh(self) -> None:
        """Index the whole lines appended since the last look, by anyone."""
        if os.fstat(self._file.fileno()).st_size == self._end:
            return
        self._torn = False
        with open(self._file.fileno(), "rb", buffering=1 << 16, closefd=False) as lines:
            lines.seek(self._end)
            for line in lines:
                if not line.endswith(b"\n"):
                    self._torn = True
                    break
                if line[64:65] == b"\t":
                    self._index[line[:64].decode("latin-1")] = (self._end + 65, len(line) - 66)
                self._end += len(line)

    def keys(self) -> list[str]:
        return list(self._index)

    def read(self, key: str) -> bytes | None:
        at = self._index.get(key)
        return None if at is None else os.pread(self._file.fileno(), at[1], at[0])

    def get(self, key: str) -> Any:
        """The last entry for `key`, or None; ValueError if it does not parse."""
        body = self.read(key)
        return None if body is None else json.loads(body)

    def put(self, key: str, body: bytes) -> None:
        """Append `key` and `body`, an entry's UTF-8 JSON, as one line with a single write()."""
        line = b"%s%s\t%s\n" % (b"\n" if self._torn else b"", key.encode("ascii"), body)
        self._torn = False
        self._file.write(line)
        end = self._file.tell()
        self._index[key] = (end - 1 - len(body), len(body))
        if end - len(line) == self._end:  # nobody else appended since the last look
            self._end = end


def _connect(url: urllib.parse.SplitResult, timeout: float) -> tuple[Any, str, dict[str, str]]:
    """A new, unopened connection for the endpoint `url`, with the request target and
    extra headers to send on it, through the proxy that urllib would pick for it."""
    import base64  # only the live transport needs these
    import http.client
    import ssl
    import urllib.request

    host, port, tls = url.hostname, url.port, url.scheme == "https"
    target = (url.path or "/") + (f"?{url.query}" if url.query else "")
    headers: dict[str, str] = {}
    proxy = urllib.request.getproxies().get(url.scheme)
    if proxy and urllib.request.proxy_bypass(url.netloc):
        proxy = None
    if proxy:
        via = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
        host, port = via.hostname, via.port
        if via.username and via.password:
            user = f"{urllib.parse.unquote(via.username)}:{urllib.parse.unquote(via.password)}"
            headers["Proxy-Authorization"] = "Basic " + base64.b64encode(user.encode()).decode()
        if not tls:  # the proxy gets the absolute URI
            tls, target = via.scheme == "https", url._replace(fragment="").geturl()
    if tls:
        conn = http.client.HTTPSConnection(host, port, timeout=timeout,
                                           context=ssl.create_default_context())
    else:
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
    if proxy and url.scheme == "https":  # a CONNECT tunnel through the proxy, TLS end to end
        conn.set_tunnel(url.hostname, url.port, headers=headers)
        headers = {}
    return conn, target, headers


def _close_all(idle: list) -> None:
    for conn, *_ in idle:
        conn.close()


class Judge:
    """Thread-safe completion client that always caches; share one instance across workers."""

    def __init__(self, config: JudgeConfig):
        self.config = config
        self._stats = {"backend_calls": 0, "cache_hits": 0}
        self._lock = threading.Lock()
        self._flights: set[str] = set()  # the keys whose one backend call runs
        self._landed = threading.Condition(self._lock)  # notified as each of those calls ends
        self._temperature_json = json.dumps(config.temperature).encode("ascii")
        self._script: MockScript | None = None
        if config.backend == "mock":
            if config.script_path is None:
                raise ValueError("mock backend requires script_path")
            self._script = MockScript.load(config.script_path)
        else:  # the endpoint is checked once, before any item runs
            self._url = url = urllib.parse.urlsplit(config.endpoint)
            if url.scheme not in ("http", "https") or not url.hostname:
                raise ValueError(f"endpoint must be an http or https URL, got {config.endpoint!r}")
            if url.port == 0:  # and ValueError for a port that is not a number in [0, 65535]
                raise ValueError("endpoint port must be from 1 to 65535, got 0")
        self._log = CompletionLog(config.cache_dir)
        # idle kept-alive (connection, target, headers); at most one per thread of `map`
        self._idle: list[tuple[Any, str, dict[str, str]]] = []
        weakref.finalize(self, _close_all, self._idle)  # they live as long as the judge

    def map(self, work: Callable[[Any], Any], items: Sequence) -> list:
        """`work(item)` for every item, once, with outcomes in input order.

        A mock judge runs the items one by one in the calling thread.  A live
        judge runs them on a pool of `concurrency_limit` threads, the only limit
        on how many calls wait on the backend at once, over at most that many
        kept-alive connections, which later calls of `map` reuse.
        """
        if self._script is not None:
            return [work(item) for item in items]
        pool = ThreadPoolExecutor(max_workers=self.config.concurrency_limit)
        try:
            return list(pool.map(work, items))
        finally:
            pool.shutdown(cancel_futures=True)

    @property
    def stats(self) -> dict[str, int]:
        with self._lock:
            return dict(self._stats)

    def complete(self, request: JudgeRequest) -> JudgeResponse:
        """The completion for `request`, from the cache or else the backend.

        Single flight: while one thread calls the backend for a cache key,
        other threads that miss the same key wait for it and then read its
        answer from the cache, as a hit.  If it failed, one of them calls the
        backend in turn.  The temperature is the config's, None sending none.
        """
        system_json = b'"%s"' % _escaped(request.system_text)
        user_json = b'"%s"' % b"".join(map(_escaped, request.pieces or (request.user_text,)))
        key = cache_key(self.config.model_id, self.config.temperature, system_json, user_json,
                        self._script.digest if self._script is not None else None)
        flying = False
        try:
            while True:
                cached_text = self._cache_read(key)
                if cached_text is not None:
                    with self._lock:
                        self._stats["cache_hits"] += 1
                    return JudgeResponse(text=cached_text, cached=True)
                # a new flight reads the cache once more after it is registered: a flight
                # that ended just before has written its answer, other processes theirs
                if flying:
                    break
                with self._lock:
                    if key in self._flights:
                        self._landed.wait_for(lambda: key not in self._flights)
                    else:
                        self._flights.add(key)
                        flying = True
                        self._log.refresh()

            if self._script is not None:
                text = self._script.respond(request.system_text, request.user_text)
            else:
                text = self._live_complete(request.system_text, request.user_text)
            with self._lock:
                self._stats["backend_calls"] += 1
            if not text.strip():
                raise EmptyCompletion("backend returned an empty completion")

            self._cache_write(key, system_json, user_json, text)
            return JudgeResponse(text=text, cached=False)
        finally:
            if flying:
                with self._lock:
                    self._flights.remove(key)
                    self._landed.notify_all()

    # -- cache --

    def _cache_read(self, key: str) -> str | None:
        """The text of `key`'s entry, whose part from the last `, "response": ` on (no JSON string
        holds `, "`), else the whole entry, must be what `_cache_write` writes for it."""
        try:
            body = self._log.read(key)
            if body is None:
                return None
            tail = body[body.rfind(b', "response": ') + 2:].decode("utf-8")
            text = json.decoder.scanstring(tail, 22)[0]  # from after `"response": {"text": "`
            if tail == '"response": {"text": %s}}' % encode_basestring(text):
                return text
        except (ValueError, OSError):
            pass
        log.warning("unreadable cache entry %s, treating as miss", key)
        return None

    def _cache_write(self, key: str, system_json: bytes, user_json: bytes, text: str) -> None:
        """Append the entry as `json.dumps(entry, ensure_ascii=False, sort_keys=True)` would."""
        body = (b'{"request": {"model_id": "%s", "system_text": %s, "temperature": %s, '
                b'"user_text": %s}, "response": {"text": %s}}' % (
                    _escaped(self.config.model_id), system_json, self._temperature_json, user_json,
                    encode_basestring(text).encode("utf-8")))
        with self._lock:
            self._log.put(key, body)

    # -- live transport --

    def _post(self, payload: dict[str, Any]) -> str:
        """Single HTTP attempt against a chat-completions endpoint, on an idle
        kept-alive connection or else a new one.  A reused connection that the
        server has closed is replaced once, silently: that is not a retry.
        Raises ConnectionError or TimeoutError when no answer came,
        BackendResponseError for a status other than 2xx (redirects are not
        followed, so Authorization stays with the endpoint) or a malformed body."""
        import http.client  # only the live transport needs these
        import socket

        api_key = os.environ.get(self.config.api_key_env, "")
        headers = {"Content-Type": "application/json"}
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        body = json.dumps(payload).encode()
        reused = True
        while True:
            with self._lock:
                idle = self._idle.pop() if reused and self._idle else None
            reused = idle is not None
            conn, target, extra = idle or _connect(self._url, self.config.timeout)
            try:
                try:
                    conn.request("POST", target, body, {**headers, **extra})
                    # a server that sends headers and body apart with Nagle on would
                    # otherwise wait for this side's delayed ACK, about 40 ms
                    if hasattr(socket, "TCP_QUICKACK"):
                        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
                    resp = conn.getresponse()
                except (http.client.RemoteDisconnected, BrokenPipeError, ConnectionResetError):
                    if not reused:
                        raise
                    conn.close()  # closed by the server while idle
                    reused = False
                    continue
                data = resp.read()
            except TimeoutError:
                conn.close()
                raise
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                raise ConnectionError(repr(exc)) from exc
            break
        if resp.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.append((conn, target, extra))
        if not 200 <= resp.status < 300:
            retry_after = (resp.getheader("Retry-After") or "").strip()
            delay = float(retry_after) if retry_after.isascii() and retry_after.isdigit() else None
            raise BackendResponseError(resp.status, resp.reason or "", delay)
        try:
            content = json.loads(data)["choices"][0]["message"]["content"]
            if isinstance(content, str):  # a lone surrogate escape decodes, but no cache line holds it
                content.encode("utf-8")
        except (ValueError, LookupError, TypeError) as exc:
            raise BackendResponseError(resp.status, f"malformed body ({exc!r})") from exc
        if not isinstance(content, str):  # null on a refusal or a tool call
            raise BackendResponseError(resp.status, f"malformed body (content {content!r:.80})")
        return content

    def _sleep(self, seconds: float) -> None:
        time.sleep(seconds)

    def _live_complete(self, system_text: str, user_text: str) -> str:
        """Retries connection errors, timeouts, 429 and 5xx; fails at once on
        anything else.  The backoff is full jitter, a uniform draw from
        [0, 2 ** attempt) seconds (Brooker 2015), or the answer's Retry-After up
        to RETRY_AFTER_MAX_S."""
        messages = [{"role": "system", "content": system_text}, {"role": "user", "content": user_text}]
        payload: dict[str, Any] = {"model": self.config.model_id, "messages": messages}
        if self.config.temperature is not None:
            payload["temperature"] = self.config.temperature
        attempts = self.config.max_retries + 1
        for attempt in range(attempts):
            delay = None
            try:
                return self._post(payload)
            except BackendResponseError as exc:
                if not exc.transient:
                    raise
                if exc.retry_after is not None:
                    delay = min(exc.retry_after, RETRY_AFTER_MAX_S)
                last_error: Exception = exc
            except (ConnectionError, TimeoutError) as exc:
                last_error = exc
            except Exception as exc:
                raise TransportExhausted(f"not retried: {exc!r}") from exc
            if attempt < attempts - 1:
                if delay is None:
                    delay = random.uniform(0, 2 ** attempt)
                log.warning("judge attempt %d/%d failed (%r), retrying in %.1fs",
                            attempt + 1, attempts, last_error, delay)
                self._sleep(delay)
        raise TransportExhausted(f"gave up after {attempts} attempts: {last_error!r}")

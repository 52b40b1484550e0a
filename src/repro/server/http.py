"""The asyncio HTTP front end: ``Response.to_dict()`` over the wire.

Endpoints (all JSON; see ``docs/http.md`` for shapes and curl examples;
``docs/streaming.md`` for the subscription stream):

========  =====================  ===========================================
method    path                   body / behaviour
========  =====================  ===========================================
POST      /v1/ask                ``{"question", "session"?, "clarify"?,
                                 "domain"?, "limit"?, "cursor"?}`` -> envelope
POST      /v1/ask_many           ``{"questions": [...], ...}`` -> ``{"responses"}``
POST      /v1/resolve            ``{"clarification_id", "choice"}`` -> envelope
POST      /v1/sql                ``{"sql", "limit"?, "cursor"?}``
                                 -> ``{"columns", "rows", ...}``
GET       /v1/subscribe?...      standing subscription: a chunked stream of
                                 JSON answer frames
GET       /v1/stats              service + http counters
GET       /v1/healthz            liveness probe
any       /v1/d/<domain>/<ep>    the same endpoints, scoped to one domain
========  =====================  ===========================================

The API is mounted under the ``/v1`` version prefix and nowhere else:
a path outside it (``/ask``, ``/d/geography/ask``, …) is a 404
``unknown_endpoint`` whose message names the ``/v1`` spelling.

Status mapping follows the CLI's 0/2/3 exit-code convention:
``ANSWERED`` -> 200, ``AMBIGUOUS`` / ``NEEDS_CLARIFICATION`` -> 409 (the
request needs another round trip to complete), ``FAILED`` -> 422, and a
rate-limited envelope -> 429 with a ``Retry-After`` header.  Transport
problems use transport codes: malformed JSON or a missing field is 400,
an unknown clarification id (or domain) 404, an unknown path 404, a
wrong method 405, an oversized body 413, a degraded cluster 503 — all
with one uniform body shape::

    {"error": {"code": "...", "message": "...", "retry_after_s": null}}

(``retry_after_s`` is a number on 429/503 responses that also carry a
``Retry-After`` header).  Envelope outcomes (409/422/429 *asks*) keep
the full ``Response.to_dict()`` body — they are answers, not transport
failures.

**Pagination.**  ``/sql`` and ``/ask`` accept ``limit`` (page size) and
``cursor`` (the ``next_cursor`` token from the previous page).  The
token is stable: it encodes the page offset plus a digest of the query
identity, so replaying it against a different statement is a 400 rather
than silently wrong rows.  Without ``limit``/``cursor`` the body is
byte-identical to the unpaginated behaviour.

**Backends.**  The server is split from what answers it: every handler
talks to a *backend* — either :class:`ServiceBackend` (one or more
in-process :class:`~repro.service.service.NliService`, the classic
single-process mode) or the cluster router
(:class:`repro.cluster.router.ClusterRouter`, a pool of forked worker
processes).  The protocol is envelope *dicts* (already serializable), so
the HTTP layer cannot tell local from routed.  A backend raises
:class:`ApiError` for transport-shaped failures and exposes::

    default_domain                       -> str
    domains()                            -> list[str]
    has_session(domain, sid)             -> bool        (sync, rate keys)
    check_limit(domain, key, tokens=1)   -> float       (sync, cache hits)
    data_stamp(domain)                   -> hashable    (sync, cache keys)
    await ask(domain, q, sid, clarify, client)        -> envelope dict
    await ask_many(domain, qs, sid, clarify, client)  -> [envelope, ...]
    await resolve(domain, clar_id, choice, client)    -> envelope dict
    await execute(domain, sql)           -> {"columns", "rows"}
    await subscribe(domain, q, sid, client, queue_frames) -> stream
    await stats(domain | None)           -> dict (server adds "http")
    await healthz()                      -> (code, payload, headers)
    await aclose()

A *stream* (returned by ``subscribe``) exposes ``id`` / ``question`` /
``tables`` attributes plus ``await next_frame(timeout)`` (``None`` on
timeout — the heartbeat tick) and ``await aclose()``.

**Multi-domain.**  One server hosts many databases: route by path
prefix (``/v1/d/geography/ask``) or by a ``"domain"`` body field; paths
without a domain prefix hit the default domain, so the single-domain API
is unchanged.
Layered on top is an optional **per-domain rate limiter**: a token
bucket per domain, charged *before* the per-client bucket and refunded
if the per-client check rejects — all-or-nothing, so one hot domain
cannot starve the rest and a denied request consumes no budget anywhere.

Concurrency: the event loop only parses requests and writes responses;
every service call runs on the backend's worker pool (threads
in-process, forked processes in cluster mode), so concurrent HTTP
askers become concurrent MVCC snapshot readers — each pinned to a
consistent database version, never queued behind a DML writer — while
the loop stays responsive (see ``docs/concurrency.md``).

One server-side optimization rides here: a **response cache** for
session-less ``/ask`` requests.  Those are pure reads — no dialogue
state, no parked interpretations — so the serialized envelope bytes are
cached keyed by (domain, question, clarify, ``data_stamp(domain)``) and
served without touching the pipeline.  Anything stateful (sessions,
AMBIGUOUS responses, rate-limited envelopes) bypasses the cache, and a
DML commit anywhere moves the stamp, so a cached answer can never be
served across data versions.  The rate limiters are still charged on
cache hits, so cached traffic cannot dodge their budget.
"""

from __future__ import annotations

import asyncio
import base64
import binascii
import hashlib
import json
import math
import threading
import urllib.parse
from typing import Any, Awaitable, Callable

from repro.errors import ClarificationError, EngineError, ReproError
from repro.service.ratelimit import RateLimiter
from repro.service.response import Response, Status
from repro.service.service import NliService
from repro.service.subscriptions import (
    DEFAULT_QUEUE_FRAMES,
    MAX_QUEUE_FRAMES,
    Subscription,
    SubscriptionFailed,
)
from repro.sqlengine.plancache import LruCache

__all__ = [
    "ApiError",
    "NliHttpServer",
    "ServerHandle",
    "ServiceBackend",
    "envelope_http_code",
    "response_http_code",
    "serve_in_thread",
]

#: ``Response.status`` -> HTTP code (the CLI's 0/2/3 convention).
STATUS_HTTP = {
    Status.ANSWERED: 200,
    Status.AMBIGUOUS: 409,
    Status.NEEDS_CLARIFICATION: 409,
    Status.FAILED: 422,
}

MAX_BODY_BYTES = 1 << 20
MAX_HEADER_LINES = 100

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def response_http_code(response: Response) -> int:
    """Map one envelope to its HTTP status code."""
    if response.is_rate_limited:
        return 429
    return STATUS_HTTP[response.status]


def envelope_http_code(payload: dict[str, Any]) -> int:
    """The same mapping for an already-serialized envelope dict (the
    backend protocol ships dicts, not Response objects)."""
    if payload.get("retry_after_s") is not None:
        return 429
    return STATUS_HTTP[Status(payload["status"])]


class ApiError(Exception):
    """A transport-level problem, rendered as the uniform error envelope
    ``{"error": {"code", "message", "retry_after_s"}}`` (the same shape
    for every 4xx/5xx transport failure)."""

    def __init__(
        self,
        http_code: int,
        message: str,
        code: str = "bad_request",
        retry_after_s: float | None = None,
    ):
        super().__init__(message)
        self.http_code = http_code
        self.headers: dict[str, str] = {}
        self.payload = _error_envelope(code, message)
        if retry_after_s is not None:
            self.set_retry_after(retry_after_s)

    def set_retry_after(self, seconds: float) -> None:
        """Record the backoff in both the body and the header."""
        seconds = max(seconds, 0.0)
        self.payload["error"]["retry_after_s"] = seconds
        self.headers["Retry-After"] = str(max(1, math.ceil(seconds)))


def _error_envelope(
    code: str, message: str, retry_after_s: float | None = None
) -> dict[str, Any]:
    """The one body shape every transport error uses."""
    return {
        "error": {
            "code": code,
            "message": message,
            "retry_after_s": retry_after_s,
        }
    }


def _rate_key(backend: Any, domain: str, sid: str | None, client_ip: str) -> str:
    """Rate-limit key: the session id once it exists, else the client
    address.  Session *creation* is charged to the address, so a client
    cannot mint a fresh bucket (and a server-side Session) per request
    just by sending a new session id every time."""
    if sid is not None and backend.has_session(domain, sid):
        return sid
    return client_ip


def _payload_retry_headers(payload: dict[str, Any]) -> dict[str, str]:
    retry = payload.get("retry_after_s")
    if retry is None:
        return {}
    return {"Retry-After": str(max(1, math.ceil(retry)))}


class ServiceBackend:
    """One or more in-process services behind the backend protocol.

    The single-process answer machine: each domain is a fully-owned
    :class:`~repro.service.service.NliService` (its own storage, session
    log and rate limiter), and every call is a thin adaptation of the
    service's async face to envelope dicts.
    """

    def __init__(
        self,
        services: dict[str, NliService],
        default_domain: str | None = None,
    ) -> None:
        if not services:
            raise ValueError("ServiceBackend needs at least one service")
        self.services = services
        self.default_domain = default_domain or next(iter(services))
        if self.default_domain not in services:
            raise ValueError(f"unknown default domain {self.default_domain!r}")

    def domains(self) -> list[str]:
        return list(self.services)

    def _service(self, domain: str) -> NliService:
        service = self.services.get(domain)
        if service is None:
            raise ApiError(404, f"no such domain: {domain}", "unknown_domain")
        return service

    def has_session(self, domain: str, sid: str) -> bool:
        service = self.services.get(domain)
        return service is not None and service.has_session(sid)

    def check_limit(self, domain: str, key: str, tokens: float = 1.0) -> float:
        return self._service(domain).check_limit(key, tokens)

    def data_stamp(self, domain: str) -> Any:
        return self._service(domain).data_stamp()

    async def ask(
        self,
        domain: str,
        question: str,
        sid: str | None,
        clarify: bool,
        client: str,
    ) -> dict[str, Any]:
        service = self._service(domain)
        if sid is not None:
            service.ensure_session(sid)
        response = await service.ask_async(
            question, session=sid, clarify=clarify, client=client
        )
        return response.to_dict()

    async def ask_many(
        self,
        domain: str,
        questions: list[str],
        sid: str | None,
        clarify: bool,
        client: str,
    ) -> list[dict[str, Any]]:
        service = self._service(domain)
        if sid is not None:
            service.ensure_session(sid)
        responses = await service.ask_many_async(
            questions, session=sid, clarify=clarify, client=client
        )
        return [response.to_dict() for response in responses]

    async def resolve(
        self, domain: str, clarification_id: str, choice: int, client: str
    ) -> dict[str, Any]:
        service = self._service(domain)
        try:
            response = await service.resolve_async(
                clarification_id, choice, client=client
            )
        except ClarificationError as exc:
            if service.has_clarification(clarification_id):
                # A bad index on a live clarification: the park survives
                # and the client should simply pick again — that is a bad
                # field, not a vanished resource.
                raise ApiError(400, str(exc), "bad_choice") from None
            raise ApiError(404, str(exc), "unknown_clarification") from None
        return response.to_dict()

    async def execute(self, domain: str, sql: str) -> dict[str, Any]:
        service = self._service(domain)
        try:
            result = await service.execute_async(sql)
        except EngineError as exc:
            raise ApiError(422, str(exc), "engine_error") from None
        return {
            "columns": list(result.columns),
            "rows": [list(row) for row in result.rows],
        }

    async def subscribe(
        self,
        domain: str,
        question: str,
        sid: str | None,
        client: str,
        queue_frames: int = DEFAULT_QUEUE_FRAMES,
    ) -> "_LocalSubscriptionStream":
        service = self._service(domain)
        if sid is not None:
            service.ensure_session(sid)
        loop = asyncio.get_running_loop()
        try:
            subscription = await loop.run_in_executor(
                None,
                lambda: service.subscribe(question, sid, queue_frames=queue_frames),
            )
        except SubscriptionFailed as exc:
            raise ApiError(
                envelope_http_code(exc.response.to_dict()),
                str(exc),
                "subscription_failed",
            ) from None
        return _LocalSubscriptionStream(service, subscription)

    async def stats(self, domain: str | None = None) -> dict[str, Any]:
        if domain is not None:
            return {"service": self._service(domain).stats}
        payload: dict[str, Any] = {"service": self.services[self.default_domain].stats}
        if len(self.services) > 1:
            payload["domains"] = {
                name: service.stats for name, service in self.services.items()
            }
        return payload

    async def healthz(self) -> tuple[int, dict[str, Any], dict[str, str]]:
        return 200, {"status": "ok"}, {}

    async def aclose(self) -> None:
        """Nothing to stop: service lifecycle belongs to whoever built
        the services (the CLI closes them after the loop exits)."""


class _LocalSubscriptionStream:
    """Async face over one in-process :class:`Subscription`.

    ``next_frame`` parks the blocking queue wait on the loop's default
    thread pool, so the event loop keeps serving other clients while a
    subscription idles between commits.
    """

    def __init__(self, service: NliService, subscription: Subscription) -> None:
        self._service = service
        self._subscription = subscription
        self.id = subscription.id
        self.question = subscription.question
        self.tables = sorted(subscription.tables)
        self.queue_frames = subscription.queue_frames

    async def next_frame(self, timeout: float) -> dict[str, Any] | None:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self._subscription.next_frame, timeout)

    async def aclose(self) -> None:
        self._service.unsubscribe(self.id)


class _StreamPlan:
    """What ``/v1/subscribe`` hands back to the connection loop: the
    backend stream plus the client's streaming knobs."""

    def __init__(self, stream: Any, heartbeat_s: float, max_frames: int | None) -> None:
        self.stream = stream
        self.heartbeat_s = heartbeat_s
        self.max_frames = max_frames


class NliHttpServer:
    """One backend (local services or a worker cluster) behind a socket."""

    def __init__(
        self,
        service: NliService | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_size: int = 256,
        *,
        backend: Any | None = None,
        domain_qps: float | None = None,
        domain_burst: int = 8,
    ) -> None:
        if backend is None:
            if service is None:
                raise ValueError("pass a service or a backend")
            backend = ServiceBackend({"default": service})
        self.backend = backend
        #: Convenience handle for embedders/tests: the default domain's
        #: in-process service, when there is one (None in cluster mode).
        self.service = service or getattr(backend, "services", {}).get(
            backend.default_domain
        )
        self.host = host
        self.port = port  # 0 = ephemeral; real port filled in by start()
        self._server: asyncio.AbstractServer | None = None
        #: The per-domain layer of the rate limiter: keyed by domain
        #: name, charged before the per-client bucket, refunded when the
        #: per-client bucket rejects (all-or-nothing).
        self._domain_limiter = (
            RateLimiter(domain_qps, domain_burst) if domain_qps is not None else None
        )
        #: (domain, question, clarify, data stamp) -> serialized
        #: (http code, body bytes) for session-less asks.
        self._cache: LruCache = LruCache(capacity=cache_size)
        self.stats = {
            "requests": 0,
            "responses_cached": 0,
            "cache_hits": 0,
            "transport_errors": 0,
            "internal_errors": 0,
            "subscriptions_streamed": 0,
        }

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling -----------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        client_ip = peer[0] if isinstance(peer, tuple) else "local"
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except ValueError:
                    # StreamReader.readline raises ValueError when a line
                    # (request line or header) exceeds its 64 KiB limit.
                    request = None
                    exc = ApiError(
                        400, "request head too large or malformed", "bad_request"
                    )
                except ApiError as error:
                    request = None
                    exc = error
                else:
                    exc = None
                if exc is not None:
                    # Framing problem: answer it, then hang up — the stream
                    # position is unreliable after a bad head.
                    self.stats["transport_errors"] += 1
                    blob = json.dumps(exc.payload).encode("utf-8")
                    self._write_response(
                        writer, exc.http_code, blob, False, exc.headers
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = headers.get("connection", "").lower() != "close"
                self.stats["requests"] += 1
                try:
                    routed = await self._route(method, path, body, client_ip)
                    if isinstance(routed, _StreamPlan):
                        # The subscription stream owns the connection from
                        # here: chunked frames until either side closes.
                        await self._stream_subscription(writer, routed)
                        break
                    code, payload, extra = routed
                except ApiError as exc:
                    self.stats["transport_errors"] += 1
                    code, payload, extra = exc.http_code, exc.payload, exc.headers
                except ReproError as exc:
                    # Library errors that escaped a handler's own mapping.
                    self.stats["internal_errors"] += 1
                    code, payload, extra = (
                        422,
                        _error_envelope(type(exc).__name__, str(exc)),
                        {},
                    )
                except Exception as exc:  # noqa: BLE001 - last-resort 500
                    self.stats["internal_errors"] += 1
                    code, payload, extra = (
                        500,
                        _error_envelope("internal_error", str(exc)),
                        {},
                    )
                body_blob = (
                    payload
                    if isinstance(payload, bytes)
                    else json.dumps(payload).encode("utf-8")
                )
                self._write_response(writer, code, body_blob, keep_alive, extra)
                await writer.drain()
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            _BadRequestLine,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        line = await reader.readline()
        if not line:
            return None  # clean EOF between requests
        parts = line.decode("latin-1", "replace").split()
        if len(parts) != 3 or not parts[2].upper().startswith("HTTP/"):
            raise _BadRequestLine(line)
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        for _ in range(MAX_HEADER_LINES):
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1", "replace").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _BadRequestLine(b"too many headers")
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            raise ApiError(400, "invalid content-length header", "bad_request")
        if length > MAX_BODY_BYTES:
            # Read nothing further; answer 413 and drop the connection.
            raise ApiError(413, "request body too large", "body_too_large")
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    def _write_response(
        self,
        writer: asyncio.StreamWriter,
        code: int,
        body: bytes,
        keep_alive: bool,
        extra_headers: dict[str, str],
    ) -> None:
        reason = _REASONS.get(code, "Unknown")
        lines = [
            f"HTTP/1.1 {code} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        lines.extend(f"{name}: {value}" for name, value in extra_headers.items())
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)

    # -- routing -----------------------------------------------------------

    def _split_domain(self, path: str) -> tuple[str | None, str]:
        """``/d/<domain>/<endpoint>`` (the path after ``/v1``) ->
        (domain, /endpoint); other paths pass through with no domain
        (resolved later from the body or the default)."""
        if not path.startswith("/d/"):
            return None, path
        rest = path[3:]
        domain, sep, endpoint = rest.partition("/")
        if not domain or not sep or not endpoint:
            raise ApiError(
                404,
                f"domain paths look like /v1/d/<domain>/ask: /v1{path}",
                "bad_path",
            )
        if domain not in self.backend.domains():
            raise ApiError(404, f"no such domain: {domain}", "unknown_domain")
        return domain, "/" + endpoint

    def _resolve_domain(self, path_domain: str | None, body: dict[str, Any]) -> str:
        body_domain = _optional_str(body, "domain")
        if body_domain is not None and body_domain not in self.backend.domains():
            raise ApiError(404, f"no such domain: {body_domain}", "unknown_domain")
        if path_domain is not None:
            if body_domain is not None and body_domain != path_domain:
                raise ApiError(
                    400,
                    f"path says domain {path_domain!r} but body says "
                    f"{body_domain!r}",
                    "bad_field",
                )
            return path_domain
        return body_domain or self.backend.default_domain

    async def _route(
        self, method: str, path: str, body: bytes, client_ip: str
    ) -> tuple[int, Any, dict[str, str]] | _StreamPlan:
        path, _, query_string = path.partition("?")
        if path != "/v1" and not path.startswith("/v1/"):
            raise ApiError(
                404,
                f"the API is mounted under /v1: {method} /v1{path}",
                "unknown_endpoint",
            )
        path = path[3:] or "/"
        domain, endpoint = self._split_domain(path)
        if endpoint == "/subscribe":
            if method != "GET":
                error = ApiError(
                    405, "/subscribe only accepts GET", "method_not_allowed"
                )
                error.headers["Allow"] = "GET"
                raise error
            params = {
                key: values[-1]
                for key, values in urllib.parse.parse_qs(query_string).items()
            }
            return await self._handle_subscribe(domain, params, client_ip)
        handlers: dict[tuple[str, str], Callable[..., Awaitable[Any]]] = {
            ("POST", "/ask"): self._handle_ask,
            ("POST", "/ask_many"): self._handle_ask_many,
            ("POST", "/resolve"): self._handle_resolve,
            ("POST", "/sql"): self._handle_sql,
            ("GET", "/stats"): self._handle_stats,
            ("GET", "/healthz"): self._handle_healthz,
        }
        handler = handlers.get((method, endpoint))
        if handler is None:
            known_methods = [m for (m, p) in handlers if p == endpoint]
            if known_methods:
                error = ApiError(
                    405,
                    f"{endpoint} only accepts {', '.join(known_methods)}",
                    "method_not_allowed",
                )
                error.headers["Allow"] = ", ".join(known_methods)
                raise error
            raise ApiError(404, f"no such endpoint: {path}", "unknown_endpoint")
        if method == "POST":
            parsed = _parse_json_body(body)
            return await handler(
                self._resolve_domain(domain, parsed), parsed, client_ip
            )
        return await handler(domain, client_ip)

    # -- the layered rate limiter ------------------------------------------

    def _charge_domain(self, domain: str, tokens: float = 1.0) -> float:
        """Charge the per-domain bucket; 0.0 when within budget."""
        if self._domain_limiter is None:
            return 0.0
        return self._domain_limiter.check(domain, tokens)

    def _refund_domain(self, domain: str, tokens: float = 1.0) -> None:
        """The per-client layer rejected after the domain layer charged:
        give the domain its tokens back, so a denied request consumes no
        budget anywhere (all-or-nothing across the layers)."""
        if self._domain_limiter is not None:
            self._domain_limiter.refund(domain, tokens)

    # -- handlers ----------------------------------------------------------

    async def _handle_ask(
        self, domain: str, body: dict[str, Any], client_ip: str
    ) -> tuple[int, Any, dict[str, str]]:
        question = _required_str(body, "question")
        sid = _optional_str(body, "session")
        clarify = bool(body.get("clarify", False))
        limit, cursor = _page_params(body)
        client = _rate_key(self.backend, domain, sid, client_ip)
        domain_retry = self._charge_domain(domain)
        if domain_retry:
            limited = Response.rate_limited(question, domain_retry)
            return 429, limited.to_dict(), _payload_retry_headers(limited.to_dict())
        cache_key = None
        if sid is None:
            # Captured *before* the ask: a write that lands mid-ask bumps
            # the version stamps, and storing this answer under the
            # post-write key would serve it stale forever.
            cache_key = self._ask_cache_key(domain, question, clarify)
            cached = self._cache.get(cache_key)
            if cached is not None:
                retry_after = self.backend.check_limit(domain, client)
                if retry_after:
                    self._refund_domain(domain)
                    limited = Response.rate_limited(question, retry_after)
                    payload = limited.to_dict()
                    return 429, payload, _payload_retry_headers(payload)
                self.stats["cache_hits"] += 1
                if limit is None and cursor is None:
                    return cached[0], cached[1], {}
                # Page the cached envelope: decode a private copy — the
                # cache always holds the full, unpaginated body.
                payload = self._page_envelope(
                    json.loads(cached[1]), domain, question, limit, cursor
                )
                return cached[0], payload, {}
        payload = await self.backend.ask(domain, question, sid, clarify, client)
        code = envelope_http_code(payload)
        if code == 429:
            self._refund_domain(domain)
        if sid is not None:
            payload["session"] = sid
        if (
            cache_key is not None
            and code != 429
            and payload.get("clarification_id") is None
        ):
            # Stateless outcome: cache — and answer with — the serialized
            # bytes, so the hot path serializes exactly once.
            blob = json.dumps(payload).encode("utf-8")
            self._cache.put(cache_key, (code, blob))
            self.stats["responses_cached"] += 1
            if limit is None and cursor is None:
                return code, blob, _payload_retry_headers(payload)
            payload = self._page_envelope(
                json.loads(blob), domain, question, limit, cursor
            )
            return code, payload, _payload_retry_headers(payload)
        if limit is not None or cursor is not None:
            payload = self._page_envelope(payload, domain, question, limit, cursor)
        return code, payload, _payload_retry_headers(payload)

    def _page_envelope(
        self,
        payload: dict[str, Any],
        domain: str,
        question: str,
        limit: int | None,
        cursor: str | None,
    ) -> dict[str, Any]:
        """Apply limit/cursor to an envelope's answer rows (no-op when the
        outcome carries no answer — failures page nothing)."""
        answer = payload.get("answer")
        if not answer:
            return payload
        page, next_cursor, total = _paginate(
            answer["rows"], limit, cursor, f"ask\x00{domain}\x00{question}"
        )
        payload["answer"] = {**answer, "rows": page}
        payload["next_cursor"] = next_cursor
        payload["total_rows"] = total
        return payload

    def _ask_cache_key(self, domain: str, question: str, clarify: bool) -> tuple:
        # The data stamp is the identity a snapshot pinned now would
        # carry; the pre-ask capture in _handle_ask means an answer is
        # only ever stored under the version it was computed against.
        return (domain, question, clarify, self.backend.data_stamp(domain))

    async def _handle_ask_many(
        self, domain: str, body: dict[str, Any], client_ip: str
    ) -> tuple[int, Any, dict[str, str]]:
        questions = body.get("questions")
        if not isinstance(questions, list) or not all(
            isinstance(q, str) for q in questions
        ):
            raise ApiError(
                400,
                "'questions' must be a list of strings",
                "bad_field",
            )
        sid = _optional_str(body, "session")
        clarify = bool(body.get("clarify", False))
        client = _rate_key(self.backend, domain, sid, client_ip)
        tokens = float(len(questions)) or 1.0
        domain_retry = self._charge_domain(domain, tokens)
        if domain_retry:
            limited = Response.rate_limited("batch", domain_retry).to_dict()
            payload = {"responses": [limited for _ in questions]}
            if sid is not None:
                payload["session"] = sid
            return 429, payload, _payload_retry_headers(limited)
        responses = await self.backend.ask_many(domain, questions, sid, clarify, client)
        payload = {"responses": responses}
        if sid is not None:
            payload["session"] = sid
        # The batch is charged as a unit, so rate limiting is all-or-nothing:
        # surface it as 429 + Retry-After like a single ask.
        if responses and all(
            response.get("retry_after_s") is not None for response in responses
        ):
            self._refund_domain(domain, tokens)
            return 429, payload, _payload_retry_headers(responses[0])
        return 200, payload, {}

    async def _handle_resolve(
        self, domain: str, body: dict[str, Any], client_ip: str
    ) -> tuple[int, Any, dict[str, str]]:
        clarification_id = _required_str(body, "clarification_id")
        choice = body.get("choice")
        if not isinstance(choice, int) or isinstance(choice, bool):
            raise ApiError(400, "'choice' must be an integer", "bad_field")
        domain_retry = self._charge_domain(domain)
        if domain_retry:
            limited = Response.rate_limited(clarification_id, domain_retry).to_dict()
            return 429, limited, _payload_retry_headers(limited)
        payload = await self.backend.resolve(
            domain, clarification_id, choice, client_ip
        )
        code = envelope_http_code(payload)
        if code == 429:
            self._refund_domain(domain)
        return code, payload, _payload_retry_headers(payload)

    async def _handle_sql(
        self, domain: str, body: dict[str, Any], client_ip: str
    ) -> tuple[int, Any, dict[str, str]]:
        sql = _required_str(body, "sql")
        limit, cursor = _page_params(body)
        domain_retry = self._charge_domain(domain)
        if domain_retry:
            raise ApiError(
                429,
                "domain rate limit exceeded",
                "rate_limited",
                retry_after_s=domain_retry,
            )
        payload = await self.backend.execute(domain, sql)
        if limit is None and cursor is None:
            return 200, payload, {}
        page, next_cursor, total = _paginate(
            payload["rows"], limit, cursor, f"sql\x00{domain}\x00{sql}"
        )
        payload["rows"] = page
        payload["next_cursor"] = next_cursor
        payload["total_rows"] = total
        return 200, payload, {}

    async def _handle_subscribe(
        self, domain: str | None, params: dict[str, str], client_ip: str
    ) -> _StreamPlan:
        """``GET /v1/subscribe?question=...`` — validate, register, and
        hand the connection loop a stream plan.

        Query parameters: ``question`` (required), ``session``,
        ``domain``, ``queue`` (frame-queue bound, drop-oldest beyond it),
        ``heartbeat`` (seconds between keep-alive frames while idle) and
        ``frames`` (close the stream after N answer/error frames — handy
        for scripted consumers).
        """
        question = params.get("question")
        if not question:
            raise ApiError(400, "'question' query parameter is required", "bad_field")
        sid = params.get("session") or None
        domain = self._resolve_domain(domain, {"domain": params.get("domain")})
        queue_frames = _int_param(
            params, "queue", DEFAULT_QUEUE_FRAMES, 1, MAX_QUEUE_FRAMES
        )
        heartbeat_s = _float_param(params, "heartbeat", 10.0, 0.05, 3600.0)
        max_frames = _int_param(params, "frames", 0, 0, 1 << 30) or None
        client = _rate_key(self.backend, domain, sid, client_ip)
        domain_retry = self._charge_domain(domain)
        if domain_retry:
            raise ApiError(
                429,
                "domain rate limit exceeded",
                "rate_limited",
                retry_after_s=domain_retry,
            )
        retry_after = self.backend.check_limit(domain, client)
        if retry_after:
            self._refund_domain(domain)
            raise ApiError(
                429, "rate limit exceeded", "rate_limited", retry_after_s=retry_after
            )
        stream = await self.backend.subscribe(
            domain, question, sid, client, queue_frames
        )
        return _StreamPlan(stream, heartbeat_s, max_frames)

    async def _stream_subscription(
        self, writer: asyncio.StreamWriter, plan: _StreamPlan
    ) -> None:
        """Write the subscription as a chunked-transfer NDJSON stream.

        One JSON object per chunk: a ``subscribed`` hello first, then
        ``answer`` / ``error`` frames as commits touch the subscribed
        tables, ``heartbeat`` frames while idle, and a final ``closed``
        frame (followed by the terminating chunk) when the subscription
        ends server-side.  A client disconnect tears the subscription
        down (the ``finally`` unsubscribes), so an abandoned stream does
        not keep re-evaluating forever.
        """
        self.stats["subscriptions_streamed"] += 1
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n"
            "Cache-Control: no-store\r\n\r\n"
        ).encode("latin-1")
        try:
            writer.write(head)
            self._write_chunk(
                writer,
                {
                    "type": "subscribed",
                    "subscription": plan.stream.id,
                    "question": plan.stream.question,
                    "tables": list(plan.stream.tables),
                    "queue_frames": plan.stream.queue_frames,
                    "heartbeat_s": plan.heartbeat_s,
                },
            )
            await writer.drain()
            sent = 0
            while True:
                frame = await plan.stream.next_frame(plan.heartbeat_s)
                if frame is None:
                    frame = {
                        "type": "heartbeat",
                        "subscription": plan.stream.id,
                    }
                self._write_chunk(writer, frame)
                await writer.drain()
                if frame.get("type") == "closed":
                    break
                if frame.get("type") in ("answer", "error"):
                    sent += 1
                    if plan.max_frames is not None and sent >= plan.max_frames:
                        break
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; cleanup below
        finally:
            await plan.stream.aclose()

    @staticmethod
    def _write_chunk(writer: asyncio.StreamWriter, frame: dict[str, Any]) -> None:
        data = json.dumps(frame).encode("utf-8") + b"\n"
        writer.write(f"{len(data):X}\r\n".encode("latin-1") + data + b"\r\n")

    async def _handle_stats(
        self, domain: str | None, client_ip: str
    ) -> tuple[int, Any, dict[str, str]]:
        payload = await self.backend.stats(domain)
        payload["http"] = dict(self.stats)
        return 200, payload, {}

    async def _handle_healthz(
        self, domain: str | None, client_ip: str
    ) -> tuple[int, Any, dict[str, str]]:
        return await self.backend.healthz()


class _BadRequestLine(Exception):
    """Unparseable request head: no useful reply address, just hang up."""


# -- pagination -------------------------------------------------------------


def _page_params(body: dict[str, Any]) -> tuple[int | None, str | None]:
    """Validate the optional ``limit`` / ``cursor`` body fields."""
    limit = body.get("limit")
    if limit is not None and (
        not isinstance(limit, int) or isinstance(limit, bool) or limit < 1
    ):
        raise ApiError(400, "'limit' must be a positive integer", "bad_field")
    cursor = body.get("cursor")
    if cursor is not None and (not isinstance(cursor, str) or not cursor):
        raise ApiError(
            400, "'cursor' must be a non-empty string when given", "bad_field"
        )
    return limit, cursor


def _identity_digest(identity: str) -> str:
    return hashlib.sha256(identity.encode("utf-8")).hexdigest()[:16]


def _encode_cursor(offset: int, limit: int, identity: str) -> str:
    token = json.dumps(
        {"v": 1, "o": offset, "l": limit, "k": _identity_digest(identity)},
        separators=(",", ":"),
    )
    return base64.urlsafe_b64encode(token.encode("ascii")).decode("ascii")


def _decode_cursor(cursor: str, identity: str) -> tuple[int, int]:
    """Offset + page size from a cursor token; 400 on garbage or a token
    minted for a different statement (the identity digest mismatch)."""
    try:
        raw = base64.urlsafe_b64decode(cursor.encode("ascii"))
        data = json.loads(raw)
        offset, limit, key = data["o"], data["l"], data["k"]
        if not isinstance(offset, int) or not isinstance(limit, int):
            raise ValueError("bad cursor fields")
    except (
        ValueError,
        KeyError,
        TypeError,
        binascii.Error,
        UnicodeDecodeError,
    ):
        raise ApiError(400, "malformed cursor token", "bad_cursor") from None
    if key != _identity_digest(identity) or offset < 0 or limit < 1:
        raise ApiError(
            400,
            "cursor does not belong to this query",
            "bad_cursor",
        )
    return offset, limit


def _paginate(
    rows: list[Any], limit: int | None, cursor: str | None, identity: str
) -> tuple[list[Any], str | None, int]:
    """One page of ``rows``: (page, next_cursor, total row count).

    The cursor token remembers the page size, so follow-up requests may
    send just the cursor; an explicit ``limit`` on a follow-up overrides
    the remembered size from that page on.
    """
    offset = 0
    if cursor is not None:
        offset, cursor_limit = _decode_cursor(cursor, identity)
        if limit is None:
            limit = cursor_limit
    assert limit is not None  # _page_params guarantees one of the two
    page = rows[offset : offset + limit]
    next_offset = offset + limit
    next_cursor = (
        _encode_cursor(next_offset, limit, identity)
        if next_offset < len(rows)
        else None
    )
    return page, next_cursor, len(rows)


# -- query-string parameter validation --------------------------------------


def _int_param(
    params: dict[str, str], name: str, default: int, lo: int, hi: int
) -> int:
    raw = params.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ApiError(400, f"{name!r} must be an integer", "bad_field") from None
    if not lo <= value <= hi:
        raise ApiError(400, f"{name!r} must be between {lo} and {hi}", "bad_field")
    return value


def _float_param(
    params: dict[str, str], name: str, default: float, lo: float, hi: float
) -> float:
    raw = params.get(name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ApiError(400, f"{name!r} must be a number", "bad_field") from None
    if not lo <= value <= hi or value != value:
        raise ApiError(400, f"{name!r} must be between {lo} and {hi}", "bad_field")
    return value


def _parse_json_body(body: bytes) -> dict[str, Any]:
    try:
        parsed = json.loads(body or b"null")
    except json.JSONDecodeError as exc:
        raise ApiError(
            400, f"request body is not valid JSON: {exc}", "malformed_json"
        ) from None
    if not isinstance(parsed, dict):
        raise ApiError(400, "request body must be a JSON object", "malformed_json")
    return parsed


def _required_str(body: dict[str, Any], field: str) -> str:
    value = body.get(field)
    if not isinstance(value, str) or not value:
        raise ApiError(400, f"{field!r} must be a non-empty string", "bad_field")
    return value


def _optional_str(body: dict[str, Any], field: str) -> str | None:
    value = body.get(field)
    if value is None:
        return None
    if not isinstance(value, str) or not value:
        raise ApiError(
            400,
            f"{field!r} must be a non-empty string when given",
            "bad_field",
        )
    return value


# -- embedding helpers (tests, docs, benchmarks) ---------------------------


class ServerHandle:
    """A server running on its own event-loop thread.

    Returned by :func:`serve_in_thread`; ``url`` is ready immediately and
    :meth:`stop` shuts the loop down and joins the thread.
    """

    def __init__(
        self,
        server: NliHttpServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
        stop_event: asyncio.Event,
    ) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread
        self._stop_event = stop_event

    @property
    def url(self) -> str:
        return self.server.url

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop_event.set)
            self._thread.join(timeout=10)


def serve_in_thread(
    service: NliService | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    backend: Any | None = None,
    domain_qps: float | None = None,
    domain_burst: int = 8,
) -> ServerHandle:
    """Start an :class:`NliHttpServer` on a daemon thread; returns once the
    socket is bound (so ``handle.url`` is immediately usable)."""
    started = threading.Event()
    holder: dict[str, Any] = {}

    def run() -> None:
        async def main() -> None:
            server = NliHttpServer(
                service,
                host=host,
                port=port,
                backend=backend,
                domain_qps=domain_qps,
                domain_burst=domain_burst,
            )
            await server.start()
            stop_event = asyncio.Event()
            holder["server"] = server
            holder["loop"] = asyncio.get_running_loop()
            holder["stop"] = stop_event
            started.set()
            try:
                await stop_event.wait()
            finally:
                await server.aclose()

        asyncio.run(main())

    thread = threading.Thread(target=run, name="nli-http", daemon=True)
    thread.start()
    if not started.wait(timeout=10):  # pragma: no cover - startup failure
        raise RuntimeError("HTTP server failed to start within 10s")
    return ServerHandle(holder["server"], holder["loop"], thread, holder["stop"])

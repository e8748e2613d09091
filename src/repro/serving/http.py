"""An asyncio HTTP edge for the OBDA system — stdlib only.

The thinnest possible serving front-end (the paper's premise is that
the heavy lifting — reformulation, routing, evaluation — already lives
below): one :class:`ServingEndpoint` wraps an
:class:`~repro.obda.system.OBDASystem` and exposes its batch API over
HTTP/1.1 on an ``asyncio`` server running in a background thread, so
tests and local deployments get a network edge without any dependency
beyond the standard library.

Routes:

``POST /answer``
    Body ``{"queries": [...], "strategy"?, "cost"?, "min_epoch"?,
    "timeout_seconds"?}``. Queries are textual CQs; ``strategy`` and
    ``cost`` must name one of the system's strategies / cost modes;
    ``min_epoch`` is the client's session token (see
    :meth:`~repro.obda.system.OBDASystem.epoch_token`) — a token above
    the system's epoch comes back as a per-query ``ValueError``.
    ``timeout_seconds`` (a positive finite number; default: the system's
    ``query_timeout_seconds``) is each query's deadline: it bounds
    every wait below it, and a query whose reformulation or execution
    ends past it comes back as a per-query ``QueryTimeoutError``.
    Always runs with ``on_error="collect"`` — one bad query yields one
    error entry, not a failed batch. Returns ``{"reports": [{"query",
    "answers", "epoch", "error"}...], "epoch_token"}``; the token is
    the newest epoch any answer in the batch observed, so a client can
    thread it into its next request for monotonic reads.
``POST /write``
    Body ``{"insert": [["C","a"], ["R","a","b"], ...], "delete":
    [...]}``. Returns ``{"inserted", "deleted", "epoch_token"}`` — the
    token a read-your-writes client passes as its next ``min_epoch``.
``GET /metrics``
    The unified registry (coordinator + shard workers) in the
    Prometheus plain-text exposition format.
``GET /epoch``
    ``{"epoch": N}`` — the system's current data epoch.
``GET /healthz``
    ``{"ok": true}``.

The event loop never blocks on query work: each request's system call
runs on the loop's default thread-pool executor. That is the whole of
the serving concurrency — the system answers a request's batch in
order on the thread it was handed.
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
import threading
from typing import Dict, List, Optional, Tuple

from repro.obda.system import COST_MODES, STRATEGIES
from repro.obs.metrics import get_registry

#: Largest request body accepted, in bytes (a serving edge should bound
#: what it buffers; batches this large belong on the in-process API).
MAX_BODY_BYTES = 8 * 1024 * 1024

_JSON = "application/json"
_TEXT = "text/plain; version=0.0.4; charset=utf-8"


class _HttpError(Exception):
    """Internal: maps a handler failure to an HTTP status + message."""

    def __init__(self, status: int, message: str) -> None:
        Exception.__init__(self, message)
        self.status = status
        self.message = message


def _json_bytes(payload: Dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _encode_report(report) -> Dict:
    """One AnswerReport as a JSON-able dict (answers sorted for
    deterministic wire output; errors as type + message)."""
    encoded: Dict = {
        "query": str(report.query),
        "answers": sorted(list(row) for row in report.answers),
        "epoch": report.epoch,
        "error": None,
    }
    if report.error is not None:
        encoded["error"] = {
            "type": type(report.error).__name__,
            "message": str(report.error),
        }
    return encoded


def _parse_facts(raw, field: str) -> List[Tuple]:
    """Wire facts (``["C","a"]`` / ``["R","a","b"]``) as assertion
    tuples, with a 400 on anything malformed."""
    if raw is None:
        return []
    if not isinstance(raw, list):
        raise _HttpError(400, f"'{field}' must be a list of facts")
    facts: List[Tuple] = []
    for entry in raw:
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) not in (2, 3)
            or not all(isinstance(part, str) for part in entry)
        ):
            raise _HttpError(
                400,
                f"'{field}' entries must be [concept, individual] or "
                f"[role, subject, object] string lists; got {entry!r}",
            )
        facts.append(tuple(entry))
    return facts


class ServingEndpoint:
    """One OBDA system behind an asyncio HTTP/1.1 server.

    Runs its event loop on a dedicated daemon thread; :meth:`start`
    returns once the socket is bound (``port`` then carries the real
    port — pass ``port=0`` to let the OS pick). The endpoint borrows
    the system, it does not own it: :meth:`close` stops the server and
    leaves the system running.
    """

    def __init__(
        self, system, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.system = system
        self.host = host
        self.port = port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ServingEndpoint":
        """Bind and serve in the background; returns self when ready."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run, name="repro-http", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        asyncio.run(self._serve())

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            self._server = await asyncio.start_server(
                self._handle, self.host, self.port
            )
        except OSError as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self.port = self._server.sockets[0].getsockname()[1]
        self._ready.set()
        async with self._server:
            await self._stop.wait()

    def close(self) -> None:
        """Stop accepting, drain the loop thread. Idempotent."""
        loop, self._loop = self._loop, None
        if loop is None:
            return
        try:
            loop.call_soon_threadsafe(self._stop.set)
        except RuntimeError:  # loop already closed
            pass
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "ServingEndpoint":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    @property
    def url(self) -> str:
        """Base URL of the bound endpoint."""
        return f"http://{self.host}:{self.port}"

    # -- request plumbing ----------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, content_type, body = await self._respond(reader)
        except Exception as exc:  # defense: the edge must answer
            status, content_type, body = (
                500,
                _JSON,
                _json_bytes({"error": str(exc)}),
            )
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found"}.get(
            status, "Internal Server Error"
        )
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        try:
            writer.write(head.encode("ascii") + body)
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass  # client went away mid-response

    async def _respond(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, str, bytes]:
        request_line = await reader.readline()
        parts = request_line.decode("ascii", "replace").split()
        if len(parts) < 2:
            return 400, _JSON, _json_bytes({"error": "malformed request"})
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("ascii", "replace").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return 400, _JSON, _json_bytes(
                        {"error": "bad Content-Length"}
                    )
        if content_length > MAX_BODY_BYTES:
            return 400, _JSON, _json_bytes({"error": "body too large"})
        body = (
            await reader.readexactly(content_length)
            if content_length
            else b""
        )
        get_registry().inc("repro.http.requests")
        try:
            return await self._route(method, path, body)
        except _HttpError as exc:
            get_registry().inc("repro.http.errors")
            return exc.status, _JSON, _json_bytes({"error": exc.message})
        except Exception as exc:
            get_registry().inc("repro.http.errors")
            return 500, _JSON, _json_bytes(
                {"error": f"{type(exc).__name__}: {exc}"}
            )

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, str, bytes]:
        if method == "GET" and path == "/metrics":
            text = await self._offload(self.system.metrics_prometheus)
            return 200, _TEXT, text.encode("utf-8")
        if method == "GET" and path == "/epoch":
            return 200, _JSON, _json_bytes({"epoch": self.system.data_epoch})
        if method == "GET" and path == "/healthz":
            return 200, _JSON, _json_bytes({"ok": True})
        if method == "POST" and path == "/answer":
            return await self._answer(self._json_body(body))
        if method == "POST" and path == "/write":
            return await self._write(self._json_body(body))
        raise _HttpError(404, f"no route for {method} {path}")

    def _json_body(self, body: bytes) -> Dict:
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"invalid JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise _HttpError(400, "body must be a JSON object")
        return payload

    async def _offload(self, fn, *args, **kwargs):
        """Run blocking system work off the event loop."""
        return await asyncio.get_running_loop().run_in_executor(
            None, functools.partial(fn, *args, **kwargs)
        )

    # -- handlers ------------------------------------------------------
    async def _answer(self, payload: Dict) -> Tuple[int, str, bytes]:
        queries = payload.get("queries")
        if not isinstance(queries, list) or not all(
            isinstance(query, str) for query in queries
        ):
            raise _HttpError(400, "'queries' must be a list of strings")
        kwargs: Dict = {"on_error": "collect"}
        for field, allowed in (("strategy", STRATEGIES), ("cost", COST_MODES)):
            if field in payload:
                if payload[field] not in allowed:
                    raise _HttpError(
                        400, f"'{field}' must be one of {', '.join(allowed)}"
                    )
                kwargs[field] = payload[field]
        if "min_epoch" in payload:
            min_epoch = payload["min_epoch"]
            if not isinstance(min_epoch, int) or min_epoch < 0:
                raise _HttpError(
                    400, "'min_epoch' must be a non-negative integer"
                )
            kwargs["min_epoch"] = min_epoch
        if "timeout_seconds" in payload:
            timeout = payload["timeout_seconds"]
            if (
                not isinstance(timeout, (int, float))
                or isinstance(timeout, bool)
                or not 0 < timeout < math.inf
            ):
                raise _HttpError(
                    400, "'timeout_seconds' must be a positive finite number"
                )
            kwargs["timeout_seconds"] = timeout
        reports = await self._offload(
            self.system.answer_many, queries, **kwargs
        )
        epochs = [
            report.epoch for report in reports if report.epoch is not None
        ]
        return 200, _JSON, _json_bytes(
            {
                "reports": [_encode_report(report) for report in reports],
                "epoch_token": max(epochs, default=self.system.data_epoch),
            }
        )

    async def _write(self, payload: Dict) -> Tuple[int, str, bytes]:
        inserts = _parse_facts(payload.get("insert"), "insert")
        deletes = _parse_facts(payload.get("delete"), "delete")
        inserted = deleted = 0
        if inserts:
            inserted = await self._offload(
                self.system.insert_facts, inserts
            )
        if deletes:
            deleted = await self._offload(self.system.delete_facts, deletes)
        return 200, _JSON, _json_bytes(
            {
                "inserted": inserted,
                "deleted": deleted,
                "epoch_token": self.system.epoch_token(),
            }
        )

"""Long-lived per-shard engine worker processes (the process substrate).

:class:`ProcessShardWorker` hosts one child backend in its own forked
interpreter and exposes the full :class:`~repro.storage.base.Backend`
surface as a pipe-RPC proxy, so :class:`~repro.storage.sharded_backend.
ShardedBackend` can own a list of these exactly as it owns in-process
children — routing, merge semantics and the write barrier are unchanged;
only the substrate under each shard moves across a process boundary.

Lifecycle
---------
Workers are forked at construction (the ``fork`` start method keeps
startup at milliseconds and lets arbitrary ``child_factory`` callables
cross without pickling — the backend itself is built *inside* the
worker, never shipped), run a strict request/reply loop, and live until
:meth:`ProcessShardWorker.close` — which sends ``close``, waits, and
escalates to ``terminate`` only if the worker does not exit in time.
Workers are daemonic and additionally registered with the exit backstop
(:func:`repro.lifecycle.close_at_exit`), so an interpreter that forgets
to close a backend still never hangs at exit or leaks shared memory:
segments are created and unlinked only in the coordinator process (see
:mod:`repro.storage.shm_exchange`), and the parent's
``resource_tracker`` is started *before* the first fork so every worker
shares it.

Failure handling
----------------
Every reply wait runs under the ``REPRO_RPC_TIMEOUT_MS`` deadline
(``conn.poll``): a dead worker surfaces as :class:`WorkerCrashedError`,
a silent one as :class:`WorkerTimeoutError`, and either marks the proxy
*broken* — the request/reply stream is desynchronized, so later calls
fail fast until the supervision layer (:mod:`repro.storage.supervisor`)
recycles the worker. Fault injection (:mod:`repro.faults`) hooks the
request loop so chaos tests can kill, delay, or mute a worker
deterministically.

Result transport
----------------
``execute`` replies inline (one pickle) for small results; larger ones
use the shared-memory handshake: the worker offers ``(nbytes, meta)``,
the coordinator creates a segment and replies with its name, the worker
attaches, writes the packed columns, closes, and acks — after which the
coordinator decodes rows out of the segment and unlinks it. When the
caller's context carries an active trace span, the same RPC asks the
worker for its span subtree and grafts it under that span. Errors are
pre-checked for picklability in the worker (falling back to a
``RuntimeError`` carrying the repr), so a failing shard surfaces the
real exception type at the coordinator whenever it can cross the wire.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.faults import FaultRuntime, TransientWorkerFault, WorkerFaultConfig
from repro.lifecycle import close_at_exit, interpreter_exiting
from repro.obs.metrics import get_registry, reset_registry
from repro.obs.trace import Tracer, current_span
from repro.storage.base import Backend, BulkLoader, Row
from repro.storage.layouts import LayoutData
from repro.storage.shm_exchange import (
    pack_columns,
    should_inline,
    shm_min_cells,
    unpack_rows,
)

#: How long ``close`` waits for a worker to exit before terminating it.
CLOSE_TIMEOUT = 5.0

#: Environment knob: per-RPC deadline in milliseconds. Every reply wait
#: in :meth:`ProcessShardWorker._call` / the execute handshake runs
#: under ``conn.poll(timeout)`` with this budget, so a hung or wedged
#: worker surfaces as a :class:`WorkerTimeoutError` instead of blocking
#: ``conn.recv()`` forever. ``0`` (or negative) disables the deadline.
RPC_TIMEOUT_ENV = "REPRO_RPC_TIMEOUT_MS"

#: Default per-RPC deadline: generous against real queries (tier-1
#: statements run in milliseconds), tight against a genuinely hung
#: worker.
DEFAULT_RPC_TIMEOUT_MS = 30_000.0


def rpc_timeout_seconds() -> Optional[float]:
    """The configured per-RPC deadline in seconds (``REPRO_RPC_TIMEOUT_MS``);
    ``None`` when deadlines are disabled."""
    raw = os.environ.get(RPC_TIMEOUT_ENV)
    if raw is None:
        millis = DEFAULT_RPC_TIMEOUT_MS
    else:
        try:
            millis = float(raw)
        except ValueError:
            millis = DEFAULT_RPC_TIMEOUT_MS
    if millis <= 0:
        return None
    return millis / 1000.0


#: Environment knob: the execution substrate under a sharded backend
#: (``auto`` / ``serial`` / ``process``) when no ``substrate`` argument
#: is given. Unset or unrecognised values mean ``auto``.
EXECUTOR_ENV = "REPRO_EXECUTOR"

#: The recognised substrate names (``auto`` resolves to one of the
#: other two).
SUBSTRATES = ("auto", "serial", "process")


def process_substrate_available() -> bool:
    """Whether per-shard worker processes can be hosted here.

    The process substrate forks long-lived workers (the ``fork`` start
    method keeps worker startup at milliseconds and lets arbitrary
    child factories cross the boundary without pickling); platforms
    without it fall back to the serial substrate.
    """
    try:
        import multiprocessing

        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return False


def resolve_substrate(substrate: Optional[str] = None) -> str:
    """Resolve a requested substrate to ``"serial"`` or ``"process"``.

    *substrate* ``None`` reads ``REPRO_EXECUTOR``. ``auto`` picks
    ``process`` when workers can be forked and more than one CPU
    exists, ``serial`` otherwise; an explicit ``process`` degrades to
    ``serial`` where workers cannot be forked. Any other name raises
    :class:`ValueError`.
    """
    if substrate is None:
        raw = os.environ.get(EXECUTOR_ENV, "auto").strip().lower()
        substrate = raw if raw in SUBSTRATES else "auto"
    if substrate not in SUBSTRATES:
        raise ValueError(
            f"unknown execution substrate {substrate!r}; "
            f"expected one of {SUBSTRATES}"
        )
    if substrate == "serial" or not process_substrate_available():
        return "serial"
    if substrate == "auto" and (os.cpu_count() or 1) <= 1:
        return "serial"
    return "process"


class WorkerError(RuntimeError):
    """Base for coordinator-side worker RPC failures (the transport
    failed, not the query — see the subclasses). The supervision layer
    (:mod:`repro.storage.supervisor`) treats any ``WorkerError`` as
    "this worker must be recycled": after one, the request/reply stream
    can no longer be trusted."""


class WorkerCrashedError(WorkerError):
    """The worker process died (or its pipe closed) mid-conversation."""


class WorkerTimeoutError(WorkerError):
    """A reply missed the per-RPC deadline (``REPRO_RPC_TIMEOUT_MS``).

    The worker may still be alive and mid-statement — but a late reply
    can no longer be matched to its request, so the proxy marks itself
    broken and every later call fails fast until the worker is recycled.
    """

    def __init__(self, cmd: str, seconds: float) -> None:
        super().__init__(
            f"worker reply to {cmd!r} missed its {seconds:g}s RPC deadline"
        )
        self.cmd = cmd
        self.seconds = seconds


def _sendable(exc: BaseException) -> BaseException:
    """The exception itself if it survives a pickle round-trip, else a
    ``RuntimeError`` carrying its repr (default ``Exception`` pickling
    breaks on custom ``__init__`` signatures)."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _run_execute(backend: Backend, sql: str) -> Tuple[int, List]:
    """Evaluate *sql* in the worker, columnar when the backend can.

    Backends exposing ``execute_columns`` (the embedded engine does)
    answer columnar end to end — result vectors go straight into the
    wire format without ever materializing row tuples in the worker.
    """
    columns_api = getattr(backend, "execute_columns", None)
    if columns_api is not None:
        return columns_api(sql)
    result_rows = backend.execute(sql)
    nrows = len(result_rows)
    return nrows, list(zip(*result_rows)) if result_rows else []


def _serve_execute(
    conn,
    backend: Backend,
    sql: str,
    min_cells: int,
    traced: bool = False,
    faults: Optional[FaultRuntime] = None,
) -> None:
    """Worker side of one ``execute``: inline reply or shm handshake.

    With *traced* the execution runs under a worker-local
    :class:`~repro.obs.trace.Tracer` and the reply carries the span
    subtree as a plain dict (third element), stamped with this worker's
    pid for attribution and ``clock="worker"`` — a forked process's
    monotonic clock is not comparable to the coordinator's, so grafted
    durations are meaningful but offsets are not.

    A non-``segment`` message where the segment name is expected is the
    coordinator **aborting the handshake** (its allocation failed, or a
    fault was injected): consume it and send nothing, which keeps the
    request/reply stream synchronized. An injected shm-attach fault
    raises :class:`~repro.faults.TransientWorkerFault` *before*
    attaching — the request loop replies with the error, and the
    coordinator (which is blocked on the write ack) unlinks its segment
    on that same error path.
    """
    started = time.perf_counter()
    span_dict = None
    if traced:
        tracer = Tracer()
        with tracer.root(
            "shard.worker", pid=os.getpid(), clock="worker"
        ) as root:
            nrows, columns = _run_execute(backend, sql)
    else:
        nrows, columns = _run_execute(backend, sql)
    execution = getattr(backend, "last_execution", None)
    batches = getattr(execution, "batches", 0) if execution is not None else 0
    registry = get_registry()
    registry.inc("repro.worker.statements")
    registry.observe(
        "repro.worker.execute.seconds", time.perf_counter() - started
    )
    if traced:
        root.set(rows=nrows, batches=batches)
        span_dict = root.to_dict()
    if not nrows or should_inline(nrows, len(columns), min_cells):
        conn.send(
            (
                "rows",
                (list(zip(*columns)) if nrows else [], batches, span_dict),
            )
        )
        return
    meta, payload = pack_columns(nrows, columns)
    conn.send(("shm", (len(payload), meta, batches, span_dict)))
    tag, name = conn.recv()
    if tag != "segment":  # coordinator aborted (e.g. allocation failed)
        return
    if faults is not None and faults.fail_shm_attach():
        raise TransientWorkerFault(
            f"injected shm attach failure (segment {name})"
        )
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(name=name)
    try:
        segment.buf[: len(payload)] = payload
    finally:
        segment.close()
    conn.send(("ok", None))


def _worker_main(
    conn,
    factory: Callable[[], Backend],
    fault_config: Optional[WorkerFaultConfig] = None,
) -> None:
    """The worker process: build the backend, serve the request loop.

    With a *fault_config* (chaos testing, see :mod:`repro.faults`) every
    received command first passes the fault runtime, which may kill this
    process, delay, or swallow the reply. ``KeyboardInterrupt`` /
    ``SystemExit`` exit the loop cleanly (backend closed, pipe closed)
    instead of being pickled back as query errors — a Ctrl-C fans out to
    every forked worker's main thread, and treating it as a query result
    would mask the shutdown.
    """
    try:
        backend = factory()
    except (KeyboardInterrupt, SystemExit):
        conn.close()
        return
    except Exception as exc:
        try:
            conn.send(("error", _sendable(exc)))
        finally:
            conn.close()
        return
    conn.send(("ok", getattr(backend, "name", "backend")))
    # The fork copied the parent's process-wide registry, counts and
    # all; replaying those counts from every worker would multiply the
    # coordinator's own traffic. Start this process from zero — the
    # "metrics" command then ships only what *this worker* recorded.
    reset_registry()
    min_cells = shm_min_cells()
    faults = FaultRuntime(fault_config) if fault_config is not None else None
    bulk = None  # the open worker-side bulk-load session, if any
    while True:
        try:
            cmd, payload = conn.recv()
        except (EOFError, OSError):
            break
        except (KeyboardInterrupt, SystemExit):
            # A Ctrl-C fans out to every forked worker while it is
            # blocked here; exit the loop cleanly (backend closed, pipe
            # closed, exit code 0) instead of dying with a traceback.
            break
        if cmd == "close":
            try:
                conn.send(("ok", None))
            except (BrokenPipeError, OSError):
                pass
            break
        if faults is not None and faults.before_command(cmd) == "drop":
            # Swallow the reply: the coordinator's RPC deadline is what
            # turns this into a WorkerTimeoutError instead of a hang.
            continue
        try:
            if cmd == "execute":
                sql, traced = payload
                _serve_execute(conn, backend, sql, min_cells, traced, faults)
            elif cmd == "metrics":
                conn.send(("ok", get_registry().snapshot()))
            elif cmd == "load":
                backend.load(payload)
                conn.send(("ok", None))
            elif cmd == "insert":
                backend.insert_rows(payload[0], payload[1])
                conn.send(("ok", None))
            elif cmd == "delete":
                conn.send(("ok", backend.delete_rows(payload[0], payload[1])))
            elif cmd == "apply":
                backend.apply_changes(payload[0], payload[1])
                conn.send(("ok", None))
            elif cmd == "bulk_begin":
                if bulk is not None:
                    raise RuntimeError("bulk load already in progress")
                bulk = backend.bulk_load()
                conn.send(("ok", None))
            elif cmd == "bulk_table":
                if bulk is None:
                    raise RuntimeError("no bulk load in progress")
                name, columns, indexes, shard_key = payload
                bulk.create_table(name, columns, indexes, shard_key)
                conn.send(("ok", None))
            elif cmd == "bulk_append":
                if bulk is None:
                    raise RuntimeError("no bulk load in progress")
                # The coordinator-side session already tuple-normalized
                # and validated the batch; go straight to the hook.
                bulk._append(payload[0], payload[1])
                conn.send(("ok", None))
            elif cmd == "bulk_end":
                if bulk is None:
                    raise RuntimeError("no bulk load in progress")
                session, bulk = bulk, None
                if payload:
                    session.finish()
                else:
                    session.abort()
                conn.send(("ok", None))
            elif cmd == "stats":
                conn.send(
                    ("ok", {n: backend.table_statistics(n) for n in payload})
                )
            elif cmd == "cost":
                conn.send(("ok", backend.estimated_cost(payload)))
            elif cmd == "explain":
                sql, analyze = payload
                explain = getattr(backend, "explain_text", None)
                if explain is None:
                    text = ""
                elif analyze:
                    try:
                        text = explain(sql, analyze=True)
                    except TypeError:  # backend without the analyze mode
                        text = explain(sql)
                else:
                    text = explain(sql)
                conn.send(("ok", text))
            else:
                conn.send(("error", RuntimeError(f"unknown command {cmd!r}")))
        except (KeyboardInterrupt, SystemExit):
            break
        except Exception as exc:
            try:
                conn.send(("error", _sendable(exc)))
            except (BrokenPipeError, OSError):
                break
    try:
        backend.close()
    finally:
        conn.close()


@dataclass
class WorkerExecution:
    """Telemetry from one proxied execute (duck-compatible with the
    ``batches``/``rows`` attributes ShardedBackend reads)."""

    batches: int = 0
    rows: int = 0
    #: ``"inline"`` (pipe pickle) or ``"shm"`` (columnar segment).
    transport: str = "inline"


class _WorkerBulkLoader(BulkLoader):
    """Bulk-load session proxied into a worker process.

    Each operation is one RPC (``bulk_begin`` / ``bulk_table`` /
    ``bulk_append`` / ``bulk_end``); the deferred index and statistics
    work happens inside the worker, in its own hosted loader. Appends
    stream batch-by-batch, so the coordinator never holds the shard's
    full partition.
    """

    def __init__(self, worker: "ProcessShardWorker") -> None:
        super().__init__(worker)
        worker._call("bulk_begin")

    def create_table(self, name, columns, indexes=(), shard_key=None) -> None:
        """Declare one table inside the worker's session."""
        super().create_table(name, columns, indexes, shard_key)
        self._backend._call(
            "bulk_table",
            (name, tuple(columns), tuple(tuple(ix) for ix in indexes), shard_key),
        )

    def _append(self, table: str, rows: List[Row]) -> None:
        self._backend._call("bulk_append", (table, rows))

    def _finish(self) -> None:
        self._backend._call("bulk_end", True)

    def _abort(self) -> None:
        try:
            self._backend._call("bulk_end", False)
        except (WorkerError, RuntimeError):
            # A dead/closed worker has nothing left to abort; the
            # supervision layer recycles it.
            pass


class ProcessShardWorker(Backend):
    """One shard's engine, hosted in a forked worker process.

    Implements the :class:`~repro.storage.base.Backend` surface by
    strict request/reply RPC over a private pipe (one lock per worker
    serializes calls; different workers' calls overlap freely — that is
    exactly the scatter parallelism). The child backend is built inside
    the worker by *factory*, so its tables never exist in the
    coordinator's address space.
    """

    def __init__(
        self,
        factory: Callable[[], Backend],
        shard: int = 0,
        label: str = "shard",
        rpc_timeout: Optional[float] = None,
        fault_config: Optional[WorkerFaultConfig] = None,
    ) -> None:
        import multiprocessing
        from multiprocessing import resource_tracker

        if interpreter_exiting():
            # A worker forked now would inherit a dying runtime, exit
            # immediately and feed a respawn loop that keeps the exit
            # hook's untimed join from ever draining.
            raise RuntimeError(
                "interpreter is shutting down; refusing to fork a "
                "shard worker"
            )
        ctx = multiprocessing.get_context("fork")
        # Start the resource tracker *before* forking so every worker
        # inherits it: segment register/unregister messages from both
        # sides then land in one tracker, and coordinator-side unlink
        # leaves nothing for exit-time leak warnings to find.
        resource_tracker.ensure_running()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self._process = ctx.Process(
            target=_worker_main,
            args=(child_conn, factory, fault_config),
            daemon=True,
            name=f"repro-{label}-{shard}",
        )
        self._process.start()
        child_conn.close()
        self._conn = parent_conn
        self._lock = threading.Lock()
        self._closed = False
        #: Set after any transport-level failure (crash, missed RPC
        #: deadline): the request/reply stream is desynchronized, so
        #: every later call fails fast with ``WorkerCrashedError`` until
        #: the supervision layer recycles this proxy.
        self._broken = False
        self.shard = shard
        self.name = f"worker[{label}-{shard}]"
        #: Per-RPC reply deadline in seconds (``None`` = wait forever);
        #: default from ``REPRO_RPC_TIMEOUT_MS``.
        self.rpc_timeout = (
            rpc_timeout_seconds() if rpc_timeout is None else rpc_timeout
        )
        self.last_execution: Optional[WorkerExecution] = None
        #: Cumulative transport counters (merged into shard telemetry).
        self.shm_results = 0
        self.shm_bytes = 0
        self.inline_results = 0
        try:
            _tag, value = self._recv(timeout=self.rpc_timeout, cmd="startup")
        except BaseException:  # the factory failed inside the worker
            self._stop(handshake=False)
            raise
        self.name = f"worker[{value}]"
        close_at_exit(self)

    # ------------------------------------------------------------------
    # RPC plumbing
    # ------------------------------------------------------------------
    @property
    def pid(self) -> Optional[int]:
        """The worker process's pid (chaos tests SIGKILL through this)."""
        return self._process.pid

    @property
    def sentinel(self) -> int:
        """The process sentinel fd, for ``multiprocessing.connection.
        wait``-based death polling by the supervisor's monitor."""
        return self._process.sentinel

    def is_alive(self) -> bool:
        """Whether this proxy is still usable: open, stream trusted,
        and the worker process running."""
        return (
            not self._closed
            and not self._broken
            and self._process.is_alive()
        )

    def _mark_broken(self) -> None:
        self._broken = True

    def _send(self, message) -> None:
        try:
            self._conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            self._mark_broken()
            raise WorkerCrashedError(
                f"{self.name} (shard {self.shard}) pipe closed during send"
            ) from exc

    def _recv(self, timeout: Optional[float] = None, cmd: str = "rpc"):
        """One reply off the pipe, under an optional deadline.

        ``conn.poll`` returns ready when data *or* EOF is pending, so a
        dead worker surfaces immediately as ``WorkerCrashedError``, not
        as a full deadline wait; only a genuinely silent worker runs the
        clock out into ``WorkerTimeoutError``. Both mark the proxy
        broken — an eventual late reply could not be matched to its
        request.
        """
        if timeout is not None:
            try:
                ready = self._conn.poll(timeout)
            except (BrokenPipeError, OSError) as exc:
                self._mark_broken()
                raise WorkerCrashedError(
                    f"{self.name} (shard {self.shard}) pipe failed in poll"
                ) from exc
            if not ready:
                self._mark_broken()
                raise WorkerTimeoutError(cmd, timeout)
        try:
            reply = self._conn.recv()
        except (EOFError, OSError) as exc:
            self._mark_broken()
            raise WorkerCrashedError(
                f"{self.name} (shard {self.shard}) died mid-conversation"
            ) from exc
        if reply[0] == "error":
            raise reply[1]
        return reply

    def _check_usable(self) -> None:
        if self._closed:
            raise RuntimeError("ProcessShardWorker is closed")
        if self._broken:
            raise WorkerCrashedError(
                f"{self.name} (shard {self.shard}) stream is broken; "
                "the worker must be recycled"
            )

    def _call(self, cmd: str, payload=None, timeout: Optional[float] = None):
        self._check_usable()
        if timeout is None:
            timeout = self.rpc_timeout
        with self._lock:
            self._send((cmd, payload))
            tag, value = self._recv(timeout=timeout, cmd=cmd)
        if tag != "ok":  # pragma: no cover - protocol violation
            raise RuntimeError(f"unexpected worker reply {tag!r}")
        return value

    # ------------------------------------------------------------------
    # Backend surface
    # ------------------------------------------------------------------
    def load(self, data: LayoutData) -> None:
        """Ship the shard's slice of the layout into the worker."""
        self._call("load", data)

    def execute(self, sql: str, timeout: Optional[float] = None) -> List[Row]:
        """Evaluate *sql* in the worker; decode the columnar reply.

        *timeout* overrides the per-RPC deadline for this statement.
        When the caller's context has an active trace span, the worker
        traces the statement too and its ``shard.worker`` subtree is
        grafted under that span.
        """
        parent = current_span()
        self._check_usable()
        if timeout is None:
            timeout = self.rpc_timeout
        # One deadline covers the whole conversation (result reply plus
        # the shm write ack), so a handshake cannot stretch one logical
        # RPC to N deadlines.
        expiry = None if timeout is None else time.monotonic() + timeout

        def remaining() -> Optional[float]:
            return None if expiry is None else expiry - time.monotonic()

        with self._lock:
            self._send(("execute", (sql, parent.enabled)))
            tag, payload = self._recv(timeout=remaining(), cmd="execute")
            if tag == "rows":
                rows, batches, span = payload
                transport = "inline"
                self.inline_results += 1
            elif tag == "shm":
                nbytes, meta, batches, span = payload
                from multiprocessing import shared_memory

                try:
                    segment = shared_memory.SharedMemory(
                        create=True, size=max(1, nbytes)
                    )
                except Exception:
                    # Abort the handshake explicitly: the worker is
                    # blocked waiting for a segment name, and without
                    # this message it would swallow the *next* command
                    # tuple as the name and desynchronize the stream.
                    self._send(("abort", None))
                    raise
                try:
                    self._send(("segment", segment.name))
                    # Worker's write ack (or its error). The finally
                    # guarantees the coordinator-created segment is
                    # unlinked even when the worker dies or times out
                    # between create and attach — segments must never
                    # outlive the RPC that allocated them.
                    self._recv(timeout=remaining(), cmd="execute")
                    rows = unpack_rows(segment.buf, meta)
                finally:
                    segment.close()
                    segment.unlink()
                transport = "shm"
                self.shm_results += 1
                self.shm_bytes += nbytes
            else:  # pragma: no cover - protocol violation
                raise RuntimeError(f"unexpected worker reply {tag!r}")
        self.last_execution = WorkerExecution(
            batches=batches, rows=len(rows), transport=transport
        )
        if span is not None:
            # The coordinator knows the shard and transport; the worker
            # does not — annotate its subtree before it is grafted.
            attributes = span.setdefault("attributes", {})
            attributes["shard"] = self.shard
            attributes["transport"] = transport
            parent.graft(span)
        return rows

    def estimated_cost(self, sql: str) -> float:
        """The hosted backend's own cost estimate for *sql*."""
        return self._call("cost", sql)

    def explain_text(self, sql: str, analyze: bool = False) -> str:
        """The hosted backend's EXPLAIN (or EXPLAIN ANALYZE) rendering."""
        return self._call("explain", (sql, analyze))

    def bulk_load(self) -> BulkLoader:
        """A bulk-ingest session hosted inside the worker process."""
        return _WorkerBulkLoader(self)

    def insert_rows(self, table: str, rows: List[Row]) -> None:
        """Replicate an insert into the worker (set semantics)."""
        self._call("insert", (table, rows))

    def delete_rows(self, table: str, rows: List[Row]) -> int:
        """Replicate a delete into the worker; removed-row count back."""
        return self._call("delete", (table, rows))

    def apply_changes(self, inserts, deletes) -> None:
        """Replicate a multi-table delta atomically inside the worker."""
        self._call("apply", (inserts, deletes))

    def table_statistics(self, table: str):
        """The worker's catalog statistics for one table."""
        return self._call("stats", [table])[table]

    def statistics_many(self, tables) -> Dict[str, object]:
        """Statistics for many tables in one round-trip (the sharded
        post-write re-merge batches through this)."""
        return self._call("stats", list(tables))

    def metrics_snapshot(self) -> Optional[Dict]:
        """The worker process's own metrics registry, one round-trip
        (same batching shape as :meth:`statistics_many`); merged by the
        coordinator into the unified view. ``None`` once the worker is
        closed — a post-close ``metrics()`` read must degrade, not
        raise."""
        if self._closed:
            return None
        return self._call("metrics")

    # ------------------------------------------------------------------
    def kill(self) -> None:
        """Hard teardown without the close handshake. Idempotent.

        The supervision layer discards crashed or timed-out workers
        through this: after a transport failure the stream cannot carry
        the ``close`` exchange, and a wedged worker would make the
        graceful path wait out :data:`CLOSE_TIMEOUT` for nothing.
        """
        self._stop(handshake=False)

    def close(self) -> None:
        """Stop the worker deterministically. Idempotent.

        Sends ``close`` and waits; a worker that fails to exit within
        :data:`CLOSE_TIMEOUT` is terminated. A proxy whose stream broke
        (crash / missed deadline) skips the handshake and goes straight
        to the hard path. Safe to call from atexit.
        """
        self._stop(handshake=True)

    def _stop(self, handshake: bool) -> None:
        """The one teardown: optional ``close`` handshake, then
        terminate -> kill until the process exits, then release the pipe
        and the process handle.

        Exit is judged by the process sentinel, not by ``waitpid``:
        ``multiprocessing`` reaps finished children from any thread
        (``Process.start()`` and ``active_children()`` both do), and a
        child reaped there reports no exit code here until that thread
        stores it — closing the handle before then raises.
        """
        from multiprocessing.connection import wait

        if self._closed:
            return
        self._closed = True
        process = self._process
        escalation = [process.terminate, process.kill]
        if handshake and not self._broken:
            try:
                with self._lock:
                    self._conn.send(("close", None))
                    # Bounded ack wait: a wedged worker must not stall
                    # interpreter exit; the escalation below follows.
                    if self._conn.poll(CLOSE_TIMEOUT):
                        self._conn.recv()
            except (EOFError, OSError):
                pass
        else:
            escalation.pop(0)()
        self._broken = True
        while not wait([process.sentinel], CLOSE_TIMEOUT) and escalation:
            escalation.pop(0)()
        try:
            self._conn.close()
        except OSError:  # pragma: no cover
            pass
        deadline = time.monotonic() + CLOSE_TIMEOUT
        while process.exitcode is None and time.monotonic() < deadline:
            time.sleep(0.001)  # let the reaping thread store the code
        #: The worker's exit code (0 for a clean shutdown), kept past
        #: the process handle's release.
        self.exit_code = process.exitcode
        if self.exit_code is not None:
            process.close()

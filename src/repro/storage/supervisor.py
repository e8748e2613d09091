"""Worker supervision for the process substrate: respawn, rebuild,
verify, degrade.

PR 6's forked shard workers made the sharded backend fast but fragile:
one OOM-killed or wedged worker turned every query into a raw
``EOFError`` or an infinite ``conn.recv``. This module wraps each
:class:`~repro.storage.process_workers.ProcessShardWorker` in a
:class:`SupervisedShardWorker` that keeps the shard *correct* through
worker death:

* **Detection** — every RPC failure is classified by the proxy
  (:class:`~repro.storage.process_workers.WorkerCrashedError` /
  :class:`~repro.storage.process_workers.WorkerTimeoutError`, both of
  which mean the stream is desynchronized and the worker must be
  recycled, vs :class:`~repro.faults.TransientWorkerFault`, which is
  retryable in place); additionally the :class:`ShardSupervisor`'s
  monitor thread polls process sentinels so an *idle* worker's death is
  healed off the query path.
* **Rebuild** — the coordinator mirrors each shard's data in an
  :class:`~repro.storage.epoch_log.EpochLog`: one folded snapshot at
  the shard's epoch, every acknowledged write folded in as it is
  recorded. A respawned worker loads that snapshot and must pass
  **epoch/row-count verification** (per-table cardinalities vs the
  mirror) before it rejoins routing.
* **Retry** — idempotent commands (execute / stats / cost / explain)
  retry with deterministic exponential backoff
  (:class:`Backoff`). Writes are
  **replay-safe**: a write is recorded into the shard state only after
  the worker acknowledged it, so a crash mid-write rebuilds the worker
  to the *pre-write* epoch and re-applies the write exactly once —
  partial application inside the dead worker is discarded wholesale.
* **Degradation** — after ``REPRO_WORKER_RESTARTS`` consecutive respawn
  failures the shard's circuit breaker trips OPEN: its work executes
  **in-coordinator** on a fallback child loaded from the same snapshot
  (identical answers, a WARNING and metrics record the
  degradation). Every ``probe_after_ops`` operations a half-open probe
  attempts one respawn; success closes the circuit and drops the
  fallback.

The serving deadline in the caller's context (:func:`repro.serving.
concurrency.current_deadline`) caps each read RPC at ``min(rpc_timeout,
remaining)`` and surfaces as :class:`~repro.serving.concurrency.
QueryTimeoutError` once blown, so shard RPCs never outlive the query
that issued them by more than one poll interval.

The chaos suite (``tests/test_fault_tolerance.py``) drives all of this
with the deterministic fault harness in :mod:`repro.faults`; see
``docs/ROBUSTNESS.md`` for the failure model and cookbook.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.faults import FaultInjector, TransientWorkerFault
from repro.lifecycle import interpreter_exiting
from repro.obs.metrics import get_registry
from repro.obs.trace import current_span
from repro.serving.concurrency import QueryTimeoutError, current_deadline
from repro.storage.base import Backend, BulkLoader, Row
from repro.storage.epoch_log import EpochDelta, EpochLog
from repro.storage.layouts import LayoutData
from repro.storage.process_workers import (
    ProcessShardWorker,
    WorkerCrashedError,
    WorkerError,
    WorkerTimeoutError,
    rpc_timeout_seconds,
)

logger = logging.getLogger("repro.supervisor")

#: Environment knob: K — consecutive respawn failures before a shard's
#: circuit breaker trips and the shard degrades to in-coordinator
#: execution.
RESTARTS_ENV = "REPRO_WORKER_RESTARTS"


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return max(1, int(raw))
    except ValueError:
        return default


class Backoff:
    """A deterministic exponential backoff schedule.

    ``delay(attempt)`` is ``initial * factor**attempt`` capped at *cap*
    — deliberately jitter-free: retry timing feeds the fault-injection
    harness (:mod:`repro.faults`), where a failing chaos run must replay
    identically. The shard workers backing off are per-shard singletons,
    not a thundering herd, so jitter buys nothing here.
    """

    def __init__(
        self, initial: float = 0.05, factor: float = 2.0, cap: float = 1.0
    ) -> None:
        if initial < 0 or factor < 1 or cap < 0:
            raise ValueError("backoff wants initial >= 0, factor >= 1, cap >= 0")
        self.initial = initial
        self.factor = factor
        self.cap = cap

    def delay(self, attempt: int) -> float:
        """The sleep before retry *attempt* (0-based), in seconds."""
        return min(self.cap, self.initial * self.factor ** max(0, attempt))

    def sleep(self, attempt: int, sleeper: Callable[[float], None] = None) -> None:
        """Sleep out retry *attempt*'s delay (injectable for tests)."""
        seconds = self.delay(attempt)
        if seconds > 0:
            (sleeper or time.sleep)(seconds)


class WorkerRespawnError(WorkerError):
    """A respawn attempt failed (spawn error, rebuild error, or the
    post-rebuild epoch/row-count verification rejected the worker)."""


@dataclass(frozen=True)
class SupervisionConfig:
    """Tunables for one backend's supervision layer.

    ``rpc_timeout_s=None`` resolves from ``REPRO_RPC_TIMEOUT_MS`` at
    use; a non-positive value disables RPC deadlines.
    """

    rpc_timeout_s: Optional[float] = None
    #: K — consecutive respawn failures before the circuit trips.
    max_respawns: int = 3
    #: Bounded retries per failing RPC (idempotent reads and writes).
    max_rpc_retries: int = 2
    backoff_initial_s: float = 0.05
    backoff_cap_s: float = 1.0
    #: Operations on an OPEN circuit between half-open recovery probes.
    probe_after_ops: int = 8
    #: Whether the supervisor runs its sentinel-polling monitor thread
    #: (eager healing of idle workers; chaos tests that need a strictly
    #: deterministic respawn schedule turn it off).
    monitor: bool = True
    monitor_interval_s: float = 0.25

    @classmethod
    def from_env(cls) -> "SupervisionConfig":
        """The environment-configured supervision tunables."""
        return cls(
            rpc_timeout_s=rpc_timeout_seconds(),
            max_respawns=_env_int(RESTARTS_ENV, 3),
        )


class _SupervisedBulkLoader(BulkLoader):
    """Bulk load through a supervised worker, recorded as **one** epoch.

    The loader streams into the target's own bulk session while keeping
    the appended rows coordinator-side; on finish the declared tables
    replace their namesakes in the shard's :class:`EpochLog` in one
    epoch step, so a rebuilt worker reloads the whole load as part of
    one snapshot.

    The session is **replay-safe**: shard state mutates only in
    ``finish``, after the target acknowledged (and, on a worker,
    verified) the whole load, so a worker death mid-bulk fails the
    session and the next operation rebuilds the worker at the untouched
    pre-bulk epoch. Locking is per-operation (not per-session) so the
    sharded backend may drive sibling shards' sessions from pool
    threads; a worker recycled between operations (monitor heal)
    surfaces as a failed session, never as a half-applied load.
    """

    def __init__(self, supervised: "SupervisedShardWorker") -> None:
        super().__init__(supervised)
        with supervised._lock:
            if supervised._closed:
                raise RuntimeError("SupervisedShardWorker is closed")
            target = supervised._target_locked()
            self._via_worker = target is supervised._worker
            self._generation = supervised._generation
            self._inner = target.bulk_load()

    def _guarded(self, op: Callable[[], object]):
        """Run one inner-session operation under the supervised lock;
        any worker failure (or a recycle since the session opened)
        discards the worker and fails the bulk — state untouched."""
        supervised: "SupervisedShardWorker" = self._backend
        with supervised._lock:
            if supervised._closed:
                raise RuntimeError("SupervisedShardWorker is closed")
            if self._via_worker and (
                supervised._generation != self._generation
                or supervised._worker is None
            ):
                raise WorkerCrashedError(
                    f"shard {supervised.shard} worker was recycled during "
                    "a bulk load; the session cannot continue"
                )
            try:
                return op()
            except (WorkerError, TransientWorkerFault):
                if self._via_worker:
                    supervised._discard_worker_locked()
                raise

    def create_table(self, name, columns, indexes=(), shard_key=None) -> None:
        """Declare one table (mirrored coordinator-side for rebuilds)."""
        super().create_table(name, columns, indexes, shard_key)
        self._guarded(
            lambda: self._inner.create_table(name, columns, indexes, shard_key)
        )

    def _append(self, table: str, rows: List[Row]) -> None:
        super()._append(table, rows)
        self._guarded(lambda: self._inner.append(table, rows))

    def _finish(self) -> None:
        supervised: "SupervisedShardWorker" = self._backend
        tables = self._tables()

        def commit():
            self._inner.finish()
            if self._via_worker:
                # The load's one statistics build doubles as the
                # rebuild-style verification.
                supervised._verify_locked(
                    supervised._worker,
                    {spec.name: len(set(spec.rows)) for spec in tables},
                )
            supervised._log.replace(tables)

        self._guarded(commit)

    def _abort(self) -> None:
        supervised: "SupervisedShardWorker" = self._backend
        with supervised._lock:
            if self._via_worker:
                # The worker's tables are in an undefined mid-load
                # state; discard it and let the normal respawn path
                # rebuild the untouched pre-bulk state on demand.
                if (
                    supervised._generation == self._generation
                    and supervised._worker is not None
                ):
                    supervised._discard_worker_locked()
            else:
                try:
                    self._inner.abort()
                except Exception:  # pragma: no cover - best effort
                    pass
                if supervised._fallback is not None:
                    supervised._fallback.close()
                    supervised._fallback = None


class SupervisedShardWorker(Backend):
    """One shard's fault-tolerant worker: a live
    :class:`ProcessShardWorker` plus the state to replace it.

    Presents the same duck surface as a raw worker (``execute``,
    ``statistics_many``, transport counters), so supervision is
    invisible to routing and merge semantics. All telemetry counters
    (``restarts``, ``rpc_retries``, ``deadline_exceeded``,
    ``circuit_trips``, ``circuit_recoveries``, ``degraded_executions``,
    shm/inline transport counts) accumulate across worker generations.
    """

    def __init__(
        self,
        factory: Callable[[], Backend],
        shard: int = 0,
        config: Optional[SupervisionConfig] = None,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        self._factory = factory
        self.shard = shard
        self._config = config or SupervisionConfig.from_env()
        self._injector = injector
        raw_timeout = self._config.rpc_timeout_s
        #: The resolved per-RPC deadline (``None`` = disabled).
        self._rpc_timeout = (
            rpc_timeout_seconds()
            if raw_timeout is None
            else (raw_timeout if raw_timeout > 0 else None)
        )
        self._lock = threading.RLock()
        #: The coordinator's mirror of this shard's data.
        self._log = EpochLog()
        self._backoff = Backoff(
            initial=self._config.backoff_initial_s,
            cap=self._config.backoff_cap_s,
        )
        self._sleeper: Callable[[float], None] = time.sleep
        self._generation = 0
        self._circuit_open = False
        self._ops_since_trip = 0
        self._closed = False
        self._fallback: Optional[Backend] = None
        # Telemetry accumulated across worker generations.
        self.restarts = 0
        self.rpc_retries = 0
        self.deadline_exceeded = 0
        self.circuit_trips = 0
        self.circuit_recoveries = 0
        self.degraded_executions = 0
        self._prior_shm_results = 0
        self._prior_shm_bytes = 0
        self._prior_inline_results = 0
        self.last_execution = None
        self.exit_code: Optional[int] = None
        # Initial spawn failures propagate: a broken child factory is a
        # configuration error, not an outage to be supervised around.
        self._worker: Optional[ProcessShardWorker] = self._spawn_locked(0)
        self.name = self._worker.name

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    @property
    def circuit_open(self) -> bool:
        """Whether this shard is degraded to in-coordinator execution."""
        return self._circuit_open

    @property
    def worker(self) -> Optional[ProcessShardWorker]:
        """The live worker proxy (``None`` while degraded/dead)."""
        return self._worker

    @property
    def epoch(self) -> int:
        """The shard's current data epoch."""
        return self._log.epoch

    @property
    def shm_results(self) -> int:
        """Shm-transport results across all worker generations."""
        worker = self._worker
        return self._prior_shm_results + (worker.shm_results if worker else 0)

    @property
    def shm_bytes(self) -> int:
        """Shm-transport bytes across all worker generations."""
        worker = self._worker
        return self._prior_shm_bytes + (worker.shm_bytes if worker else 0)

    @property
    def inline_results(self) -> int:
        """Inline-transport results across all worker generations."""
        worker = self._worker
        return self._prior_inline_results + (
            worker.inline_results if worker else 0
        )

    def _spawn_locked(self, generation: int) -> ProcessShardWorker:
        injector = self._injector
        if (
            generation > 0
            and injector is not None
            and injector.take_spawn_fail(self.shard)
        ):
            raise WorkerRespawnError(
                f"injected respawn failure (shard {self.shard})"
            )
        fault_config = (
            injector.worker_config(self.shard, generation)
            if injector is not None
            else None
        )
        return ProcessShardWorker(
            self._factory,
            self.shard,
            rpc_timeout=self._rpc_timeout,
            fault_config=fault_config,
        )

    def _discard_worker_locked(self) -> None:
        worker = self._worker
        self._worker = None
        if worker is None:
            return
        self._prior_shm_results += worker.shm_results
        self._prior_shm_bytes += worker.shm_bytes
        self._prior_inline_results += worker.inline_results
        worker.kill()

    def _rebuild_locked(self, worker: ProcessShardWorker) -> None:
        """Load the shard's folded snapshot, then verify the result
        (raises :class:`WorkerRespawnError` on divergence)."""
        self._log.restore(worker)
        self._verify_locked(worker, self._log.counts())

    def _verify_locked(self, worker: Backend, expected: Dict[str, int]) -> None:
        """Raise :class:`WorkerRespawnError` unless *worker*'s catalog
        cardinalities match the *expected* rows per table."""
        if not expected:
            return
        stats = worker.statistics_many(list(expected))
        for name, count in expected.items():
            cardinality = getattr(stats.get(name), "cardinality", None)
            if cardinality is not None and cardinality != count:
                raise WorkerRespawnError(
                    f"verification failed (shard {self.shard}): table "
                    f"{name!r} holds {cardinality} rows where the mirror "
                    f"at epoch {self._log.epoch} expects {count}"
                )

    def _respawn_cycle_locked(self, reason: str = "death") -> bool:
        """Up to K spawn+rebuild+verify attempts with backoff; trips the
        circuit breaker (and returns ``False``) when all fail."""
        if interpreter_exiting():
            # Never fork during interpreter exit: a fresh worker would
            # die in the dying runtime and re-enter this cycle, keeping
            # the exit hook's untimed join from draining. Trip straight
            # to degraded in-coordinator execution instead.
            self._trip_circuit_locked()
            return False
        registry = get_registry()
        parent = current_span()
        for attempt in range(self._config.max_respawns):
            with parent.child(
                "worker.respawn",
                shard=self.shard,
                reason=reason,
                attempt=attempt,
            ) as span:
                worker = None
                try:
                    worker = self._spawn_locked(self._generation + 1)
                    self._rebuild_locked(worker)
                except Exception as exc:
                    if worker is not None:
                        worker.kill()
                    span.set(outcome="failed", error=type(exc).__name__)
                    registry.inc("repro.worker.respawn.failures")
                    logger.warning(
                        "shard %d respawn attempt %d/%d failed: %s",
                        self.shard,
                        attempt + 1,
                        self._config.max_respawns,
                        exc,
                    )
                    self._backoff.sleep(attempt, self._sleeper)
                    continue
                self._adopt_worker_locked(worker, span)
                return True
        self._trip_circuit_locked()
        return False

    def _adopt_worker_locked(self, worker: ProcessShardWorker, span) -> None:
        self._generation += 1
        self._worker = worker
        self.restarts += 1
        get_registry().inc("repro.worker.restarts")
        span.set(outcome="respawned", epoch=self._log.epoch)
        logger.warning(
            "shard %d worker respawned at epoch %d (generation %d)",
            self.shard,
            self._log.epoch,
            self._generation,
        )

    def _trip_circuit_locked(self) -> None:
        self._circuit_open = True
        self._ops_since_trip = 0
        self.circuit_trips += 1
        registry = get_registry()
        registry.inc("repro.circuit.trips")
        registry.set_gauge(f"repro.circuit.open.shard{self.shard}", 1.0)
        logger.warning(
            "shard %d circuit breaker OPEN after %d consecutive respawn "
            "failures; executing in-coordinator (degraded)",
            self.shard,
            self._config.max_respawns,
        )

    def _probe_locked(self) -> bool:
        """One half-open recovery attempt on an OPEN circuit."""
        if interpreter_exiting():
            return False
        registry = get_registry()
        with current_span().child(
            "worker.respawn", shard=self.shard, reason="probe"
        ) as span:
            worker = None
            try:
                worker = self._spawn_locked(self._generation + 1)
                self._rebuild_locked(worker)
            except Exception as exc:
                if worker is not None:
                    worker.kill()
                span.set(outcome="failed", error=type(exc).__name__)
                registry.inc("repro.worker.respawn.failures")
                logger.info(
                    "shard %d half-open probe failed: %s", self.shard, exc
                )
                return False
            self._adopt_worker_locked(worker, span)
        self._circuit_open = False
        self.circuit_recoveries += 1
        registry.inc("repro.circuit.recoveries")
        registry.set_gauge(f"repro.circuit.open.shard{self.shard}", 0.0)
        logger.warning(
            "shard %d circuit breaker CLOSED: worker recovered at epoch %d",
            self.shard,
            self._log.epoch,
        )
        if self._fallback is not None:
            self._fallback.close()
            self._fallback = None
        return True

    def _ensure_fallback_locked(self) -> Backend:
        if self._fallback is None:
            backend = self._factory()
            self._log.restore(backend)
            self._fallback = backend
        return self._fallback

    def _target_locked(self) -> Backend:
        """The backend to run the next operation on: the live worker,
        a freshly respawned one, or the degraded fallback."""
        worker = self._worker
        if worker is not None and worker.is_alive():
            return worker
        if worker is not None:
            self._discard_worker_locked()
        if self._circuit_open:
            self._ops_since_trip += 1
            if self._ops_since_trip >= self._config.probe_after_ops:
                self._ops_since_trip = 0
                if self._probe_locked():
                    return self._worker
            return self._ensure_fallback_locked()
        if self._respawn_cycle_locked():
            return self._worker
        return self._ensure_fallback_locked()

    # ------------------------------------------------------------------
    # RPC wrappers
    # ------------------------------------------------------------------
    def _check_deadline(self, deadline: Optional[Tuple[float, float]]) -> None:
        if deadline is not None and deadline[0] - time.monotonic() <= 0:
            raise QueryTimeoutError(deadline[1])

    def _effective_timeout(
        self, deadline: Optional[Tuple[float, float]]
    ) -> Optional[float]:
        timeout = self._rpc_timeout
        if deadline is not None:
            remaining = deadline[0] - time.monotonic()
            timeout = remaining if timeout is None else min(timeout, remaining)
        return timeout

    def _count_retry(self) -> None:
        self.rpc_retries += 1
        get_registry().inc("repro.rpc.retries")

    def _read(
        self,
        attempt: Callable[[ProcessShardWorker, Optional[float]], object],
        fallback: Callable[[Backend], object],
    ):
        """Run one idempotent command with retries: transient faults
        retry in place with backoff; crashes and missed deadlines
        recycle the worker first. Fail-fast on a blown serving deadline
        (the caller's :func:`~repro.serving.concurrency.current_deadline`)."""
        if self._closed:
            raise RuntimeError("SupervisedShardWorker is closed")
        deadline = current_deadline()
        with self._lock:
            transient = 0
            failures = 0
            while True:
                self._check_deadline(deadline)
                target = self._target_locked()
                if target is not self._worker:
                    return fallback(target)
                timeout = self._effective_timeout(deadline)
                try:
                    return attempt(target, timeout)
                except TransientWorkerFault:
                    transient += 1
                    if transient > self._config.max_rpc_retries:
                        raise
                    self._count_retry()
                    self._backoff.sleep(transient - 1, self._sleeper)
                except WorkerTimeoutError:
                    self.deadline_exceeded += 1
                    get_registry().inc("repro.rpc.deadline_exceeded")
                    self._discard_worker_locked()
                    self._check_deadline(deadline)
                    failures += 1
                    if failures > self._config.max_rpc_retries:
                        raise
                    self._count_retry()
                except WorkerCrashedError:
                    self._discard_worker_locked()
                    failures += 1
                    if failures > self._config.max_rpc_retries:
                        raise
                    self._count_retry()

    def _write(
        self,
        attempt: Callable[[ProcessShardWorker], object],
        fallback: Callable[[Backend], object],
        **change,
    ):
        """Run one write with replay-safe acknowledgment: the *change*
        (:class:`EpochDelta` fields) is recorded into the shard's mirror
        only after the target applied it, so a crash mid-write rebuilds
        the worker to the pre-write epoch and re-applies exactly once
        (partial application inside the dead worker is discarded
        wholesale by the rebuild)."""
        if self._closed:
            raise RuntimeError("SupervisedShardWorker is closed")
        with self._lock:
            failures = 0
            while True:
                target = self._target_locked()
                if target is not self._worker:
                    result = fallback(target)
                else:
                    try:
                        result = attempt(target)
                    except (TransientWorkerFault, WorkerError) as exc:
                        # A failed write leaves the worker's applied
                        # state unknown (even a "transient" error may
                        # have landed after a partial multi-table apply)
                        # — recycle and rebuild rather than guess.
                        if isinstance(exc, WorkerTimeoutError):
                            self.deadline_exceeded += 1
                            get_registry().inc("repro.rpc.deadline_exceeded")
                        self._discard_worker_locked()
                        failures += 1
                        if failures > self._config.max_rpc_retries:
                            raise
                        self._count_retry()
                        continue
                self._log.record(EpochDelta(self._log.epoch + 1, **change))
                return result

    # ------------------------------------------------------------------
    # Backend surface
    # ------------------------------------------------------------------
    def load(self, data: LayoutData) -> None:
        """Load the shard's layout slice (recorded for rebuilds)."""
        self._write(
            lambda worker: worker.load(data),
            lambda backend: backend.load(data),
            tables=tuple(data.tables),
        )

    def bulk_load(self) -> BulkLoader:
        """A bulk-ingest session recorded as one epoch, so a post-load
        crash rebuilds from one snapshot."""
        return _SupervisedBulkLoader(self)

    def insert_rows(self, table: str, rows: List[Row]) -> None:
        """Insert rows (set semantics), replay-safe on worker death."""
        self._write(
            lambda worker: worker.insert_rows(table, rows),
            lambda backend: backend.insert_rows(table, rows),
            inserts={table: rows},
        )

    def delete_rows(self, table: str, rows: List[Row]) -> int:
        """Delete rows; the removed count always comes from a backend
        that applied the delete exactly once (rebuild restores the
        pre-delete epoch before any retry)."""
        return self._write(
            lambda worker: worker.delete_rows(table, rows),
            lambda backend: backend.delete_rows(table, rows),
            deletes={table: rows},
        )

    def apply_changes(self, inserts, deletes) -> None:
        """Apply a multi-table delta, replay-safe on worker death."""
        self._write(
            lambda worker: worker.apply_changes(inserts, deletes),
            lambda backend: backend.apply_changes(inserts, deletes),
            inserts=inserts,
            deletes=deletes,
        )

    def execute(self, sql: str) -> List[Row]:
        """Evaluate *sql* with supervision (respawn/retry/degrade), under
        the caller's serving deadline; a traced caller gets the worker's
        spans grafted by :meth:`ProcessShardWorker.execute`."""

        def attempt(worker: ProcessShardWorker, timeout: Optional[float]):
            rows = worker.execute(sql, timeout=timeout)
            self.last_execution = worker.last_execution
            return rows

        def fallback(backend: Backend):
            rows = backend.execute(sql)
            self.last_execution = getattr(backend, "last_execution", None)
            self.degraded_executions += 1
            get_registry().inc("repro.worker.degraded.executions")
            return rows

        return self._read(attempt, fallback)

    def estimated_cost(self, sql: str) -> float:
        """The shard's own cost estimate (idempotent, retried)."""
        return self._read(
            lambda worker, _timeout: worker.estimated_cost(sql),
            lambda backend: backend.estimated_cost(sql),
        )

    def explain_text(self, sql: str, analyze: bool = False) -> str:
        """The shard's EXPLAIN rendering (idempotent, retried)."""

        def fallback(backend: Backend) -> str:
            explain = getattr(backend, "explain_text", None)
            return "" if explain is None else explain(sql, analyze=analyze)

        return self._read(
            lambda worker, _timeout: worker.explain_text(sql, analyze),
            fallback,
        )

    def table_statistics(self, table: str):
        """The shard's catalog statistics for one table."""
        return self._read(
            lambda worker, _timeout: worker.table_statistics(table),
            lambda backend: backend.table_statistics(table),
        )

    def statistics_many(self, tables) -> Dict[str, object]:
        """Statistics for many tables in one (supervised) round-trip."""
        names = list(tables)
        return self._read(
            lambda worker, _timeout: worker.statistics_many(names),
            lambda backend: {
                name: backend.table_statistics(name) for name in names
            },
        )

    def metrics_snapshot(self) -> Optional[Dict]:
        """The live worker's registry snapshot; ``None`` while degraded
        or dead (metrics reads never trigger a respawn)."""
        with self._lock:
            worker = self._worker
            if self._closed or worker is None or not worker.is_alive():
                return None
            try:
                return worker.metrics_snapshot()
            except (WorkerError, TransientWorkerFault):
                return None

    # ------------------------------------------------------------------
    # Monitor hooks
    # ------------------------------------------------------------------
    def live_sentinel(self) -> Optional[int]:
        """The live worker's process sentinel for death polling, or
        ``None`` (dead, degraded, closed, or momentarily busy —
        non-blocking by design: the monitor must never queue behind a
        long RPC)."""
        if self._closed or not self._lock.acquire(blocking=False):
            return None
        try:
            worker = self._worker
            if worker is not None and worker.is_alive():
                try:
                    return worker.sentinel
                except ValueError:  # pragma: no cover - process released
                    return None
            return None
        finally:
            self._lock.release()

    def heal(self) -> bool:
        """Monitor-thread entry: respawn a dead worker off the query
        path. Non-blocking (skips a busy shard); returns whether a
        respawn happened."""
        if self._closed or not self._lock.acquire(blocking=False):
            return False
        try:
            if self._closed or self._circuit_open:
                return False
            worker = self._worker
            if worker is not None and worker.is_alive():
                return False
            if worker is not None:
                self._discard_worker_locked()
            return self._respawn_cycle_locked(reason="monitor")
        finally:
            self._lock.release()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the worker (graceful handshake when the stream is
        healthy) and the fallback. Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            worker = self._worker
            self._worker = None
            if worker is not None:
                self._prior_shm_results += worker.shm_results
                self._prior_shm_bytes += worker.shm_bytes
                self._prior_inline_results += worker.inline_results
                worker.close()
                self.exit_code = getattr(worker, "exit_code", None)
            if self._fallback is not None:
                self._fallback.close()
                self._fallback = None


class ShardSupervisor:
    """All of one backend's supervised workers plus the monitor thread.

    The monitor waits on live worker sentinels
    (``multiprocessing.connection.wait``), so a worker death wakes it
    immediately and the shard is healed *before* the next query pays
    respawn latency; the interval bound keeps it responsive to shutdown
    and to workers it could not inspect while busy.
    """

    def __init__(
        self,
        factory: Callable[[], Backend],
        shards: int,
        config: Optional[SupervisionConfig] = None,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        self.config = config or SupervisionConfig.from_env()
        self.injector = injector
        self.workers = [
            SupervisedShardWorker(factory, shard, self.config, injector)
            for shard in range(shards)
        ]
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        if self.config.monitor:
            self._thread = threading.Thread(
                target=self._run, name="repro-supervisor", daemon=True
            )
            self._thread.start()

    def _run(self) -> None:
        from multiprocessing.connection import wait

        interval = self.config.monitor_interval_s
        while not self._stop.is_set():
            sentinels = []
            for worker in self.workers:
                sentinel = worker.live_sentinel()
                if sentinel is not None:
                    sentinels.append(sentinel)
                else:
                    # No sentinel: the shard is busy, degraded, closed —
                    # or its worker died while we were not blocked in
                    # wait() below (in which case it would never become
                    # "ready"). heal() is non-blocking and a cheap no-op
                    # in every state except a dead, healable worker.
                    worker.heal()
            if self._stop.is_set():
                break
            if not sentinels:
                self._stop.wait(interval)
                continue
            try:
                ready = wait(sentinels, timeout=interval)
            except OSError:  # pragma: no cover - sentinel raced a close
                ready = []
            if self._stop.is_set():
                break
            if ready:
                for worker in self.workers:
                    worker.heal()

    def telemetry(self) -> Dict[str, int]:
        """Aggregate supervision counters across the shards, keyed by
        their dotted metric names."""
        return {
            "worker.restarts": sum(w.restarts for w in self.workers),
            "rpc.retries": sum(w.rpc_retries for w in self.workers),
            "rpc.deadline_exceeded": sum(
                w.deadline_exceeded for w in self.workers
            ),
            "circuit.trips": sum(w.circuit_trips for w in self.workers),
            "circuit.recoveries": sum(
                w.circuit_recoveries for w in self.workers
            ),
            "circuit.open_shards": sum(
                1 for w in self.workers if w.circuit_open
            ),
            "worker.degraded.executions": sum(
                w.degraded_executions for w in self.workers
            ),
        }

    def close(self) -> None:
        """Stop the monitor, then every supervised worker. Idempotent."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2 * self.config.monitor_interval_s + 5.0)
            self._thread = None
        for worker in self.workers:
            worker.close()

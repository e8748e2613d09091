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
* **Rebuild** — the coordinator keeps each shard's :class:`ShardState`:
  an epoch-tagged base snapshot (the shard's ``LayoutData`` slice,
  folded) plus a bounded write log (``REPRO_WRITE_LOG``; overflow folds
  oldest-first into the base, so memory stays bounded and the epoch
  counter never lies). A respawned worker is loaded from the base,
  replays the log, and must pass **epoch/row-count verification**
  (per-table cardinalities vs the folded expectation) before it rejoins
  routing.
* **Retry** — idempotent commands (execute / stats / cost / explain)
  retry with deterministic exponential backoff
  (:class:`Backoff`). Writes are
  **replay-safe**: a write is recorded into the shard state only after
  the worker acknowledged it, so a crash mid-write rebuilds the worker
  to the *pre-write* epoch and re-applies the write exactly once —
  partial application inside the dead worker is discarded wholesale.
* **Degradation** — after ``REPRO_WORKER_RESTARTS`` consecutive respawn
  failures the shard's circuit breaker trips OPEN: its work executes
  **in-coordinator** on a fallback child built from the folded shard
  state (identical answers, a WARNING and metrics record the
  degradation). Every ``probe_after_ops`` operations a half-open probe
  attempts one respawn; success closes the circuit and drops the
  fallback.

Deadlines from the serving layer (:func:`repro.serving.concurrency.
current_deadline`) cap each execute RPC at ``min(rpc_timeout,
remaining)`` and surface as :class:`~repro.serving.concurrency.
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
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.faults import FaultInjector, TransientWorkerFault
from repro.lifecycle import interpreter_exiting
from repro.obs.metrics import get_registry
from repro.obs.trace import current_span
from repro.serving.concurrency import QueryTimeoutError
from repro.storage.base import Backend, BulkLoader, Row
from repro.storage.layouts import LayoutData, TableSpec
from repro.storage.process_workers import (
    ProcessShardWorker,
    WorkerCrashedError,
    WorkerError,
    WorkerTimeoutError,
    rpc_timeout_seconds,
)

logger = logging.getLogger("repro.supervisor")

#: Environment knob: supervision on the process substrate (default on;
#: ``0`` / ``false`` / ``off`` / ``no`` fall back to raw workers).
SUPERVISE_ENV = "REPRO_SUPERVISE"

#: Environment knob: K — consecutive respawn failures before a shard's
#: circuit breaker trips and the shard degrades to in-coordinator
#: execution.
RESTARTS_ENV = "REPRO_WORKER_RESTARTS"

#: Environment knob: bound on the per-shard write log; older entries
#: fold into the base snapshot.
WRITE_LOG_ENV = "REPRO_WRITE_LOG"


def supervision_enabled() -> bool:
    """Whether ``REPRO_SUPERVISE`` leaves supervision on (the default)."""
    raw = os.environ.get(SUPERVISE_ENV, "1").strip().lower()
    return raw not in ("0", "false", "off", "no")


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
    #: Write-log bound; overflow folds into the base snapshot.
    max_write_log: int = 256
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
            max_write_log=_env_int(WRITE_LOG_ENV, 256),
        )


class _TableState:
    """One table's slice of a shard's base snapshot: schema plus an
    insertion-ordered row set (``dict`` keys), mirroring the child
    backends' set-semantics writes so a rebuilt worker's row *order*
    matches what an uninterrupted worker would hold."""

    __slots__ = ("name", "columns", "indexes", "shard_key", "rows")

    def __init__(self, spec: TableSpec) -> None:
        self.name = spec.name
        self.columns = tuple(spec.columns)
        self.indexes = tuple(spec.indexes)
        self.shard_key = spec.shard_key
        self.rows: Dict[Row, None] = dict.fromkeys(
            tuple(row) for row in spec.rows
        )

    def copy(self) -> "_TableState":
        """A row-level copy (spec fields are shared, rows are not)."""
        clone = _TableState.__new__(_TableState)
        clone.name = self.name
        clone.columns = self.columns
        clone.indexes = self.indexes
        clone.shard_key = self.shard_key
        clone.rows = dict(self.rows)
        return clone

    def spec(self) -> TableSpec:
        """This table as a loadable :class:`TableSpec`."""
        return TableSpec(
            name=self.name,
            columns=self.columns,
            rows=list(self.rows),
            indexes=self.indexes,
            shard_key=self.shard_key,
        )


def _apply_entry(tables: Dict[str, _TableState], entry: Tuple) -> None:
    """Fold one write-log *entry* into a base-snapshot table dict,
    reproducing the child backends' write semantics: inserts are
    set-semantics appends, deletes remove present rows, ``apply``
    performs inserts before deletes (the :meth:`repro.storage.base.
    Backend.apply_changes` order)."""
    kind = entry[0]
    if kind == "load":
        for spec in entry[1].tables:
            tables[spec.name.lower()] = _TableState(spec)
    elif kind == "insert":
        rows = tables[entry[1].lower()].rows
        for row in entry[2]:
            rows.setdefault(row, None)
    elif kind == "delete":
        rows = tables[entry[1].lower()].rows
        for row in entry[2]:
            rows.pop(row, None)
    elif kind == "apply":
        for name, new_rows in entry[1].items():
            rows = tables[name.lower()].rows
            for row in new_rows:
                rows.setdefault(row, None)
        for name, dead_rows in entry[2].items():
            rows = tables[name.lower()].rows
            for row in dead_rows:
                rows.pop(row, None)
    else:  # pragma: no cover - log corruption
        raise ValueError(f"unknown shard-state entry {kind!r}")


class ShardState:
    """The coordinator's mirror of one shard's data: an epoch-tagged
    base snapshot plus a bounded write log.

    The **epoch** is ``base_epoch + len(log)`` — every recorded write
    (or load) advances it by one. Keeping recent writes as log entries
    (rather than folding eagerly) lets a rebuild replay them through the
    worker's real write RPCs; the bound (*max_log*) folds overflow
    oldest-first into the base so memory stays proportional to the
    shard's data, not its write history.
    """

    def __init__(self, max_log: int = 256) -> None:
        self.tables: Dict[str, _TableState] = {}
        self.log: Deque[Tuple] = deque()
        self.base_epoch = 0
        self.max_log = max(0, max_log)

    @property
    def epoch(self) -> int:
        """The shard's current data epoch (writes since creation)."""
        return self.base_epoch + len(self.log)

    def record(self, entry: Tuple) -> None:
        """Append one acknowledged write, folding overflow into the
        base."""
        self.log.append(entry)
        while len(self.log) > self.max_log:
            _apply_entry(self.tables, self.log.popleft())
            self.base_epoch += 1

    def snapshot(self) -> LayoutData:
        """The base snapshot as loadable ``LayoutData``."""
        return LayoutData(
            tables=[state.spec() for state in self.tables.values()]
        )

    def entries(self) -> List[Tuple]:
        """The logged writes after the base snapshot, oldest first."""
        return list(self.log)

    def folded_tables(self) -> Dict[str, _TableState]:
        """Base ⊕ log: the shard's *current* tables (fresh copies)."""
        tables = {name: state.copy() for name, state in self.tables.items()}
        for entry in self.log:
            _apply_entry(tables, entry)
        return tables

    def folded_layout(self) -> LayoutData:
        """The shard's current data as loadable ``LayoutData`` (the
        degraded in-coordinator fallback is built from this)."""
        return LayoutData(
            tables=[state.spec() for state in self.folded_tables().values()]
        )

    def expected_counts(self) -> Dict[str, int]:
        """Per-table row counts at the current epoch — what a correctly
        rebuilt worker's catalog cardinalities must report."""
        return {
            state.name: len(state.rows)
            for state in self.folded_tables().values()
        }


class _SupervisedBulkLoader(BulkLoader):
    """Bulk load through a supervised worker, folded into the **base
    snapshot** — never the bounded write log.

    A bulk load is millions of rows; recording it as a log entry would
    make every post-load crash replay the whole dataset through write
    RPCs (and the log bound would fold it anyway, entry by entry). So
    the loader streams into the target's own bulk session while
    mirroring the declared tables coordinator-side, and on finish:
    drains any older log entries into the base (preserving write
    order), installs the mirrored tables as base state, and advances
    ``base_epoch`` by one — the bulk load is a single write, and a
    rebuilt worker reloads it as one snapshot with an **empty** log.

    The session is **replay-safe**: shard state mutates only in
    ``finish``, after the target acknowledged the whole load, so a
    worker death mid-bulk fails the session and the next operation
    rebuilds the worker at the untouched pre-bulk epoch. Locking is
    per-operation (not per-session) so the sharded backend may drive
    sibling shards' sessions from pool threads; a worker recycled
    between operations (monitor heal) surfaces as a failed session,
    never as a half-applied load.
    """

    def __init__(self, supervised: "SupervisedShardWorker") -> None:
        super().__init__(supervised)
        self._pending: Dict[str, _TableState] = {}
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
        self._pending[name.lower()] = _TableState(
            TableSpec(
                name=name,
                columns=tuple(columns),
                rows=[],
                indexes=tuple(tuple(ix) for ix in indexes),
                shard_key=shard_key,
            )
        )
        self._guarded(
            lambda: self._inner.create_table(name, columns, indexes, shard_key)
        )

    def _append(self, table: str, rows: List[Row]) -> None:
        mirror = self._pending[table.lower()].rows
        for row in rows:
            mirror.setdefault(row, None)
        self._guarded(lambda: self._inner.append(table, rows))

    def _finish(self) -> None:
        supervised: "SupervisedShardWorker" = self._backend

        def commit():
            self._inner.finish()
            if self._via_worker:
                # The load's one statistics build doubles as the
                # rebuild-style verification: the worker's cardinality
                # per table must match the coordinator mirror.
                expected = {
                    state.name: len(state.rows)
                    for state in self._pending.values()
                }
                stats = supervised._worker.statistics_many(list(expected))
                for name, count in expected.items():
                    cardinality = getattr(
                        stats.get(name), "cardinality", None
                    )
                    if cardinality is not None and cardinality != count:
                        supervised._discard_worker_locked()
                        raise WorkerRespawnError(
                            f"bulk load verification failed (shard "
                            f"{supervised.shard}): table {name!r} holds "
                            f"{cardinality} rows, expected {count}"
                        )
            # Fold: drain older writes into the base in order, then
            # install the bulk tables; the whole load is one epoch step.
            state = supervised._state
            while state.log:
                _apply_entry(state.tables, state.log.popleft())
                state.base_epoch += 1
            for name, table_state in self._pending.items():
                state.tables[name] = table_state
            state.base_epoch += 1

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

    Presents the same duck surface the sharded backend expects from a
    raw worker (``execute_traced``, ``statistics_many``, transport
    counters, ``db``), so supervision is invisible to routing and merge
    semantics. All telemetry counters (``restarts``, ``rpc_retries``,
    ``deadline_exceeded``, ``circuit_trips``, ``circuit_recoveries``,
    ``degraded_executions``, shm/inline transport counts) accumulate
    across worker generations.
    """

    #: ``ShardedBackend.execute`` threads the serving deadline into
    #: children advertising this.
    supports_deadline = True

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
        self._state = ShardState(max_log=self._config.max_write_log)
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
        return self._state.epoch

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
        """Load the base snapshot, replay the write log through real
        write RPCs, then verify the result (raises
        :class:`WorkerRespawnError` on divergence)."""
        snapshot = self._state.snapshot()
        if snapshot.tables:
            worker.load(snapshot)
        for entry in self._state.entries():
            kind = entry[0]
            if kind == "load":
                worker.load(entry[1])
            elif kind == "insert":
                worker.insert_rows(entry[1], list(entry[2]))
            elif kind == "delete":
                worker.delete_rows(entry[1], list(entry[2]))
            elif kind == "apply":
                worker.apply_changes(
                    {name: list(rows) for name, rows in entry[1].items()},
                    {name: list(rows) for name, rows in entry[2].items()},
                )
        self._verify_locked(worker)

    def _verify_locked(self, worker: ProcessShardWorker) -> None:
        expected = self._state.expected_counts()
        if not expected:
            return
        stats = worker.statistics_many(list(expected))
        for name, count in expected.items():
            table_stats = stats.get(name)
            cardinality = getattr(table_stats, "cardinality", None)
            if cardinality is not None and cardinality != count:
                raise WorkerRespawnError(
                    f"rebuild verification failed (shard {self.shard}): "
                    f"table {name!r} holds {cardinality} rows where epoch "
                    f"{self._state.epoch} expects {count}"
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
        span.set(outcome="respawned", epoch=self._state.epoch)
        logger.warning(
            "shard %d worker respawned at epoch %d (generation %d)",
            self.shard,
            self._state.epoch,
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
            self._state.epoch,
        )
        if self._fallback is not None:
            self._fallback.close()
            self._fallback = None
        return True

    def _ensure_fallback_locked(self) -> Backend:
        if self._fallback is None:
            backend = self._factory()
            data = self._state.folded_layout()
            if data.tables:
                backend.load(data)
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
        deadline: Optional[Tuple[float, float]] = None,
    ):
        """Run one idempotent command with retries: transient faults
        retry in place with backoff; crashes and missed deadlines
        recycle the worker first. Fail-fast on a blown serving
        deadline."""
        if self._closed:
            raise RuntimeError("SupervisedShardWorker is closed")
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
                    if (
                        deadline is not None
                        and deadline[0] - time.monotonic() <= 0
                    ):
                        raise QueryTimeoutError(deadline[1])
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
        entry: Tuple,
        attempt: Callable[[ProcessShardWorker], object],
        fallback: Callable[[Backend], object],
    ):
        """Run one write with replay-safe acknowledgment: the write is
        recorded into the shard state only after the target applied it,
        so a crash mid-write rebuilds the worker to the pre-write epoch
        and re-applies exactly once (partial application inside the dead
        worker is discarded wholesale by the rebuild)."""
        if self._closed:
            raise RuntimeError("SupervisedShardWorker is closed")
        with self._lock:
            failures = 0
            while True:
                target = self._target_locked()
                if target is not self._worker:
                    result = fallback(target)
                    self._state.record(entry)
                    return result
                try:
                    result = attempt(target)
                except (TransientWorkerFault, WorkerError) as exc:
                    # A failed write leaves the worker's applied state
                    # unknown (even a "transient" error may have landed
                    # after a partial multi-table apply) — recycle and
                    # rebuild rather than guess.
                    if isinstance(exc, WorkerTimeoutError):
                        self.deadline_exceeded += 1
                        get_registry().inc("repro.rpc.deadline_exceeded")
                    self._discard_worker_locked()
                    failures += 1
                    if failures > self._config.max_rpc_retries:
                        raise
                    self._count_retry()
                    continue
                self._state.record(entry)
                return result

    # ------------------------------------------------------------------
    # Backend surface
    # ------------------------------------------------------------------
    def load(self, data: LayoutData) -> None:
        """Load the shard's layout slice (recorded for rebuilds)."""
        self._write(
            ("load", data),
            lambda worker: worker.load(data),
            lambda backend: backend.load(data),
        )

    def bulk_load(self) -> BulkLoader:
        """A bulk-ingest session that folds into the base snapshot (not
        the write log), so a post-load crash rebuilds from one snapshot
        instead of replaying millions of rows."""
        return _SupervisedBulkLoader(self)

    def insert_rows(self, table: str, rows: List[Row]) -> None:
        """Insert rows (set semantics), replay-safe on worker death."""
        frozen = tuple(tuple(row) for row in rows)
        self._write(
            ("insert", table, frozen),
            lambda worker: worker.insert_rows(table, list(frozen)),
            lambda backend: backend.insert_rows(table, list(frozen)),
        )

    def delete_rows(self, table: str, rows: List[Row]) -> int:
        """Delete rows; the removed count always comes from a backend
        that applied the delete exactly once (rebuild restores the
        pre-delete epoch before any retry)."""
        frozen = tuple(tuple(row) for row in rows)
        return self._write(
            ("delete", table, frozen),
            lambda worker: worker.delete_rows(table, list(frozen)),
            lambda backend: backend.delete_rows(table, list(frozen)),
        )

    def apply_changes(self, inserts, deletes) -> None:
        """Apply a multi-table delta, replay-safe on worker death."""
        frozen_inserts = {
            name: tuple(tuple(row) for row in rows)
            for name, rows in inserts.items()
        }
        frozen_deletes = {
            name: tuple(tuple(row) for row in rows)
            for name, rows in deletes.items()
        }
        self._write(
            ("apply", frozen_inserts, frozen_deletes),
            lambda worker: worker.apply_changes(inserts, deletes),
            lambda backend: backend.apply_changes(inserts, deletes),
        )

    def execute(
        self,
        sql: str,
        deadline: Optional[Tuple[float, float]] = None,
    ) -> List[Row]:
        """Evaluate *sql* with supervision (respawn/retry/degrade);
        *deadline* is the serving layer's ``(expiry, budget)`` pair."""
        rows, _span = self._execute("execute", sql, deadline)
        return rows

    def execute_traced(
        self,
        sql: str,
        deadline: Optional[Tuple[float, float]] = None,
    ) -> Tuple[List[Row], Optional[Dict]]:
        """Evaluate *sql* with a worker-local trace (``None`` span dict
        on the degraded in-coordinator path)."""
        return self._execute("execute_traced", sql, deadline)

    def _execute(
        self,
        cmd: str,
        sql: str,
        deadline: Optional[Tuple[float, float]],
    ) -> Tuple[List[Row], Optional[Dict]]:
        traced = cmd == "execute_traced"

        def attempt(worker: ProcessShardWorker, timeout: Optional[float]):
            if traced:
                rows, span = worker.execute_traced(sql, timeout=timeout)
            else:
                rows, span = worker.execute(sql, timeout=timeout), None
            self.last_execution = worker.last_execution
            return rows, span

        def fallback(backend: Backend):
            rows = backend.execute(sql)
            self.last_execution = getattr(backend, "last_execution", None)
            self.degraded_executions += 1
            get_registry().inc("repro.worker.degraded.executions")
            return rows, None

        return self._read(attempt, fallback, deadline)

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

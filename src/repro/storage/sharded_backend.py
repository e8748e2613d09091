"""Hash-sharded storage: one logical backend over N partitioned children.

:class:`ShardedBackend` hash-partitions every loaded table by its *shard
key* (the home-key column — the first column in both predicate layouts,
i.e. the subject) across ``shards`` child backends, each a full
:class:`~repro.storage.memory_backend.MemoryBackend` or
:class:`~repro.storage.sqlite_backend.SQLiteBackend`. Every statement is
routed by the shard analysis in :func:`repro.engine.planner.
analyze_shard_route` (or by a logical :class:`~repro.sql.translator.
ShardHint` computed at plan time, which skips re-parsing cached
statements):

* **pruned** — an equality binds the shard key to a constant: the
  statement runs on exactly the shards those constants hash to;
* **scatter** — every join is shard-key co-partitioned but unbound: the
  statement runs on *all* shards and the per-shard results merge — a
  global set-union when the statement's root deduplicates,
  order-preserving concatenation (exact multiset) otherwise;
* **gather** — some join is not on the shard key, so shard-local
  evaluation would miss cross-shard matches: the referenced tables are
  pulled from every shard into a coordinator :class:`~repro.engine.
  database.MiniRDBMS` (cached until the next write to those tables) and
  the statement executes there.

The **execution substrate** under the shards is pluggable
(``substrate`` argument / ``REPRO_EXECUTOR``): with ``serial`` every
child lives in the coordinator process and fan-out is a plain loop on
the calling thread; with ``process`` each child is hosted by a
long-lived forked worker
(:class:`~repro.storage.process_workers.ProcessShardWorker`) and the
legs of a multi-shard fan-out run on a dispatch pool of one thread per
shard, each blocking on worker IPC with the GIL released — shard
pipelines then truly run in parallel on stock CPython, and results
return as dictionary-encoded columnar batches over shared memory
(:mod:`repro.storage.shm_exchange`) instead of per-row pickles.
``auto`` picks ``process`` on a multi-core box that can fork.

On the process substrate every worker sits behind a
:class:`~repro.storage.supervisor.SupervisedShardWorker`: worker death
is detected, the worker respawned and rebuilt to the shard's current
epoch, RPCs carry deadlines (``REPRO_RPC_TIMEOUT_MS``) with bounded
retries, and a shard whose respawns keep failing degrades to
in-coordinator execution behind a circuit breaker — identical answers,
louder telemetry. See ``docs/ROBUSTNESS.md`` and the deterministic
fault harness in :mod:`repro.faults`. Each fan-out leg runs in a copy
of the caller's context, so the serving deadline and the active trace
span reach every shard RPC: a traced statement grafts each worker's
``shard.worker`` subtree under the span that issued it.

Writes route per shard: ``apply_changes`` splits each table's delta by
the shard key and applies every child's slice under one exclusive
read/write barrier, so a concurrently executing query observes either
the full pre-write or the full post-write state across *all* shards
(on the process substrate the deltas replicate into the shard workers
under the same barrier hold, so worker state tracks the epoch protocol
exactly).
After every write the per-shard catalog statistics are re-merged
(:meth:`repro.engine.catalog.TableStats.merged`) into the coordinator's
planner catalog, which prices the gather fallback; pruned probes and
scatter fan-out are priced against the child estimates plus
:class:`ShardCostParameters` overheads.
"""

from __future__ import annotations

import contextvars
import threading
import zlib
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.catalog import TableStats
from repro.engine.database import MiniRDBMS
from repro.engine.errors import StatementTooLongError, UnknownTableError
from repro.engine.planner import ShardRoute, analyze_shard_route
from repro.engine.sqlparser import parse_sql
from repro.faults import FaultInjector, FaultPlan
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import NO_SPAN, activate, current_span
from repro.serving.concurrency import ReadWriteBarrier
from repro.storage.base import Backend, BulkLoader, Row
from repro.storage.layouts import LayoutData, TableSpec
from repro.storage.memory_backend import MemoryBackend
from repro.storage.process_workers import resolve_substrate
from repro.storage.sqlite_backend import SQLiteBackend
from repro.storage.supervisor import ShardSupervisor, SupervisionConfig

#: Statements whose routes we keep (keyed by exact SQL text).
ROUTE_CACHE_SIZE = 512


@dataclass(frozen=True)
class ShardCostParameters:
    """How the sharded backend prices its three execution routes."""

    #: Per-shard dispatch + merge overhead a scatter pays on top of the
    #: largest shard's own estimate.
    scatter_overhead_per_shard: float = 5.0
    #: Per-row cost of pulling a referenced table to the coordinator on
    #: the gather route (charged even when the copy is warm, so plans
    #: that *stay* shard-local keep winning the cost comparison).
    gather_transfer_per_row: float = 0.5
    #: Fixed overhead per pruned shard probe.
    pruned_probe_overhead: float = 1.0


DEFAULT_SHARD_COSTS = ShardCostParameters()


@dataclass
class ShardExecutionStats:
    """Counters from one sharded execute (telemetry; duck-compatible
    with :class:`repro.engine.executor.ExecutionStats` consumers)."""

    route: str = "scatter"
    #: The execution substrate the shards ran on.
    substrate: str = "serial"
    shards_touched: Tuple[int, ...] = ()
    shard_count: int = 1
    rows: int = 0
    batches: int = 0
    #: One ``{"shard", "rows"}`` dict per shard that executed.
    per_shard: List[Dict] = field(default_factory=list)


class _ShardedBulkLoader(BulkLoader):
    """Per-shard parallel bulk ingest behind the one-backend API.

    One child bulk session per shard; every appended batch is hash-split
    by the declared shard key and **buffered** per shard, flushing to
    the children only once :data:`FLUSH_ROWS` rows are pending — so
    ingest throughput is independent of the caller's chunk size (many
    small appends coalesce into few large transfers, which is what
    amortizes the per-call RPC cost on the process substrate). On the
    process substrate the per-shard sessions are driven from the
    dispatch pool, so N worker processes append — and, at finish, dedup,
    build indexes, and collect statistics — **concurrently**; in-process
    children are visited in a loop on the calling thread (their loaders
    pin the backend lock to it). The coordinator holds the exclusive
    write barrier for the whole session and publishes schema + merged
    statistics once, at finish.
    """

    #: Pending rows buffered across tables before a fan-out flush — the
    #: session's constant residency bound (independent of dataset size).
    FLUSH_ROWS = 100_000

    def __init__(self, backend: "ShardedBackend") -> None:
        super().__init__(backend)
        self._positions: Dict[str, int] = {}
        #: table -> one pending row list per shard.
        self._pending: Dict[str, List[List[Row]]] = {}
        self._pending_rows = 0
        backend._barrier.acquire_write()
        try:
            self._children = [child.bulk_load() for child in backend.children]
        except BaseException:
            backend._barrier.release_write()
            raise

    def _each(self, op: Callable[[int], object]) -> None:
        self._backend._map(op, self._backend.shards)

    def create_table(self, name, columns, indexes=(), shard_key=None) -> None:
        """Declare one table on every shard's session."""
        super().create_table(name, columns, indexes, shard_key)
        columns = tuple(columns)
        key = shard_key or columns[0]
        self._positions[name] = columns.index(key)
        self._pending[name] = [[] for _ in range(self._backend.shards)]
        self._each(
            lambda shard: self._children[shard].create_table(
                name, columns, indexes, shard_key
            )
        )

    def _append(self, table: str, rows: List[Row]) -> None:
        backend: "ShardedBackend" = self._backend
        position = self._positions[table]
        shard_of = backend.shard_of
        shards = backend.shards
        pending = self._pending[table]
        # Inlined int fast path: dictionary-encoded home keys are ints,
        # and at 1M rows the per-row shard_of call is measurable.
        for row in rows:
            value = row[position]
            pending[
                value % shards if type(value) is int else shard_of(value)
            ].append(row)
        self._pending_rows += len(rows)
        if self._pending_rows >= self.FLUSH_ROWS:
            self._flush()

    def _flush(self) -> None:
        """Push every buffered slice to its home shard (one fan-out)."""
        if not self._pending_rows:
            return
        batches = {
            table: slices
            for table, slices in self._pending.items()
            if any(slices)
        }
        self._pending = {
            table: [[] for _ in slices]
            for table, slices in self._pending.items()
        }
        self._pending_rows = 0

        def push(shard: int) -> None:
            child = self._children[shard]
            for table, slices in batches.items():
                if slices[shard]:
                    child.append(table, slices[shard])

        self._each(push)

    def _finish(self) -> None:
        backend: "ShardedBackend" = self._backend
        try:
            self._flush()
            self._each(lambda shard: self._children[shard].finish())
            with backend._schema_lock:
                for spec in self._specs.values():
                    backend._schema[spec.name.lower()] = (
                        spec.columns,
                        spec.shard_key or spec.columns[0],
                        spec.indexes,
                    )
            backend._schema_version += 1
            with backend._coordinator_lock:
                for spec in self._specs.values():
                    backend._coordinator.create_table(
                        spec.name, spec.columns
                    )
                    for index_columns in spec.indexes:
                        backend._coordinator.create_index(
                            spec.name, index_columns
                        )
                backend._after_write_locked(
                    [name.lower() for name in self._specs]
                )
        finally:
            backend._barrier.release_write()

    def _abort(self) -> None:
        backend: "ShardedBackend" = self._backend
        self._pending.clear()
        self._pending_rows = 0
        try:
            for child in self._children:
                try:
                    child.abort()
                except Exception:  # pragma: no cover - best effort
                    pass
        finally:
            backend._barrier.release_write()


class ShardedBackend(Backend):
    """N hash-partitioned child backends behind the one-backend API.

    ``child`` names the child kind (``"memory"`` or ``"sqlite"``);
    ``child_factory`` overrides it with a zero-argument callable for
    custom children. ``substrate`` picks where the children live:
    in-process (``"serial"``) or one forked worker process per shard
    (``"process"``, fanned out by a dispatch pool of one thread per
    shard); default ``REPRO_EXECUTOR``, else auto-detection (see
    :func:`repro.storage.process_workers.resolve_substrate`). Every
    forked worker is supervised; ``supervision`` tunes it (``None``
    reads :meth:`SupervisionConfig.from_env`).
    """

    def __init__(
        self,
        shards: int,
        child: str = "memory",
        child_factory: Optional[Callable[[], Backend]] = None,
        max_statement_length: Optional[int] = None,
        cost_parameters: ShardCostParameters = DEFAULT_SHARD_COSTS,
        substrate: Optional[str] = None,
        supervision: Optional[SupervisionConfig] = None,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if child_factory is None:
            if child == "memory":
                child_factory = MemoryBackend
            elif child == "sqlite":
                child_factory = SQLiteBackend
            else:
                raise ValueError(f"unknown child backend {child!r}")
            if max_statement_length is None and child == "memory":
                from repro.engine.database import DB2_STATEMENT_LIMIT

                max_statement_length = DB2_STATEMENT_LIMIT
        self.shards = shards
        #: The resolved execution substrate under the shards.
        self.substrate = resolve_substrate(substrate)
        self._supervisor: Optional[ShardSupervisor] = None
        #: Dispatch pool for fan-out to worker processes: its legs only
        #: block on pipe IPC (GIL released), so every shard gets its own
        #: thread. In-process children are visited in a plain loop.
        self._pool: Optional[ThreadPoolExecutor] = None
        if self.substrate == "process":
            # One long-lived forked engine worker per shard, each behind
            # a SupervisedShardWorker (respawn on death, RPC retry,
            # circuit-breaker degradation); the child backend is built
            # *inside* its worker, never coordinator-side, so shard
            # tables live only in worker memory.
            injector = fault_injector
            if injector is None:
                plan = FaultPlan.from_env()
                if plan is not None and plan.enabled:
                    injector = FaultInjector(plan)
            self._supervisor = ShardSupervisor(
                child_factory, shards, config=supervision, injector=injector
            )
            self.children: List[Backend] = list(self._supervisor.workers)
            self._pool = ThreadPoolExecutor(
                max_workers=shards, thread_name_prefix="repro-shard"
            )
        else:
            self.children = [child_factory() for _ in range(shards)]
        self.name = f"sharded[{shards}x{self.children[0].name}]"
        self.max_statement_length = max_statement_length
        self.cost_parameters = cost_parameters
        #: Coordinator engine: full schema + merged statistics always;
        #: gathered row copies only on demand (cross-shard joins).
        self._coordinator = MiniRDBMS(
            max_statement_length=max_statement_length or 1_000_000_000
        )
        self._coordinator_lock = threading.RLock()
        #: table (lowercase) -> (columns, shard key column, indexes).
        #: Mutations (load) happen under the exclusive barrier *and*
        #: this leaf lock; snapshot-style readers (route planning, the
        #: largest-shard scan) take only the lock, so they never race a
        #: concurrent load without having to hold the read barrier.
        self._schema: Dict[str, Tuple[Tuple[str, ...], str, Tuple]] = {}
        self._schema_lock = threading.Lock()
        self._schema_version = 0
        #: Monotonic per-table write counters vs the version each
        #: coordinator row copy was gathered at.
        self._table_versions: Dict[str, int] = {}
        self._gathered: Dict[str, int] = {}
        self._route_cache: "OrderedDict[str, ShardRoute]" = OrderedDict()
        self._route_cache_version = -1
        self._route_lock = threading.Lock()
        self._barrier = ReadWriteBarrier()
        self._telemetry_lock = threading.Lock()
        # Keyed by the metric names of the docs/OBSERVABILITY.md catalog.
        self._counters = {
            "shards.executions": 0,
            "shards.route.pruned": 0,
            "shards.route.scatter": 0,
            "shards.route.gather": 0,
            # Gather-path transfer accounting: how much data the
            # coordinator pulled out of the shards to materialize its
            # row copies (bytes are estimated at 8 per cell — the shm
            # wire format's int64 width — since in-process transfers
            # never serialize).
            "shards.gather.tables": 0,
            "shards.gather.rows": 0,
            "shards.gather.cells": 0,
            "shards.gather.bytes": 0,
        }
        self._largest_shard: Optional[int] = None
        self._closed = False
        self.last_execution: Optional[ShardExecutionStats] = None

    # ------------------------------------------------------------------
    # Partitioning
    # ------------------------------------------------------------------
    def _map(self, task: Callable[[int], object], parts: int) -> List[object]:
        """``task(0) .. task(parts-1)``, results in order: on the dispatch
        pool when there is one and more than one leg, else inline. Each
        pool leg runs in its own copy of the caller's context, so the
        current span and the serving deadline reach it."""
        if self._pool is None or parts <= 1:
            return [task(part) for part in range(parts)]
        contexts = [contextvars.copy_context() for _ in range(parts)]
        return list(
            self._pool.map(
                contextvars.Context.run, contexts, [task] * parts, range(parts)
            )
        )

    def shard_of(self, value: object) -> int:
        """The shard a home-key value hashes to (stable across runs)."""
        if isinstance(value, int):
            return value % self.shards
        return zlib.crc32(str(value).encode("utf-8")) % self.shards

    def _table_entry(self, table: str) -> Tuple[Tuple[str, ...], str, Tuple]:
        entry = self._schema.get(table.lower())
        if entry is None:
            raise UnknownTableError(f"unknown table {table!r}")
        return entry

    def _split_rows(
        self, table: str, rows: Sequence[Row]
    ) -> Dict[int, List[Row]]:
        columns, key, _indexes = self._table_entry(table)
        position = columns.index(key)
        grouped: Dict[int, List[Row]] = {}
        for row in rows:
            grouped.setdefault(self.shard_of(row[position]), []).append(
                tuple(row)
            )
        return grouped

    # ------------------------------------------------------------------
    # Loading and writes
    # ------------------------------------------------------------------
    def load(self, data: LayoutData) -> None:
        """Partition each table's rows by its shard key and load every
        child with its slice (plus the full schema and indexes, so any
        shard can evaluate any statement)."""
        with self._barrier.exclusive():
            per_child: List[List[TableSpec]] = [[] for _ in range(self.shards)]
            for spec in data.tables:
                key = spec.shard_key or spec.columns[0]
                position = spec.columns.index(key)
                name = spec.name.lower()
                with self._schema_lock:
                    self._schema[name] = (
                        tuple(spec.columns),
                        key,
                        spec.indexes,
                    )
                slices: List[List[Row]] = [[] for _ in range(self.shards)]
                for row in spec.rows:
                    slices[self.shard_of(row[position])].append(row)
                for shard in range(self.shards):
                    per_child[shard].append(
                        TableSpec(
                            name=spec.name,
                            columns=spec.columns,
                            rows=slices[shard],
                            indexes=spec.indexes,
                            shard_key=spec.shard_key,
                        )
                    )
            self._map(
                lambda shard: self.children[shard].load(
                    LayoutData(tables=per_child[shard])
                ),
                self.shards,
            )
            self._schema_version += 1
            with self._coordinator_lock:
                for spec in data.tables:
                    self._coordinator.create_table(spec.name, spec.columns)
                    for index_columns in spec.indexes:
                        self._coordinator.create_index(spec.name, index_columns)
                self._after_write_locked(
                    [spec.name.lower() for spec in data.tables]
                )

    def bulk_load(self) -> BulkLoader:
        """A per-shard parallel bulk-ingest session (exclusive barrier
        held for its duration; see :class:`_ShardedBulkLoader`)."""
        return _ShardedBulkLoader(self)

    def insert_rows(self, table: str, rows: List[Row]) -> None:
        """Route encoded rows to their home shards (set semantics)."""
        if not rows:
            return
        with self._barrier.exclusive():
            for shard, slice_rows in self._split_rows(table, rows).items():
                self.children[shard].insert_rows(table, slice_rows)
            with self._coordinator_lock:
                self._after_write_locked([table.lower()])

    def delete_rows(self, table: str, rows: List[Row]) -> int:
        """Delete encoded rows from their home shards; returns how many
        distinct stored rows were removed (duplicate input rows count
        once — the conformance-pinned semantics)."""
        if not rows:
            return 0
        removed = 0
        with self._barrier.exclusive():
            for shard, slice_rows in self._split_rows(table, rows).items():
                removed += self.children[shard].delete_rows(table, slice_rows)
            with self._coordinator_lock:
                self._after_write_locked([table.lower()])
        return removed

    def apply_changes(self, inserts, deletes) -> None:
        """One exclusive barrier hold for the whole multi-table,
        multi-shard write: every child applies its slice of the delta
        atomically, and no query runs between the first and last shard's
        mutation — a reader sees all of the write or none of it."""
        with self._barrier.exclusive():
            per_child_inserts: List[Dict[str, List[Row]]] = [
                {} for _ in range(self.shards)
            ]
            per_child_deletes: List[Dict[str, List[Row]]] = [
                {} for _ in range(self.shards)
            ]
            for table, rows in inserts.items():
                for shard, slice_rows in self._split_rows(table, rows).items():
                    per_child_inserts[shard][table] = slice_rows
            for table, rows in deletes.items():
                for shard, slice_rows in self._split_rows(table, rows).items():
                    per_child_deletes[shard][table] = slice_rows
            for shard, backend in enumerate(self.children):
                if per_child_inserts[shard] or per_child_deletes[shard]:
                    backend.apply_changes(
                        per_child_inserts[shard], per_child_deletes[shard]
                    )
            with self._coordinator_lock:
                self._after_write_locked(
                    [name.lower() for name in (*inserts, *deletes)]
                )

    def _after_write_locked(self, tables: Sequence[str]) -> None:
        """Post-write bookkeeping (coordinator lock held): bump table
        versions (staling gathered copies) and re-merge the per-shard
        statistics into the coordinator's planner catalog. Children
        exposing ``statistics_many`` (process-substrate workers) are
        asked once per write, not once per table — one RPC round-trip
        instead of ``len(tables)``."""
        per_child: List[Optional[Dict[str, TableStats]]] = []
        for child in self.children:
            many = getattr(child, "statistics_many", None)
            per_child.append(many(tables) if many is not None else None)
        for name in tables:
            self._table_versions[name] = self._table_versions.get(name, 0) + 1
            parts = [
                batch[name]
                if batch is not None
                else child.table_statistics(name)
                for batch, child in zip(per_child, self.children)
            ]
            if all(part is not None for part in parts):
                self._coordinator.catalog.set_statistics(
                    name, TableStats.merged(parts)
                )
        self._largest_shard = None

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route_from_hint(self, hint) -> Optional[ShardRoute]:
        """Build a route from a translator :class:`~repro.sql.translator.
        ShardHint` without parsing any SQL; ``None`` when no hint."""
        if hint is None:
            return None
        tables = tuple(sorted(name.lower() for name in hint.tables))
        if not hint.co_partitioned:
            return ShardRoute("gather", (), tables, hint.dedup_root)
        if hint.key_codes is not None:
            shards = tuple(
                sorted({self.shard_of(code) for code in hint.key_codes})
            )
            return ShardRoute("pruned", shards, tables, hint.dedup_root)
        return ShardRoute(
            "scatter", tuple(range(self.shards)), tables, hint.dedup_root
        )

    def plan_route(self, sql: str, hint=None) -> ShardRoute:
        """The route *sql* must take (hint fast path, else parse once;
        parsed routes are cached per statement text)."""
        route = self.route_from_hint(hint)
        if route is not None:
            return route
        with self._route_lock:
            if self._route_cache_version != self._schema_version:
                self._route_cache.clear()
                self._route_cache_version = self._schema_version
            cached = self._route_cache.get(sql)
            if cached is not None:
                self._route_cache.move_to_end(sql)
                return cached
        with self._schema_lock:
            table_keys = {
                name: (columns, key)
                for name, (columns, key, _indexes) in self._schema.items()
            }
        route = analyze_shard_route(
            parse_sql(sql), table_keys, self.shards, self.shard_of
        )
        with self._route_lock:
            self._route_cache[sql] = route
            while len(self._route_cache) > ROUTE_CACHE_SIZE:
                self._route_cache.popitem(last=False)
        return route

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def execute(self, sql: str, route: Optional[ShardRoute] = None) -> List[Row]:
        """Evaluate *sql* on the route's shards and merge the results.

        When the caller's context carries an active trace span (see
        :func:`repro.obs.trace.current_span`), the execution hangs a
        ``shards.execute`` child under it with one per-shard child per
        fan-out leg — including span subtrees shipped back from forked
        workers on the process substrate.
        """
        self._check_length(sql)
        if route is None:
            route = self.plan_route(sql)
        with self._barrier.shared():
            with current_span().child(
                "shards.execute",
                route=route.kind,
                substrate=self.substrate,
                shard_count=self.shards,
            ) as span:
                if route.kind == "gather":
                    rows, stats = self._execute_gather(sql, route, span)
                else:
                    rows, stats = self._execute_shards(sql, route, span)
                span.set(rows=len(rows), batches=stats.batches)
        stats.shard_count = self.shards
        stats.substrate = self.substrate
        self.last_execution = stats
        with self._telemetry_lock:
            self._counters["shards.executions"] += 1
            self._counters[f"shards.route.{route.kind}"] += 1
        registry = get_registry()
        registry.inc("repro.shards.executions")
        registry.inc(f"repro.shards.route.{route.kind}")
        return rows

    def _execute_shards(
        self, sql: str, route: ShardRoute, parent=NO_SPAN
    ) -> Tuple[List[Row], ShardExecutionStats]:
        targets = route.shards

        def one(index: int) -> Tuple[int, List[Row], int]:
            shard = targets[index]
            child = self.children[shard]
            with parent.child("shard.execute", shard=shard) as span:
                with activate(span):
                    rows = child.execute(sql)
                execution = getattr(child, "last_execution", None)
                batches = getattr(execution, "batches", 0) if execution else 0
                span.set(rows=len(rows), batches=batches)
            return shard, rows, batches

        results = self._map(one, len(targets))
        if len(results) == 1:
            merged = results[0][1]
        elif route.dedup_root:
            # Per-shard results are locally deduplicated; identical rows
            # may still surface from several shards (the output need not
            # contain the shard key), so merge through one global
            # seen-set, preserving first-seen order for determinism.
            merged = list(
                dict.fromkeys(
                    row for _shard, rows, _batches in results for row in rows
                )
            )
        else:
            # Duplicate-preserving roots: contributing rows partition
            # across shards, so concatenation is the exact multiset.
            merged = [
                row for _shard, rows, _batches in results for row in rows
            ]
        stats = ShardExecutionStats(
            route=route.kind,
            shards_touched=tuple(targets),
            rows=len(merged),
            batches=sum(batches for _shard, _rows, batches in results),
            per_shard=[
                {"shard": shard, "rows": len(rows)}
                for shard, rows, _batches in results
            ],
        )
        return merged, stats

    def _execute_gather(
        self, sql: str, route: ShardRoute, parent=NO_SPAN
    ) -> Tuple[List[Row], ShardExecutionStats]:
        with self._coordinator_lock:
            self._ensure_gathered(route.tables, parent)
            with parent.child("gather.execute") as span:
                rows = self._coordinator.execute(sql)
                execution = self._coordinator.last_execution
                span.set(
                    rows=len(rows),
                    batches=execution.batches if execution else 0,
                )
            stats = ShardExecutionStats(
                route="gather",
                shards_touched=tuple(range(self.shards)),
                rows=len(rows),
                batches=execution.batches if execution else 0,
            )
        return rows, stats

    def _ensure_gathered(self, tables: Sequence[str], parent=NO_SPAN) -> None:
        """Materialize fresh coordinator copies of *tables* (coordinator
        lock held). Each stale table is scanned shard-parallel and
        reloaded; warm copies (no write since the last gather) are free.

        Every cold gather is counted in the transfer telemetry
        (``gather_tables`` / ``gather_rows`` / ``gather_cells`` /
        ``gather_bytes``): the gather route invisibly ships whole table
        copies to the coordinator, and these counters make that cost
        measurable (bytes estimated at 8 per cell, the int64 wire
        width).
        """
        for name in tables:
            columns, _key, indexes = self._table_entry(name)
            version = self._table_versions.get(name, 0)
            if self._gathered.get(name) == version:
                continue
            with parent.child("gather.table", table=name) as span:
                scan = f"SELECT {', '.join(columns)} FROM {name}"
                with activate(span):
                    slices = self._map(
                        lambda shard: self.children[shard].execute(scan),
                        self.shards,
                    )
                self._coordinator.create_table(name, columns)
                for slice_rows in slices:
                    self._coordinator.insert_many(name, slice_rows)
                for index_columns in indexes:
                    self._coordinator.create_index(name, index_columns)
                self._coordinator.analyze(name)
                self._gathered[name] = version
                transferred_rows = sum(len(rows) for rows in slices)
                cells = transferred_rows * len(columns)
                span.set(rows=transferred_rows, est_bytes=cells * 8)
            with self._telemetry_lock:
                self._counters["shards.gather.tables"] += 1
                self._counters["shards.gather.rows"] += transferred_rows
                self._counters["shards.gather.cells"] += cells
                self._counters["shards.gather.bytes"] += cells * 8
            registry = get_registry()
            registry.inc("repro.shards.gather.tables")
            registry.inc("repro.shards.gather.rows", transferred_rows)
            registry.inc("repro.shards.gather.bytes", cells * 8)

    # ------------------------------------------------------------------
    # Cost estimation and EXPLAIN
    # ------------------------------------------------------------------
    def estimated_cost(self, sql: str) -> float:
        """Route-aware estimate: pruned probes cost the target shards'
        own estimates, scatter costs the largest shard plus per-shard
        fan-out overhead, gather additionally pays per-row transfer of
        every referenced table."""
        self._check_length(sql)
        route = self.plan_route(sql)
        params = self.cost_parameters
        if route.kind == "gather":
            with self._coordinator_lock:
                transfer = sum(
                    self._coordinator.catalog.statistics(name).cardinality
                    for name in route.tables
                    if self._coordinator.catalog.has_table(name)
                )
                base = self._coordinator.estimated_cost(sql)
            return base + transfer * params.gather_transfer_per_row
        if route.kind == "pruned":
            return sum(
                self.children[shard].estimated_cost(sql)
                for shard in route.shards
            ) + params.pruned_probe_overhead * len(route.shards)
        probe = self.children[self._find_largest_shard()].estimated_cost(sql)
        return probe + params.scatter_overhead_per_shard * self.shards

    def _find_largest_shard(self) -> int:
        """The shard holding the most rows (representative for scatter
        estimates — scatter wall clock is the slowest shard's)."""
        if self._largest_shard is None:
            with self._schema_lock:
                names = list(self._schema)
            totals = [0] * self.shards
            for name in names:
                for shard, child in enumerate(self.children):
                    stats = child.table_statistics(name)
                    if stats is not None:
                        totals[shard] += stats.cardinality
            self._largest_shard = max(range(self.shards), key=totals.__getitem__)
        return self._largest_shard

    def explain_text(self, sql: str, analyze: bool = False) -> str:
        """The shard route plus the representative child (or
        coordinator) plan; ``analyze=True`` executes on the
        representative target and shows measured vs. estimated numbers
        per node (``EXPLAIN ANALYZE``)."""
        route = self.plan_route(sql)
        touched = route.shards if route.kind != "gather" else ()
        header = (
            f"Shard route: {route.kind} -> "
            + (
                f"shards {list(touched)} of {self.shards}"
                if route.kind != "gather"
                else f"coordinator (gathered from all {self.shards} shards)"
            )
            + f" [tables: {', '.join(route.tables) or '-'}]"
        )
        if route.kind == "gather":
            if analyze:
                # ANALYZE must measure a real execution, so it pays the
                # gather a plain EXPLAIN deliberately skips. Barrier
                # before coordinator lock — the same order the write
                # path uses.
                with self._barrier.shared():
                    with self._coordinator_lock:
                        self._ensure_gathered(route.tables)
                        detail = self._coordinator.explain_analyze(sql).text
            else:
                # Plan from the merged statistics alone — the
                # coordinator's catalog always carries them, so EXPLAIN
                # never pays the O(data) gather an execution would (the
                # statement cache is version-keyed, so a later execute
                # re-plans over real rows).
                with self._coordinator_lock:
                    detail = self._coordinator.explain(sql).text
        else:
            child = self.children[touched[0]]
            explain = getattr(child, "explain_text", None)
            if explain is None:
                detail = ""
            elif analyze:
                try:
                    detail = explain(sql, analyze=True)
                except TypeError:  # child without the analyze mode
                    detail = explain(sql)
            else:
                detail = explain(sql)
        return f"{header}\n{detail}" if detail else header

    # ------------------------------------------------------------------
    # Statistics and telemetry
    # ------------------------------------------------------------------
    def table_statistics(self, table: str):
        """Whole-table statistics merged across the shards."""
        if not self._coordinator.catalog.has_table(table):
            return None
        return self._coordinator.catalog.statistics(table)

    def shard_telemetry(self) -> Dict[str, int]:
        """Cumulative route and gather-transfer counters (plus the shard
        count; on the process substrate, also the shared-memory exchange
        counters summed over the workers; under supervision, the
        supervisor's counters), keyed by their dotted metric names
        (``shards.route.pruned``, ``shards.count``, ``worker.restarts``,
        ...)."""
        with self._telemetry_lock:
            snapshot = dict(self._counters)
        snapshot["shards.count"] = self.shards
        if self.substrate == "process":
            for key, attribute in (
                ("shards.shm.results", "shm_results"),
                ("shards.shm.bytes", "shm_bytes"),
                ("shards.inline.results", "inline_results"),
            ):
                snapshot[key] = sum(
                    getattr(child, attribute) for child in self.children
                )
            snapshot.update(self._supervisor.telemetry())
        return snapshot

    def metrics_snapshot(self) -> Optional[Dict]:
        """Process-substrate workers' registries, merged into one
        snapshot (one ``metrics`` RPC per worker — the same batching
        shape as ``statistics_many``). ``None`` on in-process
        substrates, whose children record straight into the
        coordinator's own registry."""
        if self.substrate != "process":
            return None
        merged = MetricsRegistry()
        for child in self.children:
            fetch = getattr(child, "metrics_snapshot", None)
            if fetch is not None:
                merged.merge_snapshot(fetch())
        return merged.snapshot()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the children and the dispatch pool. Idempotent."""
        self._closed = True
        if self.substrate == "process":
            # Stops the monitor thread before the workers go down.
            self._supervisor.close()
            self._pool.shutdown()
        else:
            for child in self.children:
                child.close()

    def _check_length(self, sql: str) -> None:
        if self._closed:
            raise RuntimeError("ShardedBackend is closed")
        if (
            self.max_statement_length is not None
            and len(sql) > self.max_statement_length
        ):
            raise StatementTooLongError(len(sql), self.max_statement_length)

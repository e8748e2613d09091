"""MiniRDBMS backend — the reproduction's commercial RDBMS (DB2 role).

A thin adapter over :class:`repro.engine.MiniRDBMS`: native cost-based
EXPLAIN (the analogue of ``db2expln``) and DB2's 2,000,000-character
statement limit, which the RDF-layout reformulations of the heaviest
queries exceed, reproducing the paper's §6.3 failures.
"""

from __future__ import annotations

import threading
import time
from typing import List, Tuple

from repro.collector import paused
from repro.engine.database import DB2_STATEMENT_LIMIT, MiniRDBMS
from repro.engine.operators import CostParameters, DEFAULT_COSTS
from repro.obs.metrics import get_registry
from repro.storage.base import Backend, BulkLoader, Row
from repro.storage.layouts import LayoutData


class _MemoryBulkLoader(BulkLoader):
    """Deferred-index bulk loader for :class:`MemoryBackend`.

    Appends go straight into the engine tables' rows
    (:meth:`repro.engine.relation.Table.bulk_append` — no index
    maintenance); :meth:`finish` builds the declared indexes over the
    final rows and runs one ``analyze``.
    The backend lock is held for the whole session, so no query can
    observe the half-built state.
    """

    def __init__(self, backend: "MemoryBackend") -> None:
        super().__init__(backend)
        self._db = backend.db
        backend._lock.acquire()
        # Like the lock, the collector pause spans the session (which
        # the lock already pins to this thread): appended rows and the
        # indexes built over them are acyclic.
        self._pause = paused()
        self._pause.__enter__()

    def create_table(self, name, columns, indexes=(), shard_key=None) -> None:
        """Declare (and create empty) one table of the new dataset."""
        super().create_table(name, columns, indexes, shard_key)
        self._db.create_table(name, columns)

    def _append(self, table: str, rows: List[Row]) -> None:
        self._db.catalog.table(table).bulk_append(rows)

    def _finish(self) -> None:
        try:
            for spec in self._specs.values():
                self._db.catalog.table(spec.name).bulk_finish()
                for index_columns in spec.indexes:
                    self._db.create_index(spec.name, index_columns)
            self._db.analyze()
        finally:
            self._release()

    def _abort(self) -> None:
        try:
            for spec in self._specs.values():
                self._db.catalog.drop_table(spec.name)
        finally:
            self._release()

    def _release(self) -> None:
        self._pause.__exit__(None, None, None)
        self._backend._lock.release()


class MemoryBackend(Backend):
    """The from-scratch engine as a loadable backend.

    The engine's tables are plain Python structures, so reads and writes
    serialize behind one lock: a query scanning a table can never observe
    a half-applied write. (Execution is pure Python and GIL-bound, so the
    lock costs concurrent callers no real parallelism.)
    """

    name = "minirdbms"

    def __init__(
        self,
        max_statement_length: int = DB2_STATEMENT_LIMIT,
        cost_parameters: CostParameters = DEFAULT_COSTS,
    ) -> None:
        self.db = MiniRDBMS(
            max_statement_length=max_statement_length,
            cost_parameters=cost_parameters,
        )
        self._lock = threading.RLock()

    def load(self, data: LayoutData) -> None:
        """Create tables and indexes, bulk-load rows, collect statistics."""
        with self._lock, paused():
            for spec in data.tables:
                self.db.create_table(spec.name, spec.columns)
                self.db.insert_many(spec.name, spec.rows)
                for index_columns in spec.indexes:
                    self.db.create_index(spec.name, index_columns)
            self.db.analyze()

    def bulk_load(self) -> BulkLoader:
        """A deferred-index bulk-ingest session on the engine."""
        return _MemoryBulkLoader(self)

    def insert_rows(self, table: str, rows: List[Row]) -> None:
        """Insert encoded rows (set semantics) and fold the delta into
        the statistics instead of paying a full per-batch re-analyze
        (mirrors SQLiteBackend shadow stats; statistics are optimizer
        hints, so approximate distinct counts never affect answers)."""
        with self._lock:
            added = self.db.insert_many(table, rows)
            if added:
                self.db.catalog.adjust_statistics(table, inserted=added)

    def delete_rows(self, table: str, rows: List[Row]) -> int:
        """Delete encoded rows; returns how many were present."""
        with self._lock:
            removed = self.db.delete_many(table, rows)
            if removed:
                self.db.catalog.adjust_statistics(table, removed=removed)
            return removed

    def apply_changes(self, inserts, deletes) -> None:
        """Apply a multi-table write in one critical section, so a
        concurrent read sees all of it or none of it."""
        with self._lock, paused():
            super().apply_changes(inserts, deletes)

    def execute(self, sql: str) -> List[Row]:
        """Evaluate *sql* on the embedded engine; returns result rows."""
        started = time.perf_counter()
        with self._lock, paused():
            rows = self.db.execute(sql)
        registry = get_registry()
        registry.inc("repro.engine.statements")
        registry.observe(
            "repro.engine.execute.seconds", time.perf_counter() - started
        )
        return rows

    def execute_columns(self, sql: str) -> Tuple[int, List[List]]:
        """Evaluate *sql* returning ``(nrows, column vectors)`` — the
        engine's columnar result path (shard worker processes reply
        with these columns, never building row tuples)."""
        started = time.perf_counter()
        with self._lock, paused():
            result = self.db.execute_columns(sql)
        registry = get_registry()
        registry.inc("repro.engine.statements")
        registry.observe(
            "repro.engine.execute.seconds", time.perf_counter() - started
        )
        return result

    def estimated_cost(self, sql: str) -> float:
        """The engine's own EXPLAIN cost estimate for *sql*."""
        with self._lock:
            return self.db.estimated_cost(sql)

    def explain_text(self, sql: str, analyze: bool = False) -> str:
        """The engine's EXPLAIN rendering (plan tree with estimates);
        ``analyze=True`` executes and shows measured vs. estimated
        numbers per node (``EXPLAIN ANALYZE``)."""
        with self._lock:  # planning mutates the shared statement cache
            if analyze:
                return self.db.explain_analyze(sql).text
            return self.db.explain(sql).text

    def table_statistics(self, table: str):
        """The engine's catalog statistics for *table*."""
        with self._lock:
            return self.db.catalog.statistics(table)

    @property
    def last_execution(self):
        """Counters from the most recent execute (benchmark telemetry)."""
        return self.db.last_execution

"""SQLite backend — the reproduction's open-source RDBMS (Postgres role).

SQLite is a real, cost-based SQL engine shipped with CPython, so it plays
the role PostgreSQL plays in the paper: evaluating the translated FOL
reformulations over the simple layout with all indexes built.

SQLite's ``EXPLAIN QUERY PLAN`` exposes no numeric cost, so the backend's
:meth:`estimated_cost` plans the statement against a *shadow catalog*: a
:class:`repro.engine.MiniRDBMS` planner instance holding the same schemas
and statistics (but no rows), with SQLite-calibrated cost constants. This
mirrors the paper's setup where cost estimates for Postgres were obtained
per-statement before execution (via ``explain`` over JDBC) — documented as
a substitution in DESIGN.md.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from typing import List, Optional, Tuple

from repro.engine.catalog import ColumnStats, TableStats
from repro.engine.database import MiniRDBMS
from repro.engine.operators import CostParameters
from repro.storage.base import Backend, BulkLoader, Row
from repro.storage.layouts import LayoutData


class _SQLiteBulkLoader(BulkLoader):
    """Deferred-index bulk loader for :class:`SQLiteBackend`.

    Appends run plain ``INSERT`` into index-less tables (no per-row
    B-tree maintenance, no OR IGNORE uniqueness probe); :meth:`finish`
    dedups each table with one ``GROUP BY`` pass, then builds the
    ``ux_`` unique index, the declared secondaries, shadow-catalog
    schema, exact statistics (one ``COUNT``/``COUNT(DISTINCT)`` scan),
    and a single ``ANALYZE`` + commit. The connection lock is held for
    the whole session.
    """

    def __init__(self, backend: "SQLiteBackend") -> None:
        super().__init__(backend)
        backend._connection_lock.acquire()
        self._cursor = backend._cursor()

    def create_table(self, name, columns, indexes=(), shard_key=None) -> None:
        """Declare (and create empty, index-less) one table."""
        super().create_table(name, columns, indexes, shard_key)
        columns_ddl = ", ".join(f"{c} INTEGER" for c in columns)
        self._cursor.execute(f"DROP TABLE IF EXISTS {name}")
        self._cursor.execute(f"CREATE TABLE {name} ({columns_ddl})")

    def _append(self, table: str, rows: List[Row]) -> None:
        placeholders = ", ".join("?" for _ in self._specs[table].columns)
        self._cursor.executemany(
            f"INSERT INTO {table} VALUES ({placeholders})", rows
        )

    def _finish(self) -> None:
        backend: "SQLiteBackend" = self._backend
        try:
            cursor = self._cursor
            for spec in self._specs.values():
                columns = ", ".join(spec.columns)
                # Set semantics: drop duplicate rows (keep the earliest)
                # before the unique index can be built over the table.
                cursor.execute(
                    f"DELETE FROM {spec.name} WHERE rowid NOT IN "
                    f"(SELECT MIN(rowid) FROM {spec.name} GROUP BY {columns})"
                )
                cursor.execute(
                    f"CREATE UNIQUE INDEX IF NOT EXISTS ux_{spec.name} "
                    f"ON {spec.name} ({columns})"
                )
                for index_columns in spec.indexes:
                    index_name = f"ix_{spec.name}_{'_'.join(index_columns)}"
                    cursor.execute(
                        f"CREATE INDEX IF NOT EXISTS {index_name} "
                        f"ON {spec.name} ({', '.join(index_columns)})"
                    )
                backend._shadow.create_table(spec.name, spec.columns)
                for index_columns in spec.indexes:
                    backend._shadow.create_index(spec.name, index_columns)
                distincts = ", ".join(
                    f"COUNT(DISTINCT {c})" for c in spec.columns
                )
                measured = cursor.execute(
                    f"SELECT COUNT(*), {distincts} FROM {spec.name}"
                ).fetchone()
                stats = TableStats(cardinality=measured[0])
                for position, column in enumerate(spec.columns):
                    stats.columns[column] = ColumnStats(
                        distinct_values=measured[position + 1]
                    )
                backend._shadow.catalog.set_statistics(spec.name, stats)
            cursor.execute("ANALYZE")
            backend._connection.commit()
        finally:
            backend._connection_lock.release()

    def _abort(self) -> None:
        backend: "SQLiteBackend" = self._backend
        try:
            backend._connection.rollback()
            for spec in self._specs.values():
                self._cursor.execute(f"DROP TABLE IF EXISTS {spec.name}")
            backend._connection.commit()
        finally:
            backend._connection_lock.release()

#: Cost constants calibrated for the SQLite backend (B-tree storage makes
#: index probes comparatively cheaper and materialization pricier than in
#: the in-memory engine).
SQLITE_COSTS = CostParameters(
    seq_scan_per_row=1.0,
    index_probe=0.01,
    hash_build_per_row=1.4,
    hash_probe_per_row=1.1,
    output_per_row=0.5,
    dedup_per_row=1.2,
    materialize_per_row=1.0,
    cross_join_penalty=10.0,
)


class SQLiteBackend(Backend):
    """In-memory SQLite with a planner-based cost estimator.

    The single in-memory connection is created with
    ``check_same_thread=False`` and every use of it is serialized behind a
    lock, so one backend instance can safely serve concurrent
    :meth:`repro.obda.system.OBDASystem.answer` callers' threads (an
    in-memory database cannot be reopened per thread — each new
    ``:memory:`` connection would be a fresh empty database).
    """

    name = "sqlite"

    def __init__(self, max_statement_length: Optional[int] = None) -> None:
        self._connection: Optional[sqlite3.Connection] = sqlite3.connect(
            ":memory:", check_same_thread=False
        )
        self._connection_lock = threading.Lock()
        self._shadow = MiniRDBMS(
            max_statement_length=max_statement_length or 1_000_000_000,
            cost_parameters=SQLITE_COSTS,
        )
        self.max_statement_length = max_statement_length

    def _cursor(self) -> sqlite3.Cursor:
        if self._connection is None:
            raise RuntimeError("SQLiteBackend is closed")
        return self._connection.cursor()

    # ------------------------------------------------------------------
    def load(self, data: LayoutData) -> None:
        """Create tables/indexes, bulk-load rows, ANALYZE, and mirror
        the schema + statistics into the shadow planner catalog."""
        with self._connection_lock:
            self._load_locked(data)

    def _load_locked(self, data: LayoutData) -> None:
        cursor = self._cursor()
        for spec in data.tables:
            columns_ddl = ", ".join(f"{c} INTEGER" for c in spec.columns)
            cursor.execute(f"DROP TABLE IF EXISTS {spec.name}")
            cursor.execute(f"CREATE TABLE {spec.name} ({columns_ddl})")
            placeholders = ", ".join("?" for _ in spec.columns)
            cursor.executemany(
                f"INSERT INTO {spec.name} VALUES ({placeholders})", spec.rows
            )
            # A unique index over the full row makes the write path's
            # INSERT OR IGNORE enforce set semantics (the logical model:
            # relations are sets of facts).
            cursor.execute(
                f"CREATE UNIQUE INDEX IF NOT EXISTS ux_{spec.name} "
                f"ON {spec.name} ({', '.join(spec.columns)})"
            )
            for index_columns in spec.indexes:
                index_name = f"ix_{spec.name}_{'_'.join(index_columns)}"
                cursor.execute(
                    f"CREATE INDEX IF NOT EXISTS {index_name} "
                    f"ON {spec.name} ({', '.join(index_columns)})"
                )
            # Shadow catalog: same schema and statistics, no rows.
            self._shadow.create_table(spec.name, spec.columns)
            for index_columns in spec.indexes:
                self._shadow.create_index(spec.name, index_columns)
            stats = TableStats(cardinality=len(spec.rows))
            for position, column in enumerate(spec.columns):
                distinct = len({row[position] for row in spec.rows})
                stats.columns[column] = ColumnStats(distinct_values=distinct)
            self._shadow.catalog.set_statistics(spec.name, stats)
        cursor.execute("ANALYZE")
        self._connection.commit()

    def bulk_load(self) -> BulkLoader:
        """A deferred-index bulk-ingest session on the connection."""
        return _SQLiteBulkLoader(self)

    # ------------------------------------------------------------------
    def insert_rows(self, table: str, rows: List[Row]) -> None:
        """INSERT OR IGNORE encoded rows and refresh shadow statistics."""
        if not rows:
            return
        with self._connection_lock:
            self._insert_rows_locked(table, rows)
            self._connection.commit()

    def delete_rows(self, table: str, rows: List[Row]) -> int:
        """Delete encoded rows; returns how many were removed."""
        if not rows:
            return 0
        with self._connection_lock:
            removed = self._delete_rows_locked(table, rows)
            self._connection.commit()
        return removed

    def apply_changes(self, inserts, deletes) -> None:
        """One lock hold + one commit for the whole multi-table write, so
        a concurrent :meth:`execute` (which also takes the connection
        lock) sees the pre- or post-write state, never a mix."""
        with self._connection_lock:
            for table, rows in inserts.items():
                self._insert_rows_locked(table, rows)
            for table, rows in deletes.items():
                self._delete_rows_locked(table, rows)
            self._connection.commit()

    def _insert_rows_locked(self, table: str, rows: List[Row]) -> int:
        """INSERT OR IGNORE a batch and fold the delta into the shadow
        statistics. Connection lock held by the caller; no commit."""
        columns = self._shadow.catalog.table(table).columns
        placeholders = ", ".join("?" for _ in columns)
        cursor = self._cursor()
        cursor.executemany(
            f"INSERT OR IGNORE INTO {table} VALUES ({placeholders})", rows
        )
        # rowcount aggregates across executemany; OR IGNOREd duplicates
        # do not count as modifications.
        inserted = max(cursor.rowcount, 0)
        self._adjust_shadow_statistics(table, columns, inserted=inserted)
        return inserted

    def _delete_rows_locked(self, table: str, rows: List[Row]) -> int:
        """DELETE a batch and fold the delta into the shadow statistics.
        Connection lock held by the caller; no commit."""
        columns = self._shadow.catalog.table(table).columns
        predicate = " AND ".join(f"{c} = ?" for c in columns)
        cursor = self._cursor()
        cursor.executemany(f"DELETE FROM {table} WHERE {predicate}", rows)
        removed = max(cursor.rowcount, 0)
        self._adjust_shadow_statistics(table, columns, removed=removed)
        return removed

    def _adjust_shadow_statistics(
        self, table: str, columns, inserted: int = 0, removed: int = 0
    ) -> None:
        """Fold a write's delta into the cached statistics — no scans.

        Called with the connection lock held. Cardinality stays exact;
        per-column distinct counts are approximated (grown by the insert
        count, clamped to the cardinality). Statistics are optimizer
        hints, and the data epoch already drops every estimate a write
        staled, so approximate distincts never affect answer correctness.
        """
        old = self._shadow.catalog.statistics(table)
        cardinality = max(0, old.cardinality + inserted - removed)
        stats = TableStats(cardinality=cardinality)
        for column in columns:
            column_stats = old.columns.get(column)
            distinct = column_stats.distinct_values if column_stats else 0
            distinct = min(cardinality, distinct + inserted)
            if cardinality > 0:
                distinct = max(1, distinct)
            stats.columns[column] = ColumnStats(distinct_values=distinct)
        self._shadow.catalog.set_statistics(table, stats)

    # ------------------------------------------------------------------
    def execute(self, sql: str) -> List[Row]:
        """Evaluate *sql* on the SQLite connection; returns result rows."""
        self._check_length(sql)
        with self._connection_lock:
            cursor = self._cursor()
            return [tuple(row) for row in cursor.execute(sql).fetchall()]

    def estimated_cost(self, sql: str) -> float:
        """Cost estimate for *sql* from the shadow MiniRDBMS planner
        (SQLite's EXPLAIN QUERY PLAN exposes no numeric cost)."""
        self._check_length(sql)
        return self._shadow.estimated_cost(sql)

    def explain_text(self, sql: str, analyze: bool = False) -> str:
        """SQLite's own EXPLAIN QUERY PLAN output (no numeric costs).

        ``analyze=True`` additionally executes the statement and
        appends the measured total (SQLite exposes no per-node
        instrumentation, so whole-statement wall time is the best
        measured-vs-estimated view this backend can give).
        """
        with self._connection_lock:
            cursor = self._cursor()
            rows = cursor.execute(f"EXPLAIN QUERY PLAN {sql}").fetchall()
            text = "\n".join(str(row) for row in rows)
            if analyze:
                started = time.perf_counter()
                result = cursor.execute(sql).fetchall()
                elapsed = time.perf_counter() - started
                text += (
                    f"\nExecution: {len(result)} rows"
                    f" in {elapsed * 1000:.3f} ms"
                )
        return text

    def table_statistics(self, table: str):
        """The shadow planner's statistics for *table* (kept in step with
        the stored rows by the write path)."""
        return self._shadow.catalog.statistics(table)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the in-memory connection (drops the database). Idempotent."""
        with self._connection_lock:
            if self._connection is not None:
                self._connection.close()
                self._connection = None

    def _check_length(self, sql: str) -> None:
        if (
            self.max_statement_length is not None
            and len(sql) > self.max_statement_length
        ):
            from repro.engine.errors import StatementTooLongError

            raise StatementTooLongError(len(sql), self.max_statement_length)

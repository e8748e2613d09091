"""The backend interface both RDBMS substrates implement."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence, Tuple

from repro.storage.layouts import LayoutData, TableSpec

Row = Tuple


class BulkLoader:
    """A streaming bulk-ingest session on one backend.

    The fast path for loading millions of rows: tables are declared
    up-front, row batches stream in through :meth:`append` with **no**
    per-row dedup or index maintenance, and :meth:`finish` performs one
    dedup pass, one index build per declared index, and one statistics
    build. The loaded result is indistinguishable from an equivalent
    :meth:`Backend.load` / ``insert_rows`` sequence — only cheaper.

    Sessions replace the backend's current contents (like ``load``) and
    hold the backend exclusively: queries must not run between the first
    ``create_table`` and ``finish``. Use as a context manager — a clean
    exit finishes the load, an exception aborts it::

        with backend.bulk_load() as loader:
            loader.create_table("r_p", ("s", "o"), indexes=(("s",),))
            for batch in batches:
                loader.append("r_p", batch)

    This base class implements the protocol by buffering everything and
    delegating to :meth:`Backend.load` at the end — the correctness
    fallback for minimal backends. Concrete backends subclass it with
    genuinely deferred index/statistics construction.
    """

    def __init__(self, backend: "Backend") -> None:
        self._backend = backend
        self._specs: Dict[str, TableSpec] = {}
        self._rows: Dict[str, List[Row]] = {}
        self._done = False

    def create_table(
        self,
        name: str,
        columns: Sequence[str],
        indexes: Sequence[Sequence[str]] = (),
        shard_key: Optional[str] = None,
    ) -> None:
        """Declare a table of the new dataset (replacing any old one).

        *indexes* are built once, at :meth:`finish` — never during the
        append stream.
        """
        self._check_open()
        if name in self._specs:
            raise ValueError(f"table {name!r} declared twice in bulk load")
        self._specs[name] = TableSpec(
            name=name,
            columns=tuple(columns),
            rows=[],
            indexes=tuple(tuple(ix) for ix in indexes),
            shard_key=shard_key,
        )
        self._rows[name] = []

    def append(self, table: str, rows: Sequence[Row]) -> None:
        """Stream one batch of rows into a declared table."""
        self._check_open()
        if table not in self._specs:
            raise KeyError(f"bulk load into undeclared table {table!r}")
        # Normalize to tuples without re-wrapping the (overwhelmingly
        # common) already-tuple rows — this runs once per stored row.
        self._append(
            table,
            [row if type(row) is tuple else tuple(row) for row in rows],
        )

    def finish(self) -> None:
        """Dedup, build indexes and statistics, and publish the dataset.

        Idempotent once called; the session is unusable afterwards.
        """
        self._check_open()
        self._done = True
        self._finish()

    def abort(self) -> None:
        """Drop the session without publishing (backend state is
        implementation-defined afterwards — reload before querying)."""
        if self._done:
            return
        self._done = True
        self._abort()

    def _check_open(self) -> None:
        if self._done:
            raise RuntimeError("bulk load session already finished")

    # -- hooks for concrete loaders --------------------------------
    def _append(self, table: str, rows: List[Row]) -> None:
        self._rows[table].extend(rows)

    def _finish(self) -> None:
        self._backend.load(LayoutData(tables=self._tables()))

    def _tables(self) -> List[TableSpec]:
        """The declared tables holding every appended row (duplicates
        included)."""
        return [
            TableSpec(
                name=spec.name,
                columns=spec.columns,
                rows=self._rows[spec.name],
                indexes=spec.indexes,
                shard_key=spec.shard_key,
            )
            for spec in self._specs.values()
        ]

    def _abort(self) -> None:
        self._rows.clear()

    def __enter__(self) -> "BulkLoader":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if exc_type is None:
            if not self._done:
                self.finish()
        else:
            self.abort()


class Backend(ABC):
    """A SQL evaluation engine hosting one loaded layout.

    The two concrete implementations are :class:`SQLiteBackend` (the
    paper's open-source system role) and :class:`MemoryBackend` (the
    commercial-system role, backed by :class:`repro.engine.MiniRDBMS`).
    """

    #: Human-readable backend name (used in benchmark reports).
    name: str = "backend"

    @abstractmethod
    def load(self, data: LayoutData) -> None:
        """Create tables and indexes, insert rows, collect statistics."""

    @abstractmethod
    def execute(self, sql: str) -> List[Row]:
        """Evaluate *sql* and return the result rows."""

    @abstractmethod
    def estimated_cost(self, sql: str) -> float:
        """The backend's own cost estimate for *sql* (the paper's
        "RDBMS cost estimation" — ``explain`` / ``db2expln``)."""

    @abstractmethod
    def insert_rows(self, table: str, rows: List[Row]) -> None:
        """Insert encoded rows into a loaded table (set semantics:
        already-present rows are ignored) and refresh its statistics."""

    @abstractmethod
    def delete_rows(self, table: str, rows: List[Row]) -> int:
        """Delete encoded rows from a loaded table, returning how many
        were actually removed, and refresh its statistics."""

    def apply_changes(
        self,
        inserts: Dict[str, List[Row]],
        deletes: Dict[str, List[Row]],
    ) -> None:
        """Apply a multi-table write **atomically with respect to reads**.

        Both concrete backends override this so a concurrently executing
        query observes either the full pre-write or the full post-write
        state, never a half-applied mix. The base implementation is the
        non-atomic fallback for minimal third-party backends.
        """
        for table, rows in inserts.items():
            self.insert_rows(table, rows)
        for table, rows in deletes.items():
            self.delete_rows(table, rows)

    def bulk_load(self) -> BulkLoader:
        """Open a streaming bulk-ingest session (see :class:`BulkLoader`).

        The session replaces the backend's contents. Concrete backends
        override this to return loaders with genuinely deferred index
        and statistics construction; the default buffers and delegates
        to :meth:`load`.
        """
        return BulkLoader(self)

    def metrics_snapshot(self):
        """Metrics this backend holds that the process-wide registry
        cannot see, as a :meth:`repro.obs.metrics.MetricsRegistry.
        snapshot` dict — or ``None``.

        In-process backends record straight into the coordinator's
        registry and return ``None`` (the default). Backends hosting
        work in *other processes* (the sharded backend on the process
        substrate) override this to fetch and merge their workers'
        registries, so :meth:`repro.obda.system.OBDASystem.metrics`
        reports one unified view.
        """
        return None

    def table_statistics(self, table: str):
        """Optimizer statistics for one loaded table, or ``None``.

        Returns a :class:`repro.engine.catalog.TableStats` where the
        backend keeps one (both built-ins do). Sharded storage merges
        these per-shard statistics into whole-table statistics for its
        coordinator planner; ``None`` simply opts a backend out.
        """
        return None

    def close(self) -> None:
        """Release any resources held by the backend.

        Idempotent. The default is a no-op for purely in-process
        backends; :class:`SQLiteBackend` overrides it to close its
        connection.
        """

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

"""Tables and hash indexes for the MiniRDBMS storage layer.

Tables are row stores (tuples, kept as the keys of one insertion-ordered
dict, so set semantics, insert and delete are O(1) per row) but serve
the vectorized executor through :meth:`Table.column_batches`: the rows
transposed into columnar batches of ``batch_size`` rows, cached until
the next write. A full-table scan therefore costs one cached transpose
per table, not one generator frame per row per query.
"""

from __future__ import annotations

from itertools import groupby, islice
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.engine.errors import UnknownColumnError

Row = Tuple
Value = object
#: A columnar batch: one sequence per column, all of equal length.
Batch = Sequence[Sequence]


class Index:
    """A hash index over one or more columns of a table.

    Single-column indexes bucket by the bare value (no per-row key tuple),
    so join probes are plain dict lookups; ``single`` tells callers which
    key shape :attr:`buckets` uses.
    """

    def __init__(self, table: "Table", columns: Sequence[str]) -> None:
        for column in columns:
            if column not in table.columns:
                raise UnknownColumnError(
                    f"no column {column!r} in table {table.name!r}"
                )
        self.table = table
        self.columns = tuple(columns)
        self._positions = tuple(table.columns.index(c) for c in columns)
        self.single = len(self._positions) == 1
        self._buckets: Dict[object, List[Row]] = {}
        rows = table.rows
        if self._positions == tuple(range(len(table.columns))):
            # Full-row index (e.g. the (s, o) index on binary role
            # tables): rows are unique (set semantics), so every bucket
            # is a singleton keyed by the row itself — one dict-comp.
            if self.single:
                self._buckets = {row[0]: [row] for row in rows}
            else:
                self._buckets = {row: [row] for row in rows}
        elif rows:
            # Group by a stable sort + C-level groupby instead of one
            # dict probe per row. Stability keeps each bucket in row
            # insertion order — identical to incremental maintenance.
            key = itemgetter(*self._positions)
            try:
                ordered = sorted(rows, key=key)
            except TypeError:  # mixed-type column values don't sort
                for row in rows:
                    self._insert(row)
            else:
                self._buckets = {
                    value: list(group)
                    for value, group in groupby(ordered, key=key)
                }

    def _key(self, row: Row) -> object:
        if self.single:
            return row[self._positions[0]]
        return tuple(row[p] for p in self._positions)

    def _insert(self, row: Row) -> None:
        self._buckets.setdefault(self._key(row), []).append(row)

    def _remove(self, row: Row) -> None:
        key = self._key(row)
        bucket = self._buckets.get(key)
        if bucket is None:
            return
        try:
            bucket.remove(row)
        except ValueError:
            return
        if not bucket:
            del self._buckets[key]

    def lookup(self, key: Tuple) -> List[Row]:
        """Rows whose indexed columns equal *key* (a tuple, one value per
        indexed column)."""
        if self.single:
            return self._buckets.get(key[0], [])
        return self._buckets.get(tuple(key), [])

    @property
    def buckets(self) -> Dict[object, List[Row]]:
        """The key -> rows mapping (read-only use: join probes).

        Keys are bare values for single-column indexes, tuples in
        ``self.columns`` order otherwise.
        """
        return self._buckets

    def __len__(self) -> int:
        return len(self._buckets)


class Table:
    """An in-memory relation: named columns and a set of rows.

    ``rows`` maps each row to ``None``: iterating it yields the rows in
    insertion order (a delete keeps the order of the rest), ``in`` is
    the set-semantics test, and ``del`` removes a row in O(1) — the
    representation ``storage/supervisor.py``'s table mirrors use too.
    """

    def __init__(self, name: str, columns: Sequence[str]) -> None:
        if not columns:
            raise ValueError(f"table {name!r} needs at least one column")
        if len(set(columns)) != len(columns):
            raise ValueError(f"duplicate column names in table {name!r}")
        self.name = name
        self.columns: Tuple[str, ...] = tuple(columns)
        self.rows: Dict[Row, None] = {}
        self.indexes: Dict[Tuple[str, ...], Index] = {}
        # batch_size -> list of columnar batches; dropped on any write.
        self._batch_cache: Dict[int, List[Batch]] = {}

    def insert(self, row: Sequence[Value]) -> bool:
        """Insert one row (set semantics); True when actually added."""
        row = tuple(row)
        if len(row) != len(self.columns):
            raise ValueError(
                f"row arity {len(row)} does not match table {self.name!r} "
                f"({len(self.columns)} columns)"
            )
        if row in self.rows:
            return False
        self.rows[row] = None
        for index in self.indexes.values():
            index._insert(row)
        if self._batch_cache:
            self._batch_cache.clear()
        return True

    def insert_many(self, rows: Iterable[Sequence[Value]]) -> int:
        """Bulk insert; returns how many rows were actually added."""
        added = 0
        for row in rows:
            if self.insert(row):
                added += 1
        return added

    def delete(self, row: Sequence[Value]) -> bool:
        """Remove one row; True when it was present."""
        return self.delete_many((row,)) == 1

    def delete_many(self, rows: Iterable[Sequence[Value]]) -> int:
        """Bulk delete; returns how many rows were actually removed.

        O(1) per row given, whatever the table's size.
        """
        stored = self.rows
        removed = 0
        for row in rows:
            row = tuple(row)
            if row not in stored:
                continue
            del stored[row]
            for index in self.indexes.values():
                index._remove(row)
            removed += 1
        if removed and self._batch_cache:
            self._batch_cache.clear()
        return removed

    def bulk_append(self, rows: Iterable[Sequence[Value]]) -> None:
        """Add rows **without** index maintenance.

        The bulk-load fast path: rows land in :attr:`rows` (a row seen
        before keeps its first position, as an incremental insert would)
        and nothing else is touched. The table is not query-consistent
        (indexes stale) until :meth:`bulk_finish` runs — only
        :meth:`~repro.storage.base.BulkLoader` sessions, which hold the
        backend exclusively, may use it.
        """
        stored = self.rows
        width = len(self.columns)
        for row in rows:
            if type(row) is not tuple:
                row = tuple(row)
            if len(row) != width:
                raise ValueError(
                    f"row arity {len(row)} does not match table "
                    f"{self.name!r} ({width} columns)"
                )
            stored[row] = None

    def bulk_finish(self) -> int:
        """Restore the indexes after :meth:`bulk_append`: one rebuild per
        existing index instead of per-row work on every append. Returns
        the final row count."""
        for columns in list(self.indexes):
            self.indexes[columns] = Index(self, columns)
        if self._batch_cache:
            self._batch_cache.clear()
        return len(self.rows)

    def column_batches(self, batch_size: int) -> List[Batch]:
        """The table's rows as columnar batches (cached until a write).

        Each batch is a tuple of per-column value tuples, at most
        ``batch_size`` rows wide. Callers must not mutate the result.
        """
        cached = self._batch_cache.get(batch_size)
        if cached is None:
            rows = iter(self.rows)
            cached = []
            while True:
                chunk = list(islice(rows, batch_size))
                if not chunk:
                    break
                cached.append(tuple(zip(*chunk)))
            self._batch_cache[batch_size] = cached
        return cached

    def create_index(self, columns: Sequence[str]) -> Index:
        """Create (or return the existing) hash index on *columns*."""
        key = tuple(columns)
        if key not in self.indexes:
            self.indexes[key] = Index(self, columns)
        return self.indexes[key]

    def index_on(self, columns: Sequence[str]) -> Optional[Index]:
        """The index exactly matching *columns*, if any."""
        return self.indexes.get(tuple(columns))

    def column_position(self, column: str) -> int:
        try:
            return self.columns.index(column)
        except ValueError as missing:
            raise UnknownColumnError(
                f"no column {column!r} in table {self.name!r}"
            ) from missing

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self.rows)} rows)"

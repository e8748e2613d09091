"""The coordinator's shard state as it was, kept verbatim as a test oracle.

``src/repro/storage/supervisor.py`` used to mirror each shard as an
epoch-tagged base snapshot plus a bounded write log of tuple entries
(``load`` / ``insert`` / ``delete`` / ``apply``), folding overflow into
the base oldest-first; a bulk load drained the log and installed its
tables as one base-epoch step. The mirror is now
:class:`repro.storage.epoch_log.EpochLog`, which folds every write as it
is recorded. The classes below are the code that ran before, moved here
unchanged (the bulk drain from ``_SupervisedBulkLoader._finish`` became
:func:`bulk_replace`), so a property test can assert the folded state is
identical table by table and row by row.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Tuple

from repro.storage.layouts import LayoutData, TableSpec

Row = Tuple


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


def bulk_replace(state: ShardState, tables: List[TableSpec]) -> None:
    """The supervised bulk loader's fold: drain older writes into the
    base in order, then install the bulk tables; the whole load is one
    epoch step."""
    while state.log:
        _apply_entry(state.tables, state.log.popleft())
        state.base_epoch += 1
    for spec in tables:
        state.tables[spec.name.lower()] = _TableState(spec)
    state.base_epoch += 1

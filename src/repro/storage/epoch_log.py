"""The coordinator's mirror of a backend's data: one folded snapshot at
an epoch.

Two parts of the system keep a copy of data that lives elsewhere, so
they can rebuild it: the supervisor mirrors each forked shard worker
(:mod:`repro.storage.supervisor`), and a replicated system mirrors its
primary for the read replicas (:mod:`repro.serving.replicas`). Both
keep an :class:`EpochLog`:

* every acknowledged write arrives as one :class:`EpochDelta` and is
  **folded on record** — there is no delta history, only the current
  tables and the epoch they are at;
* :meth:`EpochLog.restore` is the one rebuild routine: load the folded
  snapshot into a fresh backend (a respawned worker, a degraded
  in-coordinator fallback, a healed replica) and report its epoch.

Tables keep insertion-ordered row sets that mirror the backends'
set-semantics writes, so a restored backend holds its rows in the order
an uninterrupted one would.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.storage.base import Row
from repro.storage.layouts import LayoutData, TableSpec


class _TableState:
    """One table of the mirror: schema plus an insertion-ordered row
    set (``dict`` keys), mirroring the backends' set-semantics writes so
    a rebuilt backend's row *order* matches what an uninterrupted one
    would hold."""

    __slots__ = ("name", "columns", "indexes", "shard_key", "rows")

    def __init__(self, spec: TableSpec) -> None:
        self.name = spec.name
        self.columns = tuple(spec.columns)
        self.indexes = tuple(spec.indexes)
        self.shard_key = spec.shard_key
        self.rows: Dict[Row, None] = dict.fromkeys(
            tuple(row) for row in spec.rows
        )

    def spec(self) -> TableSpec:
        """This table as a loadable :class:`TableSpec`."""
        return TableSpec(
            name=self.name,
            columns=self.columns,
            rows=list(self.rows),
            indexes=self.indexes,
            shard_key=self.shard_key,
        )


@dataclass(frozen=True)
class EpochDelta:
    """One write's effect, tagged with the epoch it brings the data to.

    Applied in field order: *tables* are loaded (created, or replaced
    whole), then *inserts* are added (set semantics), then *deletes*
    are removed (absent rows are ignored) — the order of
    :meth:`repro.storage.base.Backend.apply_changes`.
    """

    epoch: int
    tables: Tuple[TableSpec, ...] = ()
    inserts: Dict[str, List[Row]] = field(default_factory=dict)
    deletes: Dict[str, List[Row]] = field(default_factory=dict)

    def apply_to(self, backend) -> None:
        """Apply this delta to *backend*: load its tables, then one
        atomic ``apply_changes`` for the rows."""
        if self.tables:
            backend.load(LayoutData(tables=list(self.tables)))
        if self.inserts or self.deletes:
            backend.apply_changes(self.inserts, self.deletes)


class EpochLog:
    """A backend's data as one folded snapshot at an epoch.

    *tables* is the state at epoch 0. Thread-safe: writers record under
    their own write lock, while restores race in from other threads.
    """

    def __init__(self, tables: Iterable[TableSpec] = ()) -> None:
        self._lock = threading.Lock()
        self._tables: Dict[str, _TableState] = {}
        #: The epoch of the newest recorded delta.
        self.epoch = 0
        self._fold_locked(tables, {}, {})

    def _fold_locked(self, tables, inserts, deletes) -> None:
        for spec in tables:
            self._tables[spec.name.lower()] = _TableState(spec)
        for name, new_rows in inserts.items():
            rows = self._tables[name.lower()].rows
            for row in new_rows:
                rows.setdefault(tuple(row), None)
        for name, dead_rows in deletes.items():
            rows = self._tables[name.lower()].rows
            for row in dead_rows:
                rows.pop(tuple(row), None)

    def record(self, delta: EpochDelta) -> None:
        """Fold one acknowledged write; its epoch must be the next one."""
        with self._lock:
            if delta.epoch != self.epoch + 1:
                raise ValueError(
                    f"epoch log at epoch {self.epoch} cannot record a "
                    f"delta for epoch {delta.epoch}"
                )
            self._fold_locked(delta.tables, delta.inserts, delta.deletes)
            self.epoch = delta.epoch

    def replace(self, tables: Iterable[TableSpec]) -> None:
        """Create or replace whole *tables* (a bulk load): one epoch."""
        with self._lock:
            self._fold_locked(tables, {}, {})
            self.epoch += 1

    def snapshot(self) -> Tuple[LayoutData, int]:
        """The current data as loadable ``LayoutData``, and its epoch."""
        with self._lock:
            data = LayoutData(
                tables=[state.spec() for state in self._tables.values()]
            )
            return data, self.epoch

    def counts(self) -> Dict[str, int]:
        """Rows per table at the current epoch — what a correctly
        restored backend's catalog cardinalities must report."""
        with self._lock:
            return {
                state.name: len(state.rows) for state in self._tables.values()
            }

    def restore(self, backend) -> int:
        """Load the folded snapshot into *backend*; returns its epoch."""
        data, epoch = self.snapshot()
        if data.tables:
            backend.load(data)
        return epoch

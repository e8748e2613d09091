"""A bounded, thread-safe LRU cache of reformulation choices.

The key is built by :meth:`repro.obda.system.OBDASystem._plan_key`:
``(query.canonical_key(), strategy, cost, minimize, use_uscq)``. The
query's *canonical* key (equality modulo variable renaming) means two
syntactically different spellings of the same query share one plan; every
flag that can change the chosen reformulation is part of the key, so e.g.
a ``use_uscq=True`` plan is never served where a JUCQ plan was requested.

The cached value is an entire :class:`~repro.obda.system.
ReformulationChoice` — reformulation, SQL and search result — so a hit
skips the whole reformulate-translate pipeline. Eviction is
least-recently-used; capacity bounds memory for long-lived serving
processes.

**Writes.** Every entry carries two stamps. A plan chosen by a
cost-based search (GDL, EDL, the ``auto`` router) is only the *best*
plan for the statistics it was priced against, so the system stores it
with its data epoch; a plan not chosen by cost (``ucq``, ``croot``,
``sat`` — over fully encoded constants) is stored with ``epoch=None``.
And every plan carries the set of predicates whose emptiness its
reformulation relied on (``assumed_empty``; see
:mod:`repro.reformulation.perfectref`): a ``ucq`` or ``croot`` plan
survives every write except one that fills such a predicate. An entry
read under a newer epoch, or by a caller who no longer sees all its
assumed-empty predicates empty, is dropped on that read (counted as
``stale``), so a write invalidates exactly the plans it made wrong or
suboptimal — never a full flush, never a sweep.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import AbstractSet, Dict, FrozenSet, Optional, Tuple


class PlanCache:
    """Thread-safe LRU mapping plan keys to stamped plans, with
    hit / miss / stale counters."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity is None or capacity < 1:
            raise ValueError("plan cache capacity must be at least 1")
        self.capacity = capacity
        self._entries: (
            "OrderedDict[Tuple, Tuple[object, Optional[int], FrozenSet[str]]]"
        ) = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stale = 0

    def get(
        self,
        key: Tuple,
        epoch: Optional[int] = None,
        empty: AbstractSet[str] = frozenset(),
    ) -> Optional[object]:
        """The cached value for *key*, or ``None``; refreshes recency.

        *epoch* is the caller's current data epoch; a stamped entry from
        a different epoch is evicted and reported as a (stale) miss.
        *empty* is the caller's current set of empty predicates; an entry
        that assumed a predicate empty which is not in it is evicted and
        reported the same way.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            value, stamp, assumed_empty = entry
            if not assumed_empty <= empty:
                del self._entries[key]
                self.stale += 1
                self.misses += 1
                return None
            if stamp is not None and stamp != epoch:
                # Evict only entries that are genuinely *older* than the
                # caller; a newer-stamped entry just means the caller's
                # own epoch is stale (e.g. a search that started before a
                # write) — dropping it would destroy a valid entry and
                # churn the cache.
                if epoch is None or stamp < epoch:
                    del self._entries[key]
                    self.stale += 1
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(
        self,
        key: Tuple,
        value: object,
        epoch: Optional[int] = None,
        assumed_empty: FrozenSet[str] = frozenset(),
    ) -> None:
        """Insert (or refresh) *key*, evicting the LRU entry if full.

        Pass the current data epoch for values that depend on the data;
        leave ``epoch=None`` for values valid across every write that
        leaves the *assumed_empty* predicates empty.
        """
        with self._lock:
            self._entries[key] = (value, epoch, assumed_empty)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple) -> bool:
        return key in self._entries

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.stale = 0

    def stats(self) -> Dict[str, int]:
        """A snapshot of the counters (reported on ``AnswerReport``):
        ``stale`` counts entries dropped on read, both those from an
        older epoch and those a write made wrong by filling a predicate
        they assumed empty."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "stale": self.stale,
            "capacity": self.capacity,
        }

"""The shared reformulation cache: fragments reformulated once, ever.

The paper measures that cost estimation — which means reformulating the
fragment queries of every candidate cover — dominates GDL's running time.
Covers explored during one search overlap heavily in their fragments, and
different strategies (GDL, EDL, Croot) over the same workload revisit the
same fragment queries again; so do repeated queries in a serving setting.

:class:`ReformulationCache` is the single memoization point for all of
them: a mapping from a *structural fragment key* to the fragment's
reformulation (a UCQ on the JUCQ path, a USCQ on the JUSCQ path), with
hit/miss counters so benchmarks can report exactly how much PerfectRef
work was shared. One instance lives on each :class:`~repro.obda.system.
OBDASystem` and is handed to every estimator the system creates.

Keys are built by the two cover-based reformulation builders in
:mod:`repro.covers.reformulate`:

* JUCQ path — ``(head, atoms, minimize)``;
* JUSCQ path — ``(head, atoms, minimize, "uscq")``.

The trailing dialect marker keeps the two dialects from ever colliding:
a UCQ cached for a fragment must never be returned where a USCQ is
expected. A fragment's reformulation is a function of its head, its
atoms, the TBox, the ``minimize`` flag and the predicates the rewriter
was told are empty (:mod:`repro.reformulation.perfectref` prunes on
them); a cache instance is scoped to one TBox (one system). So every
entry carries its *stamp*, the empty predicates its pruning relied on,
and :meth:`ReformulationCache.get` serves it only to a caller that still
sees all of them empty. An entry a write has made wrong is dropped on
that read and counted ``stale``: the write path never sweeps the cache.

The class also speaks the mapping protocol (``in`` / ``[]``), for
unstamped entries.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import AbstractSet, Dict, FrozenSet, Iterator, Optional, Tuple

#: Bound used by :class:`~repro.obda.system.OBDASystem` for its shared
#: instance: ample for every workload in the repository (the full LUBM
#: suite reformulates well under a hundred distinct fragments) while
#: keeping a long-lived serving process's memory bounded.
DEFAULT_FRAGMENT_CACHE_CAPACITY = 4096


class ReformulationCache:
    """Fragment-key -> stamped reformulation LRU with hit/miss/stale
    accounting.

    Thread-safe: concurrent ``answer()`` callers may price covers from
    several threads against one shared instance. Lookups count a *hit*, stores
    count a *miss* (every store follows a failed lookup in the builders'
    check-then-compute pattern), and entries dropped because a predicate
    they assumed empty has rows count *stale*. ``capacity=None`` means
    unbounded (the sensible default for an estimator-private cache that
    lives for one search); bounded instances evict least-recently-used
    entries.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("cache capacity must be at least 1 (or None)")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple, Tuple[object, FrozenSet[str]]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stale = 0

    def get(
        self,
        key: Tuple,
        default: object = None,
        empty: AbstractSet[str] = frozenset(),
    ) -> object:
        """Atomic lookup: the cached value (counted as a hit) or *default*.

        *empty* is the caller's current set of empty predicates. An entry
        whose stamp is not inside it relied on a predicate that has rows
        now: it is dropped and counted stale, and the lookup misses.
        Callers racing against eviction must use this rather than the
        ``in`` / ``[]`` two-step, which can drop the entry in between.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return default
            value, stamp = entry
            if not stamp <= empty:
                del self._entries[key]
                self.stale += 1
                return default
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(
        self, key: Tuple, value: object, stamp: FrozenSet[str] = frozenset()
    ) -> None:
        """Store *value*, valid while every name in *stamp* is empty;
        counted as a miss."""
        with self._lock:
            self.misses += 1
            self._entries[key] = (value, stamp)
            self._entries.move_to_end(key)
            if self.capacity is not None:
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)

    # -- mapping protocol, unstamped --------------------------------------
    def __contains__(self, key: Tuple) -> bool:
        with self._lock:
            return key in self._entries

    def __getitem__(self, key: Tuple) -> object:
        with self._lock:
            value, _ = self._entries[key]  # KeyError propagates: a true miss
            self._entries.move_to_end(key)
            self.hits += 1
        return value

    def __setitem__(self, key: Tuple, value: object) -> None:
        self.put(key, value)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self._entries)

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.stale = 0

    def stats(self) -> Dict[str, int]:
        """A snapshot of the counters (reported on ``AnswerReport``);
        ``stale`` counts entries dropped because a write filled a
        predicate they assumed empty."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "stale": self.stale,
        }

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
expected. The cache is correct across queries because a fragment's
reformulation is a pure function of its head, its atoms, the TBox and the
``minimize`` flag — and a cache instance is scoped to one TBox (one
system).

The class speaks the mapping protocol (``in`` / ``[]``), so call sites
that historically took a plain ``dict`` keep working unchanged; plain
dicts also still work there, just without counters.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterator, Optional, Tuple

#: Bound used by :class:`~repro.obda.system.OBDASystem` for its shared
#: instance: ample for every workload in the repository (the full LUBM
#: suite reformulates well under a hundred distinct fragments) while
#: keeping a long-lived serving process's memory bounded.
DEFAULT_FRAGMENT_CACHE_CAPACITY = 4096

#: Sentinel distinguishing "absent" from a stored falsy value.
_MISS = object()


class ReformulationCache:
    """Fragment-key -> reformulation LRU with hit/miss accounting.

    Thread-safe: concurrent ``answer()`` callers may price covers from
    several threads against one shared instance. Lookups count a *hit*, stores
    count a *miss* (every store follows a failed lookup in the builders'
    check-then-compute pattern). ``capacity=None`` means unbounded (the
    sensible default for an estimator-private cache that lives for one
    search); bounded instances evict least-recently-used entries.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("cache capacity must be at least 1 (or None)")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Tuple, default: object = None) -> object:
        """Atomic lookup: the cached value (counted as a hit) or *default*.

        Callers racing against eviction must use this rather than the
        ``in`` / ``[]`` two-step, which can drop the entry in between.
        """
        with self._lock:
            value = self._entries.get(key, _MISS)
            if value is _MISS:
                return default
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    # -- mapping protocol (drop-in for the historical plain dict) ------
    def __contains__(self, key: Tuple) -> bool:
        with self._lock:
            return key in self._entries

    def __getitem__(self, key: Tuple) -> object:
        with self._lock:
            value = self._entries[key]  # KeyError propagates: a true miss
            self._entries.move_to_end(key)
            self.hits += 1
        return value

    def __setitem__(self, key: Tuple, value: object) -> None:
        with self._lock:
            self.misses += 1
            self._entries[key] = value
            self._entries.move_to_end(key)
            if self.capacity is not None:
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)

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

    def stats(self) -> Dict[str, int]:
        """A snapshot of the counters (reported on ``AnswerReport``)."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
        }

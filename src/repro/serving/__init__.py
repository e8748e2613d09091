"""Serving-grade shared-work answering.

The paper's pipeline (Figure 1) prices and reformulates each query from
scratch; a serving system answering heavy repeated traffic must not. This
package holds the machinery :class:`~repro.obda.system.OBDASystem` uses to
share work across queries:

* :class:`~repro.serving.plan_cache.PlanCache` — a thread-safe LRU from a
  *plan key* (the query's canonical form plus every flag that changes the
  chosen plan) to the finished :class:`~repro.obda.system.
  ReformulationChoice`, so a repeated query skips cover search, fragment
  reformulation and SQL translation entirely;
* the fragment-level :class:`~repro.cost.cache.ReformulationCache` lives
  in :mod:`repro.cost.cache` (the cost layer owns it because estimators
  are its main consumers), and is shared by the system across strategies
  and queries;
* :mod:`repro.serving.concurrency` — what keeps concurrent callers
  correct: the :class:`~repro.serving.concurrency.ReadWriteBarrier`
  (writes drain in-flight queries before the backend, statistics and
  data epoch mutate) and the per-query deadline with its
  :class:`~repro.serving.concurrency.QueryTimeoutError`. The system
  owns no threads of its own for serving: ``answer_many`` answers its
  batch in order, and concurrency is the callers' threads.
"""

from repro.serving.concurrency import QueryTimeoutError, ReadWriteBarrier
from repro.serving.plan_cache import PlanCache

__all__ = [
    "PlanCache",
    "QueryTimeoutError",
    "ReadWriteBarrier",
]

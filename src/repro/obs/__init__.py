"""Observability: end-to-end query tracing plus a unified metrics registry.

Two subsystems, both threaded through the whole OBDA stack:

* :mod:`repro.obs.trace` — a lightweight span API. A
  :class:`~repro.obs.trace.Tracer` builds one structured
  :class:`~repro.obs.trace.QueryTrace` per answered query: parse,
  reformulation (per strategy, with PerfectRef / cover-search counters
  and cache hit/miss deltas), cost estimation, SQL translation, engine
  execution (operator wall time and row/batch counts folded out of
  :class:`~repro.engine.executor.ExecutionStats`) and — on a
  :class:`~repro.storage.sharded_backend.ShardedBackend` — per-shard
  child spans, including spans shipped back over the pipe RPC from
  forked :class:`~repro.storage.process_workers.ProcessShardWorker`
  processes and merged into the coordinator trace with worker
  attribution. Tracing is **off by default** and costs <5% when
  disabled (the disabled path is a handful of no-op singleton calls per
  query; guarded by ``benchmarks/test_bench_obs.py``).

* :mod:`repro.obs.metrics` — a process-wide
  :class:`~repro.obs.metrics.MetricsRegistry` of counters, gauges and
  bounded histograms (p50/p95/p99) behind the stable metric names
  catalogued in ``docs/OBSERVABILITY.md``. It absorbs the counters
  historically scattered across ``ExecutionStats`` and
  ``shard_telemetry()``, aggregates across
  process shard workers over the same RPC batching as
  ``statistics_many``, and exports as a JSON snapshot
  (:meth:`~repro.obs.metrics.MetricsRegistry.snapshot`) or a
  plain-text Prometheus dump
  (:meth:`~repro.obs.metrics.MetricsRegistry.render_prometheus`).

Surfaces: ``AnswerReport.trace``, :meth:`repro.obda.system.OBDASystem.
metrics`, the slow-query log (``REPRO_SLOW_QUERY_MS``) and the
``EXPLAIN ANALYZE``-style rendering (``explain_text(analyze=True)``).
"""

from repro.obs.metrics import (
    MetricsRegistry,
    get_registry,
    reset_registry,
)
from repro.obs.trace import (
    NO_SPAN,
    QueryTrace,
    Span,
    Tracer,
    activate,
    current_span,
    trace_enabled_default,
)

__all__ = [
    "MetricsRegistry",
    "get_registry",
    "reset_registry",
    "NO_SPAN",
    "QueryTrace",
    "Span",
    "Tracer",
    "activate",
    "current_span",
    "trace_enabled_default",
]

"""Supervision overhead: the no-faults path must cost under 5%.

The robustness contract (docs/ROBUSTNESS.md) is that worker
supervision — every forked shard worker runs behind it — adds under 5%
to statement latency when nothing fails. On the healthy path the
:class:`~repro.storage.supervisor.SupervisedShardWorker` wrapper adds a
fixed set of operations per shard RPC: an RLock acquire, a liveness
check, deadline arithmetic and a ``try``/``except`` frame; no state is
copied and no extra process hops occur.

This benchmark prices that contract from two directions:

* **supervised vs. raw wall clock** (warm min-of-N over a batch): one
  bare :class:`~repro.storage.process_workers.ProcessShardWorker` and
  one :class:`SupervisedShardWorker`, each constructed directly and
  loaded with the same table, run the same statement. The ratio is
  recorded for information — at millisecond statement latencies it is
  dominated by scheduler noise, not by the wrapper.
* **supervision microbenchmark**: the healthy-path wrapper cost is
  measured directly — time a no-op pass through the retry/deadline
  wrapper, charge a generous overcount of wrapper passes per statement
  and express it as a fraction of the measured per-statement latency.
  This is the number the <5% contract (and the
  ``check_engine_regressions.py`` gate) applies to.

Answers are asserted identical between the supervised and raw workers
unconditionally — supervision must never change results. Both numbers
land in ``BENCH_engine.json`` under ``extras.fault_tolerance``.
"""

from __future__ import annotations

import time

import pytest

from repro.storage.layouts import LayoutData, SimpleLayout
from repro.storage.memory_backend import MemoryBackend
from repro.storage.process_workers import (
    ProcessShardWorker,
    process_substrate_available,
)
from repro.storage.supervisor import SupervisedShardWorker

TIMING_ROUNDS = 3

#: Statements per timed round — a statement is ~1ms on a worker; a
#: batch keeps the wall measurement comfortably above timer resolution.
STATEMENTS_PER_ROUND = 10

#: Ceiling on the healthy-path supervision overhead fraction (0.05 =
#: the 5% contract). Asserted here and re-checked by the gate.
SUPERVISION_OVERHEAD_CEILING = 0.05

#: Wrapper passes charged per statement by the microbenchmark. A
#: statement crosses the supervision wrapper once; 2x is a generous
#: overcount covering the context reads (deadline, span) per call.
WRAPPER_PASSES_PER_STATEMENT = 2


def _time_batch(backend, sql):
    best = None
    for _ in range(TIMING_ROUNDS):
        started = time.perf_counter()
        for _ in range(STATEMENTS_PER_ROUND):
            backend.execute(sql)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


def _wrapper_pass_seconds(child: SupervisedShardWorker,
                          iterations: int = 20_000) -> float:
    """Measured cost of one healthy-path pass through the supervision
    wrapper (min-of-3): lock, liveness check, deadline arithmetic and
    the retry frame — with the RPC itself replaced by a no-op."""
    best = None
    for _ in range(TIMING_ROUNDS):
        started = time.perf_counter()
        for _ in range(iterations):
            child._read(lambda worker, _timeout: None,
                        lambda backend: None)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best / iterations


@pytest.mark.skipif(
    not process_substrate_available(),
    reason="fork start method unavailable",
)
def test_supervision_overhead(tbox, abox_15m, engine_report, monkeypatch):
    """Price the healthy-path supervision wrapper against the 5%
    contract and record the supervised/raw wall ratio for information."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    layout = SimpleLayout()
    role = max(
        (
            spec
            for spec in layout.build(abox_15m, tbox).tables
            if spec.name.startswith("r_") and spec.rows
        ),
        key=lambda spec: len(spec.rows),
    )
    data = LayoutData(tables=[role])
    sql = (
        f"SELECT DISTINCT a.s AS x FROM {role.name} a, {role.name} b "
        "WHERE a.s = b.s"
    )

    oracle = MemoryBackend()
    raw = ProcessShardWorker(MemoryBackend)
    supervised = SupervisedShardWorker(MemoryBackend)
    try:
        for backend in (oracle, raw, supervised):
            backend.load(data)
            backend.execute(sql)  # warm plans + worker pipes

        expected = oracle.execute(sql)
        assert sorted(raw.execute(sql)) == sorted(expected)
        assert sorted(supervised.execute(sql)) == sorted(expected)

        raw_wall = _time_batch(raw, sql)
        supervised_wall = _time_batch(supervised, sql)
        per_statement = supervised_wall / STATEMENTS_PER_ROUND
        wrapper_cost = (
            _wrapper_pass_seconds(supervised) * WRAPPER_PASSES_PER_STATEMENT
        )
        overhead = wrapper_cost / max(per_statement, 1e-12)
        wall_ratio = supervised_wall / max(raw_wall, 1e-9)

        assert supervised.restarts == 0
        assert supervised.degraded_executions == 0

        engine_report.extra(
            "fault_tolerance",
            {
                "shards": 1,
                "table": role.name,
                "table_rows": len(role.rows),
                "statements_per_round": STATEMENTS_PER_ROUND,
                "timing_rounds": TIMING_ROUNDS,
                "wall_s_raw": round(raw_wall, 5),
                "wall_s_supervised": round(supervised_wall, 5),
                "wall_ratio_supervised_vs_raw": round(wall_ratio, 4),
                "per_statement_us": round(per_statement * 1e6, 2),
                "supervision_cost_us": round(wrapper_cost * 1e6, 3),
                "supervision_overhead_fraction": round(overhead, 5),
                "ceiling": SUPERVISION_OVERHEAD_CEILING,
                "overhead_asserted": True,
            },
        )
        print(
            f"\nsupervision on {role.name}: raw={raw_wall * 1000:.1f}ms "
            f"supervised={supervised_wall * 1000:.1f}ms "
            f"ratio={wall_ratio:.3f} wrapper={wrapper_cost * 1e6:.1f}us "
            f"({overhead:.2%} of a {per_statement * 1e6:.0f}us statement)"
        )
        assert overhead < SUPERVISION_OVERHEAD_CEILING, (
            f"healthy-path supervision costs {overhead:.1%} of a "
            f"statement (ceiling {SUPERVISION_OVERHEAD_CEILING:.0%})"
        )
    finally:
        oracle.close()
        raw.close()
        supervised.close()

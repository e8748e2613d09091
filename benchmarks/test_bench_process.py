"""Process-substrate scaling: forked shard workers vs serial dispatch.

Loads the Fig 3 workload into a 4-shard :class:`~repro.storage.
sharded_backend.ShardedBackend` on the ``process`` substrate and times a
scatter statement issued to the shard workers one at a time from the
benchmark's own thread (workers drained sequentially) against the
backend's own scatter (all four forked workers evaluating
simultaneously on its dispatch pool). Records into
``BENCH_engine.json`` (``extras.process_engine``):

* scatter wall clock serialized vs dispatched (warm, min-of-N), and the
  same statement on the in-process ``serial`` substrate;
* one large scan's transfer time: a full scan of a
  :data:`SCAN_ROWS`-row two-int-column table through one forked worker
  minus the same scan on the same backend in process.

Answers are asserted identical to an in-process oracle unconditionally
— transport and substrate must never change results.
The >=2x wall-clock assertion is gated on >=4 CPUs only: unlike the
thread benchmarks there is **no** GIL gate, because worker processes
each own an interpreter and parallelize regardless of the coordinator's
GIL. On fewer CPUs the measured ratio is recorded for the report and
the assertion is skipped with an explanation.
"""

from __future__ import annotations

import os
import sys
import time

import pytest

from repro.storage.layouts import LayoutData, SimpleLayout, TableSpec
from repro.storage.memory_backend import MemoryBackend
from repro.storage.process_workers import (
    ProcessShardWorker,
    process_substrate_available,
)
from repro.storage.sharded_backend import ShardedBackend

TIMING_ROUNDS = 3

SHARDS = 4

#: Rows of the synthetic two-int-column table whose full scan prices
#: the worker-to-coordinator transfer.
SCAN_ROWS = 100_000


def _gil_enabled() -> bool:
    probe = getattr(sys, "_is_gil_enabled", None)
    return True if probe is None else bool(probe())


def _enough_cpus() -> bool:
    return (os.cpu_count() or 1) >= SHARDS


def _best_of(execute, sql):
    best = None
    rows = None
    for _ in range(TIMING_ROUNDS):
        started = time.perf_counter()
        rows = execute(sql)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, rows


def _serialized(backend):
    """*backend*'s scatter legs, run one after another on this thread
    and merged the way a deduplicating scatter merges them."""

    def execute(sql):
        rows = []
        for child in backend.children:
            rows.extend(child.execute(sql))
        return list(dict.fromkeys(rows))

    return execute


def _scan_transfer():
    """``(in-process seconds, forked-worker seconds)`` for one full
    scan of :data:`SCAN_ROWS` rows (warm, min-of-N); the rows must be
    identical, order included."""
    data = LayoutData(
        tables=[
            TableSpec(
                name="r_scan",
                columns=("s", "o"),
                rows=[(i, (i * 7) % 997) for i in range(SCAN_ROWS)],
                indexes=(("s",),),
            )
        ]
    )
    sql = "SELECT s, o FROM r_scan"
    local = MemoryBackend()
    worker = ProcessShardWorker(MemoryBackend, shard=0)
    try:
        local.load(data)
        worker.load(data)
        local_s, expected = _best_of(local.execute, sql)
        worker_s, rows = _best_of(worker.execute, sql)
        assert rows == expected
        assert len(rows) == SCAN_ROWS
    finally:
        worker.close()
        local.close()
    return local_s, worker_s


@pytest.mark.skipif(
    not process_substrate_available(),
    reason="fork start method unavailable",
)
def test_process_scatter_scaling(tbox, abox_15m, engine_report):
    """4 forked shard workers dispatched at once vs one at a time, the
    serial substrate's wall time, and one large scan's transfer."""
    layout = SimpleLayout()
    data = layout.build(abox_15m, tbox)
    role = max(
        (spec for spec in data.tables if spec.name.startswith("r_") and spec.rows),
        key=lambda spec: len(spec.rows),
    )
    scatter_sql = (
        f"SELECT DISTINCT a.s AS x FROM {role.name} a, {role.name} b "
        "WHERE a.s = b.s"
    )

    oracle = MemoryBackend()
    serial = ShardedBackend(SHARDS, substrate="serial")
    scattered = ShardedBackend(SHARDS, substrate="process")
    assert scattered.substrate == "process"
    try:
        for backend in (oracle, serial, scattered):
            backend.load(data)
            backend.execute(scatter_sql)  # warm plans + worker pipes

        _, expected = _best_of(oracle.execute, scatter_sql)
        wall_serial, rows_serial = _best_of(serial.execute, scatter_sql)
        wall_1w, rows_1w = _best_of(_serialized(scattered), scatter_sql)
        wall_4w, rows_4w = _best_of(scattered.execute, scatter_sql)
        assert sorted(rows_serial) == sorted(expected)
        assert sorted(rows_1w) == sorted(expected)
        assert rows_4w == rows_serial
        assert scattered.last_execution.route == "scatter"
        assert len(scattered.last_execution.shards_touched) == SHARDS

        scan_local, scan_worker = _scan_transfer()
        speedup = wall_1w / max(wall_4w, 1e-9)
        asserted = _enough_cpus()
        engine_report.extra(
            "process_engine",
            {
                "shards": SHARDS,
                "table": role.name,
                "table_rows": len(role.rows),
                "scatter_wall_s_serial": round(wall_serial, 4),
                "scatter_wall_s_1w": round(wall_1w, 4),
                "scatter_wall_s_4w": round(wall_4w, 4),
                "speedup_4w_vs_1w": round(speedup, 2),
                "scan_rows": SCAN_ROWS,
                "scan_wall_s_in_process": round(scan_local, 4),
                "scan_wall_s_worker": round(scan_worker, 4),
                "scan_transfer_s": round(scan_worker - scan_local, 4),
                "cpus": os.cpu_count(),
                "gil": _gil_enabled(),
                "scaling_asserted": asserted,
            },
        )
        print(
            f"\nprocess scatter on {role.name}: serial="
            f"{wall_serial * 1000:.1f}ms 1w={wall_1w * 1000:.1f}ms "
            f"{SHARDS}w={wall_4w * 1000:.1f}ms speedup={speedup:.2f}x; "
            f"{SCAN_ROWS}-row scan {scan_local * 1000:.1f}ms in process, "
            f"{scan_worker * 1000:.1f}ms through a worker"
        )
        if asserted:
            assert speedup >= 2.0, (
                f"expected >=2x scatter speedup at {SHARDS} process "
                f"workers on >=4 CPUs, measured {speedup:.2f}x"
            )
        else:
            print(
                f"(scaling assertion skipped: cpus={os.cpu_count()} < "
                f"{SHARDS} — worker processes cannot run simultaneously; "
                "numbers recorded)"
            )
    finally:
        oracle.close()
        serial.close()
        scattered.close()


@pytest.mark.skipif(
    not process_substrate_available(),
    reason="fork start method unavailable",
)
def test_process_answers_match_serial_substrate(tbox, abox_15m, queries):
    """Substrate independence on the real workload: process-shard
    answers are byte-identical to the in-process serial shards'."""
    layout = SimpleLayout()
    data = layout.build(abox_15m, tbox)
    serial = ShardedBackend(2, substrate="serial")
    process = ShardedBackend(2, substrate="process")
    try:
        serial.load(data)
        process.load(data)
        role = next(
            spec for spec in data.tables
            if spec.name.startswith("r_") and spec.rows
        )
        bound = role.rows[0][0]
        probes = [
            f"SELECT DISTINCT a.s AS x FROM {role.name} a",
            f"SELECT a.o AS x FROM {role.name} a WHERE a.s = {bound}",
            (
                f"SELECT DISTINCT a.s AS x FROM {role.name} a, "
                f"{role.name} b WHERE a.o = b.s"
            ),
        ]
        for sql in probes:
            assert process.execute(sql) == serial.execute(sql), sql
    finally:
        serial.close()
        process.close()

"""Sharded storage measurements: scatter scaling and pruned probes.

Loads the Fig 3 workload's ABox into an unsharded MemoryBackend, a
1-shard and a 4-shard :class:`~repro.storage.sharded_backend.
ShardedBackend`, and records into ``BENCH_engine.json``
(``extras.sharding``):

* **scatter latency** — an unbound co-partitioned statement at 1 vs 4
  shards (the 1-shard configuration prices pure routing overhead);
* **pruned-probe latency** — the same table probed with a bound shard
  key, which must touch exactly one shard;
* **gather latency** — a non-co-partitioned join (warm coordinator).

Answers are asserted identical across all configurations; route
correctness (pruned touches 1 shard, scatter touches all) is asserted
unconditionally. Wall-clock ratios are recorded, not asserted — on a
stock-GIL CPython the scatter pool cannot parallelize the pure-Python
children.
"""

from __future__ import annotations

import time

from repro.storage.layouts import SimpleLayout
from repro.storage.memory_backend import MemoryBackend
from repro.storage.sharded_backend import ShardedBackend

TIMING_ROUNDS = 5


def _best_of(backend, sql):
    best = None
    rows = None
    for _ in range(TIMING_ROUNDS):
        started = time.perf_counter()
        rows = backend.execute(sql)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, rows


def test_shard_scaling(tbox, abox_15m, engine_report):
    """1-shard vs 4-shard scatter, pruned probes, and the gather path."""
    layout = SimpleLayout()
    data = layout.build(abox_15m, tbox)
    role = max(
        (spec for spec in data.tables if spec.name.startswith("r_") and spec.rows),
        key=lambda spec: len(spec.rows),
    )
    bound_code = role.rows[len(role.rows) // 2][0]

    scatter_sql = (
        f"SELECT DISTINCT a.s AS x FROM {role.name} a, {role.name} b "
        "WHERE a.s = b.s"
    )
    pruned_sql = f"SELECT a.o AS x FROM {role.name} a WHERE a.s = {bound_code}"
    gather_sql = (
        f"SELECT DISTINCT a.s AS x FROM {role.name} a, {role.name} b "
        "WHERE a.o = b.s"
    )

    backends = {
        "unsharded": MemoryBackend(),
        "shards1": ShardedBackend(1),
        "shards4": ShardedBackend(4),
    }
    timings = {}
    try:
        reference = {}
        for name, backend in backends.items():
            backend.load(data)
            for kind, sql in (
                ("scatter", scatter_sql),
                ("pruned", pruned_sql),
                ("gather", gather_sql),
            ):
                backend.execute(sql)  # warm (plan caches, gather copies)
                elapsed, rows = _best_of(backend, sql)
                timings[f"{kind}_{name}_ms"] = round(elapsed * 1000, 3)
                key = (kind, sql)
                if key not in reference:
                    reference[key] = sorted(rows)
                else:
                    assert sorted(rows) == reference[key], (name, kind)

        sharded = backends["shards4"]
        sharded.execute(pruned_sql)
        assert sharded.last_execution.route == "pruned"
        assert len(sharded.last_execution.shards_touched) == 1
        sharded.execute(scatter_sql)
        assert sharded.last_execution.route == "scatter"
        assert len(sharded.last_execution.shards_touched) == 4
        sharded.execute(gather_sql)
        assert sharded.last_execution.route == "gather"

        engine_report.extra(
            "sharding",
            {
                "table": role.name,
                "table_rows": len(role.rows),
                **timings,
                "pruned_speedup_vs_scatter_4sh": round(
                    timings["scatter_shards4_ms"]
                    / max(timings["pruned_shards4_ms"], 1e-6),
                    2,
                ),
            },
        )
        print(f"\nsharding timings on {role.name}: {timings}")
    finally:
        for backend in backends.values():
            backend.close()

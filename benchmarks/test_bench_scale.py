"""Scale-tiered benchmarks: generator, ingest, queries and shards at
1k / 100k / 1M facts.

The streaming generator (:mod:`repro.bench.datagen`) decouples dataset
size from memory, so the Fig 2-style evaluation and the shard benchmarks
re-run at three orders of magnitude. Per scale tier this records into
``BENCH_engine.json`` under ``extras.scale_<facts>``:

* generator throughput (facts/s, streamed without loading);
* ingest timings — ``bulk_load`` vs incremental ``insert_rows`` on the
  in-process engine, plus ``bulk_load`` on a 4-shard backend;
* Fig 2-style query evaluation — UCQ vs cover-based JUCQ reformulations
  of superclass queries, translated over the simple layout and run on
  the bulk-loaded engine (answers must agree between variants);
* shard scatter vs single-shard-routed point lookups on the 4-shard
  backend;
* the measured cost-model recalibration
  (:func:`repro.bench.calibrate.calibrate_cost_parameters`).

``REPRO_BENCH_MAX_SCALE`` caps the tiers (the CI smoke leg caps at
100k; the default runs all three).
"""

from __future__ import annotations

import os
from dataclasses import asdict
from time import perf_counter

import pytest

from repro.bench.calibrate import calibrate_cost_parameters
from repro.bench.datagen import (
    exact_fact_count,
    load_generated,
    stream_facts,
)
from repro.bench.lubm import lubm_exists_tbox
from repro.covers.reformulate import cover_based_reformulation
from repro.covers.safety import root_cover
from repro.dllite.parser import parse_query
from repro.reformulation.perfectref import reformulate_to_ucq
from repro.sql.translator import SQLTranslator
from repro.storage.layouts import SimpleLayout
from repro.storage.memory_backend import MemoryBackend
from repro.storage.process_workers import process_substrate_available
from repro.storage.sharded_backend import ShardedBackend

SCALES = (1_000, 100_000, 1_000_000)
MAX_SCALE = int(os.environ.get("REPRO_BENCH_MAX_SCALE", str(SCALES[-1])))
RUN_SCALES = [scale for scale in SCALES if scale <= MAX_SCALE]

#: Superclass queries whose PerfectRef reformulations fan out over the
#: generator's concrete predicates (Fig 2's UCQ-vs-JUCQ shape).
SCALE_QUERIES = {
    "S1": "q(x) <- Student(x), takesCourse(x, y)",
    "S2": "q(x) <- Professor(x), worksFor(x, y)",
    "S3": "q(x, y) <- Article(x), publicationAuthor(x, y)",
}

#: Warm min-of-N evaluation, matching the Fig 2/3 sims.
EVAL_REPEAT = 3


def _timed(fn, repeats=EVAL_REPEAT):
    best, result = float("inf"), None
    for _ in range(repeats):
        started = perf_counter()
        result = fn()
        best = min(best, perf_counter() - started)
    return best * 1000.0, result


def _ingest(scale: int, tbox, incremental: bool) -> int:
    """Load the tier into a fresh engine backend; the facts loaded."""
    backend = MemoryBackend()
    try:
        total, _dictionary = load_generated(
            backend, scale, tbox=tbox, incremental=incremental
        )
        return total
    finally:
        backend.close()


def _generator_throughput(scale: int) -> dict:
    started = perf_counter()
    total = sum(1 for _ in stream_facts(scale))
    elapsed = perf_counter() - started
    assert total == exact_fact_count(scale)
    return {
        "facts": total,
        "generate_s": round(elapsed, 4),
        "facts_per_s": round(total / max(elapsed, 1e-9)),
    }


def _query_rows(backend, dictionary, tbox) -> dict:
    layout = SimpleLayout(dictionary=dictionary)
    translator = SQLTranslator(layout)
    rows = {}
    for name, text in SCALE_QUERIES.items():
        query = parse_query(text)
        ucq = reformulate_to_ucq(query, tbox)
        jucq = cover_based_reformulation(root_cover(query, tbox), tbox)
        ucq_ms, ucq_rows = _timed(
            lambda sql=translator.translate(ucq): backend.execute(sql)
        )
        jucq_ms, jucq_rows = _timed(
            lambda sql=translator.translate(jucq): backend.execute(sql)
        )
        assert sorted(set(ucq_rows)) == sorted(set(jucq_rows)), name
        rows[name] = {
            "disjuncts": len(ucq.disjuncts),
            "answers": len(set(ucq_rows)),
            "ucq_ms": round(ucq_ms, 3),
            "jucq_ms": round(jucq_ms, 3),
        }
    return rows


def _shard_timings(scale: int, tbox) -> dict:
    substrate = "process" if process_substrate_available() else None
    backend = ShardedBackend(4, substrate=substrate)
    try:
        started = perf_counter()
        total, dictionary = load_generated(backend, scale, tbox=tbox)
        bulk_s = perf_counter() - started
        scatter_sql = (
            "SELECT DISTINCT t0.s FROM r_takesCourse t0, r_teacherOf t1 "
            "WHERE t0.o = t1.o"
        )
        scatter_ms, scatter_rows = _timed(
            lambda: backend.execute(scatter_sql)
        )
        key = backend.execute("SELECT s FROM c_GraduateStudent")[0][0]
        point_sql = f"SELECT o FROM r_takesCourse WHERE s = {key}"
        point_ms, point_rows = _timed(lambda: backend.execute(point_sql))
        assert scatter_rows and point_rows
        return {
            "shards": 4,
            "substrate": backend.substrate,
            "bulk_load_s": round(bulk_s, 3),
            "bulk_rows_per_s": round(total / max(bulk_s, 1e-9)),
            "scatter_ms": round(scatter_ms, 3),
            "point_lookup_ms": round(point_ms, 3),
        }
    finally:
        backend.close()


@pytest.mark.parametrize("scale", RUN_SCALES)
def test_scale_tier(scale, engine_report):
    """One full tier: generate, ingest both ways, query, calibrate."""
    tbox = lubm_exists_tbox()
    payload = {"scale": scale, "generator": _generator_throughput(scale)}

    backend = MemoryBackend()
    try:
        started = perf_counter()
        total, dictionary = load_generated(backend, scale, tbox=tbox)
        bulk_s = perf_counter() - started
        assert total == exact_fact_count(scale)
        payload["ingest"] = {
            "facts": total,
            "memory_bulk_s": round(bulk_s, 3),
            "memory_bulk_rows_per_s": round(total / max(bulk_s, 1e-9)),
        }
        payload["queries"] = _query_rows(backend, dictionary, tbox)
        parameters, measurements = calibrate_cost_parameters(backend)
        payload["calibration"] = {
            "parameters": asdict(parameters),
            "measurements": measurements,
        }
    finally:
        backend.close()

    # At the smallest tier one load takes a few milliseconds, within
    # scheduler jitter (a single-shot bulk/incremental ratio tops 1.25 in
    # about one sample in ten): the shape assertion below compares
    # best-of-N timings there (one load each at the larger tiers).
    repeats = EVAL_REPEAT if scale == SCALES[0] else 1
    incremental_ms, _ = _timed(lambda: _ingest(scale, tbox, True), repeats)
    payload["ingest"]["memory_incremental_s"] = round(incremental_ms / 1e3, 3)
    if repeats > 1:
        bulk_ms, _ = _timed(lambda: _ingest(scale, tbox, False), repeats - 1)
        payload["ingest"]["memory_bulk_s"] = round(min(bulk_s, bulk_ms / 1e3), 3)

    payload["sharded"] = _shard_timings(scale, tbox)
    engine_report.extra(f"scale_{scale}", payload)

    # Shape: the bulk path must never lose to incremental ingestion,
    # and every variant pair agreed on answers (asserted above).
    assert payload["ingest"]["memory_bulk_s"] <= (
        payload["ingest"]["memory_incremental_s"] * 1.25
    )
    assert any(row["answers"] for row in payload["queries"].values())

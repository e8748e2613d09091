"""End-to-end query tracing and the unified metrics registry.

Covers the :mod:`repro.obs` subsystem and its integration points:

* span/tracer unit behaviour, including the disabled :data:`NO_SPAN`
  path and rehydration of span dicts grafted from forked workers;
* the bounded-histogram metrics registry (quantiles, merging,
  Prometheus rendering) and the process-wide singleton;
* trace completeness for one ``answer()`` under every execution
  substrate (serial / thread / process) at 1 and 4 shards, with
  parent-child integrity and worker attribution;
* disabled tracing: identical answers, no retained trace state;
* the canonical-name telemetry aliases, the slow-query log, and the
  ``EXPLAIN ANALYZE`` surfaces on every backend.
"""

from __future__ import annotations

import logging
import os

import pytest

from repro.engine.database import MiniRDBMS
from repro.obda.system import OBDASystem
from repro.obs.metrics import (
    DEFAULT_BUCKET_BOUNDS,
    HIST_BOUNDS_ENV,
    Histogram,
    MetricsRegistry,
    get_registry,
    histogram_bounds,
    reset_registry,
)
from repro.obs.trace import (
    NO_SPAN,
    TRACE_ENV,
    Tracer,
    activate,
    current_span,
    trace_enabled_default,
)
from repro.storage.memory_backend import MemoryBackend
from repro.storage.process_workers import process_substrate_available
from repro.storage.sharded_backend import ShardedBackend
from repro.storage.sqlite_backend import SQLiteBackend

needs_processes = pytest.mark.skipif(
    not process_substrate_available(),
    reason="fork start method unavailable",
)

#: Span names every traced ``answer()`` must produce, in pipeline order.
PIPELINE_SPANS = ("query", "parse", "reformulate", "translate", "execute", "decode")


@pytest.fixture(autouse=True)
def fresh_registry():
    """Isolate each test's process-wide metrics."""
    reset_registry()
    yield
    reset_registry()


# ----------------------------------------------------------------------
# Trace primitives
# ----------------------------------------------------------------------
class TestSpanPrimitives:
    def test_no_span_is_inert(self):
        assert NO_SPAN.enabled is False
        assert NO_SPAN.child("anything", rows=1) is NO_SPAN
        NO_SPAN.set(rows=1)
        NO_SPAN.graft({"name": "x"})
        with NO_SPAN as span:
            assert span is NO_SPAN
        assert NO_SPAN.to_dict() == {}

    def test_activate_disabled_span_never_touches_context(self):
        assert current_span() is NO_SPAN
        with activate(NO_SPAN):
            assert current_span() is NO_SPAN
        assert current_span() is NO_SPAN

    def test_span_tree_ids_and_durations(self):
        tracer = Tracer()
        with tracer.root("query", strategy="gdl") as root:
            with root.child("parse") as parse:
                pass
            with root.child("execute", rows=3) as execute:
                execute.set(batches=1)
        trace = tracer.trace()
        assert trace.root is root
        names = [span.name for span in trace.spans()]
        assert names == ["query", "parse", "execute"]
        assert root.parent_id is None
        assert parse.parent_id == root.span_id
        assert execute.attributes == {"rows": 3, "batches": 1}
        assert root.end is not None
        assert root.duration_seconds >= parse.duration_seconds
        rendered = trace.render()
        assert "query" in rendered and "strategy=gdl" in rendered

    def test_span_records_errors(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.root("query") as root:
                raise ValueError("boom")
        assert root.error == "ValueError: boom"
        assert tracer.trace().to_dict()["root"]["error"] == "ValueError: boom"

    def test_graft_rehydrates_worker_dicts(self):
        tracer = Tracer()
        with tracer.root("query") as root:
            root.graft(
                {
                    "name": "shard.worker",
                    "span_id": 1,
                    "parent_id": None,
                    "start_s": 0.0,
                    "duration_s": 0.25,
                    "attributes": {"pid": 4242, "clock": "worker"},
                    "children": [
                        {
                            "name": "inner",
                            "span_id": 2,
                            "parent_id": 1,
                            "start_s": 0.1,
                            "duration_s": 0.1,
                        }
                    ],
                }
            )
            root.graft(None)  # ignored
        spans = tracer.trace().spans()
        worker = [span for span in spans if span.name == "shard.worker"]
        assert len(worker) == 1
        # Rehydrated spans get fresh tracer-local ids linking to their
        # coordinator-side parent, and keep worker-clock durations.
        assert worker[0].parent_id == root.span_id
        assert worker[0].attributes["pid"] == 4242
        assert worker[0].duration_seconds == pytest.approx(0.25)
        inner = [span for span in spans if span.name == "inner"]
        assert inner[0].parent_id == worker[0].span_id
        ids = [span.span_id for span in spans]
        assert len(ids) == len(set(ids))

    def test_trace_env_default(self, monkeypatch):
        monkeypatch.delenv(TRACE_ENV, raising=False)
        assert trace_enabled_default() is False
        monkeypatch.setenv(TRACE_ENV, "1")
        assert trace_enabled_default() is True
        monkeypatch.setenv(TRACE_ENV, "garbage")
        assert trace_enabled_default() is False


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestHistogram:
    def test_quantiles_interpolate_and_clamp(self):
        histogram = Histogram(bounds=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.6, 5.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.min == 0.05
        assert histogram.max == 5.0
        assert histogram.total == pytest.approx(6.15)
        p50 = histogram.quantile(0.5)
        assert 0.1 <= p50 <= 1.0
        # +Inf-adjacent quantiles clamp to the exact max.
        assert histogram.quantile(0.99) <= 5.0
        assert Histogram().quantile(0.5) is None

    def test_merge_compatible_and_incompatible_bounds(self):
        left = Histogram(bounds=(1.0, 2.0))
        left.observe(0.5)
        right = Histogram(bounds=(1.0, 2.0))
        right.observe(1.5)
        left.merge_dict(right.to_dict())
        assert left.count == 2
        assert left.buckets == [1, 1, 0]
        odd = Histogram(bounds=(0.25,))
        odd.observe(0.1)
        left.merge_dict(odd.to_dict())  # degrades to p50 placement
        assert left.count == 3
        assert left.min == 0.1

    def test_bounds_env_override(self, monkeypatch):
        monkeypatch.setenv(HIST_BOUNDS_ENV, "0.5,1.5,9")
        assert histogram_bounds() == (0.5, 1.5, 9.0)
        monkeypatch.setenv(HIST_BOUNDS_ENV, "9,1")  # not ascending
        assert histogram_bounds() == DEFAULT_BUCKET_BOUNDS
        monkeypatch.setenv(HIST_BOUNDS_ENV, "pears")
        assert histogram_bounds() == DEFAULT_BUCKET_BOUNDS


class TestMetricsRegistry:
    def test_counters_gauges_histograms_roundtrip(self):
        registry = MetricsRegistry()
        registry.inc("repro.query.count")
        registry.inc("repro.query.count", 2)
        registry.set_gauge("repro.data_epoch", 7)
        registry.observe("repro.query.seconds", 0.01)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["repro.query.count"] == 3
        assert snapshot["gauges"]["repro.data_epoch"] == 7
        assert snapshot["histograms"]["repro.query.seconds"]["count"] == 1
        assert registry.counter_value("repro.query.count") == 3
        assert registry.counter_value("never.seen") == 0.0

    def test_merge_snapshot_adds_counters_overwrites_gauges(self):
        coordinator = MetricsRegistry()
        coordinator.inc("repro.worker.statements", 5)
        coordinator.set_gauge("repro.data_epoch", 1)
        worker = MetricsRegistry()
        worker.inc("repro.worker.statements", 3)
        worker.set_gauge("repro.data_epoch", 2)
        worker.observe("repro.worker.execute.seconds", 0.2)
        coordinator.merge_snapshot(worker.snapshot())
        coordinator.merge_snapshot(None)  # opt-out backends
        snapshot = coordinator.snapshot()
        assert snapshot["counters"]["repro.worker.statements"] == 8
        assert snapshot["gauges"]["repro.data_epoch"] == 2
        assert snapshot["histograms"]["repro.worker.execute.seconds"]["count"] == 1

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.inc("repro.query.count", 2)
        registry.set_gauge("repro.data_epoch", 3)
        registry.observe("repro.query.seconds", 0.004)
        text = registry.render_prometheus()
        assert "# TYPE repro_query_count counter" in text
        assert "repro_query_count 2" in text
        assert "# TYPE repro_data_epoch gauge" in text
        assert '# TYPE repro_query_seconds histogram' in text
        assert 'repro_query_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_query_seconds_count 1" in text

    def test_reset_registry_replaces_singleton(self):
        get_registry().inc("repro.query.count")
        replacement = reset_registry()
        assert get_registry() is replacement
        assert get_registry().counter_value("repro.query.count") == 0.0


# ----------------------------------------------------------------------
# End-to-end traces across substrates
# ----------------------------------------------------------------------
def _span_names(trace):
    return [span.name for span in trace.spans()]


def _assert_tree_integrity(trace):
    spans = trace.spans()
    ids = [span.span_id for span in spans]
    assert len(ids) == len(set(ids)), "span ids must be unique"
    known = set(ids)
    for span in spans:
        if span.parent_id is not None:
            assert span.parent_id in known, (span.name, span.parent_id)
    assert trace.root.parent_id is None
    assert trace.root.end is not None


SUBSTRATES = [
    pytest.param("serial", id="serial"),
    pytest.param("process", id="process", marks=needs_processes),
]


class TestTracedAnswerMatrix:
    @pytest.mark.parametrize("substrate", SUBSTRATES)
    @pytest.mark.parametrize("shards", [1, 4])
    def test_trace_is_complete_under_every_substrate(
        self, example1_tbox, example1_abox, substrate, shards
    ):
        with OBDASystem(
            example1_tbox,
            example1_abox,
            backend="memory",
            shards=shards,
            executor=substrate,
            trace=True,
        ) as system:
            report = system.answer("q(x) <- supervisedBy(Damian, x)", strategy="sat")
            assert report.answers == {("Ioana",), ("Francois",)}
            trace = report.trace
            assert trace is not None
            names = _span_names(trace)
            for required in PIPELINE_SPANS:
                assert required in names, f"missing span {required!r} ({names})"
            assert "shards.execute" in names
            assert "shard.execute" in names
            _assert_tree_integrity(trace)
            shard_spans = trace.find("shard.execute")
            route = system.backend.last_execution.route
            if route == "pruned":
                assert len(shard_spans) == 1
            # Every shard.execute span carries its shard id.
            touched = {span.attributes["shard"] for span in shard_spans}
            assert touched == set(system.backend.last_execution.shards_touched)

    @needs_processes
    def test_worker_spans_are_attributed(self, example1_tbox, example1_abox):
        with OBDASystem(
            example1_tbox,
            example1_abox,
            backend="memory",
            shards=4,
            executor="process",
            trace=True,
        ) as system:
            report = system.answer("q(x, y) <- supervisedBy(x, y)", strategy="sat")
            worker_spans = report.trace.find("shard.worker")
            assert len(worker_spans) == 4  # scatter touches every shard
            pids = {span.attributes["pid"] for span in worker_spans}
            assert os.getpid() not in pids, "worker spans must come from workers"
            assert {span.attributes["shard"] for span in worker_spans} == {0, 1, 2, 3}
            for span in worker_spans:
                # Worker clocks are not comparable with the coordinator's.
                assert span.attributes["clock"] == "worker"
                assert "transport" not in span.attributes
            _assert_tree_integrity(report.trace)

    @needs_processes
    def test_gather_scans_graft_worker_spans_under_gather_table(
        self, example1_tbox, example1_abox
    ):
        with OBDASystem(
            example1_tbox,
            example1_abox,
            backend="memory",
            shards=4,
            executor="process",
            trace=True,
        ) as system:
            report = system.answer("q(x) <- Researcher(x)")  # join → gather
            assert system.backend.last_execution.route == "gather"
            gathers = report.trace.find("gather.table")
            assert gathers
            for gather in gathers:
                workers = [
                    child for child in gather.children
                    if child.name == "shard.worker"
                ]
                assert {span.attributes["shard"] for span in workers} == {
                    0, 1, 2, 3
                }
            _assert_tree_integrity(report.trace)

    def test_unsharded_trace_has_no_shard_spans(self, example1_tbox, example1_abox):
        # shards=0 pins the plain backend even under REPRO_SHARDS.
        with OBDASystem(example1_tbox, example1_abox, shards=0, trace=True) as system:
            report = system.answer("q(x) <- Researcher(x)")
            names = _span_names(report.trace)
            for required in PIPELINE_SPANS:
                assert required in names
            assert "shards.execute" not in names
            _assert_tree_integrity(report.trace)

    def test_cost_search_spans_describe_the_search(
        self, example1_tbox, example1_abox
    ):
        with OBDASystem(example1_tbox, example1_abox, trace=True) as system:
            report = system.answer("q(x) <- Researcher(x)", strategy="gdl")
            searches = report.trace.find("cover_search")
            assert searches, "gdl answers must trace their cover search"
            attributes = searches[0].attributes
            assert attributes["algorithm"] == "gdl"
            assert attributes["safe_covers_explored"] >= 1
            assert attributes["cost_estimations"] >= 1
            reformulate = report.trace.find("reformulate")[0]
            assert reformulate.attributes["chosen_strategy"] == "gdl"
            assert reformulate.attributes["plan_cache_hit"] is False
            # PerfectRef's work is on the span and in the registry alike.
            assert reformulate.attributes["perfectref_invocations"] >= 1
            assert (
                reformulate.attributes["perfectref_candidates"]
                >= reformulate.attributes["perfectref_results"]
                >= 1
            )
            counters = system.metrics()["counters"]
            assert (
                counters["repro.perfectref.candidates"]
                >= reformulate.attributes["perfectref_candidates"]
            )
            assert (
                counters["repro.perfectref.results"]
                >= reformulate.attributes["perfectref_results"]
            )
            # A second identical answer is a plan-cache hit with no search.
            repeat = system.answer("q(x) <- Researcher(x)", strategy="gdl")
            repeated = repeat.trace.find("reformulate")[0].attributes
            assert repeated["plan_cache_hit"]
            assert repeated["perfectref_candidates"] == 0
            assert repeated["perfectref_results"] == 0
            assert not repeat.trace.find("cover_search")

    def test_reformulate_span_counts_the_implied_atoms_dropped(
        self, example1_tbox, example1_abox
    ):
        # exists supervisedBy <= exists worksWith <= Researcher (T5, T2):
        # the whole-query UCQ is rewritten without Researcher(x).
        with OBDASystem(example1_tbox, example1_abox, trace=True) as system:
            report = system.answer(
                "q(x) <- Researcher(x), supervisedBy(x, y)", strategy="ucq"
            )
            assert report.answers == {("Damian",)}
            reformulate = report.trace.find("reformulate")[0].attributes
            assert reformulate["perfectref_eliminated"] == 1
            counters = system.metrics()["counters"]
            assert counters["repro.perfectref.eliminated"] >= 1
            plain = system.answer("q(x) <- Researcher(x)", strategy="ucq")
            assert plain.trace.find("reformulate")[0].attributes[
                "perfectref_eliminated"
            ] == 0

    def test_cover_search_span_makes_a_pick_diagnosable(self):
        # Q12's root cover has a fragment that is not join-connected
        # ({Chair(x), worksFor(x, y), University(u)}): the span names the
        # cover chosen, the reducer the repair added to reach u, and the
        # cheapest covers the search priced and turned down.
        from repro.bench.generator import generate_abox
        from repro.bench.lubm import lubm_exists_tbox
        from repro.bench.queries import query

        with OBDASystem(
            lubm_exists_tbox(), generate_abox("tiny"), trace=True
        ) as system:
            report = system.answer(query("Q12"), strategy="gdl")
            attributes = report.trace.find("cover_search")[0].attributes
            assert attributes["cover"] == str(report.choice.search.cover)
            assert attributes["reducers_added"] == 1
            alternatives = attributes["alternatives"]
            assert 1 <= len(alternatives) <= 5
            assert len(alternatives) == min(
                5, report.choice.search.total_covers_explored - 1
            )
            estimates = [estimate for _cover, estimate in alternatives]
            assert estimates == sorted(estimates)
            assert attributes["cover"] not in [cover for cover, _ in alternatives]

    def test_auto_search_span_shows_the_bound_and_what_it_pruned(self):
        # auto prices sat first and searches below it: the span carries
        # that bound and how many covers it cut off; alternatives are only
        # fully priced covers, and no attribute anywhere is infinite.
        from repro.bench.generator import generate_abox
        from repro.bench.lubm import lubm_exists_tbox
        from repro.bench.queries import query

        with OBDASystem(
            lubm_exists_tbox(), generate_abox("tiny"), materialize=True, trace=True
        ) as system:
            pruned = 0
            for name in ("Q2", "Q5", "Q8", "Q10", "Q12"):
                report = system.answer(query(name), strategy="auto")
                routing = report.choice.routing
                attributes = report.trace.find("cover_search")[0].attributes
                assert attributes["bound"] == routing.saturation_cost
                pruned += attributes["pruned_at_bound"]
                for _cover, estimate in attributes["alternatives"]:
                    assert estimate < attributes["bound"]
                reformulate = report.trace.find("reformulate")[0].attributes
                if routing.routed_to == "sat":
                    assert "reformulation_cost" not in reformulate
                    assert "est_cost" not in attributes
                for span in report.trace.spans():
                    for value in span.attributes.values():
                        assert value != float("inf"), span.name
            assert pruned >= 1


class TestDisabledTracing:
    def test_disabled_trace_identical_answers_and_no_buffers(
        self, example1_tbox, example1_abox
    ):
        query = "q(x) <- Researcher(x)"
        with OBDASystem(example1_tbox, example1_abox, trace=True) as traced:
            expected = traced.answer(query).answers
        with OBDASystem(example1_tbox, example1_abox, trace=False) as system:
            report = system.answer(query)
            assert report.answers == expected
            assert report.trace is None
            assert current_span() is NO_SPAN

    @needs_processes
    def test_disabled_trace_on_process_substrate(
        self, example1_tbox, example1_abox
    ):
        with OBDASystem(
            example1_tbox,
            example1_abox,
            backend="memory",
            shards=2,
            executor="process",
            trace=False,
        ) as system:
            report = system.answer("q(x) <- Researcher(x)")
            assert report.answers == {("Damian",), ("Ioana",), ("Francois",)}
            assert report.trace is None

    def test_trace_env_turns_tracing_on(
        self, example1_tbox, example1_abox, monkeypatch
    ):
        monkeypatch.setenv(TRACE_ENV, "1")
        with OBDASystem(example1_tbox, example1_abox) as system:
            assert system.trace_enabled
            assert system.answer("q(x) <- Researcher(x)").trace is not None


# ----------------------------------------------------------------------
# Metrics surfaces
# ----------------------------------------------------------------------
class TestSystemMetrics:
    def test_answer_populates_registry(self, example1_tbox, example1_abox):
        # shards=0: sharded process workers would record their engine
        # statements under repro.worker.statements instead.
        with OBDASystem(example1_tbox, example1_abox, shards=0) as system:
            system.answer("q(x) <- Researcher(x)")
            system.answer("q(x) <- Researcher(x)")
            metrics = system.metrics()
            counters = metrics["counters"]
            assert counters["repro.query.count"] == 2
            assert counters["repro.plan_cache.misses"] == 1
            assert counters["repro.plan_cache.hits"] == 1
            assert counters["repro.engine.statements"] >= 2
            assert metrics["histograms"]["repro.query.seconds"]["count"] == 2
            assert metrics["gauges"]["repro.cache.plan.hits"] == 1
            assert "repro.data_epoch" in metrics["gauges"]
            prometheus = system.metrics_prometheus()
            assert "repro_query_count 2" in prometheus

    def test_writes_populate_registry(self, example1_tbox, example1_abox):
        with OBDASystem(example1_tbox, example1_abox, materialize=True) as system:
            before = system.metrics()
            chases = before["histograms"]["repro.write.saturate.seconds"]["count"]
            assert chases == 1  # the initial chase
            assert "repro.write.seconds" not in before["histograms"]
            system.insert_facts([("supervisedBy", "Ada", "Grace")])
            system.insert_facts([("supervisedBy", "Ada", "Grace")])  # no-op
            system.delete_facts([("supervisedBy", "Ada", "Grace")])
            after = system.metrics()
            histograms, counters = after["histograms"], after["counters"]
            assert histograms["repro.write.seconds"]["count"] == 2
            assert histograms["repro.write.saturate.seconds"]["count"] == chases + 2
            # One more of each: enabling materialization applies the
            # derived tuples through the same path.
            for stage in ("apply_changes", "stats_refresh"):
                assert histograms[f"repro.write.{stage}.seconds"]["count"] == 3
            added = counters["repro.write.facts_added"]
            removed = counters["repro.write.facts_removed"]
            # supervisedBy <= worksWith <= worksWith-, PhDStudent, Researcher …
            assert added - before["counters"]["repro.write.facts_added"] >= 3
            assert removed >= 3
            assert counters["repro.write.predicates_touched"] >= 6
            assert "repro_write_seconds_count 2" in system.metrics_prometheus()

    @needs_processes
    def test_metrics_merge_worker_registries_without_double_count(
        self, example1_tbox, example1_abox
    ):
        with OBDASystem(
            example1_tbox,
            example1_abox,
            backend="memory",
            shards=4,
            executor="process",
        ) as system:
            system.answer("q(x, y) <- supervisedBy(x, y)", strategy="sat")
            first = system.metrics()["counters"]
            second = system.metrics()["counters"]
            assert first["repro.worker.statements"] >= 4
            # Reading metrics must not accumulate worker counters.
            assert first["repro.worker.statements"] == second[
                "repro.worker.statements"
            ]

    @needs_processes
    def test_metrics_after_close_degrades(self, example1_tbox, example1_abox):
        system = OBDASystem(
            example1_tbox,
            example1_abox,
            backend="memory",
            shards=2,
            executor="process",
        )
        system.answer("q(x) <- Researcher(x)")
        system.close()
        # Closed workers contribute nothing, but the read must not raise.
        assert system.metrics()["counters"]["repro.query.count"] == 1

    def test_gather_transfer_counters(self, example1_tbox, example1_abox):
        with OBDASystem(
            example1_tbox, example1_abox, backend="memory", shards=4
        ) as system:
            system.answer("q(x) <- Researcher(x)")  # join → gather route
            telemetry = system.backend.shard_telemetry()
            assert telemetry["shards.route.gather"] >= 1
            assert telemetry["shards.gather.tables"] >= 1
            assert telemetry["shards.gather.rows"] >= 1
            # Bytes are estimated at one int64 code (8 bytes) per cell.
            assert (
                telemetry["shards.gather.bytes"]
                == telemetry["shards.gather.cells"] * 8
            )


class TestTelemetryAliases:
    """The telemetry dictionary uses the metric catalog's dotted names
    and nothing else: the flat aliases of earlier releases are gone."""

    def test_shard_telemetry_carries_canonical_names(
        self, example1_tbox, example1_abox
    ):
        with OBDASystem(
            example1_tbox, example1_abox, backend="memory", shards=4
        ) as system:
            system.answer("q(x) <- supervisedBy(Damian, x)", strategy="sat")
            telemetry = system.backend.shard_telemetry()
            assert all("." in key for key in telemetry)
            assert telemetry["shards.count"] == 4
            assert (
                telemetry["shards.route.pruned"]
                <= telemetry["shards.executions"]
            )


class TestSlowQueryLog:
    def test_slow_queries_are_logged_with_trace(
        self, example1_tbox, example1_abox, caplog
    ):
        with OBDASystem(
            example1_tbox, example1_abox, trace=True, slow_query_ms=0.0
        ) as system:
            with caplog.at_level(logging.WARNING, logger="repro.slow_query"):
                system.answer("q(x) <- Researcher(x)")
            slow_count = system.metrics()["counters"]["repro.query.slow"]
        records = [
            record
            for record in caplog.records
            if record.name == "repro.slow_query"
        ]
        assert len(records) == 1
        record = records[0]
        assert record.query_ms >= 0.0
        # The record carries the *chosen* strategy, not the requested one.
        assert record.strategy in ("ucq", "croot", "gdl", "edl", "sat")
        assert record.query_trace is not None
        assert record.query_trace["root"]["name"] == "query"
        assert slow_count == 1

    def test_fast_queries_stay_silent(self, example1_tbox, example1_abox, caplog):
        with OBDASystem(
            example1_tbox, example1_abox, slow_query_ms=60_000.0
        ) as system:
            with caplog.at_level(logging.WARNING, logger="repro.slow_query"):
                system.answer("q(x) <- Researcher(x)")
        assert not [
            record
            for record in caplog.records
            if record.name == "repro.slow_query"
        ]


# ----------------------------------------------------------------------
# EXPLAIN ANALYZE surfaces
# ----------------------------------------------------------------------
SQL = "SELECT DISTINCT s FROM r_supervisedby"


def _load(backend, example1_abox, example1_tbox):
    from repro.storage.layouts import SimpleLayout

    backend.load(SimpleLayout().build(example1_abox, example1_tbox))


class TestExplainAnalyze:
    def test_minirdbms_reports_measured_vs_estimated(
        self, example1_tbox, example1_abox
    ):
        backend = MemoryBackend()
        _load(backend, example1_abox, example1_tbox)
        result = backend.db.explain_analyze(SQL)
        assert result.actual_rows == 1
        assert result.actual_seconds >= 0.0
        assert "[actual rows=" in result.text
        assert "Execution: 1 rows in" in result.text
        assert "estimated rows:" in result.text
        # Answers must match the plain execution path (dictionary-coded).
        assert len(backend.execute(SQL)) == 1

    def test_memory_backend_explain_text_analyze(
        self, example1_tbox, example1_abox
    ):
        backend = MemoryBackend()
        _load(backend, example1_abox, example1_tbox)
        plain = backend.explain_text(SQL)
        analyzed = backend.explain_text(SQL, analyze=True)
        assert "[actual rows=" not in plain
        assert "[actual rows=" in analyzed

    def test_sqlite_backend_explain_text_analyze(
        self, example1_tbox, example1_abox
    ):
        backend = SQLiteBackend()
        try:
            _load(backend, example1_abox, example1_tbox)
            analyzed = backend.explain_text(SQL, analyze=True)
            assert "Execution: 1 rows in" in analyzed
        finally:
            backend.close()

    @pytest.mark.parametrize(
        "sql,route_marker",
        [
            ("SELECT DISTINCT s FROM r_supervisedby WHERE s = 0", "pruned"),
            (SQL, "scatter"),
        ],
    )
    def test_sharded_routes_forward_analyze(
        self, example1_tbox, example1_abox, sql, route_marker
    ):
        backend = ShardedBackend(4)
        try:
            _load(backend, example1_abox, example1_tbox)
            analyzed = backend.explain_text(sql, analyze=True)
            assert f"Shard route: {route_marker}" in analyzed
            assert "[actual rows=" in analyzed
        finally:
            backend.close()

    def test_sharded_gather_route_analyze(self, example1_tbox, example1_abox):
        backend = ShardedBackend(4)
        try:
            _load(backend, example1_abox, example1_tbox)
            gather_sql = (
                "SELECT DISTINCT a.o FROM r_supervisedby a, r_workswith b "
                "WHERE a.o = b.s"
            )
            analyzed = backend.explain_text(gather_sql, analyze=True)
            assert "[actual rows=" in analyzed
            assert "Execution:" in analyzed
        finally:
            backend.close()

    def test_never_pulled_marker(self, example1_tbox, example1_abox):
        backend = MemoryBackend()
        _load(backend, example1_abox, example1_tbox)
        # An index-probed join side replaces its SeqScan, so the scan
        # operator produces no batches — the marker must say so rather
        # than report a misleading 0 ms measurement.
        result = backend.db.explain_analyze(
            "SELECT a.s FROM r_supervisedby a, r_workswith b WHERE a.o = b.s"
        )
        assert "[actual rows=0 (never pulled)]" in result.text
        assert result.actual_rows == 1

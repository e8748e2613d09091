"""``repro.collector.paused``: the scope itself, the phases it wraps,
the property that justifies it, and what it reports.

The scope holds CPython's *automatic* cyclic collection off while any
thread is inside it. These tests pin its contract as a guest of a
process it does not own (nesting, threads, exceptions, a host that
disabled the collector, ``fork``, the starvation guard), that exactly
the acyclic data phases of :class:`~repro.obda.system.OBDASystem` run
inside it while reformulation does not, and that the engine's execute
path really creates no reference cycles — if a later operator change
introduces some, the pause has to be argued again.
"""

import gc
import json
import os
import random
import threading
import urllib.request
import weakref

import pytest

from backend_conformance import (
    DIALECT_QUERIES,
    random_layout_data,
    random_statement,
)
from repro import collector
from repro.collector import YOUNG_DEBT_LIMIT, paused
from repro.cost.statistics import DataStatistics
from repro.materialize.saturator import Saturator
from repro.obda.system import OBDASystem
from repro.obs.metrics import get_registry
from repro.serving.http import ServingEndpoint
from repro.storage.base import Backend
from repro.storage.memory_backend import MemoryBackend
from repro.storage.process_workers import process_substrate_available

needs_processes = pytest.mark.skipif(
    not process_substrate_available(),
    reason="fork start method unavailable",
)

JOIN_TIMEOUT = 30.0


def running() -> bool:
    """The state every scope must restore: collector on, depth zero."""
    return gc.isenabled() and collector.depth() == 0


# ----------------------------------------------------------------------
# The scope
# ----------------------------------------------------------------------
class TestScope:
    def test_nested_scopes_reenable_only_at_the_outermost_exit(self):
        with paused():
            assert not gc.isenabled() and collector.depth() == 1
            with paused():
                assert not gc.isenabled() and collector.depth() == 1
            assert not gc.isenabled()  # the inner exit must not re-enable
        assert running()

    def test_overlapping_threads_reenable_after_the_last_exit(self):
        inside, release = threading.Event(), threading.Event()

        def parked():
            with paused():
                inside.set()
                release.wait(JOIN_TIMEOUT)

        thread = threading.Thread(target=parked)
        thread.start()
        try:
            assert inside.wait(JOIN_TIMEOUT)
            with paused():
                assert collector.depth() == 2
            # This thread left; the other still holds the collector off.
            assert not gc.isenabled() and collector.depth() == 1
        finally:
            release.set()
            thread.join(JOIN_TIMEOUT)
        assert not thread.is_alive()
        assert running()

    def test_exception_inside_the_scope_restores_the_collector(self):
        with pytest.raises(KeyError):
            with paused():
                with paused():
                    raise KeyError("boom")
        assert running()

    def test_host_disabled_collector_is_left_disabled(self):
        gc.disable()
        try:
            with paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
            assert collector.depth() == 0
        finally:
            gc.enable()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_starts_with_collector_on_and_depth_zero(self):
        read_end, write_end = os.pipe()
        scope = paused()
        scope.__enter__()
        try:
            pid = os.fork()
            if pid == 0:  # the child: report through the pipe, then _exit
                state = {"enabled": gc.isenabled(), "depth": collector.depth()}
                with paused():
                    state["own_scope_depth"] = collector.depth()
                # The parent's scope unwinding in the child changes nothing.
                scope.__exit__(None, None, None)
                state["after_stale_exit"] = running()
                os.write(write_end, json.dumps(state).encode())
                os._exit(0)
            os.close(write_end)
            with os.fdopen(read_end) as pipe:
                state = json.loads(pipe.read())
            os.waitpid(pid, 0)
            assert not gc.isenabled() and collector.depth() == 1  # parent
        finally:
            scope.__exit__(None, None, None)
        assert state == {
            "enabled": True,
            "depth": 0,
            "own_scope_depth": 1,
            "after_stale_exit": True,
        }
        assert running()

    def test_starvation_guard_collects_while_another_thread_stays_inside(self):
        """Depth never reaches zero, yet cycles are still reclaimed."""
        inside, release = threading.Event(), threading.Event()

        def parked():
            with paused():
                inside.set()
                release.wait(JOIN_TIMEOUT)

        class Node:
            pass

        def cycle() -> Node:
            node = Node()
            node.me = node
            return node

        per_iteration = 2_000
        # Each cycle is two tracked objects (instance + its dict).
        bound = YOUNG_DEBT_LIMIT // per_iteration + 2
        reclaimed = []
        thread = threading.Thread(target=parked)
        gc.collect()  # start from an empty young generation
        thread.start()
        try:
            assert inside.wait(JOIN_TIMEOUT)
            iterations = 0
            while not reclaimed and iterations < bound:
                iterations += 1
                with paused():
                    weakref.finalize(cycle(), reclaimed.append, iterations)
                    for _ in range(per_iteration):
                        cycle()
                assert not gc.isenabled()  # still held by the parked thread
        finally:
            release.set()
            thread.join(JOIN_TIMEOUT)
        assert reclaimed, f"no cycle reclaimed within {bound} iterations"
        assert running()


# ----------------------------------------------------------------------
# The phases OBDASystem wraps
# ----------------------------------------------------------------------
class RecordingBackend(Backend):
    """A MemoryBackend behind the plain Backend interface that records
    ``gc.isenabled()`` at every entry point the facade calls."""

    name = "recording"

    def __init__(self):
        self.inner = MemoryBackend()
        self.enabled_in = {}

    def load(self, data):
        self.enabled_in.setdefault("load", gc.isenabled())
        self.inner.load(data)

    def execute(self, sql):
        self.enabled_in["execute"] = gc.isenabled()
        return self.inner.execute(sql)

    def estimated_cost(self, sql):
        self.enabled_in["estimated_cost"] = gc.isenabled()
        return self.inner.estimated_cost(sql)

    def insert_rows(self, table, rows):
        self.inner.insert_rows(table, rows)

    def delete_rows(self, table, rows):
        return self.inner.delete_rows(table, rows)

    def apply_changes(self, inserts, deletes):
        self.enabled_in["apply_changes"] = gc.isenabled()
        self.inner.apply_changes(inserts, deletes)


class TestWrappedPhases:
    def test_ingest_execute_and_decode_run_paused_reformulate_does_not(
        self, example1_tbox, example1_abox, monkeypatch
    ):
        backend = RecordingBackend()
        seen = {}
        from_abox = DataStatistics.from_abox.__func__

        def recording_from_abox(cls, abox):
            seen["from_abox"] = gc.isenabled()
            return from_abox(cls, abox)

        monkeypatch.setattr(
            DataStatistics, "from_abox", classmethod(recording_from_abox)
        )
        with OBDASystem(example1_tbox, example1_abox, backend=backend) as system:
            assert running()
            decode = system._decode
            translate = system.translator.translate

            def recording_decode(query, rows):
                seen["decode"] = gc.isenabled()
                return decode(query, rows)

            def recording_translate(reformulation):
                seen["reformulate"] = gc.isenabled()
                return translate(reformulation)

            system._decode = recording_decode
            system.translator.translate = recording_translate
            report = system.answer("q(x) <- Researcher(x)", cost="rdbms")
            assert report.answers
            assert running()
            system.execute_choice(report.query, report.choice)
            assert running()
        assert backend.enabled_in == {
            "load": False,
            "execute": False,
            # Cover search and its RDBMS cost probes are planning work.
            "estimated_cost": True,
        }
        assert seen == {"from_abox": False, "decode": False, "reformulate": True}
        assert running()

    def test_writes_and_the_initial_chase_run_paused(
        self, example1_tbox, example1_abox, monkeypatch
    ):
        backend = RecordingBackend()
        seen = {}
        saturate = Saturator.saturate

        def recording_saturate(self):
            seen["saturate"] = gc.isenabled()
            return saturate(self)

        monkeypatch.setattr(Saturator, "saturate", recording_saturate)
        with OBDASystem(example1_tbox, example1_abox, backend=backend) as system:
            system.insert_facts([("PhDStudent", "Ada")])
            assert backend.enabled_in.pop("apply_changes") is False
            assert running()
            system.enable_materialization()
            assert seen == {"saturate": False}
            assert backend.enabled_in["apply_changes"] is False
        assert running()

    def test_bulk_load_session_is_paused_until_finish_or_abort(self):
        backend = MemoryBackend()
        analyze = backend.db.analyze
        seen = {}

        def recording_analyze(*args):
            seen["finish"] = gc.isenabled()
            return analyze(*args)

        backend.db.analyze = recording_analyze
        with backend.bulk_load() as loader:
            assert not gc.isenabled()
            loader.create_table("c_a", ("s",), indexes=(("s",),))
            loader.append("c_a", [(1,), (2,), (2,)])
        assert seen == {"finish": False}
        assert running()
        assert sorted(backend.execute("SELECT s FROM c_a")) == [(1,), (2,)]
        with pytest.raises(RuntimeError):
            with backend.bulk_load() as loader:
                loader.create_table("c_b", ("s",))
                raise RuntimeError("abort the session")
        assert running()
        backend.close()

    def test_exception_escaping_a_wrapped_phase_restores_the_collector(
        self, example1_tbox, example1_abox
    ):
        class Boom(RuntimeError):
            pass

        backend = RecordingBackend()
        with OBDASystem(example1_tbox, example1_abox, backend=backend) as system:
            def failing(*args):
                raise Boom()

            backend.execute = failing
            with pytest.raises(Boom):
                system.answer("q(x) <- Researcher(x)")
            assert running()
            backend.apply_changes = failing
            with pytest.raises(Boom):
                system.insert_facts([("PhDStudent", "Ada")])
            assert running()
        backend.load = failing
        with pytest.raises(Boom):
            OBDASystem(example1_tbox, example1_abox, backend=backend)
        assert running()

    def test_host_disabled_collector_survives_a_whole_system_lifetime(
        self, example1_tbox, example1_abox
    ):
        gc.disable()
        try:
            with OBDASystem(example1_tbox, example1_abox) as system:
                system.answer("q(x) <- Researcher(x)")
                system.insert_facts([("PhDStudent", "Ada")])
            assert not gc.isenabled() and collector.depth() == 0
        finally:
            gc.enable()

    def test_serving_endpoint_shutdown_leaves_the_collector_running(
        self, example1_tbox, example1_abox
    ):
        with OBDASystem(example1_tbox, example1_abox) as system:
            with ServingEndpoint(system) as endpoint:
                request = urllib.request.Request(
                    endpoint.url + "/answer",
                    data=json.dumps(
                        {"queries": ["q(x) <- Researcher(x)"]}
                    ).encode(),
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request, timeout=30) as response:
                    body = json.loads(response.read())
                assert body["reports"][0]["error"] is None
            assert running()
        assert running()


# ----------------------------------------------------------------------
# The statistics-refresh fix that rides along
# ----------------------------------------------------------------------
class _Unreadable:
    """Stands in for a stored extension that must not be looked at."""

    def __iter__(self):
        raise AssertionError("the statistics iterated a stored extension")

    __len__ = __contains__ = __iter__


@pytest.mark.parametrize("materialize", [False, True])
def test_refresh_statistics_reads_the_delta_not_the_extension(
    example1_tbox, example1_abox, materialize
):
    for index in range(500):
        example1_abox.add_role("worksWith", f"a{index}", f"b{index}")
    with OBDASystem(example1_tbox, example1_abox, materialize=materialize) as system:
        handed = []  # the calls for worksWith (the chase touches others)
        refresh = system.statistics.refresh_predicate

        def recording_refresh(name, added, removed, rows):
            # Only the first write to a role of a non-materialized system
            # may scan (once, and the live extension, not a copy).
            first_scan = not materialize and name == "worksWith" and not handed
            if name == "worksWith":
                handed.append((added, removed, rows))
            refresh(name, added, removed, rows if first_scan else _Unreadable())

        system.statistics.refresh_predicate = recording_refresh
        system.insert_facts([("worksWith", "Ada", "Grace")])
        added, removed, _ = handed[0]  # worksWith is symmetric: the chase
        assert ("Ada", "Grace") in added and removed == []  # may add a twin
        if not materialize:
            assert handed[0][2] is system.kb.abox.role_facts("worksWith")
        system.insert_facts([("worksWith", "Ada", "b7")])
        system.delete_facts([("worksWith", "a7", "b7")])
        assert len(handed) == 3
        stored = _stored(system, "worksWith")
        record = system.statistics.for_predicate("worksWith")
        assert record.cardinality == len(stored)
        assert record.distinct_subjects == len({s for s, _ in stored})
        assert record.distinct_objects == len({o for _, o in stored})


def _stored(system, predicate):
    if system.materialized:
        return system._saturator.store[predicate]
    return system.kb.abox.role_facts(predicate)


# ----------------------------------------------------------------------
# The justification: the engine's execute path makes no cycles
# ----------------------------------------------------------------------
def assert_execute_creates_no_cycles(backend, sql):
    backend.execute(sql)  # warm: parse, plan and statement cache
    gc.collect()
    with paused():
        rows = backend.execute(sql)
        unreachable = gc.collect()
    assert unreachable == 0, (
        f"{unreachable} cyclic objects after {len(rows)} rows of: {sql}"
    )


@pytest.mark.parametrize("seed", range(8))
def test_engine_execute_creates_no_reference_cycles(seed):
    rng = random.Random(1000 + seed)
    backend = MemoryBackend()
    backend.load(random_layout_data(rng))
    try:
        for _ in range(25):
            assert_execute_creates_no_cycles(backend, random_statement(rng))
    finally:
        backend.close()


@pytest.mark.parametrize("strategy", ["ucq", "croot", "gdl"])
def test_translated_reformulations_execute_without_cycles(
    example1_tbox, example1_abox, strategy
):
    with OBDASystem(
        example1_tbox, example1_abox, backend=MemoryBackend()
    ) as system:
        for text in DIALECT_QUERIES:
            choice = system.reformulate(text, strategy=strategy)
            assert_execute_creates_no_cycles(system.backend, choice.sql)


# ----------------------------------------------------------------------
# What the scope reports (docs/OBSERVABILITY.md)
# ----------------------------------------------------------------------
class TestCollectorMetrics:
    def test_collections_and_pauses_reach_the_registry_and_the_trace(
        self, example1_tbox, example1_abox
    ):
        with OBDASystem(
            example1_tbox, example1_abox, shards=0, trace=True
        ) as system:
            before = system.metrics()
            gc.collect()  # one full collection the hook must see
            report = system.answer("q(x) <- Researcher(x)")
            after = system.metrics()

        def count(snapshot, kind, name):
            entry = snapshot[kind].get(name, 0)
            return entry["count"] if isinstance(entry, dict) else entry

        assert count(after, "counters", "repro.gc.collections.gen2") > count(
            before, "counters", "repro.gc.collections.gen2"
        )
        assert count(after, "histograms", "repro.gc.seconds") > count(
            before, "histograms", "repro.gc.seconds"
        )
        assert count(after, "histograms", "repro.gc.paused.seconds") > count(
            before, "histograms", "repro.gc.paused.seconds"
        )
        root = report.trace.root
        assert root.attributes["gc_ms"] >= 0.0

    def test_forced_collections_are_counted(self, monkeypatch):
        registry_before = get_registry().counter_value(
            "repro.gc.paused.forced_collections"
        )
        monkeypatch.setattr(collector, "YOUNG_DEBT_LIMIT", 10)
        inside, release = threading.Event(), threading.Event()

        def parked():
            with paused():
                inside.set()
                release.wait(JOIN_TIMEOUT)

        thread = threading.Thread(target=parked)
        gc.collect()
        thread.start()
        try:
            assert inside.wait(JOIN_TIMEOUT)
            with paused():
                keep = [[index] for index in range(100)]
        finally:
            release.set()
            thread.join(JOIN_TIMEOUT)
        assert len(keep) == 100
        assert (
            get_registry().counter_value(
                "repro.gc.paused.forced_collections"
            )
            == registry_before + 1
        )

    @needs_processes
    def test_forked_workers_reset_the_scope_and_ship_its_metrics(
        self, example1_tbox, example1_abox
    ):
        # Construction forks the shard workers; doing it inside a scope
        # is the worst case (a respawn from the monitor thread while a
        # query holds the collector off). A worker that inherited the
        # parent's depth would never see its own depth return to zero,
        # so it would never record an outermost pause.
        with paused():
            system = OBDASystem(
                example1_tbox,
                example1_abox,
                backend="memory",
                shards=2,
                executor="process",
            )
        try:
            system.answer("q(x, y) <- supervisedBy(x, y)", strategy="ucq")
            workers = system.backend.metrics_snapshot()
            assert workers["histograms"]["repro.gc.paused.seconds"]["count"] >= 2
            merged = system.metrics()
            assert (
                merged["histograms"]["repro.gc.paused.seconds"]["count"]
                > workers["histograms"]["repro.gc.paused.seconds"]["count"]
            )
        finally:
            system.close()
        assert running()

"""The pluggable execution substrate: resolution, workers, transport.

Covers substrate selection (serial / process via argument and
``REPRO_EXECUTOR``, auto-detection rules), the process substrate's
worker lifecycle (close teardown, error propagation, write
replication), its dispatch pool, and the worker's columnar reply, whose
oracle is the same backend run in process.
"""

import os
import pickle

import pytest

from repro.engine.errors import StatementTooLongError, UnknownTableError
from repro.dllite.abox import ABox
from repro.engine.operators import CostParameters
from repro.storage.layouts import LayoutData, RDFLayout, TableSpec
from repro.storage.memory_backend import MemoryBackend
from repro.storage.process_workers import (
    EXECUTOR_ENV,
    ProcessShardWorker,
    process_substrate_available,
    resolve_substrate,
)
from repro.storage.sharded_backend import ShardedBackend
from repro.storage.sqlite_backend import SQLiteBackend

needs_processes = pytest.mark.skipif(
    not process_substrate_available(),
    reason="fork start method unavailable",
)


def _layout(rows=2000):
    return LayoutData(
        tables=[
            TableSpec(
                name="r_p",
                columns=("s", "o"),
                rows=[(i, (i * 7) % 97) for i in range(rows)],
                indexes=(("s",), ("o",)),
            ),
            TableSpec(
                name="c_a",
                columns=("s",),
                rows=[(i,) for i in range(0, rows, 3)],
                indexes=(("s",),),
            ),
        ]
    )


def _rdf_layout(rows):
    """One wide-table row per subject; the unused slot's cells are
    ``None``."""
    abox = ABox()
    for i in range(rows):
        abox.add_role("p", f"s{i}", f"o{i % 7}")
    return RDFLayout(width=2).build(abox)


#: Child kind -> (backend factory, layout builder, full-table scan).
SCAN_CHILDREN = {
    "memory": (MemoryBackend, _layout, "SELECT s, o FROM r_p"),
    "sqlite": (SQLiteBackend, _layout, "SELECT s, o FROM r_p"),
    "rdf": (MemoryBackend, _rdf_layout, "SELECT s, p0, v0, p1, v1 FROM dph"),
}


QUERIES = [
    "SELECT o FROM r_p WHERE s = 6",
    "SELECT DISTINCT s FROM c_a",
    "SELECT s, o FROM r_p",
    "SELECT a.s AS x FROM r_p a, c_a b WHERE a.o = b.s",
]


# ----------------------------------------------------------------------
# Substrate resolution
# ----------------------------------------------------------------------
class TestResolution:
    def test_explicit_names_resolve_to_themselves(self):
        assert resolve_substrate("serial") == "serial"
        if process_substrate_available():
            assert resolve_substrate("process") == "process"

    def test_unknown_substrate_rejected(self):
        for name in ("fiber", "thread"):
            with pytest.raises(ValueError):
                resolve_substrate(name)

    def test_env_garbage_falls_back_to_auto(self, monkeypatch):
        for raw in ("nonsense", "thread"):
            monkeypatch.setenv(EXECUTOR_ENV, raw)
            assert resolve_substrate(None) == resolve_substrate("auto")

    def test_env_selects_substrate(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "serial")
        assert resolve_substrate(None) == "serial"

    @needs_processes
    def test_auto_with_process_preference_depends_on_cpus(self):
        expected = "process" if (os.cpu_count() or 1) > 1 else "serial"
        assert resolve_substrate("auto") == expected


# ----------------------------------------------------------------------
# Columnar engine results
# ----------------------------------------------------------------------
class TestExecuteColumns:
    @pytest.mark.parametrize("batch_size", (1, 4))
    def test_columns_equal_rows(self, batch_size):
        backend = MemoryBackend(
            cost_parameters=CostParameters(batch_size=batch_size)
        )
        try:
            backend.load(_layout())
            for sql in QUERIES:
                rows = backend.execute(sql)
                nrows, columns = backend.execute_columns(sql)
                assert nrows == len(rows)
                rebuilt = list(zip(*columns)) if columns else []
                assert rebuilt == rows, sql
        finally:
            backend.close()

    def test_empty_result(self):
        backend = MemoryBackend()
        try:
            backend.load(_layout(rows=10))
            assert backend.execute_columns(
                "SELECT o FROM r_p WHERE s = 123456"
            ) == (0, [])
        finally:
            backend.close()


# ----------------------------------------------------------------------
# Process workers
# ----------------------------------------------------------------------
@needs_processes
class TestProcessWorkers:
    def test_worker_hosts_backend_and_closes(self):
        worker = ProcessShardWorker(MemoryBackend, shard=0)
        worker.load(_layout(rows=200))
        assert worker.execute("SELECT o FROM r_p WHERE s = 6") == [(42,)]
        assert worker.last_execution.rows == 1
        worker.close()
        assert worker.exit_code == 0
        worker.close()  # idempotent
        with pytest.raises(RuntimeError):
            worker.execute("SELECT s FROM c_a")

    @pytest.mark.parametrize("rows", (0, 1, 2047, 2048, 3000))
    @pytest.mark.parametrize("child", sorted(SCAN_CHILDREN))
    def test_rows_equal_in_process_backend(self, child, rows):
        factory, build, sql = SCAN_CHILDREN[child]
        data = build(rows)
        oracle = factory()
        worker = ProcessShardWorker(factory, shard=0)
        try:
            oracle.load(data)
            worker.load(data)
            expected = oracle.execute(sql)
            assert len(expected) == rows
            if child == "rdf" and rows:
                assert None in expected[0]
            assert worker.execute(sql) == expected
            assert worker.last_execution.rows == rows
        finally:
            worker.close()
            oracle.close()

    def test_errors_cross_with_real_types(self):
        worker = ProcessShardWorker(
            lambda: MemoryBackend(max_statement_length=20), shard=0
        )
        try:
            worker.load(_layout(rows=20))
            with pytest.raises(UnknownTableError):
                worker.execute("SELECT x FROM hmm")
            with pytest.raises(StatementTooLongError) as excinfo:
                worker.execute("SELECT s, o FROM r_p WHERE s = 1")
            assert excinfo.value.limit == 20
            # The worker survives failing statements.
            assert worker.execute("SELECT s FROM c_a") != []
        finally:
            worker.close()

    def test_statement_too_long_error_pickles(self):
        error = pickle.loads(pickle.dumps(StatementTooLongError(10, 5)))
        assert (error.size, error.limit) == (10, 5)

    def test_writes_replicate_into_worker(self):
        worker = ProcessShardWorker(MemoryBackend, shard=0)
        try:
            worker.load(_layout(rows=30))
            worker.insert_rows("c_a", [(1000,), (1001,)])
            assert worker.delete_rows("c_a", [(1000,), (7777,)]) == 1
            assert (1001,) in set(worker.execute("SELECT s FROM c_a"))
            worker.apply_changes({"c_a": [(2000,)]}, {"c_a": [(1001,)]})
            present = set(worker.execute("SELECT s FROM c_a"))
            assert (2000,) in present and (1001,) not in present
            stats = worker.statistics_many(["c_a", "r_p"])
            assert stats["r_p"].cardinality == 30
        finally:
            worker.close()

    def test_factory_failure_surfaces_at_construction(self):
        def boom():
            raise ValueError("no backend for you")

        with pytest.raises(ValueError, match="no backend"):
            ProcessShardWorker(boom, shard=0)


# ----------------------------------------------------------------------
# Sharded backend over the process substrate
# ----------------------------------------------------------------------
@needs_processes
class TestShardedProcess:
    @pytest.mark.parametrize("shards", (1, 3))
    def test_answers_identical_to_serial(self, shards):
        oracle = ShardedBackend(shards, substrate="serial")
        backend = ShardedBackend(shards, substrate="process")
        try:
            data = _layout()
            oracle.load(data)
            backend.load(data)
            for sql in QUERIES:
                assert backend.execute(sql) == oracle.execute(sql), sql
            # The forked workers, not the coordinator, ran the shards.
            counters = backend.metrics_snapshot()["counters"]
            assert counters["repro.worker.statements"] >= len(QUERIES)
        finally:
            backend.close()
            oracle.close()

    def test_write_replication_under_routes(self):
        oracle = ShardedBackend(3, substrate="serial")
        backend = ShardedBackend(3, substrate="process")
        try:
            data = _layout(rows=500)
            oracle.load(data)
            backend.load(data)
            for target in (oracle, backend):
                target.insert_rows("c_a", [(9001,), (9002,), (9003,)])
                assert target.delete_rows("c_a", [(9002,)]) == 1
                target.apply_changes(
                    {"r_p": [(9001, 5)]}, {"c_a": [(9003,)]}
                )
            for sql in QUERIES:
                assert backend.execute(sql) == oracle.execute(sql), sql
            # Merged statistics track the workers' post-write state.
            assert (
                backend.table_statistics("c_a").cardinality
                == oracle.table_statistics("c_a").cardinality
            )
        finally:
            backend.close()
            oracle.close()

    def test_substrate_visible_in_stats_and_name(self):
        backend = ShardedBackend(2, substrate="process")
        try:
            backend.load(_layout(rows=50))
            backend.execute("SELECT DISTINCT s FROM c_a")
            assert backend.substrate == "process"
            assert backend.last_execution.substrate == "process"
            assert backend.name.startswith("sharded[2xworker[")
        finally:
            backend.close()

    def test_dispatch_pool_defaults_to_one_thread_per_shard(self):
        backend = ShardedBackend(6, substrate="process")
        try:
            assert backend._pool._max_workers == 6
            assert backend._pool._thread_name_prefix == "repro-shard"
            backend.load(_layout(rows=50))
            backend.execute("SELECT DISTINCT s FROM c_a")
            threads = set(backend._pool._threads)
            assert threads
        finally:
            backend.close()
        # close() stops the pool while the backend is still referenced.
        assert not any(thread.is_alive() for thread in threads)

    def test_explain_and_cost_proxy_through_workers(self):
        backend = ShardedBackend(2, substrate="process")
        try:
            backend.load(_layout(rows=100))
            sql = "SELECT o FROM r_p WHERE s = 6"
            assert backend.estimated_cost(sql) > 0
            assert backend.explain_text(sql).startswith("Shard route:")
        finally:
            backend.close()

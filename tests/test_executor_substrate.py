"""The pluggable execution substrate: resolution, workers, exchange.

Covers the :class:`~repro.engine.parallel.ExecutorBackend` abstraction
(serial / thread / process selection via argument and ``REPRO_EXECUTOR``,
auto-detection rules), the process substrate's worker lifecycle (close
teardown, error propagation, write replication), the shared-memory
columnar wire format, and the substrate-keyed efficiency learning that
keeps GIL-bound thread measurements out of process-mode cost estimates.
"""

import os
import pickle

import pytest

from repro.cost.model import ExternalCostModel, ExternalCostParameters
from repro.cost.statistics import DataStatistics
from repro.engine.database import MiniRDBMS
from repro.engine.errors import StatementTooLongError, UnknownTableError
from repro.engine.parallel import (
    EXECUTOR_ENV,
    ParallelContext,
    SerialExecutor,
    ThreadExecutor,
    gil_enabled,
    process_substrate_available,
    resolve_substrate,
)
from repro.storage.layouts import LayoutData, TableSpec
from repro.storage.memory_backend import MemoryBackend
from repro.storage.process_workers import ProcessShardWorker
from repro.storage.sharded_backend import ShardedBackend
from repro.storage.shm_exchange import (
    pack_columns,
    pack_rows,
    should_inline,
    unpack_rows,
)

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
        assert resolve_substrate("thread") == "thread"

    def test_unknown_substrate_rejected(self):
        with pytest.raises(ValueError):
            resolve_substrate("fiber")

    def test_env_garbage_falls_back_to_auto(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "nonsense")
        assert resolve_substrate(None) in ("serial", "thread", "process")

    def test_env_selects_substrate(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "serial")
        assert resolve_substrate(None) == "serial"

    def test_auto_prefers_threads_without_process_preference(self):
        if gil_enabled():
            assert resolve_substrate("auto") == "thread"

    @needs_processes
    def test_auto_with_process_preference_depends_on_cpus(self):
        resolved = resolve_substrate("auto", prefer_processes=True)
        if not gil_enabled():
            assert resolved == "thread"
        elif (os.cpu_count() or 1) > 1:
            assert resolved == "process"
        else:
            assert resolved == "thread"

    def test_engine_context_maps_process_to_thread(self):
        # Morsels share one address space: an engine-level "process"
        # request runs on the thread executor (the process substrate
        # lives at the shard boundary).
        context = ParallelContext(workers=2, substrate="process")
        try:
            assert context.substrate == "thread"
            assert isinstance(context.executor, ThreadExecutor)
        finally:
            context.close()

    def test_one_worker_is_always_serial(self):
        context = ParallelContext(workers=1, substrate="thread")
        assert context.substrate == "serial"
        assert isinstance(context.executor, SerialExecutor)
        assert not context.parallel

    def test_serial_substrate_disables_partitioning(self):
        context = ParallelContext(workers=4, substrate="serial")
        assert not context.parallel
        assert context.partitions_for(10_000_000) == 1
        assert context.map_partitions(lambda i: i * i, 3) == [0, 1, 4]


# ----------------------------------------------------------------------
# Substrate-keyed efficiency learning
# ----------------------------------------------------------------------
class TestLearnKeying:
    def test_context_records_per_substrate(self):
        context = ParallelContext(workers=4, substrate="thread")
        try:
            context.learn(1.0)  # GIL-bound thread measurement: eff 0
            context.learn(3.4, substrate="process")
            assert context.efficiency_by_substrate["thread"] == 0.0
            assert context.efficiency_by_substrate["process"] == (
                pytest.approx(0.8)
            )
        finally:
            context.close()

    def test_engine_ignores_foreign_substrate_measurement(self):
        db = MiniRDBMS(workers=4, substrate="thread")
        try:
            before = db.cost_parameters.parallel_efficiency
            # A process-substrate measurement is recorded but must not
            # touch this thread-substrate engine's live discount.
            db.learn_parallel_efficiency(4.0, substrate="process")
            assert db.cost_parameters.parallel_efficiency == before
            assert db.parallel.efficiency_by_substrate["process"] == 1.0
            # A matching-substrate measurement does apply.
            db.learn_parallel_efficiency(1.0)
            assert db.cost_parameters.parallel_efficiency == 0.0
        finally:
            db.close()

    def test_external_model_keys_by_substrate(self):
        model = ExternalCostModel(
            DataStatistics(),
            ExternalCostParameters(workers=4, substrate="process"),
        )
        before = model.parameters.parallel_efficiency
        model.learn_parallelism(4, 1.0, substrate="thread")
        assert model.parameters.parallel_efficiency == before
        assert model.efficiency_by_substrate["thread"] == 0.0
        model.learn_parallelism(4, 3.4, substrate="process")
        assert model.parameters.parallel_efficiency == pytest.approx(0.8)


# ----------------------------------------------------------------------
# Columnar wire format
# ----------------------------------------------------------------------
class TestWireFormat:
    def test_int_rows_round_trip_as_i64(self):
        rows = [(i, i * 3) for i in range(500)]
        meta, payload = pack_rows(rows)
        nrows, column_metas = meta
        assert nrows == 500
        assert [kind for kind, _ in column_metas] == ["i64", "i64"]
        assert unpack_rows(payload, meta) == rows

    def test_mixed_columns_fall_back_to_pickle(self):
        rows = [(i, None if i % 5 == 0 else 10**30) for i in range(64)]
        meta, payload = pack_rows(rows)
        _nrows, column_metas = meta
        assert [kind for kind, _ in column_metas] == ["i64", "pkl"]
        assert unpack_rows(payload, meta) == rows

    def test_pack_columns_matches_pack_rows(self):
        rows = [(i, -i) for i in range(100)]
        assert pack_columns(100, list(zip(*rows))) == pack_rows(rows)

    def test_corrupt_meta_detected(self):
        meta, payload = pack_rows([(1, 2), (3, 4)])
        bad_meta = (3, meta[1])  # claims one more row than packed
        with pytest.raises(ValueError):
            unpack_rows(payload, bad_meta)

    def test_should_inline_threshold(self):
        assert should_inline(10, 2, 4096)
        assert not should_inline(4096, 2, 4096)


# ----------------------------------------------------------------------
# Columnar engine results
# ----------------------------------------------------------------------
class TestExecuteColumns:
    @pytest.mark.parametrize("workers", (1, 4))
    def test_columns_equal_rows(self, workers):
        backend = MemoryBackend(workers=workers)
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
        assert worker.last_execution.transport == "inline"
        worker.close()
        assert worker.exit_code == 0
        worker.close()  # idempotent
        with pytest.raises(RuntimeError):
            worker.execute("SELECT s FROM c_a")

    def test_shm_transport_used_above_threshold(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_MIN_CELLS", "10")
        worker = ProcessShardWorker(MemoryBackend, shard=0)
        try:
            worker.load(_layout(rows=300))
            rows = worker.execute("SELECT s, o FROM r_p")
            assert len(rows) == 300
            assert worker.last_execution.transport == "shm"
            assert worker.shm_results == 1
            assert worker.shm_bytes > 0
        finally:
            worker.close()

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
    def test_answers_identical_to_serial(self, shards, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_MIN_CELLS", "64")
        oracle = ShardedBackend(shards, substrate="serial")
        backend = ShardedBackend(shards, substrate="process")
        try:
            data = _layout()
            oracle.load(data)
            backend.load(data)
            for sql in QUERIES:
                assert backend.execute(sql) == oracle.execute(sql), sql
            telemetry = backend.shard_telemetry()
            assert telemetry["shards.shm.results"] > 0
        finally:
            backend.close()
            oracle.close()

    def test_write_replication_under_routes(self):
        oracle = ShardedBackend(3, substrate="thread")
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
            assert backend._parallel.workers == 6
        finally:
            backend.close()

    def test_explain_and_cost_proxy_through_workers(self):
        backend = ShardedBackend(2, substrate="process")
        try:
            backend.load(_layout(rows=100))
            sql = "SELECT o FROM r_p WHERE s = 6"
            assert backend.estimated_cost(sql) > 0
            assert backend.explain_text(sql).startswith("Shard route:")
        finally:
            backend.close()

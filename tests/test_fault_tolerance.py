"""Fault-tolerant shard execution: the chaos suite.

Drives the supervision layer (:mod:`repro.storage.supervisor`) with the
deterministic fault harness (:mod:`repro.faults`): workers are killed
mid-query and on the Nth RPC of seeded randomized workloads, replies are
delayed, dropped, and shm attaches failed — and every answer must stay
byte-identical to a serial/unsharded oracle. Also covers the fault-plan
grammar, the coordinator-side shard mirror (epoch, fold-on-record, and
a property test against the write log it replaced), RPC deadlines and
serving-deadline propagation, circuit-breaker degradation and half-open
recovery, the shm crash/abort paths, worker teardown racing
``multiprocessing``'s own reaping, and the worker loop's clean
KeyboardInterrupt/SystemExit exit.
"""

import multiprocessing
import os
import random
import signal
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legacy_epoch_log import ShardState, bulk_replace

from repro.faults import (
    FAULTS_ENV,
    FaultInjector,
    FaultPlan,
    TransientWorkerFault,
)
from repro.serving.concurrency import (
    QueryTimeoutError,
    current_deadline,
    deadline_scope,
)
from repro.storage.epoch_log import EpochDelta, EpochLog
from repro.storage.layouts import LayoutData, TableSpec
from repro.storage.memory_backend import MemoryBackend
from repro.storage.process_workers import (
    ProcessShardWorker,
    WorkerCrashedError,
    WorkerTimeoutError,
    _worker_main,
    process_substrate_available,
)
from repro.storage.sharded_backend import ShardedBackend
from repro.storage.supervisor import (
    RESTARTS_ENV,
    SupervisedShardWorker,
    SupervisionConfig,
    WorkerRespawnError,
)

needs_processes = pytest.mark.skipif(
    not process_substrate_available(),
    reason="fork start method unavailable",
)


@pytest.fixture(autouse=True)
def _isolate_fault_env(monkeypatch):
    """Insulate this suite from ambient chaos knobs (the CI chaos leg
    exports a probabilistic ``REPRO_FAULTS`` plan for the *rest* of the
    tier-1 suite): every test here arms its own precise plan and
    asserts exact restart/retry counts, so a background kill landing on
    top would make those counts wrong. Tests that exercise the env
    knobs re-set them via ``monkeypatch`` after this runs."""
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    monkeypatch.delenv("REPRO_RPC_TIMEOUT_MS", raising=False)
    monkeypatch.delenv(RESTARTS_ENV, raising=False)


def _layout(rows=600):
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


def _config(**overrides):
    """A supervision config tuned for deterministic tests: no monitor
    thread, no backoff sleeps."""
    settings = dict(
        rpc_timeout_s=10.0,
        monitor=False,
        backoff_initial_s=0.0,
        backoff_cap_s=0.0,
    )
    settings.update(overrides)
    return SupervisionConfig(**settings)


def _oracle(data):
    backend = MemoryBackend()
    backend.load(data)
    return backend


# ----------------------------------------------------------------------
# Fault plan grammar and injector bookkeeping
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_parse_full_grammar(self):
        plan = FaultPlan.parse(
            "seed=42, kill_at=5, kill_cmd=apply, kill_p=0.1, kill_limit=2,"
            "delay_p=0.5, delay_ms=10, drop_p=0.01, shm_attach_p=0.2,"
            "shm_attach_limit=3, spawn_fails=4, shards=0|2"
        )
        assert plan.seed == 42
        assert plan.kill_at == 5
        assert plan.kill_cmd == "apply"
        assert plan.kill_p == pytest.approx(0.1)
        assert plan.kill_limit == 2
        assert plan.delay_ms == pytest.approx(10)
        assert plan.spawn_fails == 4
        assert plan.shards == frozenset({0, 2})
        assert plan.enabled

    def test_empty_plan_is_disabled(self):
        assert not FaultPlan.parse("").enabled
        assert not FaultPlan.parse("seed=7").enabled

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            FaultPlan.parse("seed=1,explode=yes")

    def test_malformed_value_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            FaultPlan.parse("kill_at=soon")
        with pytest.raises(ValueError, match="key=value"):
            FaultPlan.parse("kill_at")

    def test_shard_filter(self):
        plan = FaultPlan.parse("kill_at=1,shards=1|3")
        assert plan.applies_to(1) and plan.applies_to(3)
        assert not plan.applies_to(0)
        assert FaultPlan.parse("kill_at=1").applies_to(7)

    def test_kill_budget_defaults(self):
        assert FaultPlan.parse("kill_at=3").kill_budget == 1
        assert FaultPlan.parse("kill_cmd=apply").kill_budget == 1
        assert FaultPlan.parse("kill_p=0.5").kill_budget is None
        assert FaultPlan.parse("kill_at=3,kill_limit=5").kill_budget == 5

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv(FAULTS_ENV, "   ")
        assert FaultPlan.from_env() is None
        monkeypatch.setenv(FAULTS_ENV, "seed=9,kill_at=2")
        plan = FaultPlan.from_env()
        assert plan is not None and plan.kill_at == 2

    def test_injector_charges_kill_budget_at_arming(self):
        injector = FaultInjector(FaultPlan.parse("seed=1,kill_at=2"))
        first = injector.worker_config(0, 0)
        assert first is not None and first.kill_at == 2
        # Budget (1 by default) spent: the respawned generation is safe.
        assert injector.worker_config(0, 1) is None
        # Other shards have their own budget.
        assert injector.worker_config(1, 0).kill_at == 2

    def test_worker_config_token_is_deterministic(self):
        plan = FaultPlan.parse("seed=5,delay_p=0.5,delay_ms=1")
        token = FaultInjector(plan).worker_config(2, 3).token
        assert token == FaultInjector(plan).worker_config(2, 3).token == "5:2:3"

    def test_spawn_fail_budget_and_reset(self):
        injector = FaultInjector(FaultPlan.parse("spawn_fails=2"))
        assert injector.take_spawn_fail(0)
        assert injector.take_spawn_fail(0)
        assert not injector.take_spawn_fail(0)
        assert injector.take_spawn_fail(1)
        injector.reset_spawn_fails()
        assert not injector.take_spawn_fail(1)


# ----------------------------------------------------------------------
# Coordinator-side shard mirror: epoch, fold on record
# ----------------------------------------------------------------------
def _spec(rows, name="t"):
    return TableSpec(
        name=name, columns=("s", "o"), rows=rows, indexes=(("s",),)
    )


def _record(log, tables=(), inserts=None, deletes=None):
    log.record(
        EpochDelta(log.epoch + 1, tuple(tables), inserts or {}, deletes or {})
    )


def _dump(data):
    return [
        (spec.name, spec.columns, list(spec.rows), spec.indexes, spec.shard_key)
        for spec in data.tables
    ]


#: Table names the legacy-oracle writes draw from ("T1" replaces "t1").
_NAMES = ("t0", "t1", "t2", "T1")
_ROWS = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=8
)


class TestShardState:
    def test_epoch_counts_every_recorded_write(self):
        log = EpochLog()
        assert log.epoch == 0
        _record(log, tables=[_spec([(1, 1)])])
        _record(log, inserts={"t": [(2, 2)]})
        _record(log, deletes={"t": [(1, 1)]})
        assert log.epoch == 3
        assert log.counts() == {"t": 1}
        for i in range(10):
            _record(log, inserts={"t": [(i + 10, i)]})
        assert log.epoch == 13
        assert log.counts() == {"t": 11}
        for stale_or_skipping in (log.epoch, log.epoch + 2):
            with pytest.raises(ValueError):
                log.record(EpochDelta(stale_or_skipping, inserts={"t": []}))
        assert log.epoch == 13

    def test_insert_is_set_semantics_and_delete_tolerates_missing(self):
        log = EpochLog([_spec([(1, 1)])])
        _record(log, inserts={"t": [(1, 1), (2, 2)]})
        _record(log, deletes={"t": [(9, 9), (2, 2)]})
        assert log.counts() == {"t": 1}

    def test_apply_inserts_before_deletes(self):
        log = EpochLog([_spec([])])
        _record(log, inserts={"t": [(1, 1)]}, deletes={"t": [(1, 1)]})
        assert log.counts() == {"t": 0}

    def test_folded_layout_loads_into_a_backend(self):
        log = EpochLog()
        _record(log, tables=[_spec([(1, 10), (2, 20)])])
        _record(log, inserts={"t": [(3, 30)]})
        _record(log, deletes={"t": [(1, 10)]})
        backend = MemoryBackend()
        assert log.restore(backend) == 3
        assert backend.execute("SELECT s, o FROM t") == [(2, 20), (3, 30)]
        backend.close()

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), max_log=st.sampled_from([0, 1, 256]))
    def test_folds_like_the_legacy_shard_state(self, data, max_log):
        """Random write sequences — loads, set-semantics inserts with
        duplicates, deletes of absent rows, multi-table applies that
        insert and delete one row at once, tables created mid-stream,
        bulk replaces — fold to the very tables, rows and row order the
        replaced base-plus-write-log state held, at the same epoch."""
        legacy = ShardState(max_log=max_log)
        log = EpochLog()
        names = set()
        for _ in range(data.draw(st.integers(1, 20), label="writes")):
            kinds = ["load", "bulk"] + (
                ["insert", "delete", "apply"] if names else []
            )
            kind = data.draw(st.sampled_from(kinds), label="kind")
            if kind in ("load", "bulk"):
                chosen = data.draw(
                    st.lists(st.sampled_from(_NAMES), min_size=1, max_size=2,
                             unique_by=str.lower),
                    label="tables",
                )
                specs = [_spec(data.draw(_ROWS), name) for name in chosen]
                names.update(name.lower() for name in chosen)
                if kind == "load":
                    legacy.record(("load", LayoutData(tables=specs)))
                    _record(log, tables=specs)
                else:
                    bulk_replace(legacy, specs)
                    log.replace(specs)
                continue
            table = data.draw(st.sampled_from(sorted(names)), label="table")
            rows = data.draw(_ROWS, label="rows")
            if kind == "insert":
                legacy.record(("insert", table, tuple(rows)))
                _record(log, inserts={table: rows})
            elif kind == "delete":
                legacy.record(("delete", table, tuple(rows)))
                _record(log, deletes={table: rows})
            else:
                other = data.draw(st.sampled_from(sorted(names)), label="other")
                both = data.draw(_ROWS.filter(bool), label="both")[0]
                inserts = {table: rows + [both]}
                deletes = {other: data.draw(_ROWS), table: [both]}
                legacy.record(("apply", inserts, deletes))
                _record(log, inserts=inserts, deletes=deletes)
            snapshot, epoch = log.snapshot()
            assert epoch == legacy.epoch
            assert _dump(snapshot) == _dump(legacy.folded_layout())
        snapshot, epoch = log.snapshot()
        assert epoch == legacy.epoch
        assert _dump(snapshot) == _dump(legacy.folded_layout())
        assert log.counts() == legacy.expected_counts()


# ----------------------------------------------------------------------
# Supervised worker: respawn, replay, verification
# ----------------------------------------------------------------------
@needs_processes
class TestSupervisedWorker:
    def test_sigkill_respawns_at_correct_epoch(self):
        data = _layout()
        oracle = _oracle(data)
        worker = SupervisedShardWorker(MemoryBackend, 0, _config())
        try:
            worker.load(data)
            baseline = worker.execute("SELECT s, o FROM r_p")
            os.kill(worker.worker.pid, signal.SIGKILL)
            time.sleep(0.05)
            assert worker.execute("SELECT s, o FROM r_p") == baseline
            assert sorted(baseline) == sorted(
                oracle.execute("SELECT s, o FROM r_p")
            )
            assert worker.restarts == 1
            assert worker.epoch == 1
            assert not worker.circuit_open
        finally:
            worker.close()
            oracle.close()

    def test_write_replay_is_exactly_once(self):
        worker = SupervisedShardWorker(MemoryBackend, 0, _config())
        try:
            worker.load(_layout())
            worker.insert_rows("r_p", [(9000, 1), (9001, 2)])
            os.kill(worker.worker.pid, signal.SIGKILL)
            time.sleep(0.05)
            # The delete count must come from a backend that applied the
            # pre-delete state exactly once: rebuild to the pre-write
            # epoch, then the retried RPC reports the true count.
            removed = worker.delete_rows("r_p", [(9000, 1), (123456, 9)])
            assert removed == 1
            assert worker.execute("SELECT o FROM r_p WHERE s = 9001") == [(2,)]
            assert worker.execute("SELECT o FROM r_p WHERE s = 9000") == []
            assert worker.epoch == 3
            assert worker.restarts == 1
        finally:
            worker.close()

    def test_sigkill_after_bulk_load_rebuilds_from_snapshot(self):
        """A bulk load folds into the coordinator's mirror as ONE epoch
        step. A SIGKILL right after the load therefore rebuilds the
        worker from a single snapshot install, byte-identically."""
        data = _layout(rows=900)
        oracle = _oracle(data)
        worker = SupervisedShardWorker(MemoryBackend, 0, _config())
        try:
            with worker.bulk_load() as loader:
                for spec in data.tables:
                    loader.create_table(
                        spec.name, spec.columns, indexes=spec.indexes
                    )
                for spec in data.tables:
                    for start in range(0, len(spec.rows), 128):
                        loader.append(
                            spec.name, spec.rows[start : start + 128]
                        )
            # The whole load is one epoch step of the mirror.
            assert worker._log.counts() == {"r_p": 900, "c_a": 300}
            assert worker.epoch == 1
            baseline = {sql: sorted(worker.execute(sql)) for sql in QUERIES}
            os.kill(worker.worker.pid, signal.SIGKILL)
            time.sleep(0.05)
            for sql in QUERIES:
                assert sorted(worker.execute(sql)) == baseline[sql]
                assert baseline[sql] == sorted(oracle.execute(sql))
            assert worker.restarts == 1
            assert worker.epoch == 1
            # The rebuilt worker takes ordinary logged writes as usual.
            worker.insert_rows("c_a", [(100001,)])
            assert worker.epoch == 2
            assert worker._log.counts()["c_a"] == 301
            assert worker.execute("SELECT s FROM c_a WHERE s = 100001") == [
                (100001,)
            ]
        finally:
            worker.close()
            oracle.close()

    def test_kill_on_nth_rpc_is_transparent(self):
        plan = FaultPlan.parse("seed=11,kill_at=4")
        worker = SupervisedShardWorker(
            MemoryBackend, 0, _config(), FaultInjector(plan)
        )
        data = _layout()
        oracle = _oracle(data)
        try:
            worker.load(data)
            for sql in QUERIES * 3:
                assert sorted(worker.execute(sql)) == sorted(
                    oracle.execute(sql)
                )
            assert worker.restarts == 1
        finally:
            worker.close()
            oracle.close()

    def test_transient_shm_fault_retries_without_respawn(self):
        # Every attach fails once (limit bounds it); the retry on the
        # *same* worker succeeds — the stream stayed synchronized.
        plan = FaultPlan.parse("seed=2,shm_attach_p=1.0,shm_attach_limit=1")
        worker = SupervisedShardWorker(
            MemoryBackend, 0, _config(), FaultInjector(plan)
        )
        data = _layout(rows=3000)  # big scan → shm transport
        oracle = _oracle(data)
        try:
            worker.load(data)
            rows = worker.execute("SELECT s, o FROM r_p")
            assert sorted(rows) == sorted(oracle.execute("SELECT s, o FROM r_p"))
            assert worker.rpc_retries >= 1
            assert worker.restarts == 0
        finally:
            worker.close()
            oracle.close()

    def test_verification_rejects_diverged_rebuild(self, tmp_path):
        # After the flag file appears, *worker-side* loads silently drop
        # a row — a respawned worker then diverges from the
        # coordinator's epoch expectation. Verification must reject
        # every such rebuild (restarts stays 0), trip the breaker, and
        # the in-coordinator fallback (same factory, but running in the
        # unaffected coordinator process) must still answer correctly.
        flag = tmp_path / "lossy"
        coordinator_pid = os.getpid()

        class LossyOnRebuild(MemoryBackend):
            def load(self, data):
                if flag.exists() and os.getpid() != coordinator_pid:
                    for spec in data.tables:
                        if spec.name == "r_p" and spec.rows:
                            spec.rows.pop()
                super().load(data)

        worker = SupervisedShardWorker(
            LossyOnRebuild, 0, _config(max_respawns=2)
        )
        data = _layout(rows=50)
        oracle = _oracle(data)
        try:
            worker.load(data)
            baseline = sorted(worker.execute("SELECT s, o FROM r_p"))
            flag.write_text("armed")
            os.kill(worker.worker.pid, signal.SIGKILL)
            time.sleep(0.05)
            rows = worker.execute("SELECT s, o FROM r_p")
            assert sorted(rows) == baseline == sorted(
                oracle.execute("SELECT s, o FROM r_p")
            )
            assert worker.circuit_open
            assert worker.restarts == 0
        finally:
            worker.close()
            oracle.close()

    def test_dropped_replies_time_out_with_bounded_retries(self):
        # Every reply swallowed: each RPC runs out its deadline, the
        # retry budget bounds the attempts, and the failure surfaces as
        # WorkerTimeoutError instead of a hang.
        plan = FaultPlan.parse("seed=3,drop_p=1.0")
        worker = SupervisedShardWorker(
            MemoryBackend,
            0,
            _config(rpc_timeout_s=0.2, max_respawns=2, max_rpc_retries=1),
            FaultInjector(plan),
        )
        try:
            started = time.monotonic()
            with pytest.raises(WorkerTimeoutError):
                worker.load(_layout(rows=30))
            assert time.monotonic() - started < 10.0
            assert worker.deadline_exceeded >= 2
        finally:
            worker.close()

    def test_repeated_kills_during_rebuild_trip_the_breaker(self):
        # Generations 0..3 all die on their second RPC: the initial
        # worker survives load (RPC 1) and dies on the first query; each
        # respawn's rebuild (load replay + verification) also needs two
        # RPCs, so all K attempts fail and the breaker trips. The first
        # half-open probe lands on the first unarmed generation and
        # recovers.
        plan = FaultPlan.parse("seed=3,kill_at=2,kill_limit=4")
        data = _layout(rows=60)
        oracle = _oracle(data)
        config = _config(max_respawns=3, probe_after_ops=2)
        worker = SupervisedShardWorker(
            MemoryBackend, 0, config, FaultInjector(plan)
        )
        try:
            worker.load(data)
            assert sorted(worker.execute("SELECT s FROM c_a")) == sorted(
                oracle.execute("SELECT s FROM c_a")
            )
            assert worker.circuit_open
            assert worker.circuit_trips == 1
            assert worker.degraded_executions == 1
            assert worker.restarts == 0
            for _ in range(2 * config.probe_after_ops):
                assert sorted(worker.execute("SELECT s FROM c_a")) == sorted(
                    oracle.execute("SELECT s FROM c_a")
                )
            assert not worker.circuit_open
            assert worker.circuit_recoveries == 1
        finally:
            worker.close()
            oracle.close()


# ----------------------------------------------------------------------
# Circuit breaker: trip, degraded execution, half-open recovery
# ----------------------------------------------------------------------
@needs_processes
class TestCircuitBreaker:
    def test_trip_degrade_and_recover(self):
        plan = FaultPlan.parse("seed=4,spawn_fails=100")
        injector = FaultInjector(plan)
        config = _config(max_respawns=3, probe_after_ops=3)
        worker = SupervisedShardWorker(MemoryBackend, 0, config, injector)
        data = _layout(rows=200)
        oracle = _oracle(data)
        try:
            worker.load(data)
            baseline = sorted(worker.execute("SELECT s, o FROM r_p"))
            os.kill(worker.worker.pid, signal.SIGKILL)
            time.sleep(0.05)
            # K respawns all fail (injected): breaker trips, the answer
            # still arrives from the in-coordinator fallback.
            assert sorted(worker.execute("SELECT s, o FROM r_p")) == baseline
            assert worker.circuit_open
            assert worker.circuit_trips == 1
            assert worker.degraded_executions == 1
            # Degraded writes apply to the fallback and are recorded.
            worker.insert_rows("r_p", [(7777, 3)])
            assert worker.execute("SELECT o FROM r_p WHERE s = 7777") == [(3,)]
            assert sorted(worker.execute("SELECT s, o FROM r_p")) == sorted(
                oracle.execute("SELECT s, o FROM r_p") + [(7777, 3)]
            )
            # Let respawns succeed again: the half-open probe (every
            # probe_after_ops operations) closes the circuit and the
            # recovered worker carries the degraded-era write.
            injector.reset_spawn_fails()
            for _ in range(config.probe_after_ops + 1):
                worker.execute("SELECT o FROM r_p WHERE s = 7777")
            assert not worker.circuit_open
            assert worker.circuit_recoveries == 1
            assert worker.restarts == 1
            assert worker.execute("SELECT o FROM r_p WHERE s = 7777") == [(3,)]
        finally:
            worker.close()
            oracle.close()


# ----------------------------------------------------------------------
# RPC deadlines and serving-deadline propagation
# ----------------------------------------------------------------------
class TestDeadlineScope:
    def test_default_is_none_and_scopes_nest(self):
        assert current_deadline() is None
        with deadline_scope(5.0):
            outer = current_deadline()
            assert outer is not None and outer[1] == 5.0
            with deadline_scope(1.0):
                assert current_deadline()[1] == 1.0
            assert current_deadline() == outer
        assert current_deadline() is None

    def test_none_scope_is_noop(self):
        with deadline_scope(None):
            assert current_deadline() is None


@needs_processes
class TestDeadlinePropagation:
    def test_blown_deadline_raises_query_timeout(self):
        # Worker sleeps 500ms before serving anything; a 150ms serving
        # deadline must surface as QueryTimeoutError well before the
        # 10s RPC timeout — i.e. the shard call used min(rpc, remaining).
        plan = FaultPlan.parse("seed=6,delay_p=1.0,delay_ms=500")
        worker = SupervisedShardWorker(
            MemoryBackend,
            0,
            _config(max_rpc_retries=1),
            FaultInjector(plan),
        )
        try:
            worker.load(_layout(rows=50))
            started = time.monotonic()
            with deadline_scope(0.15), pytest.raises(QueryTimeoutError):
                worker.execute("SELECT s FROM c_a")
            assert time.monotonic() - started < 5.0
            assert worker.deadline_exceeded >= 1
        finally:
            worker.close()

    def test_sharded_backend_reads_the_contextvar(self):
        plan = FaultPlan.parse("seed=6,delay_p=1.0,delay_ms=500")
        backend = ShardedBackend(
            shards=2,
            substrate="process",
            supervision=_config(max_rpc_retries=1),
            fault_injector=FaultInjector(plan),
        )
        try:
            backend.load(_layout(rows=50))
            with deadline_scope(0.15):
                with pytest.raises(QueryTimeoutError):
                    backend.execute("SELECT s, o FROM r_p")
        finally:
            backend.close()


# ----------------------------------------------------------------------
# Shared-memory crash and abort paths (no leaked segments)
# ----------------------------------------------------------------------
def _shm_segments():
    try:
        return {name for name in os.listdir("/dev/shm") if "psm" in name}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


@needs_processes
class TestShmFailurePaths:
    def test_attach_failure_leaves_no_segment(self):
        # The worker fails between the coordinator's segment creation
        # and its attach: the error reply must travel back over the
        # still-synchronized stream and the coordinator must unlink the
        # segment it created for the handshake.
        plan = FaultPlan.parse("seed=8,shm_attach_p=1.0,shm_attach_limit=1")
        config = FaultInjector(plan).worker_config(0, 0)
        worker = ProcessShardWorker(MemoryBackend, 0, fault_config=config)
        try:
            worker.load(_layout(rows=3000))
            before = _shm_segments()
            with pytest.raises(TransientWorkerFault):
                worker.execute("SELECT s, o FROM r_p")
            assert _shm_segments() <= before
            # Stream stayed synchronized: the same worker still answers
            # (the attach-fail budget is spent).
            assert len(worker.execute("SELECT s, o FROM r_p")) == 3000
        finally:
            worker.close()

    def test_coordinator_allocation_failure_aborts_handshake(
        self, monkeypatch
    ):
        from multiprocessing import shared_memory

        worker = ProcessShardWorker(MemoryBackend, 0)
        try:
            worker.load(_layout(rows=3000))
            real = shared_memory.SharedMemory
            calls = {"n": 0}

            def failing(*args, **kwargs):
                if kwargs.get("create") and calls["n"] == 0:
                    calls["n"] += 1
                    raise OSError("injected allocation failure")
                return real(*args, **kwargs)

            monkeypatch.setattr(shared_memory, "SharedMemory", failing)
            with pytest.raises(OSError, match="injected allocation"):
                worker.execute("SELECT s, o FROM r_p")
            # The abort message kept the worker's request/reply stream
            # synchronized: the next RPC works.
            assert len(worker.execute("SELECT s, o FROM r_p")) == 3000
        finally:
            worker.close()

    def test_sigkill_mid_query_leaves_no_segment(self):
        worker = SupervisedShardWorker(MemoryBackend, 0, _config())
        try:
            worker.load(_layout(rows=3000))
            before = _shm_segments()
            stop = threading.Event()

            def killer():
                while not stop.is_set():
                    proxy = worker.worker
                    if proxy is not None and proxy.pid is not None:
                        try:
                            os.kill(proxy.pid, signal.SIGKILL)
                        except (ProcessLookupError, TypeError):
                            pass
                    time.sleep(0.002)

            thread = threading.Thread(target=killer)
            thread.start()
            try:
                # Whatever point in the handshake the kill lands at, the
                # answer must eventually be correct and no segment may
                # leak. (The killer fires faster than respawns settle,
                # so several generations die mid-conversation.)
                deadline = time.monotonic() + 3.0
                answered = False
                while time.monotonic() < deadline and not answered:
                    try:
                        rows = worker.execute("SELECT s, o FROM r_p")
                        assert len(rows) == 3000
                        answered = True
                    except (WorkerCrashedError, WorkerRespawnError):
                        continue
            finally:
                stop.set()
                thread.join()
            # Once the killing stops, supervision must converge.
            assert len(worker.execute("SELECT s, o FROM r_p")) == 3000
            assert worker.restarts >= 1
            assert _shm_segments() <= before
        finally:
            worker.close()


# ----------------------------------------------------------------------
# Worker teardown racing multiprocessing's own reaping
# ----------------------------------------------------------------------
@needs_processes
class TestWorkerTeardown:
    def test_teardown_survives_concurrent_reaping(self):
        """``multiprocessing`` reaps finished children from any thread
        (``Process.start()`` and ``active_children()`` both do). A worker
        torn down while another thread reaps must still release its
        process handle and report its exit code, never raise ``ValueError:
        Cannot close a process while it is still running``."""
        stop = threading.Event()

        def reap():
            while not stop.is_set():
                multiprocessing.active_children()

        reaper = threading.Thread(target=reap)
        reaper.start()
        workers = []
        try:
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                batch = [ProcessShardWorker(MemoryBackend, i) for i in range(4)]
                workers.extend(batch)
                for index, worker in enumerate(batch):
                    if index % 2:
                        worker.close()
                        assert worker.exit_code == 0
                    else:
                        worker.kill()
                        assert worker.exit_code == -signal.SIGTERM
        finally:
            stop.set()
            reaper.join(timeout=10.0)
            assert not reaper.is_alive()
            for worker in workers:
                try:
                    worker.kill()
                except ValueError:
                    pass


# ----------------------------------------------------------------------
# Worker loop: clean KeyboardInterrupt / SystemExit exit
# ----------------------------------------------------------------------
@needs_processes
class TestWorkerLoopSignals:
    def test_sigint_exits_worker_cleanly(self):
        worker = ProcessShardWorker(MemoryBackend, 0)
        try:
            worker.load(_layout(rows=20))
            process = worker._process
            os.kill(worker.pid, signal.SIGINT)
            process.join(timeout=5.0)
            # Clean loop exit (backend closed, pipe closed), not a
            # KeyboardInterrupt traceback death.
            assert process.exitcode == 0
        finally:
            worker.close()

    def test_factory_system_exit_closes_pipe(self):
        import multiprocessing

        parent, child = multiprocessing.Pipe()

        def factory():
            raise SystemExit(3)

        _worker_main(child, factory)
        with pytest.raises(EOFError):
            parent.recv()

    def test_system_exit_mid_loop_breaks_cleanly(self):
        import multiprocessing

        class ExitingBackend(MemoryBackend):
            def estimated_cost(self, sql):
                raise SystemExit(5)

        parent, child = multiprocessing.Pipe()
        done = []

        def serve():
            _worker_main(child, ExitingBackend)
            done.append(True)

        thread = threading.Thread(target=serve)
        thread.start()
        try:
            tag, _name = parent.recv()
            assert tag == "ok"
            parent.send(("cost", "SELECT s FROM c_a"))
            thread.join(timeout=5.0)
            # SystemExit broke the loop (clean return) instead of being
            # pickled back as a query error.
            assert done == [True]
            with pytest.raises(EOFError):
                parent.recv()
        finally:
            thread.join(timeout=1.0)


# ----------------------------------------------------------------------
# Sharded backend integration and the seeded chaos workload
# ----------------------------------------------------------------------
@needs_processes
class TestShardedSupervision:
    def test_supervision_is_default_on_process_substrate(self):
        backend = ShardedBackend(shards=2, substrate="process")
        try:
            assert backend._supervisor is not None
            assert all(
                isinstance(child, SupervisedShardWorker)
                for child in backend.children
            )
        finally:
            backend.close()

    def test_restarts_env_configures_k(self, monkeypatch):
        monkeypatch.setenv(RESTARTS_ENV, "5")
        assert SupervisionConfig.from_env().max_respawns == 5
        monkeypatch.setenv(RESTARTS_ENV, "bogus")
        assert SupervisionConfig.from_env().max_respawns == 3

    def test_faults_env_arms_the_backend(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "seed=13,kill_at=6")
        data = _layout()
        oracle = _oracle(data)
        backend = ShardedBackend(
            shards=2, substrate="process", supervision=_config()
        )
        try:
            backend.load(data)
            for sql in QUERIES * 4:
                assert sorted(backend.execute(sql)) == sorted(
                    oracle.execute(sql)
                )
            telemetry = backend.shard_telemetry()
            assert telemetry["worker.restarts"] >= 1
            assert "worker_restarts" not in telemetry
        finally:
            backend.close()
            oracle.close()

    def test_monitor_heals_idle_worker(self):
        config = _config(monitor=True, monitor_interval_s=0.05)
        backend = ShardedBackend(
            shards=2, substrate="process", supervision=config
        )
        try:
            backend.load(_layout(rows=100))
            victim = backend.children[1]
            os.kill(victim.worker.pid, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and victim.restarts == 0:
                time.sleep(0.02)
            # No query ran: the sentinel monitor healed the shard.
            assert victim.restarts == 1
            assert sorted(backend.execute("SELECT DISTINCT s FROM c_a")) == [
                (i,) for i in range(0, 100, 3)
            ]
        finally:
            backend.close()

    def test_sigkill_mid_query_answers_stay_correct(self):
        data = _layout()
        oracle = _oracle(data)
        backend = ShardedBackend(
            shards=4, substrate="process", supervision=_config()
        )
        try:
            backend.load(data)
            victim = backend.children[2]

            def killer():
                time.sleep(0.01)
                proxy = victim.worker
                if proxy is not None and proxy.pid is not None:
                    os.kill(proxy.pid, signal.SIGKILL)

            thread = threading.Thread(target=killer)
            thread.start()
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline:
                for sql in QUERIES:
                    assert sorted(backend.execute(sql)) == sorted(
                        oracle.execute(sql)
                    )
            thread.join()
            assert victim.restarts == 1
            assert victim.epoch == 1
        finally:
            backend.close()
            oracle.close()

    def test_sigkill_after_sharded_bulk_load(self):
        """Backend-level kill-after-bulk: every supervised shard folded
        the bulk load into its mirror as one epoch, so the killed worker
        rebuilds to the same epoch and answers stay correct."""
        data = _layout(rows=600)
        oracle = _oracle(data)
        backend = ShardedBackend(
            shards=2, substrate="process", supervision=_config()
        )
        try:
            with backend.bulk_load() as loader:
                for spec in data.tables:
                    loader.create_table(
                        spec.name, spec.columns, indexes=spec.indexes
                    )
                for spec in data.tables:
                    loader.append(spec.name, spec.rows)
            for child in backend.children:
                assert child.epoch == 1
            assert sum(c._log.counts()["r_p"] for c in backend.children) == 600
            victim = backend.children[0]
            os.kill(victim.worker.pid, signal.SIGKILL)
            time.sleep(0.05)
            for sql in QUERIES:
                assert sorted(backend.execute(sql)) == sorted(
                    oracle.execute(sql)
                )
            assert victim.restarts == 1
            assert victim.epoch == 1
        finally:
            backend.close()
            oracle.close()


@needs_processes
class TestChaosWorkload:
    def test_seeded_100_query_workload_matches_oracles(self):
        """The acceptance workload: 4 supervised shards, a worker killed
        on its Nth RPC, 100 seeded randomized queries interleaved with
        writes — every answer identical to the serial/unsharded oracle
        *and* to a clean sharded run."""
        data = _layout()
        oracle = _oracle(data)
        clean = ShardedBackend(
            shards=4, substrate="process", supervision=_config()
        )
        chaotic = ShardedBackend(
            shards=4,
            substrate="process",
            supervision=_config(),
            fault_injector=FaultInjector(
                FaultPlan.parse("seed=7,kill_at=23,kill_limit=2")
            ),
        )
        rng = random.Random(42)
        try:
            clean.load(data)
            chaotic.load(data)
            next_id = 100_000
            for step in range(100):
                if step % 10 == 9:
                    inserts = {"r_p": [(next_id, rng.randrange(97))]}
                    deletes = {"c_a": [(rng.randrange(600),)]}
                    next_id += 1
                    for target in (oracle, clean, chaotic):
                        target.apply_changes(
                            {k: list(v) for k, v in inserts.items()},
                            {k: list(v) for k, v in deletes.items()},
                        )
                    continue
                kind = rng.randrange(3)
                if kind == 0:
                    sql = f"SELECT o FROM r_p WHERE s = {rng.randrange(700)}"
                elif kind == 1:
                    sql = "SELECT DISTINCT s FROM c_a"
                else:
                    sql = "SELECT a.s AS x FROM r_p a, c_a b WHERE a.o = b.s"
                expected = sorted(oracle.execute(sql))
                assert sorted(clean.execute(sql)) == expected, sql
                assert sorted(chaotic.execute(sql)) == expected, sql
            telemetry = chaotic.shard_telemetry()
            assert telemetry["worker.restarts"] >= 1
            # Respawned workers rejoined at the correct data epoch: the
            # per-shard epochs agree across the clean and chaotic runs.
            assert [w.epoch for w in chaotic.children] == [
                w.epoch for w in clean.children
            ]
            assert all(not w.circuit_open for w in chaotic.children)
        finally:
            chaotic.close()
            clean.close()
            oracle.close()

    def test_crash_mid_apply_on_one_shard(self):
        """Satellite: crash 1 of 4 shards mid-``apply_changes``; epoch
        verification repairs the diverged worker and answers equal the
        unsharded oracle."""
        data = _layout()
        oracle = _oracle(data)
        backend = ShardedBackend(
            shards=4,
            substrate="process",
            supervision=_config(),
            fault_injector=FaultInjector(
                FaultPlan.parse("seed=9,kill_cmd=apply,shards=2")
            ),
        )
        try:
            backend.load(data)
            inserts = {"r_p": [(4 * i + 2, 7) for i in range(40)]}
            deletes = {"c_a": [(s,) for s in range(0, 120, 3)]}
            backend.apply_changes(
                {k: list(v) for k, v in inserts.items()},
                {k: list(v) for k, v in deletes.items()},
            )
            oracle.apply_changes(inserts, deletes)
            for sql in QUERIES + ["SELECT s, o FROM r_p WHERE o = 7"]:
                assert sorted(backend.execute(sql)) == sorted(
                    oracle.execute(sql)
                ), sql
            victim = backend.children[2]
            assert victim.restarts == 1
            # The write is recorded exactly once on the rebuilt shard.
            assert victim.epoch == backend.children[0].epoch
            untouched = [
                w.restarts for i, w in enumerate(backend.children) if i != 2
            ]
            assert untouched == [0, 0, 0]
        finally:
            backend.close()
            oracle.close()

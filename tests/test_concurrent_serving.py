"""Concurrent serving against the epoch-based write path.

The central property: a query answered concurrently with writes always
returns the complete answer set of *some* data epoch — the state before
a write or after it, never a torn mix. The stress test pins it over 100
randomized rounds of mixed ``answer_many`` / ``insert_facts`` /
``delete_facts`` traffic against a sequential oracle; the rest covers
the serving executor (determinism across worker counts, admission
control, per-query deadlines) and the read/write barrier primitive.
"""

import random
import threading
import time

import pytest

from repro.dllite.abox import ABox
from repro.obda.system import OBDASystem
from repro.serving.concurrency import (
    AdmissionController,
    QueryTimeoutError,
    ReadWriteBarrier,
)
from repro.storage.memory_backend import MemoryBackend
from repro.storage.process_workers import process_substrate_available

QUERY = "q(x) <- Researcher(x)"


def _base_abox() -> ABox:
    abox = ABox()
    abox.add_role("worksWith", "Ioana", "Francois")
    abox.add_role("supervisedBy", "Damian", "Ioana")
    return abox


def _write_script(rng: random.Random, round_no: int):
    """A per-round script of write batches over fresh individuals.

    Inserts introduce new PhDStudents / supervisedBy pairs (each changes
    the Researcher answer set); deletes retract a previously inserted
    batch. Distinct prefixes of the script therefore produce distinct
    answer sets, which is what makes the at-some-epoch assertion sharp.
    """
    script = []
    inserted = []
    for step in range(4):
        if inserted and rng.random() < 0.3:
            batch = inserted.pop(rng.randrange(len(inserted)))
            script.append(("delete", batch))
        else:
            name = f"r{round_no}_{step}"
            if rng.random() < 0.5:
                batch = [("PhDStudent", name)]
            else:
                batch = [("supervisedBy", name, f"adv{round_no}_{step}")]
            script.append(("insert", batch))
            inserted.append(batch)
    return script


def _apply(system: OBDASystem, op: str, batch) -> None:
    if op == "insert":
        system.insert_facts(batch)
    else:
        system.delete_facts(batch)


@pytest.mark.parametrize("seed", range(4))
def test_stress_concurrent_reads_and_writes_match_an_epoch(
    example1_tbox, seed
):
    """100 randomized rounds: every concurrent answer equals the
    sequential oracle's answer at some prefix of the write script."""
    rng = random.Random(seed)
    rounds = 25  # 4 seeds x 25 rounds = the 100-round budget
    for round_no in range(rounds):
        materialized = round_no % 2 == 1
        strategy = "sat" if materialized else "ucq"
        script = _write_script(rng, round_no)

        # Sequential oracle: the answer set at every epoch.
        oracle = OBDASystem(
            example1_tbox, _base_abox(), materialize=materialized
        )
        valid_states = [oracle.answer(QUERY, strategy=strategy).answers]
        for op, batch in script:
            _apply(oracle, op, batch)
            valid_states.append(oracle.answer(QUERY, strategy=strategy).answers)
        oracle.close()

        subject = OBDASystem(
            example1_tbox, _base_abox(), materialize=materialized
        )
        observed = []
        failures = []

        def read(n_batches: int = 3) -> None:
            try:
                for _ in range(n_batches):
                    reports = subject.answer_many(
                        [QUERY, QUERY], strategy=strategy, max_workers=2
                    )
                    observed.extend(report.answers for report in reports)
            except Exception as exc:  # surfaced after join
                failures.append(exc)

        def write() -> None:
            try:
                for op, batch in script:
                    _apply(subject, op, batch)
            except Exception as exc:
                failures.append(exc)

        threads = [
            threading.Thread(target=read),
            threading.Thread(target=read),
            threading.Thread(target=write),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures
        # Every concurrently observed answer set is a whole epoch.
        for answers in observed:
            assert answers in valid_states, (
                f"round {round_no}: torn answers {answers!r} "
                f"not one of {len(valid_states)} epochs"
            )
        # And after the dust settles, the final epoch's answers.
        assert (
            subject.answer(QUERY, strategy=strategy).answers
            == valid_states[-1]
        )
        subject.close()


@pytest.mark.skipif(
    not process_substrate_available(),
    reason="fork start method unavailable",
)
@pytest.mark.parametrize("seed", range(2))
def test_stress_sharded_process_reads_and_writes_match_an_epoch(
    example1_tbox, seed
):
    """The epoch property over the process substrate: every answer a
    sharded system with per-shard worker processes serves concurrently
    with writes equals the sequential oracle at some prefix of the
    write script — writes must replicate into the shard workers under
    the same barrier hold the in-process substrate uses."""
    rng = random.Random(1000 + seed)
    for round_no in range(8):
        script = _write_script(rng, round_no)

        oracle = OBDASystem(example1_tbox, _base_abox())
        valid_states = [oracle.answer(QUERY, strategy="ucq").answers]
        for op, batch in script:
            _apply(oracle, op, batch)
            valid_states.append(oracle.answer(QUERY, strategy="ucq").answers)
        oracle.close()

        subject = OBDASystem(
            example1_tbox, _base_abox(), shards=2, executor="process"
        )
        assert subject.backend.substrate == "process"
        observed = []
        failures = []

        def read(n_batches: int = 3) -> None:
            try:
                for _ in range(n_batches):
                    reports = subject.answer_many(
                        [QUERY, QUERY], strategy="ucq", max_workers=2
                    )
                    observed.extend(report.answers for report in reports)
            except Exception as exc:
                failures.append(exc)

        def write() -> None:
            try:
                for op, batch in script:
                    _apply(subject, op, batch)
            except Exception as exc:
                failures.append(exc)

        threads = [
            threading.Thread(target=read),
            threading.Thread(target=read),
            threading.Thread(target=write),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures
        for answers in observed:
            assert answers in valid_states, (
                f"round {round_no}: torn answers {answers!r} "
                f"not one of {len(valid_states)} epochs"
            )
        assert (
            subject.answer(QUERY, strategy="ucq").answers == valid_states[-1]
        )
        subject.close()


class TestAnswerManyDeterminism:
    @pytest.fixture
    def system(self, example1_tbox, example1_abox):
        with OBDASystem(example1_tbox, example1_abox) as system:
            yield system

    QUERIES = [
        "q(x) <- Researcher(x)",
        "q(x) <- PhDStudent(x)",
        "q(x, y) <- worksWith(x, y)",
        "q(x) <- Researcher(x)",  # duplicate: plan-cache traffic
    ]

    @pytest.mark.parametrize("strategy", ["ucq", "gdl"])
    def test_same_answers_at_any_worker_count(self, system, strategy):
        baseline = [
            report.answers
            for report in system.answer_many(self.QUERIES, strategy=strategy)
        ]
        for workers in (1, 2, 8):
            reports = system.answer_many(
                self.QUERIES, strategy=strategy, max_workers=workers
            )
            assert [report.answers for report in reports] == baseline

    def test_constructor_serving_workers_default(
        self, example1_tbox, example1_abox
    ):
        with OBDASystem(
            example1_tbox, example1_abox, serving_workers=4
        ) as system:
            reports = system.answer_many(self.QUERIES)
            assert len(reports) == len(self.QUERIES)
            assert system.last_batch_stats is not None
            assert system.last_batch_stats["serving.workers"] == 4


class TestAdmissionControl:
    def test_bounded_in_flight(self, example1_tbox, example1_abox):
        with OBDASystem(example1_tbox, example1_abox) as system:
            queries = ["q(x) <- Researcher(x)"] * 12
            reports = system.answer_many(
                queries, strategy="ucq", max_workers=4, max_in_flight=2
            )
            assert len(reports) == 12
            stats = system.last_batch_stats["admission"]
            assert stats["admitted"] == 12
            assert stats["peak_in_flight"] <= 2
            assert stats["in_flight"] == 0

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            AdmissionController(0)


class _SlowBackend(MemoryBackend):
    """A MemoryBackend whose reads take a configurable nap (and count
    how many reads actually ran — cancelled tasks must not)."""

    def __init__(self, delay: float) -> None:
        super().__init__()
        self.delay = delay
        self.reads = 0

    def execute(self, sql):
        self.reads += 1
        time.sleep(self.delay)
        return super().execute(sql)


class TestTimeouts:
    def test_collects_timeout_errors(self, example1_tbox, example1_abox):
        system = OBDASystem(
            example1_tbox, example1_abox, backend=_SlowBackend(0.25)
        )
        try:
            reports = system.answer_many(
                ["q(x) <- Researcher(x)"] * 2,
                strategy="ucq",
                max_workers=2,
                timeout_seconds=0.01,
                on_error="collect",
            )
            assert all(
                isinstance(report.error, QueryTimeoutError)
                for report in reports
            )
            assert all(report.failed for report in reports)
        finally:
            system.close()

    def test_raises_on_timeout(self, example1_tbox, example1_abox):
        system = OBDASystem(
            example1_tbox, example1_abox, backend=_SlowBackend(0.25)
        )
        try:
            with pytest.raises(QueryTimeoutError):
                system.answer_many(
                    ["q(x) <- Researcher(x)"] * 2,
                    strategy="ucq",
                    max_workers=2,
                    timeout_seconds=0.01,
                )
        finally:
            system.close()

    def test_no_timeout_by_default(self, example1_tbox, example1_abox):
        system = OBDASystem(
            example1_tbox, example1_abox, backend=_SlowBackend(0.05)
        )
        try:
            reports = system.answer_many(
                ["q(x) <- Researcher(x)"] * 2, strategy="ucq", max_workers=2
            )
            assert all(not report.failed for report in reports)
        finally:
            system.close()

    def test_admission_gate_respects_the_deadline(
        self, example1_tbox, example1_abox
    ):
        """Slow queries holding every admission slot must not hang the
        batch: later queries time out at the gate and the batch
        returns."""
        system = OBDASystem(
            example1_tbox, example1_abox, backend=_SlowBackend(0.3)
        )
        try:
            started = time.perf_counter()
            reports = system.answer_many(
                ["q(x) <- Researcher(x)"] * 5,
                strategy="ucq",
                max_workers=2,
                max_in_flight=1,
                timeout_seconds=0.05,
                on_error="collect",
            )
            elapsed = time.perf_counter() - started
            assert len(reports) == 5
            assert all(
                isinstance(report.error, QueryTimeoutError)
                for report in reports
            )
            # Sequential execution of five 0.3s queries would take
            # >=1.5s; deadline-bounded admission must return far sooner.
            assert elapsed < 1.2
        finally:
            system.close()

    def test_deadline_runs_from_dispatch_not_collection(
        self, example1_tbox, example1_abox
    ):
        """Concurrently dispatched queries each get their own deadline:
        waiting on an earlier future must not extend a later query's
        budget past dispatch + timeout."""
        system = OBDASystem(
            example1_tbox, example1_abox, backend=_SlowBackend(0.25)
        )
        try:
            reports = system.answer_many(
                ["q(x) <- Researcher(x)"] * 3,
                strategy="ucq",
                max_workers=3,
                timeout_seconds=0.1,
                on_error="collect",
            )
            # All three dispatched immediately; all exceed 0.1s; the
            # in-order collection of report 0 must not grant reports
            # 1 and 2 a fresh 0.1s each from collection time.
            assert all(
                isinstance(report.error, QueryTimeoutError)
                for report in reports
            )
        finally:
            system.close()

    def test_gate_timeouts_do_not_compound(
        self, example1_tbox, example1_abox
    ):
        """Regression: per-query deadline accounting in one batch.

        With every admission slot held by one hung query, each
        subsequent query used to wait out its *own* full timeout at the
        gate, serially — k stragglers burned k × timeout of wall-clock
        even though the gate's fate was already proven. Once one admit
        has timed out with no release since, the rest of the batch must
        fail fast."""
        system = OBDASystem(
            example1_tbox, example1_abox, backend=_SlowBackend(1.5)
        )
        try:
            started = time.perf_counter()
            reports = system.answer_many(
                ["q(x) <- Researcher(x)"] * 12,
                strategy="ucq",
                max_workers=2,
                max_in_flight=1,
                timeout_seconds=0.2,
                on_error="collect",
            )
            elapsed = time.perf_counter() - started
            assert len(reports) == 12
            assert all(
                isinstance(report.error, QueryTimeoutError)
                for report in reports
            )
            # Old behavior: 11 serial gate waits x 0.2s = 2.2s minimum.
            # Fail-fast: one proven gate timeout, the rest immediate.
            assert elapsed < 1.2, elapsed
        finally:
            system.close()

    def test_timed_out_queued_queries_release_their_slots(
        self, example1_tbox, example1_abox
    ):
        """Regression: a query that timed out while still *queued* (its
        pool task never started) used to keep its admission slot and
        its place in the worker queue, burning wall-clock from the next
        batch. Collection must cancel it and reclaim the slot."""
        system = OBDASystem(
            example1_tbox, example1_abox, backend=_SlowBackend(0.5)
        )
        try:
            # Two workers: two queries run 0.5s each, the other two sit
            # in the pool queue holding admission slots.
            reports = system.answer_many(
                ["q(x) <- Researcher(x)"] * 4,
                strategy="ucq",
                max_workers=2,
                max_in_flight=4,
                timeout_seconds=0.1,
                on_error="collect",
            )
            assert all(
                isinstance(report.error, QueryTimeoutError)
                for report in reports
            )
            # The cancelled queued tasks released their slots at
            # collection time, before their (abandoned) runners did.
            stats = system.last_batch_stats["admission"]
            assert stats["admitted"] == 4
            assert stats["released"] >= 2
            # The two cancelled tasks never reach the backend: after
            # the two abandoned runners drain, the read count is 2 —
            # not 4 reads x 0.5s of wall-clock burned from whatever the
            # pool serves next.
            deadline = time.perf_counter() + 5.0
            while (
                system.backend.reads < 2
                and time.perf_counter() < deadline
            ):
                time.sleep(0.05)
            time.sleep(0.7)  # would be mid-flight if they had started
            assert system.backend.reads == 2
        finally:
            system.close()


class TestSharedPoolRegrowth:
    def test_concurrent_batches_while_pool_regrows(
        self, example1_tbox, example1_abox
    ):
        """A batch submitting to the shared pool while a bigger batch
        regrows it must complete (submits retry on the replacement)."""
        system = OBDASystem(
            example1_tbox, example1_abox, backend=_SlowBackend(0.01)
        )
        queries = ["q(x) <- Researcher(x)"] * 10
        results = []
        failures = []

        def batch(workers: int) -> None:
            try:
                results.append(
                    system.answer_many(
                        queries, strategy="ucq", max_workers=workers
                    )
                )
            except Exception as exc:
                failures.append(exc)

        try:
            threads = [
                threading.Thread(target=batch, args=(workers,))
                for workers in (2, 4, 8, 3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not failures, failures
            assert len(results) == 4
            expected = system.answer(queries[0], strategy="ucq").answers
            for reports in results:
                assert len(reports) == len(queries)
                assert all(report.answers == expected for report in reports)
        finally:
            system.close()


class TestReadWriteBarrier:
    def test_writer_drains_readers(self):
        barrier = ReadWriteBarrier()
        log = []
        reader_in = threading.Event()
        release_reader = threading.Event()

        def reader():
            with barrier.shared():
                reader_in.set()
                release_reader.wait(timeout=5)
                log.append("reader-done")

        def writer():
            reader_in.wait(timeout=5)
            with barrier.exclusive():
                log.append("writer-done")

        threads = [
            threading.Thread(target=reader),
            threading.Thread(target=writer),
        ]
        for thread in threads:
            thread.start()
        reader_in.wait(timeout=5)
        time.sleep(0.05)  # give the writer time to reach the barrier
        release_reader.set()
        for thread in threads:
            thread.join(timeout=5)
        assert log == ["reader-done", "writer-done"]

    def test_waiting_writer_blocks_new_readers(self):
        barrier = ReadWriteBarrier()
        order = []
        first_reader_in = threading.Event()
        release_first = threading.Event()
        writer_waiting = threading.Event()

        def first_reader():
            with barrier.shared():
                first_reader_in.set()
                release_first.wait(timeout=5)
            order.append("reader1")

        def writer():
            first_reader_in.wait(timeout=5)
            writer_waiting.set()
            with barrier.exclusive():
                order.append("writer")

        def late_reader():
            writer_waiting.wait(timeout=5)
            time.sleep(0.05)  # writer is now parked at the barrier
            with barrier.shared():
                order.append("reader2")

        threads = [
            threading.Thread(target=first_reader),
            threading.Thread(target=writer),
            threading.Thread(target=late_reader),
        ]
        for thread in threads:
            thread.start()
        writer_waiting.wait(timeout=5)
        time.sleep(0.1)
        release_first.set()
        for thread in threads:
            thread.join(timeout=5)
        # Writer preference: the late reader must not overtake the writer.
        assert order.index("writer") < order.index("reader2")

    def test_many_concurrent_readers(self):
        barrier = ReadWriteBarrier()
        peak = [0]
        active = [0]
        lock = threading.Lock()

        def reader():
            with barrier.shared():
                with lock:
                    active[0] += 1
                    peak[0] = max(peak[0], active[0])
                time.sleep(0.01)
                with lock:
                    active[0] -= 1

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        assert peak[0] > 1, "readers must overlap"

"""Concurrent serving against the epoch-based write path.

The central property: a query answered concurrently with writes always
returns the complete answer set of *some* data epoch — the state before
a write or after it, never a torn mix. The stress test pins it over 100
randomized rounds of concurrent ``answer`` threads racing
``insert_facts`` / ``delete_facts`` against a sequential oracle; the
rest covers determinism across thread counts, per-query deadlines and
the read/write barrier primitive.
"""

import random
import threading
import time

import pytest

from repro.dllite.abox import ABox
from repro.obda.system import OBDASystem
from repro.serving.concurrency import (
    QueryTimeoutError,
    ReadWriteBarrier,
    check_deadline,
    deadline_scope,
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
    example1_tbox, seed, answer_concurrently
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
                    reports = answer_concurrently(
                        subject, [QUERY, QUERY], 2, strategy=strategy
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
    example1_tbox, seed, answer_concurrently
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
                    reports = answer_concurrently(
                        subject, [QUERY, QUERY], 2, strategy="ucq"
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
    def test_same_answers_at_any_worker_count(
        self, system, strategy, answer_concurrently
    ):
        baseline = [
            report.answers
            for report in system.answer_many(self.QUERIES, strategy=strategy)
        ]
        for workers in (1, 2, 8):
            reports = answer_concurrently(
                system, self.QUERIES, workers, strategy=strategy
            )
            assert [report.answers for report in reports] == baseline


class _SlowBackend(MemoryBackend):
    """A MemoryBackend whose reads take a configurable nap (and count
    how many reads ran)."""

    def __init__(self, delay: float) -> None:
        super().__init__()
        self.delay = delay
        self.reads = 0

    def execute(self, sql):
        self.reads += 1
        time.sleep(self.delay)
        return super().execute(sql)


class TestTimeouts:
    """An in-process read has no wait for the deadline to bound: the
    check after execution is what turns a late answer into a timeout."""

    def test_collects_timeout_errors(self, example1_tbox, example1_abox):
        system = OBDASystem(
            example1_tbox, example1_abox, backend=_SlowBackend(0.2)
        )
        try:
            reports = system.answer_many(
                ["q(x) <- Researcher(x)"] * 2,
                strategy="ucq",
                timeout_seconds=0.05,
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
            example1_tbox, example1_abox, backend=_SlowBackend(0.2)
        )
        try:
            with pytest.raises(QueryTimeoutError):
                system.answer_many(
                    ["q(x) <- Researcher(x)"] * 2,
                    strategy="ucq",
                    timeout_seconds=0.05,
                )
        finally:
            system.close()

    def test_answer_honours_query_timeout_seconds(
        self, example1_tbox, example1_abox
    ):
        system = OBDASystem(
            example1_tbox,
            example1_abox,
            backend=_SlowBackend(0.2),
            query_timeout_seconds=0.05,
        )
        try:
            with pytest.raises(QueryTimeoutError):
                system.answer("q(x) <- Researcher(x)", strategy="ucq")
        finally:
            system.close()

    def test_blown_deadline_stops_before_execution(
        self, example1_tbox, example1_abox
    ):
        """A deadline already past when reformulation ends never reaches
        the backend."""
        system = OBDASystem(
            example1_tbox, example1_abox, backend=_SlowBackend(0.0)
        )
        try:
            with deadline_scope(-1.0), pytest.raises(QueryTimeoutError):
                system.answer("q(x) <- Researcher(x)", strategy="ucq")
            assert system.backend.reads == 0
        finally:
            system.close()

    def test_no_timeout_by_default(
        self, example1_tbox, example1_abox, answer_concurrently
    ):
        system = OBDASystem(
            example1_tbox, example1_abox, backend=_SlowBackend(0.05)
        )
        try:
            reports = answer_concurrently(
                system, ["q(x) <- Researcher(x)"] * 2, 2, strategy="ucq"
            )
            assert all(not report.failed for report in reports)
        finally:
            system.close()

    def test_check_deadline(self):
        check_deadline()  # no deadline: nothing to miss
        with deadline_scope(30.0):
            check_deadline()
        with deadline_scope(-1.0), pytest.raises(QueryTimeoutError) as raised:
            check_deadline()
        assert raised.value.seconds == -1.0


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

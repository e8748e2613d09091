"""Replicated serving: router, chaos, tokens and the HTTP edge.

Four layers of coverage for the serving tier:

* **router units** — least-loaded selection, per-replica admission
  backpressure (:class:`ReplicaSaturatedError`), token-wait deadlines
  (:class:`ReplicaLagTimeoutError`), kill + heal, and the epoch log's
  fold-on-record contract, all on a bare
  :class:`~repro.serving.replicas.ReplicaSet` over a tiny dataset;
* **randomized stress** — the session-consistency oracle from
  ``backend_conformance.py`` at higher write counts, with explicit
  mid-stress replica kills layered on top;
* **chaos** — seeded ``REPRO_FAULTS`` replica-kill and lag injection
  (the deterministic fault grammar of :mod:`repro.faults`);
* **HTTP round trips** — batch answers with session tokens, per-query
  error reports, ``/metrics`` / ``/epoch`` / ``/healthz``, and the
  write endpoint's read-your-writes token handshake.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from backend_conformance import (
    check_replica_consistency,
    replica_consistency_kb,
)
from repro.obda.system import OBDASystem
from repro.serving.concurrency import deadline_scope
from repro.serving.http import ServingEndpoint
from repro.serving.replicas import (
    ReplicaLagTimeoutError,
    ReplicaSaturatedError,
    ReplicaSet,
)
from repro.storage.layouts import LayoutData, TableSpec
from repro.storage.memory_backend import MemoryBackend
from repro.storage.epoch_log import EpochDelta, EpochLog

PROBE_SQL = "SELECT s FROM c_a"


def _layout_data(rows=((1,), (2,))):
    return LayoutData(
        tables=[
            TableSpec(
                name="c_a",
                columns=("s",),
                rows=list(rows),
                indexes=(("s",),),
            )
        ]
    )


def _make_log() -> EpochLog:
    return EpochLog(_layout_data().tables)


def _insert_delta(epoch: int, value: int) -> EpochDelta:
    return EpochDelta(epoch=epoch, inserts={"c_a": [(value,)]}, deletes={})


def _wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.01)


# ---------------------------------------------------------------------------
# Epoch log
# ---------------------------------------------------------------------------
class TestReplicationLog:
    def test_snapshot_equals_replayed_deltas(self):
        log = _make_log()
        for epoch in range(1, 6):
            log.record(_insert_delta(epoch, 100 + epoch))
        data, epoch = log.snapshot()
        assert epoch == 5
        fresh = MemoryBackend()
        fresh.load(data)
        replayed = MemoryBackend()
        base, _ = _make_log().snapshot()
        replayed.load(base)
        for epoch in range(1, 6):
            _insert_delta(epoch, 100 + epoch).apply_to(replayed)
        assert sorted(fresh.execute(PROBE_SQL)) == sorted(
            replayed.execute(PROBE_SQL)
        )
        fresh.close()
        replayed.close()

    def test_bounded_log_folds_but_snapshot_is_complete(self):
        """Every delta folds as it is recorded: the log holds the
        current tables only, and its snapshot is complete."""
        log = _make_log()
        for epoch in range(1, 10):
            log.record(_insert_delta(epoch, 100 + epoch))
        data, epoch = log.snapshot()
        assert epoch == 9
        backend = MemoryBackend()
        backend.load(data)
        values = {row[0] for row in backend.execute(PROBE_SQL)}
        assert values == {1, 2} | {100 + e for e in range(1, 10)}
        backend.close()

    def test_out_of_order_record_rejected(self):
        log = _make_log()
        log.record(_insert_delta(1, 101))
        with pytest.raises(ValueError):
            log.record(_insert_delta(3, 103))
        with pytest.raises(ValueError):
            log.record(_insert_delta(1, 101))

    def test_delta_ships_new_tables(self):
        log = _make_log()
        spec = TableSpec(
            name="c_new", columns=("s",), rows=[], indexes=(("s",),)
        )
        log.record(
            EpochDelta(
                epoch=1,
                tables=(spec,),
                inserts={"c_new": [(7,)]},
                deletes={},
            )
        )
        data, _ = log.snapshot()
        backend = MemoryBackend()
        backend.load(data)
        assert backend.execute("SELECT s FROM c_new") == [(7,)]
        backend.close()


# ---------------------------------------------------------------------------
# Router: least-loaded selection, backpressure, token waits, heal
# ---------------------------------------------------------------------------
@pytest.fixture
def replica_set():
    log = _make_log()
    replica_set = ReplicaSet(
        2, MemoryBackend, log, max_in_flight=1, lag_timeout_seconds=0.5
    )
    yield replica_set, log
    replica_set.close()


class TestRouter:
    def test_execute_returns_rows_and_observed_epoch(self, replica_set):
        replicas, log = replica_set
        rows, epoch, index = replicas.execute(PROBE_SQL)
        assert sorted(rows) == [(1,), (2,)]
        assert epoch == 0
        assert index in (0, 1)

    def test_least_loaded_selection_avoids_busy_replica(self, replica_set):
        replicas, _log = replica_set
        # Occupy replica 0's only admission slot: the router must pick
        # replica 1 without waiting out replica 0's gate.
        assert replicas.replica(0).admission.admit(timeout=0)
        try:
            started = time.perf_counter()
            _rows, _epoch, index = replicas.execute(PROBE_SQL)
            assert index == 1
            assert time.perf_counter() - started < 0.4
        finally:
            replicas.replica(0).admission.release()

    def test_saturated_set_fails_fast(self, replica_set):
        replicas, _log = replica_set
        assert replicas.replica(0).admission.admit(timeout=0)
        assert replicas.replica(1).admission.admit(timeout=0)
        try:
            with pytest.raises(ReplicaSaturatedError):
                replicas.execute(PROBE_SQL, timeout_seconds=0.3)
        finally:
            replicas.replica(0).admission.release()
            replicas.replica(1).admission.release()

    def test_token_wait_catches_up(self, replica_set):
        replicas, log = replica_set
        delta = _insert_delta(1, 101)
        log.record(delta)
        replicas.publish(delta)
        rows, epoch, _index = replicas.execute(PROBE_SQL, min_epoch=1)
        assert epoch >= 1
        assert (101,) in rows

    def test_unreachable_token_times_out(self, replica_set):
        replicas, log = replica_set
        started = time.perf_counter()
        with pytest.raises(ReplicaLagTimeoutError):
            replicas.execute(PROBE_SQL, min_epoch=log.epoch + 1)
        elapsed = time.perf_counter() - started
        assert 0.3 < elapsed < 5.0  # the set's 0.5s lag deadline

    def test_serving_deadline_caps_token_wait(self, replica_set):
        replicas, log = replica_set
        started = time.perf_counter()
        with deadline_scope(0.05):
            with pytest.raises(ReplicaLagTimeoutError):
                replicas.execute(PROBE_SQL, min_epoch=log.epoch + 1)
        assert time.perf_counter() - started < 0.4

    def test_kill_routes_around_and_heals(self, replica_set):
        replicas, log = replica_set
        delta = _insert_delta(1, 101)
        log.record(delta)
        replicas.publish(delta)
        replicas.kill(0)
        rows, epoch, index = replicas.execute(PROBE_SQL, min_epoch=1)
        assert index == 1 and epoch >= 1 and (101,) in rows
        _wait_until(lambda: replicas.heals >= 1)
        healed = replicas.replica(0)
        _wait_until(lambda: healed.ready)
        assert healed.generation == 1
        # The healed replica bootstrapped from the folded snapshot at
        # the log's current epoch — including the delta it missed.
        assert healed.applied_epoch == log.epoch
        rows, _epoch = healed.execute(PROBE_SQL)
        assert (101,) in rows

    def test_all_replicas_dead_heals_on_the_read_path(self, replica_set):
        replicas, _log = replica_set
        replicas.replica(0).die()
        replicas.replica(1).die()
        rows, _epoch, _index = replicas.execute(PROBE_SQL)
        assert sorted(rows) == [(1,), (2,)]

    def test_publish_while_healing_is_never_lost(self):
        """A delta recorded while a replacement bootstraps must land on
        it: registration happens before the (slow) snapshot load, and
        the applier's epoch guard drops only already-folded deltas."""
        log = _make_log()
        replicas = ReplicaSet(1, MemoryBackend, log, max_in_flight=2)
        try:
            for epoch in range(1, 30):
                delta = _insert_delta(epoch, 100 + epoch)
                log.record(delta)
                replicas.publish(delta)
                if epoch % 7 == 0:
                    replicas.kill(0)
            rows, epoch, _index = replicas.execute(
                PROBE_SQL, min_epoch=log.epoch
            )
            assert epoch == 29
            assert {row[0] for row in rows} == {1, 2} | {
                100 + e for e in range(1, 30)
            }
        finally:
            replicas.close()

    def test_telemetry_shape(self, replica_set):
        replicas, _log = replica_set
        replicas.execute(PROBE_SQL)
        telemetry = replicas.telemetry()
        assert telemetry["replicas"] == 2
        assert len(telemetry["per_replica"]) == 2
        entry = telemetry["per_replica"][0]
        assert {
            "replica",
            "generation",
            "alive",
            "applied_epoch",
            "lag",
            "in_flight",
            "executions",
        } <= set(entry)
        assert replicas.max_lag() == 0


# ---------------------------------------------------------------------------
# System-level: tokens, stress, chaos
# ---------------------------------------------------------------------------
class TestSystemTokens:
    def test_read_your_writes_token_honored(self):
        tbox, abox = replica_consistency_kb()
        with OBDASystem(tbox, abox, replicas=2) as system:
            system.insert_facts([("Researcher", "Nadia")])
            token = system.epoch_token()
            report = system.answer(
                "q(x) <- Researcher(x)", strategy="ucq", min_epoch=token
            )
            assert report.epoch >= token
            assert ("Nadia",) in report.answers
            assert report.replica is not None

    def test_default_read_sees_own_writes(self):
        """No token needed in-process: the default session token is the
        primary's epoch, so a write is always visible to the next read."""
        tbox, abox = replica_consistency_kb()
        with OBDASystem(tbox, abox, replicas=3) as system:
            for step in range(5):
                system.insert_facts([("Researcher", f"n{step}")])
                report = system.answer(
                    "q(x) <- Researcher(x)", strategy="ucq"
                )
                assert (f"n{step}",) in report.answers
                assert report.epoch == step + 1

    def test_replicated_equals_unreplicated(self):
        tbox, abox = replica_consistency_kb()
        queries = [
            "q(x) <- Researcher(x)",
            "q(x) <- PhDStudent(x), worksWith(y, x)",
            "q(x, y) <- worksWith(x, y)",
        ]
        tbox2, abox2 = replica_consistency_kb()
        with OBDASystem(tbox, abox, backend="memory") as plain, OBDASystem(
            tbox2, abox2, replicas=2
        ) as replicated:
            for strategy in ("ucq", "gdl"):
                for query in queries:
                    assert (
                        replicated.answer(query, strategy=strategy).answers
                        == plain.answer(query, strategy=strategy).answers
                    ), (strategy, query)

    def test_unreplicated_reports_epoch_too(self, monkeypatch):
        monkeypatch.delenv("REPRO_REPLICAS", raising=False)
        tbox, abox = replica_consistency_kb()
        with OBDASystem(tbox, abox) as system:
            assert system.replica_set is None
            report = system.answer("q(x) <- Researcher(x)", strategy="ucq")
            assert report.epoch == 0 and report.replica is None
            system.insert_facts([("Researcher", "Nadia")])
            assert (
                system.answer("q(x) <- Researcher(x)", strategy="ucq").epoch
                == 1
            )

    def test_replicas_rejected_for_custom_backend_objects(self):
        tbox, abox = replica_consistency_kb()
        with pytest.raises(ValueError, match="named backend"):
            OBDASystem(tbox, abox, backend=MemoryBackend(), replicas=2)

    def test_env_knob_builds_replicas(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPLICAS", "2")
        tbox, abox = replica_consistency_kb()
        with OBDASystem(tbox, abox) as system:
            assert system.replica_set is not None
            assert system.replica_set.count == 2
            report = system.answer("q(x) <- Researcher(x)", strategy="ucq")
            assert report.replica is not None

    def test_batch_carries_one_token(self):
        tbox, abox = replica_consistency_kb()
        with OBDASystem(tbox, abox, replicas=2) as system:
            system.insert_facts([("Researcher", "Nadia")])
            token = system.epoch_token()
            reports = system.answer_many(
                ["q(x) <- Researcher(x)"] * 4,
                strategy="ucq",
                max_workers=3,
                min_epoch=token,
            )
            for report in reports:
                assert report.epoch >= token
                assert ("Nadia",) in report.answers


class TestStress:
    def test_randomized_stress_with_tokens(self):
        """The session-consistency oracle at stress scale: more writes,
        more readers, explicit mid-stress replica kills."""
        systems = []

        def make_system(tbox, abox):
            system = OBDASystem(tbox, abox, replicas=3)
            systems.append(system)
            killer_done = threading.Event()

            def killer():
                for index in (0, 1, 2, 0):
                    if killer_done.wait(timeout=0.05):
                        return
                    try:
                        system.replica_set.kill(index)
                    except Exception:
                        return

            thread = threading.Thread(target=killer, daemon=True)
            thread.start()
            system._test_killer = (thread, killer_done)
            return system

        check_replica_consistency(
            make_system, seed=7001, writes=16, readers=4
        )
        for system in systems:
            thread, killer_done = system._test_killer
            killer_done.set()
            thread.join(timeout=5.0)

    def test_chaos_kill_and_lag_via_faults_env(self, monkeypatch):
        """Seeded REPRO_FAULTS chaos: random replica kills (healed from
        the epoch log) plus injected apply lag (absorbed by token
        waits). Consistency must hold throughout."""
        monkeypatch.setenv(
            "REPRO_FAULTS",
            "seed=23,replica_kill_p=0.3,replica_lag_p=0.6,replica_lag_ms=25",
        )
        check_replica_consistency(
            lambda tbox, abox: OBDASystem(tbox, abox, replicas=2),
            seed=7002,
            writes=10,
            readers=3,
        )

    def test_chaos_kill_limit_bounds_injected_kills(self, monkeypatch):
        """replica_kill_limit caps the injected kills per replica slot,
        so a chaos run terminates in a stable serving state."""
        monkeypatch.setenv(
            "REPRO_FAULTS",
            "seed=29,replica_kill_p=1.0,replica_kill_limit=2",
        )
        tbox, abox = replica_consistency_kb()
        with OBDASystem(tbox, abox, replicas=2) as system:
            for step in range(8):
                system.insert_facts([("Researcher", f"k{step}")])
            token = system.epoch_token()
            report = system.answer(
                "q(x) <- Researcher(x)", strategy="ucq", min_epoch=token
            )
            assert {(f"k{step}",) for step in range(8)} <= report.answers
            # Budget exhausted: generations beyond the limit stop dying.
            _wait_until(
                lambda: all(
                    entry["alive"]
                    for entry in system.replica_set.telemetry()[
                        "per_replica"
                    ]
                )
            )


# ---------------------------------------------------------------------------
# HTTP round trips
# ---------------------------------------------------------------------------
def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def _get(url, as_json=True):
    with urllib.request.urlopen(url, timeout=30) as response:
        body = response.read()
        return response.status, (json.loads(body) if as_json else body)


@pytest.fixture
def endpoint():
    tbox, abox = replica_consistency_kb()
    with OBDASystem(tbox, abox, replicas=2) as system:
        with ServingEndpoint(system) as served:
            yield served


class TestHttp:
    def test_batch_answers_round_trip(self, endpoint):
        status, payload = _post(
            endpoint.url + "/answer",
            {"queries": ["q(x) <- Researcher(x)"], "strategy": "ucq"},
        )
        assert status == 200
        report = payload["reports"][0]
        assert report["error"] is None
        assert ["Ioana"] in report["answers"]
        assert report["epoch"] == 0
        assert payload["epoch_token"] == 0

    def test_write_then_tokened_read(self, endpoint):
        _status, write = _post(
            endpoint.url + "/write",
            {"insert": [["Researcher", "Zoe"], ["worksWith", "Zoe", "Ana"]]},
        )
        assert write["inserted"] == 2
        token = write["epoch_token"]
        assert token >= 1
        _status, payload = _post(
            endpoint.url + "/answer",
            {
                "queries": ["q(x) <- Researcher(x)"],
                "strategy": "ucq",
                "min_epoch": token,
            },
        )
        report = payload["reports"][0]
        assert report["epoch"] >= token
        assert ["Zoe"] in report["answers"]
        _status, deleted = _post(
            endpoint.url + "/write", {"delete": [["Researcher", "Zoe"]]}
        )
        assert deleted["deleted"] == 1
        assert deleted["epoch_token"] == token + 1

    def test_error_reports_are_per_query(self, endpoint):
        _status, payload = _post(
            endpoint.url + "/answer",
            {
                "queries": [
                    "q(x) <- Researcher(x)",
                    "this is not a query",
                ],
                "strategy": "ucq",
            },
        )
        good, bad = payload["reports"]
        assert good["error"] is None and good["answers"]
        assert bad["error"]["type"] == "ParseError"
        assert bad["answers"] == []

    def test_metrics_epoch_healthz(self, endpoint):
        _status, body = _get(endpoint.url + "/metrics", as_json=False)
        text = body.decode("utf-8")
        assert "repro" in text  # Prometheus exposition of the registry
        assert "replica" in text  # includes the replica-lag gauges
        _status, epoch = _get(endpoint.url + "/epoch")
        assert epoch == {"epoch": 0}
        _status, health = _get(endpoint.url + "/healthz")
        assert health == {"ok": True, "replicas": 2}

    def test_http_error_statuses(self, endpoint):
        with pytest.raises(urllib.error.HTTPError) as not_found:
            _get(endpoint.url + "/nope")
        assert not_found.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as bad_request:
            _post(endpoint.url + "/answer", {"queries": "not a list"})
        assert bad_request.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as bad_json:
            request = urllib.request.Request(
                endpoint.url + "/answer", data=b"{not json"
            )
            urllib.request.urlopen(request, timeout=30)
        assert bad_json.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as bad_fact:
            _post(endpoint.url + "/write", {"insert": [["onlyone"]]})
        assert bad_fact.value.code == 400

    def test_works_without_replicas_too(self, monkeypatch):
        monkeypatch.delenv("REPRO_REPLICAS", raising=False)
        tbox, abox = replica_consistency_kb()
        with OBDASystem(tbox, abox) as system:
            with ServingEndpoint(system) as served:
                _status, health = _get(served.url + "/healthz")
                assert health == {"ok": True, "replicas": 0}
                _status, payload = _post(
                    served.url + "/answer",
                    {
                        "queries": ["q(x) <- Researcher(x)"],
                        "strategy": "ucq",
                    },
                )
                assert payload["reports"][0]["answers"]

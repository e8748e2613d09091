"""Session tokens, deadlines, the epoch log and the HTTP edge.

Every read is served at the system's current epoch, so the consistency
contract — an answer equals the sequential oracle at the epoch it
reports, and that epoch is at least the read's token — holds by
construction, and a token the system never issued is refused. The file
keeps the name of the read-replica tier it was written for, so that
the tests it still holds keep their names. Five layers of coverage:

* **epoch log** — the fold-on-record contract of
  :class:`~repro.storage.epoch_log.EpochLog` that shard supervision
  rebuilds workers from;
* **system tokens** — read-your-writes and monotonic tokens, and the
  rejection of unissued tokens on every backend;
* **system deadlines** — the caller's ``deadline_scope`` and
  ``query_timeout_seconds`` end a read that runs past them;
* **stress** — the session-consistency oracle from
  ``backend_conformance.py`` at a higher write count;
* **HTTP round trips** — batch answers with session tokens, per-query
  error reports, ``/metrics`` / ``/epoch`` / ``/healthz``, and the
  write endpoint's read-your-writes token handshake.
"""

import json
import time
import urllib.error
import urllib.request

import pytest

from backend_conformance import check_session_consistency, session_consistency_kb
from repro.obda.system import OBDASystem
from repro.serving.concurrency import QueryTimeoutError, deadline_scope
from repro.serving.http import ServingEndpoint
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


class _SlowBackend(MemoryBackend):
    """A memory backend whose every read takes 0.2 s."""

    def execute(self, sql):
        time.sleep(0.2)
        return super().execute(sql)


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
            delta = _insert_delta(epoch, 100 + epoch)
            replayed.apply_changes(delta.inserts, delta.deletes)
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
# System-level: tokens, deadlines, stress
# ---------------------------------------------------------------------------
class TestSystemTokens:
    def test_read_your_writes_token_honored(self):
        tbox, abox = session_consistency_kb()
        with OBDASystem(tbox, abox) as system:
            system.insert_facts([("Researcher", "Nadia")])
            token = system.epoch_token()
            report = system.answer(
                "q(x) <- Researcher(x)", strategy="ucq", min_epoch=token
            )
            assert report.epoch >= token
            assert ("Nadia",) in report.answers

    def test_default_read_sees_own_writes(self):
        """No token needed in-process: every read observes the current
        epoch, so a write is always visible to the next read."""
        tbox, abox = session_consistency_kb()
        with OBDASystem(tbox, abox) as system:
            for step in range(5):
                system.insert_facts([("Researcher", f"n{step}")])
                report = system.answer(
                    "q(x) <- Researcher(x)", strategy="ucq"
                )
                assert (f"n{step}",) in report.answers
                assert report.epoch == step + 1

    def test_unreplicated_reports_epoch_too(self):
        tbox, abox = session_consistency_kb()
        with OBDASystem(tbox, abox) as system:
            report = system.answer("q(x) <- Researcher(x)", strategy="ucq")
            assert report.epoch == 0
            system.insert_facts([("Researcher", "Nadia")])
            assert (
                system.answer("q(x) <- Researcher(x)", strategy="ucq").epoch
                == 1
            )

    def test_batch_carries_one_token(self, answer_concurrently):
        tbox, abox = session_consistency_kb()
        with OBDASystem(tbox, abox) as system:
            system.insert_facts([("Researcher", "Nadia")])
            token = system.epoch_token()
            reports = answer_concurrently(
                system,
                ["q(x) <- Researcher(x)"] * 4,
                3,
                strategy="ucq",
                min_epoch=token,
            )
            for report in reports:
                assert report.epoch >= token
                assert ("Nadia",) in report.answers

    @pytest.mark.parametrize(
        "kwargs",
        [{"backend": "memory"}, {"backend": "sqlite"}, {"shards": 2}],
        ids=["memory", "sqlite", "sharded"],
    )
    def test_unissued_token_rejected_on_every_system(self, kwargs):
        tbox, abox = session_consistency_kb()
        with OBDASystem(tbox, abox, **kwargs) as system:
            for token in (1, 99, -1):
                with pytest.raises(ValueError, match="never issued"):
                    system.answer(
                        "q(x) <- Researcher(x)", strategy="ucq", min_epoch=token
                    )
            reports = system.answer_many(
                ["q(x) <- Researcher(x)"] * 2,
                strategy="ucq",
                on_error="collect",
                min_epoch=1,
            )
            assert all(isinstance(r.error, ValueError) for r in reports)
            system.insert_facts([("Researcher", "Nadia")])
            report = system.answer(
                "q(x) <- Researcher(x)", strategy="ucq", min_epoch=1
            )
            assert report.epoch == 1 and ("Nadia",) in report.answers


class TestSystemDeadlines:
    """The query's own deadline ends a read that runs past it."""

    QUERY = "q(x) <- Researcher(x)"

    def test_answer_honours_query_timeout_seconds(self):
        tbox, abox = session_consistency_kb()
        with OBDASystem(
            tbox, abox, backend=_SlowBackend(), query_timeout_seconds=0.05
        ) as system:
            with pytest.raises(QueryTimeoutError):
                system.answer(self.QUERY, strategy="ucq")

    def test_caller_deadline_wins_over_query_timeout(self):
        tbox, abox = session_consistency_kb()
        with OBDASystem(
            tbox, abox, backend=_SlowBackend(), query_timeout_seconds=30.0
        ) as system:
            started = time.perf_counter()
            with deadline_scope(0.05), pytest.raises(QueryTimeoutError):
                system.answer(self.QUERY, strategy="ucq")
            assert time.perf_counter() - started < 1.0

    def test_future_token_rejected_at_once(self):
        tbox, abox = session_consistency_kb()
        with OBDASystem(tbox, abox) as system:
            system.insert_facts([("Researcher", "Nadia")])
            started = time.perf_counter()
            with pytest.raises(ValueError, match="never issued"):
                system.answer(
                    self.QUERY,
                    strategy="ucq",
                    min_epoch=system.epoch_token() + 1,
                )
            assert time.perf_counter() - started < 1.0
            # The token the write handed out is the current epoch.
            report = system.answer(
                self.QUERY, strategy="ucq", min_epoch=system.epoch_token()
            )
            assert ("Nadia",) in report.answers


class TestStress:
    def test_randomized_stress_with_tokens(self):
        """The session-consistency oracle at stress scale: more writes,
        more readers."""
        check_session_consistency(
            lambda tbox, abox: OBDASystem(tbox, abox),
            seed=7001,
            writes=16,
            readers=4,
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
    tbox, abox = session_consistency_kb()
    with OBDASystem(tbox, abox) as system:
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
        assert "repro_data_epoch" in text  # Prometheus exposition
        _status, epoch = _get(endpoint.url + "/epoch")
        assert epoch == {"epoch": 0}
        _status, health = _get(endpoint.url + "/healthz")
        assert health == {"ok": True}

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

    @pytest.mark.parametrize("timeout", ["5", -1, 0, True])
    def test_rejects_a_bad_timeout(self, endpoint, timeout):
        with pytest.raises(urllib.error.HTTPError) as bad_timeout:
            _post(
                endpoint.url + "/answer",
                {
                    "queries": ["q(x) <- Researcher(x)"] * 2,
                    "strategy": "ucq",
                    "timeout_seconds": timeout,
                },
            )
        assert bad_timeout.value.code == 400

    @pytest.mark.parametrize(
        "field, value",
        [
            ("strategy", ["gdl"]),
            ("strategy", "nope"),
            ("strategy", None),
            ("cost", {"a": 1}),
            ("cost", "nope"),
            ("cost", None),
        ],
    )
    def test_rejects_an_unknown_strategy_or_cost(self, endpoint, field, value):
        with pytest.raises(urllib.error.HTTPError) as bad_choice:
            _post(
                endpoint.url + "/answer",
                {"queries": ["q(x) <- Researcher(x)"], field: value},
            )
        assert bad_choice.value.code == 400

    def test_timeout_bounds_an_in_process_read(self):
        tbox, abox = session_consistency_kb()
        with OBDASystem(tbox, abox, backend=_SlowBackend()) as system:
            with ServingEndpoint(system) as served:
                _status, payload = _post(
                    served.url + "/answer",
                    {
                        "queries": ["q(x) <- Researcher(x)"],
                        "strategy": "ucq",
                        "timeout_seconds": 0.05,
                    },
                )
        (report,) = payload["reports"]
        assert report["error"]["type"] == "QueryTimeoutError"
        assert report["answers"] == []

    def test_future_token_is_a_per_query_error(self, endpoint):
        started = time.perf_counter()
        _status, payload = _post(
            endpoint.url + "/answer",
            {
                "queries": ["q(x) <- Researcher(x)"] * 2,
                "strategy": "ucq",
                "min_epoch": 1000,
            },
        )
        assert time.perf_counter() - started < 1.0
        assert payload["epoch_token"] == 0
        for report in payload["reports"]:
            assert report["error"]["type"] == "ValueError"
            assert "never issued" in report["error"]["message"]
            assert report["answers"] == []

    def test_works_without_replicas_too(self):
        tbox, abox = session_consistency_kb()
        with OBDASystem(tbox, abox, backend="sqlite") as system:
            with ServingEndpoint(system) as served:
                _status, health = _get(served.url + "/healthz")
                assert health == {"ok": True}
                _status, payload = _post(
                    served.url + "/answer",
                    {
                        "queries": ["q(x) <- Researcher(x)"],
                        "strategy": "ucq",
                    },
                )
                assert payload["reports"][0]["answers"]

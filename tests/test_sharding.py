"""Sharded-backend routing, pruning proof, and the churn property test.

The pruning tests assert *via telemetry* (``ShardedBackend.
last_execution`` / ``explain_text``) that a shard-key-bound statement
touches exactly one shard while an unbound one scatters to all — the
acceptance contract of the sharding subsystem. The property test churns
a random ABox through random inserts and deletes and demands the
sharded system equal the unsharded oracle at every epoch, for the
``gdl`` / ``sat`` / ``auto`` strategies at 1 and 4 concurrent callers.
"""

import random

import pytest

from repro.dllite.abox import ABox
from repro.obda.system import OBDASystem
from repro.storage.layouts import LayoutData, SimpleLayout, TableSpec
from repro.storage.sharded_backend import (
    ShardCostParameters,
    ShardedBackend,
)


def _data(rows=24):
    return LayoutData(
        tables=[
            TableSpec(
                name="c_a",
                columns=("s",),
                rows=[(i,) for i in range(rows)],
                indexes=(("s",),),
            ),
            TableSpec(
                name="r_p",
                columns=("s", "o"),
                rows=[(i, (i * 5) % rows) for i in range(rows)],
                indexes=(("s",), ("o",), ("s", "o")),
            ),
        ]
    )


class TestRouting:
    def test_bound_query_touches_exactly_one_shard(self):
        backend = ShardedBackend(4)
        backend.load(_data())
        try:
            rows = backend.execute("SELECT o FROM r_p WHERE s = 6")
            assert rows == [(6 * 5 % 24,)]
            stats = backend.last_execution
            assert stats.route == "pruned"
            assert stats.shards_touched == (6 % 4,)
            assert stats.shard_count == 4
            assert len(stats.per_shard) == 1
        finally:
            backend.close()

    def test_unbound_query_scatters_to_all_shards(self):
        backend = ShardedBackend(4)
        backend.load(_data())
        try:
            rows = backend.execute("SELECT DISTINCT s FROM c_a")
            assert len(rows) == 24
            stats = backend.last_execution
            assert stats.route == "scatter"
            assert stats.shards_touched == (0, 1, 2, 3)
            assert [entry["shard"] for entry in stats.per_shard] == [0, 1, 2, 3]
        finally:
            backend.close()

    def test_non_copartitioned_join_gathers(self):
        backend = ShardedBackend(4)
        backend.load(_data())
        try:
            sql = "SELECT a.s AS x FROM r_p a, c_a b WHERE a.o = b.s"
            rows = backend.execute(sql)
            assert len(rows) == 24
            assert backend.last_execution.route == "gather"
            # The gathered coordinator copies are cached until a write.
            backend.execute(sql)
            backend.insert_rows("r_p", [(100, 3)])
            assert len(backend.execute(sql)) == 25
        finally:
            backend.close()

    def test_explain_shows_the_route(self):
        backend = ShardedBackend(4)
        backend.load(_data())
        try:
            bound = backend.explain_text("SELECT o FROM r_p WHERE s = 6")
            assert "Shard route: pruned -> shards [2] of 4" in bound
            unbound = backend.explain_text("SELECT DISTINCT s FROM c_a")
            assert "Shard route: scatter" in unbound
            gathered = backend.explain_text(
                "SELECT a.s AS x FROM r_p a, c_a b WHERE a.o = b.s"
            )
            assert "gather" in gathered and "coordinator" in gathered
            # EXPLAIN plans from merged statistics; it must not pay the
            # O(data) coordinator gather an execution would.
            assert backend._gathered == {}
        finally:
            backend.close()

    def test_route_counters_accumulate(self):
        backend = ShardedBackend(2)
        backend.load(_data())
        try:
            backend.execute("SELECT o FROM r_p WHERE s = 6")
            backend.execute("SELECT DISTINCT s FROM c_a")
            backend.execute("SELECT a.s AS x FROM r_p a, c_a b WHERE a.o = b.s")
            telemetry = backend.shard_telemetry()
            assert telemetry["shards.executions"] == 3
            assert telemetry["shards.route.pruned"] == 1
            assert telemetry["shards.route.scatter"] == 1
            assert telemetry["shards.route.gather"] == 1
            assert telemetry["shards.count"] == 2
        finally:
            backend.close()

    def test_gather_route_collects_tables_behind_unsafe_sources(self):
        """Regression: an unsafe subquery/CTE must not truncate the
        gather route's table list — the tables listed *after* it in the
        FROM clause still need coordinator copies, or they silently
        evaluate as empty."""
        backend = ShardedBackend(2)
        backend.load(_data(rows=6))
        try:
            inner = "SELECT p.s AS a FROM r_p p, r_p q WHERE p.o = q.s"
            for sql in (
                f"SELECT x.a AS y, b.s AS z FROM ({inner}) x, c_a b "
                "WHERE x.a = b.s",
                f"WITH f AS ({inner}) SELECT f.a AS y, b.s AS z "
                "FROM f f, c_a b WHERE f.a = b.s",
            ):
                route = backend.plan_route(sql)
                assert route.kind == "gather"
                assert set(route.tables) == {"r_p", "c_a"}
                rows = backend.execute(sql)
                assert sorted(rows) == sorted(
                    (s, s) for s in range(6)
                ), sql
        finally:
            backend.close()

    def test_deep_equality_chains_route_correctly(self):
        """Join chains longer than the union-find's path-halving step
        must still collapse into one class (regression: find() once
        returned the grandparent, degrading 3+-link chains to gather)."""
        backend = ShardedBackend(4)
        backend.load(_data())
        try:
            chain = (
                "SELECT a.s AS x FROM r_p a, r_p b, r_p c, r_p d "
                "WHERE a.s = b.s AND b.s = c.s AND c.s = d.s"
            )
            assert backend.plan_route(chain).kind == "scatter"
            bound = backend.plan_route(chain + " AND d.s = 6")
            assert bound.kind == "pruned"
            assert bound.shards == (2,)
            rows = backend.execute(chain + " AND d.s = 6")
            assert rows == [(6,)]
        finally:
            backend.close()

    def test_scatter_fan_out_priced_above_pruned_probe(self):
        backend = ShardedBackend(
            4, cost_parameters=ShardCostParameters(scatter_overhead_per_shard=50.0)
        )
        backend.load(_data())
        try:
            pruned = backend.estimated_cost("SELECT o FROM r_p WHERE s = 6")
            scatter = backend.estimated_cost("SELECT s, o FROM r_p")
            gather = backend.estimated_cost(
                "SELECT a.s AS x FROM r_p a, c_a b WHERE a.o = b.s"
            )
            assert pruned < scatter
            assert gather > 0
        finally:
            backend.close()


class TestSystemPruning:
    def test_bound_sat_query_prunes_at_the_system_level(
        self, example1_tbox, example1_abox
    ):
        with OBDASystem(
            example1_tbox, example1_abox, backend="memory", shards=4
        ) as system:
            bound = system.answer(
                "q(x) <- supervisedBy(Damian, x)", strategy="sat"
            )
            assert bound.answers == {("Ioana",), ("Francois",)}
            stats = system.backend.last_execution
            assert stats.route == "pruned"
            assert len(stats.shards_touched) == 1
            unbound = system.answer(
                "q(x, y) <- supervisedBy(x, y)", strategy="sat"
            )
            assert unbound.answers
            assert system.backend.last_execution.route == "scatter"
            assert len(system.backend.last_execution.shards_touched) == 4

    def test_batch_telemetry_reports_routes(
        self, example1_tbox, example1_abox, answer_concurrently
    ):
        with OBDASystem(
            example1_tbox, example1_abox, backend="memory", shards=4
        ) as system:
            queries = [
                "q(x) <- supervisedBy(Damian, x)",
                "q(x, y) <- supervisedBy(x, y)",
            ] * 2
            before = system.backend.shard_telemetry()
            answer_concurrently(system, queries, 2, strategy="sat")
            after = system.backend.shard_telemetry()
            moved = {
                key: after[key] - before.get(key, 0)
                for key in (
                    "shards.executions",
                    "shards.route.pruned",
                    "shards.route.scatter",
                )
            }
            assert after["shards.count"] == 4
            assert moved["shards.executions"] == 4
            assert moved["shards.route.pruned"] >= 1
            assert moved["shards.route.scatter"] >= 1


TBOX_TEXT = """
role worksWith, supervisedBy
PhDStudent <= Researcher
exists worksWith <= Researcher
exists worksWith- <= Researcher
supervisedBy <= worksWith
exists supervisedBy <= PhDStudent
"""

CHURN_QUERIES = (
    "q(x) <- Researcher(x)",
    "q(x) <- PhDStudent(x), worksWith(y, x)",
    "q(x) <- supervisedBy(p3, x)",
    "q(x, y) <- worksWith(x, y)",
)


def _random_abox(rng):
    abox = ABox()
    people = [f"p{i}" for i in range(12)]
    for _ in range(14):
        abox.add_role("worksWith", rng.choice(people), rng.choice(people))
    for _ in range(8):
        abox.add_role("supervisedBy", rng.choice(people), rng.choice(people))
    for _ in range(6):
        abox.add_concept("PhDStudent", rng.choice(people))
    return abox


def _random_writes(rng):
    people = [f"p{i}" for i in range(12)] + [f"n{i}" for i in range(4)]
    inserts = []
    for _ in range(rng.randrange(0, 4)):
        if rng.random() < 0.5:
            inserts.append(("PhDStudent", rng.choice(people)))
        else:
            inserts.append(
                (
                    rng.choice(("worksWith", "supervisedBy")),
                    rng.choice(people),
                    rng.choice(people),
                )
            )
    deletes = list(inserts[: rng.randrange(0, len(inserts) + 1)])
    for _ in range(rng.randrange(0, 3)):
        deletes.append(
            ("worksWith", rng.choice(people), rng.choice(people))
        )
    return inserts, deletes


@pytest.mark.parametrize("strategy", ("gdl", "sat", "auto"))
@pytest.mark.parametrize("workers", (1, 4))
def test_sharded_equals_unsharded_oracle_under_churn(
    strategy, workers, answer_concurrently
):
    """Property: at every epoch of random write churn, the sharded
    system's answers equal the unsharded oracle's, per strategy and
    concurrent caller count."""
    from backend_conformance import clone_abox
    from repro.dllite.parser import parse_tbox

    rng = random.Random(420 + workers)
    tbox = parse_tbox(TBOX_TEXT)
    seed_abox = _random_abox(rng)

    with OBDASystem(
        tbox, clone_abox(seed_abox), backend="memory"
    ) as oracle, (
        OBDASystem(tbox, clone_abox(seed_abox), backend="memory", shards=3)
    ) as sharded:
        for epoch in range(6):
            expected = [
                report.answers
                for report in oracle.answer_many(
                    CHURN_QUERIES, strategy=strategy
                )
            ]
            observed = [
                report.answers
                for report in answer_concurrently(
                    sharded, CHURN_QUERIES, workers, strategy=strategy
                )
            ]
            assert observed == expected, (strategy, workers, epoch)
            assert sharded.data_epoch == oracle.data_epoch
            inserts, deletes = _random_writes(rng)
            assert oracle.insert_facts(inserts) == sharded.insert_facts(
                inserts
            )
            assert oracle.delete_facts(deletes) == sharded.delete_facts(
                deletes
            )


class TestSystemWiring:
    def test_env_knob_shards_the_memory_backend(
        self, example1_tbox, example1_abox, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SHARDS", "3")
        with OBDASystem(example1_tbox, example1_abox) as system:
            assert isinstance(system.backend, ShardedBackend)
            assert system.backend.shards == 3

    def test_env_value_one_keeps_the_plain_backend(
        self, example1_tbox, example1_abox, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SHARDS", "1")
        with OBDASystem(example1_tbox, example1_abox) as system:
            assert not isinstance(system.backend, ShardedBackend)

    def test_explicit_shards_override_env(
        self, example1_tbox, example1_abox, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SHARDS", "8")
        with OBDASystem(
            example1_tbox, example1_abox, shards=2
        ) as system:
            assert system.backend.shards == 2

    def test_shards_with_backend_object_rejected(
        self, example1_tbox, example1_abox
    ):
        from repro.storage.memory_backend import MemoryBackend

        with pytest.raises(ValueError):
            OBDASystem(
                example1_tbox,
                example1_abox,
                backend=MemoryBackend(),
                shards=2,
            )

    def test_sharded_sqlite_backend(self, example1_tbox, example1_abox):
        with OBDASystem(
            example1_tbox, example1_abox, backend="sqlite", shards=2
        ) as system:
            assert system.backend.shards == 2
            report = system.answer("q(x) <- Researcher(x)", strategy="gdl")
            assert ("Ioana",) in report.answers

    def test_statement_length_limit_enforced_before_routing(self):
        from repro.engine.errors import StatementTooLongError

        backend = ShardedBackend(2, max_statement_length=40)
        backend.load(_data())
        try:
            with pytest.raises(StatementTooLongError):
                backend.execute(
                    "SELECT DISTINCT s FROM c_a WHERE s = 1 AND s = 1 AND s = 1"
                )
        finally:
            backend.close()


class TestMergedStatistics:
    def test_coordinator_sees_whole_table_statistics(self):
        backend = ShardedBackend(4)
        backend.load(_data(rows=20))
        try:
            stats = backend.table_statistics("r_p")
            assert stats.cardinality == 20
            assert stats.distinct("s") == 20
            backend.insert_rows("r_p", [(100, 1), (101, 1)])
            assert backend.table_statistics("r_p").cardinality == 22
            backend.delete_rows("r_p", [(100, 1)])
            assert backend.table_statistics("r_p").cardinality == 21
        finally:
            backend.close()

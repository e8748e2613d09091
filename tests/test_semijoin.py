"""Semi-join planning against its oracle: the hash-join-only ordering in
``legacy_planner.py`` and SQLite.

Random statements over small random tables must return the same rows
from :class:`Planner`, :class:`LegacyPlanner` and SQLite at every batch
size. The generated shapes cover key-only leaves behind an index,
two-column keys in reversed index order, filtered leaves (the key-set
path), CTE and derived ``UNION ALL`` leaves (the RDF layout's sources),
``<>`` edges, projected leaf columns, and bag-semantics statements
(``UNION ALL`` and non-``DISTINCT`` selects), which must plan no
semi-join at all.
"""

from __future__ import annotations

import sqlite3

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from legacy_planner import LegacyPlanner

from repro.engine import MiniRDBMS
from repro.engine.executor import execute_plan
from repro.engine.explain import explain_plan
from repro.engine.operators import CostParameters
from repro.engine.planner import Planner
from repro.engine.sqlparser import parse_sql

BATCH_SIZES = (1, 2, 1024)

#: r0 carries a two-column (s, o) index besides the single-column ones
#: ``analyze`` builds; w has three columns, so it gets no index at all.
TABLES = {"r0": ("s", "o"), "r1": ("s", "o"), "c0": ("s",), "w": ("a", "b", "c")}
#: FROM sources: the tables, one CTE and one derived UNION ALL subquery.
SOURCES = {
    **TABLES,
    "k": ("s", "o"),
    "(SELECT s, o FROM r0 UNION ALL SELECT o, s FROM r1)": ("s", "o"),
}
CTE = "WITH k AS (SELECT o AS s, s AS o FROM r0 UNION SELECT s, o FROM r1 WHERE s <> 1) "

VALUES = st.integers(0, 4)


@st.composite
def table_rows(draw):
    return {
        name: draw(
            st.lists(st.tuples(*[VALUES] * len(columns)), min_size=2, max_size=12)
        )
        for name, columns in TABLES.items()
    }


@st.composite
def cores(draw, width: int):
    """One SELECT block: 2-4 sources joined in a tree, with extra
    equality (two-column keys), ``<>`` and constant edges now and then."""
    count = draw(st.integers(2, 4))
    sources = [draw(st.sampled_from(sorted(SOURCES))) for _ in range(count)]
    conditions = []
    for i in range(1, count):
        j = draw(st.integers(0, i - 1))
        for _ in range(draw(st.integers(1, 2))):
            mine = draw(st.sampled_from(SOURCES[sources[i]]))
            theirs = draw(st.sampled_from(SOURCES[sources[j]]))
            conditions.append(f"a{i}.{mine} = a{j}.{theirs}")
        if draw(st.integers(0, 5)) == 0:
            mine = draw(st.sampled_from(SOURCES[sources[i]]))
            theirs = draw(st.sampled_from(SOURCES[sources[j]]))
            conditions.append(f"a{i}.{mine} <> a{j}.{theirs}")
        if draw(st.integers(0, 4)) == 0:
            mine = draw(st.sampled_from(SOURCES[sources[i]]))
            conditions.append(f"a{i}.{mine} = {draw(VALUES)}")
    projections = [f"a0.{SOURCES[sources[0]][0]}"]
    for _ in range(width - 1):
        i = draw(st.integers(0, count - 1))
        projections.append(f"a{i}.{draw(st.sampled_from(SOURCES[sources[i]]))}")
    distinct = "DISTINCT " if draw(st.booleans()) else ""
    from_list = ", ".join(f"{name} a{i}" for i, name in enumerate(sources))
    return (
        f"SELECT {distinct}{', '.join(projections)} FROM {from_list} "
        f"WHERE {' AND '.join(conditions)}",
        bool(distinct),
    )


@st.composite
def statements(draw):
    """``(sql, set_semantic)``: one block, or a UNION [ALL] of two."""
    width = draw(st.integers(1, 2))
    first, first_distinct = draw(cores(width))
    if draw(st.booleans()):
        return CTE + first, first_distinct
    second, second_distinct = draw(cores(width))
    union_all = draw(st.booleans())
    set_semantic = not union_all or first_distinct or second_distinct
    joiner = " UNION ALL " if union_all else " UNION "
    return CTE + first + joiner + second, set_semantic


def _engine(rows, batch_size: int) -> MiniRDBMS:
    db = MiniRDBMS(cost_parameters=CostParameters(batch_size=batch_size))
    for name, columns in TABLES.items():
        db.create_table(name, columns).insert_many(rows[name])
    db.create_index("r0", ["s", "o"])
    db.analyze()
    return db


def _sqlite(rows, sql: str):
    connection = sqlite3.connect(":memory:")
    try:
        for name, columns in TABLES.items():
            connection.execute(f"CREATE TABLE {name} ({', '.join(columns)})")
            marks = ", ".join("?" * len(columns))
            connection.executemany(
                f"INSERT INTO {name} VALUES ({marks})", set(rows[name])
            )
        return connection.execute(sql).fetchall()
    finally:
        connection.close()


def _run(planner_class, db: MiniRDBMS, sql: str):
    plan = planner_class(db.catalog, db.cost_parameters).plan(parse_sql(sql))
    return sorted(execute_plan(plan)), explain_plan(plan).text


class TestAgainstLegacyAndSQLite:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(table_rows(), statements())
    def test_planners_and_sqlite_agree(self, rows, statement):
        sql, set_semantic = statement
        expected = _sqlite(rows, sql)
        for batch_size in BATCH_SIZES:
            db = _engine(rows, batch_size)
            new, text = _run(Planner, db, sql)
            old, _ = _run(LegacyPlanner, db, sql)
            assert set(new) == set(old) == set(expected), (batch_size, sql)
            if not set_semantic:
                # Bag semantics: the rows come out with their multiplicity.
                assert new == old == sorted(expected), (batch_size, sql)
                assert "SemiJoin" not in text, sql


ROWS = {
    "r0": [(0, 1), (1, 1), (2, 3), (3, 3), (4, 0), (1, 2)],
    "r1": [(1, 0), (1, 2), (3, 4), (3, 1), (0, 0), (3, 2)],
    "c0": [(1,), (3,)],
    "w": [(1, 1, 2), (3, 3, 3), (0, 4, 1)],
}


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
class TestPlanShapes:
    """Each shape's plan, and its rows against the legacy twin and SQLite."""

    def _check(self, batch_size, sql):
        db = _engine(ROWS, batch_size)
        new, text = _run(Planner, db, sql)
        old, _ = _run(LegacyPlanner, db, sql)
        assert set(new) == set(old) == set(_sqlite(ROWS, sql))
        return text

    def test_key_only_leaf_probes_its_index(self, batch_size):
        text = self._check(
            batch_size,
            "SELECT DISTINCT a0.s FROM r1 a0, r0 a1 WHERE a0.o = a1.o",
        )
        assert "SemiJoin [a0.o = a1.o] (index probe into r0)" in text
        assert "HashJoin" not in text

    def test_two_column_key_in_reversed_index_order(self, batch_size):
        text = self._check(
            batch_size,
            "SELECT DISTINCT a0.s FROM r1 a0, r0 a1 "
            "WHERE a0.s = a1.o AND a0.o = a1.s",
        )
        assert "SemiJoin [a0.s = a1.o, a0.o = a1.s] (index probe into r0)" in text

    def test_filtered_leaf_builds_a_key_set(self, batch_size):
        text = self._check(
            batch_size,
            "SELECT DISTINCT a0.s FROM r0 a0, r1 a1 WHERE a0.o = a1.s AND a1.o = 2",
        )
        assert "SemiJoin [a0.o = a1.s] (key set)" in text

    def test_cte_and_derived_leaves_build_key_sets(self, batch_size):
        text = self._check(
            batch_size,
            CTE + "SELECT a0.s FROM r0 a0, k a1, "
            "(SELECT s, o FROM r0 UNION ALL SELECT o, s FROM r1) a2 "
            "WHERE a0.o = a1.s AND a0.s = a2.o "
            "UNION SELECT s FROM c0",
        )
        assert "SemiJoin [a0.o = a1.s] (key set)" in text
        assert "SemiJoin [a0.s = a2.o] (key set)" in text
        assert "HashJoin" not in text

    def test_projected_key_column_reads_the_composite(self, batch_size):
        text = self._check(
            batch_size,
            "SELECT DISTINCT a1.s, a0.o FROM r0 a0, r1 a1 WHERE a0.s = a1.s",
        )
        assert "SemiJoin" in text and "HashJoin" not in text

    @pytest.mark.parametrize(
        "sql",
        [
            # A <> edge is a reference beyond the key.
            "SELECT DISTINCT a0.s FROM r1 a0, r0 a1 "
            "WHERE a0.o = a1.o AND a0.s <> a1.s",
            # So is a projected column that is not a join key.
            "SELECT DISTINCT a0.s, a1.s FROM r1 a0, r0 a1 WHERE a0.o = a1.o",
            # Bag semantics: a semi-join would drop the join's duplicates.
            "SELECT a0.s FROM r1 a0, r0 a1 WHERE a0.o = a1.o",
            "SELECT a0.s FROM r1 a0, r0 a1 WHERE a0.o = a1.o "
            "UNION ALL SELECT s FROM c0",
        ],
    )
    def test_references_beyond_a_key_keep_the_hash_join(self, batch_size, sql):
        text = self._check(batch_size, sql)
        assert "HashJoin" in text and "SemiJoin" not in text

"""MiniRDBMS tests: parser, planner, executor, explain, limits."""

import pytest

from repro.engine import (
    MiniRDBMS,
    SQLSyntaxError,
    StatementTooLongError,
    UnknownTableError,
)
from test_cost_optimizer import LEDGER_QUERIES

from repro.bench.datagen import stream_facts
from repro.bench.lubm import lubm_exists_tbox
from repro.dllite.abox import ABox
from repro.engine.errors import UnknownColumnError
from repro.engine.explain import explain_plan
from repro.engine.operators import (
    ConstFilter,
    Distinct,
    Filter,
    HashJoin,
    IndexScan,
    Materialize,
    Project,
    SemiJoin,
    SeqScan,
    Union,
)
from repro.engine.planner import Planner
from repro.engine.sqlparser import (
    ColumnRef,
    Literal,
    parse_sql,
    tokenize,
)
from repro.obda.system import OBDASystem


@pytest.fixture
def db() -> MiniRDBMS:
    db = MiniRDBMS()
    student = db.create_table("c_phdstudent", ["s"])
    student.insert_many([(1,), (2,)])
    works = db.create_table("r_workswith", ["s", "o"])
    works.insert_many([(1, 3), (2, 3), (3, 4), (4, 1)])
    supervised = db.create_table("r_supervisedby", ["s", "o"])
    supervised.insert_many([(1, 3), (2, 4)])
    db.create_index("r_workswith", ["s"])
    db.create_index("r_workswith", ["o"])
    db.analyze()
    return db


class TestTokenizer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("SeLeCt DISTINCT x FrOm t")
        assert [t.kind for t in tokens] == ["keyword", "keyword", "ident", "keyword", "ident"]

    def test_string_escaping(self):
        tokens = tokenize("SELECT 'it''s' FROM t")
        assert tokens[1].value == "'it''s'"

    def test_unexpected_character(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT x FROM t WHERE x ; 1")


class TestParser:
    def test_simple_select(self):
        stmt = parse_sql("SELECT s FROM c_phdstudent")
        assert not stmt.ctes
        core = stmt.body.selects[0]
        assert core.projections == ((ColumnRef(None, "s"), None),)

    def test_qualified_and_aliased(self):
        stmt = parse_sql("SELECT t.s AS x FROM c_phdstudent t")
        core = stmt.body.selects[0]
        assert core.projections[0] == (ColumnRef("t", "s"), "x")
        assert core.sources[0].alias == "t"

    def test_where_conjunction(self):
        stmt = parse_sql(
            "SELECT a.s FROM r_workswith a, r_supervisedby b "
            "WHERE a.o = b.s AND a.s = 1"
        )
        core = stmt.body.selects[0]
        assert len(core.conditions) == 2

    def test_join_on(self):
        stmt = parse_sql(
            "SELECT a.s FROM r_workswith a JOIN r_supervisedby b ON a.o = b.s"
        )
        core = stmt.body.selects[0]
        assert len(core.sources) == 2
        assert len(core.conditions) == 1

    def test_union(self):
        stmt = parse_sql("SELECT s FROM t1 UNION SELECT s FROM t2")
        assert len(stmt.body.selects) == 2
        assert not stmt.body.all

    def test_union_all(self):
        stmt = parse_sql("SELECT s FROM t1 UNION ALL SELECT s FROM t2")
        assert stmt.body.all

    def test_with_ctes(self):
        stmt = parse_sql(
            "WITH f1 AS (SELECT s FROM t1), f2 AS (SELECT s FROM t2) "
            "SELECT DISTINCT f1.s FROM f1, f2 WHERE f1.s = f2.s"
        )
        assert [name for name, _ in stmt.ctes] == ["f1", "f2"]
        assert stmt.body.selects[0].distinct

    def test_subquery_source(self):
        stmt = parse_sql("SELECT d.s FROM (SELECT s FROM t1) d")
        core = stmt.body.selects[0]
        assert core.sources[0].alias == "d"

    def test_subquery_requires_alias(self):
        with pytest.raises(SQLSyntaxError):
            parse_sql("SELECT s FROM (SELECT s FROM t1)")

    def test_literals(self):
        stmt = parse_sql("SELECT 1, 'x' FROM t")
        core = stmt.body.selects[0]
        assert core.projections[0][0] == Literal(1)
        assert core.projections[1][0] == Literal("x")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_sql("SELECT s FROM t WHERE s = 1 2")

    def test_bare_table_alias(self):
        # "t extra" parses as table t aliased extra (implicit AS).
        stmt = parse_sql("SELECT s FROM t extra")
        assert stmt.body.selects[0].sources[0].alias == "extra"

    def test_mixed_union_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_sql(
                "SELECT s FROM a UNION SELECT s FROM b UNION ALL SELECT s FROM c"
            )


class TestExecution:
    def test_scan(self, db):
        rows = db.execute("SELECT s FROM c_phdstudent")
        assert sorted(rows) == [(1,), (2,)]

    def test_constant_filter(self, db):
        rows = db.execute("SELECT o FROM r_workswith WHERE s = 1")
        assert rows == [(3,)]

    def test_join(self, db):
        rows = db.execute(
            "SELECT w.s FROM r_workswith w, r_supervisedby b WHERE w.s = b.s"
        )
        assert sorted(rows) == [(1,), (2,)]

    def test_three_way_join(self, db):
        rows = db.execute(
            "SELECT p.s FROM c_phdstudent p, r_workswith w, r_supervisedby b "
            "WHERE p.s = w.s AND w.o = b.o"
        )
        # Students 1 and 2 both work with 3, and (1, 3) is a supervisedBy
        # fact, so both join chains close.
        assert sorted(set(rows)) == [(1,), (2,)]

    def test_self_join_with_aliases(self, db):
        rows = db.execute(
            "SELECT a.s, b.o FROM r_workswith a, r_workswith b WHERE a.o = b.s"
        )
        assert (1, 4) in rows and (3, 1) in rows

    def test_same_source_equality(self, db):
        rows = db.execute("SELECT s FROM r_workswith WHERE s = o")
        assert rows == []

    def test_distinct(self, db):
        rows = db.execute("SELECT DISTINCT w.o FROM r_workswith w")
        assert sorted(rows) == [(1,), (3,), (4,)]

    def test_union_dedups(self, db):
        rows = db.execute(
            "SELECT s FROM c_phdstudent UNION SELECT s FROM r_supervisedby"
        )
        assert sorted(rows) == [(1,), (2,)]

    def test_union_all_keeps_duplicates(self, db):
        rows = db.execute(
            "SELECT s FROM c_phdstudent UNION ALL SELECT s FROM r_supervisedby"
        )
        assert sorted(rows) == [(1,), (1,), (2,), (2,)]

    def test_with_cte_join(self, db):
        rows = db.execute(
            "WITH f1 AS (SELECT s FROM c_phdstudent), "
            "f2 AS (SELECT DISTINCT s FROM r_workswith) "
            "SELECT DISTINCT f1.s FROM f1 f1, f2 f2 WHERE f1.s = f2.s"
        )
        assert sorted(rows) == [(1,), (2,)]

    def test_cte_without_alias(self, db):
        rows = db.execute(
            "WITH f1 AS (SELECT s FROM c_phdstudent) SELECT s FROM f1"
        )
        assert sorted(rows) == [(1,), (2,)]

    def test_subquery_in_from(self, db):
        rows = db.execute(
            "SELECT d.o FROM (SELECT o FROM r_workswith WHERE s = 3) d"
        )
        assert rows == [(4,)]

    def test_literal_projection(self, db):
        rows = db.execute("SELECT 7 AS c, s FROM c_phdstudent")
        assert sorted(rows) == [(7, 1), (7, 2)]

    def test_string_values(self):
        db = MiniRDBMS()
        t = db.create_table("t", ["name"])
        t.insert_many([("alice",), ("bob",)])
        rows = db.execute("SELECT name FROM t WHERE name = 'alice'")
        assert rows == [("alice",)]

    def test_cross_join_fallback(self, db):
        rows = db.execute("SELECT p.s, b.s FROM c_phdstudent p, r_supervisedby b")
        assert len(rows) == 4

    def test_inequality_predicate(self, db):
        rows = db.execute("SELECT s FROM c_phdstudent WHERE s <> 1")
        assert rows == [(2,)]

    def test_unknown_table(self, db):
        with pytest.raises(UnknownTableError):
            db.execute("SELECT s FROM missing")

    def test_unknown_column(self, db):
        with pytest.raises(UnknownColumnError):
            db.execute("SELECT nope FROM c_phdstudent")

    def test_ambiguous_column(self, db):
        with pytest.raises(UnknownColumnError):
            db.execute("SELECT s FROM r_workswith a, r_supervisedby b")

    def test_duplicate_alias_rejected(self, db):
        from repro.engine.errors import PlanningError

        with pytest.raises(PlanningError):
            db.execute("SELECT a.s FROM r_workswith a, r_supervisedby a")


class TestExplain:
    def test_explain_returns_cost_without_executing(self, db):
        result = db.explain(
            "SELECT w.s FROM r_workswith w, r_supervisedby b WHERE w.s = b.s"
        )
        assert result.total_cost > 0
        assert "HashJoin" in result.text

    def test_filtered_scan_cheaper_than_full(self, db):
        full = db.estimated_cost("SELECT s FROM r_workswith")
        filtered = db.estimated_cost("SELECT s FROM r_workswith WHERE s = 1")
        assert filtered < full

    def test_index_probe_used(self, db):
        result = db.explain("SELECT o FROM r_workswith WHERE s = 1")
        assert "IndexScan" in result.text

    def test_union_cost_accumulates(self, db):
        single = db.estimated_cost("SELECT s FROM r_workswith")
        union = db.estimated_cost(
            "SELECT s FROM r_workswith UNION SELECT s FROM r_workswith"
        )
        assert union > single

    def test_cte_cost_counted_once_in_total(self, db):
        result = db.explain(
            "WITH f1 AS (SELECT s FROM r_workswith) SELECT s FROM f1"
        )
        assert "Materialize f1" in result.text
        assert result.total_cost > 0

    def test_key_only_input_renders_as_semi_join(self, db):
        indexed = db.explain(
            "SELECT DISTINCT a0.s FROM r_supervisedby a0, r_workswith a1"
            " WHERE a0.o = a1.o"
        )
        assert (
            "SemiJoin [a0.o = a1.o] (index probe into r_workswith)" in indexed.text
        )
        filtered = db.explain(
            "SELECT DISTINCT a0.s FROM r_workswith a0, r_supervisedby a1"
            " WHERE a0.o = a1.o AND a1.s = 2"
        )
        assert "SemiJoin [a0.o = a1.o] (key set)" in filtered.text

    def test_ledger_plans_join_no_input_for_its_key_alone(self):
        """Under set semantics no hash join of a chosen ledger plan has an
        input that gives nothing above it but copies of the other side's
        rows: such an input is a semi-join."""
        abox = ABox()
        for fact in stream_facts(1_000, 7):
            if fact[0] == "c":
                abox.add_concept(fact[1], fact[2])
            else:
                abox.add_role(fact[1], fact[2], fact[3])
        # shards=0 pins the plain engine even under REPRO_SHARDS.
        system = OBDASystem(lubm_exists_tbox(), abox, backend="memory", shards=0)
        engine = system.backend.db
        offenders = []
        semi_joins = 0
        for name, query in LEDGER_QUERIES.items():
            sql = system.answer(query, strategy="gdl").choice.sql
            plan = Planner(engine.catalog, engine.cost_parameters).plan(
                parse_sql(sql)
            )
            for _name, materialize in plan.cte_plans:
                _multiplied_inputs(materialize, set(), False, offenders)
            _multiplied_inputs(plan.body, set(), False, offenders)
            semi_joins += explain_plan(plan).text.count("SemiJoin")
        system.close()
        assert offenders == []
        assert semi_joins > 0


def _multiplied_inputs(op, needed, set_semantic, offenders):
    """Collect hash joins, under set semantics, with an input none of whose
    columns is read above the join (*needed*: the labels read above)."""
    if isinstance(op, (Distinct, Materialize)) or (
        isinstance(op, Union) and not op.all_rows
    ):
        set_semantic = set_semantic or not isinstance(op, Materialize)
        for child in op.children():
            _multiplied_inputs(child, set(child.columns), set_semantic, offenders)
        return
    if isinstance(op, Union):
        for child in op.children():
            _multiplied_inputs(child, set(child.columns), set_semantic, offenders)
        return
    if isinstance(op, Project):
        needed = {
            op.child.columns[position]
            for position, _value, label in op.items
            if position is not None and label in needed
        }
    elif isinstance(op, Filter):
        needed = needed | {op.columns[i] for l, r, _op in op.pairs for i in (l, r)}
    elif isinstance(op, ConstFilter):
        needed = needed | {op.columns[p] for p, _value, _op in op.tests}
    elif isinstance(op, (HashJoin, SemiJoin)):
        left_keys = {op.left.columns[l] for l, _r in op.key_pairs}
        right_keys = {op.right.columns[r] for _l, r in op.key_pairs}
        if isinstance(op, HashJoin) and set_semantic:
            for side, keys in ((op.left, left_keys), (op.right, right_keys)):
                # A base table whose every column is a key holds distinct
                # keys: joining it multiplies nothing.
                distinct = isinstance(side, (SeqScan, IndexScan))
                if not needed & set(side.columns) and not (
                    distinct and set(side.columns) <= keys
                ):
                    offenders.append(op.label())
        _multiplied_inputs(op.left, needed | left_keys, set_semantic, offenders)
        right_needed = right_keys if isinstance(op, SemiJoin) else needed
        _multiplied_inputs(op.right, right_needed | right_keys, set_semantic, offenders)
        return
    for child in op.children():
        _multiplied_inputs(child, needed, set_semantic, offenders)


class TestStatementLimit:
    def test_oversized_statement_rejected(self):
        db = MiniRDBMS(max_statement_length=100)
        sql = "SELECT s FROM t WHERE " + " AND ".join(
            f"s = {i}" for i in range(50)
        )
        with pytest.raises(StatementTooLongError) as excinfo:
            db.execute(sql)
        assert "too long or too complex" in str(excinfo.value)

    def test_explain_also_enforces_limit(self):
        db = MiniRDBMS(max_statement_length=10)
        with pytest.raises(StatementTooLongError):
            db.explain("SELECT s FROM some_table")

    def test_default_limit_is_db2s(self):
        from repro.engine.database import DB2_STATEMENT_LIMIT

        assert MiniRDBMS().max_statement_length == DB2_STATEMENT_LIMIT == 2_000_000


class TestCatalog:
    def test_set_semantics_on_insert(self):
        db = MiniRDBMS()
        t = db.create_table("t", ["a"])
        t.insert_many([(1,), (1,), (2,)])
        assert len(t) == 2

    def test_statistics(self, db):
        stats = db.catalog.statistics("r_workswith")
        assert stats.cardinality == 4
        assert stats.distinct("s") == 4
        assert stats.distinct("o") == 3

    def test_create_table_replaces(self, db):
        db.create_table("c_phdstudent", ["s"])
        assert len(db.catalog.table("c_phdstudent")) == 0

    def test_arity_mismatch_on_insert(self, db):
        with pytest.raises(ValueError):
            db.insert_many("c_phdstudent", [(1, 2)])

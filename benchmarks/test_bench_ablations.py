"""E9 — ablations of the design choices DESIGN.md calls out.

(a) UCQ minimization on/off — §2.3 argues minimization matters but is not
    sufficient; measured as translated-SQL size and evaluation time.
(b) Generalized covers on/off in GDL — §6.3 reports GDL picks a
    generalized cover always under the external model; disabling enlarge
    moves must never *improve* the chosen cover's estimated cost.
(c) Cost estimator: ext vs RDBMS — the two modes of Figures 2/3; both
    must produce correct (identical-answer) reformulations.
(d) JUCQ vs JUSCQ for the root cover — the [33]-style factorized dialect.
(e) Semi-joins in the in-repo engine's planner vs the hash-join-only
    ordering kept in ``tests/legacy_planner.py`` — gated on the rows the
    join operators emit, a deterministic count.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

from repro.bench.harness import ExperimentResult, evaluation_experiment
from repro.cost.estimators import ExternalCoverCost
from repro.cost.model import ExternalCostModel
from repro.cost.statistics import DataStatistics
from repro.engine.executor import _walk_operators, execute_plan, execute_plan_analyzed
from repro.engine.operators import CrossJoin, HashJoin, SemiJoin
from repro.engine.planner import Planner
from repro.engine.sqlparser import parse_sql
from repro.obda.system import OBDASystem
from repro.optimizer.gdl import gdl_search

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from legacy_perfectref import legacy_reformulate_to_ucq  # noqa: E402
from legacy_planner import LegacyPlanner  # noqa: E402

ABLATION_QUERIES = ("Q2", "Q9", "Q8", "Q12")


def test_ablation_minimization(benchmark, tbox, abox_15m, queries):
    """(a) minimization shrinks the SQL without changing answers.

    Also reproduces the paper's headline failure mode ("picking the wrong
    reformulation may cause the RDBMS simply to fail evaluating it"): the
    *unminimized* UCQ the classical PerfectRef fixpoint builds for Q3 has
    over 500 disjuncts, exceeding SQLite's compound-SELECT term limit — the
    engine refuses the statement outright, while the minimized equivalent
    runs fine. The rewriter in ``src/`` drops the atoms the TBox already
    implies before its fixpoint, so its raw Q3 stays under the limit and
    runs too, with the same answers.
    """
    system = OBDASystem(tbox, abox_15m, backend="sqlite")

    # The engine-failure reproduction (Q3: 505 classical raw disjuncts >
    # SQLite's 500-term compound SELECT limit).
    import sqlite3

    classical_q3 = legacy_reformulate_to_ucq(queries["Q3"], tbox, minimize=False)
    assert len(classical_q3) > 500
    with pytest.raises(sqlite3.OperationalError, match="too many terms"):
        system.backend.execute(system.translator.translate(classical_q3))
    minimized_q3 = system.reformulate(queries["Q3"], strategy="ucq", minimize=True)
    q3_answers = system.execute_choice(queries["Q3"], minimized_q3)
    assert q3_answers
    raw_q3 = system.reformulate(queries["Q3"], strategy="ucq", minimize=False)
    assert len(raw_q3.reformulation) <= 500
    assert system.execute_choice(queries["Q3"], raw_q3) == q3_answers

    def run():
        result = ExperimentResult("Ablation: UCQ minimization on/off")
        for name in ABLATION_QUERIES:
            query = queries[name]
            raw = system.reformulate(query, strategy="ucq", minimize=False)
            minimized = system.reformulate(query, strategy="ucq", minimize=True)
            classical_sql = system.translator.translate(
                legacy_reformulate_to_ucq(query, tbox, minimize=False)
            )
            raw_answers = system.execute_choice(query, raw)
            min_answers = system.execute_choice(query, minimized)
            assert raw_answers == min_answers, name
            result.rows.append(
                {
                    "query": name,
                    "classical_raw_sql_chars": len(classical_sql),
                    "raw_sql_chars": len(raw.sql),
                    "minimized_sql_chars": len(minimized.sql),
                    "classical_shrink_factor": round(
                        len(classical_sql) / len(minimized.sql), 1
                    ),
                    "shrink_factor": round(len(raw.sql) / len(minimized.sql), 1),
                }
            )
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(result.table())
    assert all(row["shrink_factor"] >= 1.0 for row in result.rows)
    # §2.3's claim is about the published algorithm's output.
    assert any(row["classical_shrink_factor"] >= 3.0 for row in result.rows)


def test_ablation_generalized_covers(benchmark, tbox, abox_15m, queries):
    """(b) the Gq space never hurts and usually helps the chosen cost."""
    statistics = DataStatistics.from_abox(abox_15m)
    model = ExternalCostModel(statistics)

    def run():
        result = ExperimentResult("Ablation: generalized covers on/off in GDL")
        for name, query in queries.items():
            with_gq = gdl_search(query, tbox, ExternalCoverCost(tbox, model))
            without_gq = gdl_search(
                query,
                tbox,
                ExternalCoverCost(tbox, model),
                enable_generalized=False,
            )
            result.rows.append(
                {
                    "query": name,
                    "cost_with_gq": round(with_gq.cost, 1),
                    "cost_without_gq": round(without_gq.cost, 1),
                    "picked_generalized": with_gq.picked_generalized(),
                }
            )
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(result.table())
    for row in result.rows:
        assert row["cost_with_gq"] <= row["cost_without_gq"] * 1.001, row
    picked = sum(1 for row in result.rows if row["picked_generalized"])
    # §6.3: the paper reports generalized covers chosen "always" under its
    # external model and "about half of the time" under the RDBMS one.
    # Our workload/model lands in the latter regime (3 of the 13 queries
    # have single-fragment root covers and are structurally plain; on
    # several others the union move is genuinely cheaper) — documented as
    # a deviation in EXPERIMENTS.md. Shape criterion: a meaningful share
    # of queries must pick a generalized cover.
    assert picked >= 4, f"GDL picked generalized covers on only {picked}/13"
    benchmark.extra_info["picked_generalized"] = picked


def test_ablation_cost_estimators(benchmark, tbox, abox_15m, queries):
    """(c) ext vs RDBMS estimators both yield correct reformulations."""
    system = OBDASystem(tbox, abox_15m, backend="memory")

    def run():
        result = ExperimentResult("Ablation: ext vs RDBMS cost estimation")
        for name in ABLATION_QUERIES:
            query = queries[name]
            # Drop the shared fragment cache between the two modes: this
            # ablation compares the *cold* optimization cost of each
            # estimator, so the rdbms run must not inherit the ext run's
            # reformulated fragments.
            system.reformulation_cache.clear()
            ext = system.answer(query, strategy="gdl", cost="ext")
            system.reformulation_cache.clear()
            rdbms = system.answer(query, strategy="gdl", cost="rdbms")
            assert ext.answers == rdbms.answers, name
            result.rows.append(
                {
                    "query": name,
                    "ext_eval_ms": round(ext.execution_seconds * 1000, 2),
                    "rdbms_eval_ms": round(rdbms.execution_seconds * 1000, 2),
                    "ext_opt_ms": round(ext.choice.reformulation_seconds * 1000, 1),
                    "rdbms_opt_ms": round(
                        rdbms.choice.reformulation_seconds * 1000, 1
                    ),
                }
            )
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(result.table())
    # The paper: RDBMS estimates cost more to obtain (JDBC round trips /
    # SQL planning); here too the rdbms path must not be cheaper to run.
    total_ext = sum(row["ext_opt_ms"] for row in result.rows)
    total_rdbms = sum(row["rdbms_opt_ms"] for row in result.rows)
    assert total_rdbms >= total_ext * 0.5


def test_ablation_juscq(benchmark, tbox, abox_15m, queries):
    """(d) JUSCQ (factorized) vs JUCQ reformulations of the root cover."""
    system = OBDASystem(tbox, abox_15m, backend="memory")

    def run():
        result = ExperimentResult("Ablation: JUCQ vs JUSCQ (root cover)")
        for name in ABLATION_QUERIES:
            query = queries[name]
            jucq = system.answer(query, strategy="croot", use_uscq=False)
            juscq = system.answer(query, strategy="croot", use_uscq=True)
            assert jucq.answers == juscq.answers, name
            result.rows.append(
                {
                    "query": name,
                    "jucq_sql_chars": len(jucq.choice.sql),
                    "juscq_sql_chars": len(juscq.choice.sql),
                    "jucq_eval_ms": round(jucq.execution_seconds * 1000, 2),
                    "juscq_eval_ms": round(juscq.execution_seconds * 1000, 2),
                }
            )
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(result.table())
    # Factorization only pays off when unions share structure; at minimum
    # it must preserve answers (asserted above) and produce valid SQL.
    assert all(row["juscq_sql_chars"] > 0 for row in result.rows)


SEMIJOIN_QUERIES = ("Q4", "Q8", "Q10", "Q12")


def _join_rows_and_ms(planner_class, engine, sql):
    """Answers, rows out of every join operator (the counts EXPLAIN
    ANALYZE shows) and the best of three plain executions in ms."""
    statement = parse_sql(sql)
    plan = planner_class(engine.catalog, engine.cost_parameters).plan(statement)
    rows, measurements = execute_plan_analyzed(plan)
    seen: set = set()
    join_rows = 0
    for root in [m for _name, m in plan.cte_plans] + [plan.body]:
        for op in _walk_operators(root, seen):
            if isinstance(op, (HashJoin, SemiJoin, CrossJoin)):
                join_rows += measurements[id(op)]["rows"]
    timings = []
    for _ in range(3):
        plan = planner_class(engine.catalog, engine.cost_parameters).plan(statement)
        started = time.perf_counter()
        execute_plan(plan)
        timings.append((time.perf_counter() - started) * 1000)
    return set(rows), join_rows, min(timings)


def test_ablation_semijoin(benchmark, tbox, abox_15m, queries):
    """(e) semi-joins never make a join emit more rows than the legacy
    hash-join-only ordering, and strictly fewer on Q8 and Q12, whose
    PerfectRef arms join existential atoms on their key alone."""
    system = OBDASystem(tbox, abox_15m, backend="memory", shards=0)
    engine = system.backend.db

    def run():
        result = ExperimentResult("Ablation: semi-joins vs hash joins only")
        for name in SEMIJOIN_QUERIES:
            sql = system.answer(queries[name], strategy="gdl").choice.sql
            answers, join_rows, ms = _join_rows_and_ms(Planner, engine, sql)
            legacy, legacy_rows, legacy_ms = _join_rows_and_ms(
                LegacyPlanner, engine, sql
            )
            assert answers == legacy, name
            result.rows.append(
                {
                    "query": name,
                    "join_rows": join_rows,
                    "legacy_join_rows": legacy_rows,
                    "eval_ms": round(ms, 2),
                    "legacy_eval_ms": round(legacy_ms, 2),
                }
            )
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    system.close()
    print()
    print(result.table())
    for row in result.rows:
        assert row["join_rows"] <= row["legacy_join_rows"], row
        if row["query"] in ("Q8", "Q12"):
            assert row["join_rows"] < row["legacy_join_rows"], row

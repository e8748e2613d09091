"""MiniRDBMS — a from-scratch, in-memory relational engine.

This is the reproduction's stand-in for IBM DB2 (the paper's second
evaluation system): a complete, self-contained RDBMS with

* a SQL-subset parser (``WITH``, ``SELECT [DISTINCT]``, comma joins,
  ``JOIN ... ON``, ``WHERE`` equality conjunctions, ``UNION [ALL]``,
  ``FROM``-subqueries) — exactly the SQL dialect the paper's reformulation
  translator emits (:mod:`sqlparser`);
* hash indexes and per-column statistics (:mod:`relation`,
  :mod:`catalog`);
* a cost-based planner with greedy join ordering over hash joins
  (:mod:`planner`), exposing its estimates through ``EXPLAIN``
  (the "RDBMS cost estimation" the paper's GDL consumes);
* a vectorized executor: columnar batches pulled through the operator
  tree on the caller's thread (:mod:`operators`, :mod:`executor`);
* DB2's documented *statement length limit* (2,000,000 characters),
  reproducing the "statement is too long or too complex" failures the
  paper observed on RDF-layout reformulations of Q9/Q10 (:mod:`errors`).
"""

from repro.engine.database import MiniRDBMS
from repro.engine.errors import (
    EngineError,
    PlanningError,
    SQLSyntaxError,
    StatementTooLongError,
    UnknownTableError,
)
from repro.engine.executor import ExecutionStats

__all__ = [
    "EngineError",
    "ExecutionStats",
    "MiniRDBMS",
    "PlanningError",
    "SQLSyntaxError",
    "StatementTooLongError",
    "UnknownTableError",
]

"""The MiniRDBMS facade: DDL, DML, query execution and EXPLAIN.

The engine enforces a *statement length limit* (default 2,000,000
characters, DB2's documented bound) on both execution and EXPLAIN —
reproducing the paper's observation that some RDF-layout reformulations
simply cannot be evaluated (§6.3).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.engine.catalog import Catalog
from repro.engine.errors import StatementTooLongError
from repro.engine.executor import (
    ExecutionStats,
    execute_plan,
    execute_plan_analyzed,
    execute_plan_columns,
)
from repro.engine.explain import (
    ExplainResult,
    explain_plan,
    explain_plan_analyzed,
)
from repro.engine.operators import CostParameters, DEFAULT_COSTS
from repro.engine.planner import Plan, Planner
from repro.engine.relation import Table
from repro.engine.sqlparser import parse_sql

Row = Tuple

#: DB2's documented maximum SQL statement size, which the paper's Q9/Q10
#: RDF-layout reformulations exceeded ("Current SQL statement size is
#: 2,247,118").
DB2_STATEMENT_LIMIT = 2_000_000


class MiniRDBMS:
    """An embedded, in-memory RDBMS with a cost-based optimizer.

    The public facade of :mod:`repro.engine`: DDL (``create_table`` /
    ``create_index`` / ``analyze``), row-level DML, and SQL execution
    through a statement cache, a cost-based planner and a vectorized
    executor. A statement runs on the thread that submits it.
    """

    def __init__(
        self,
        max_statement_length: int = DB2_STATEMENT_LIMIT,
        cost_parameters: CostParameters = DEFAULT_COSTS,
        plan_cache_size: int = 256,
    ) -> None:
        self.catalog = Catalog()
        self.max_statement_length = max_statement_length
        self.cost_parameters = cost_parameters
        #: Counters from the most recent :meth:`execute` call.
        self.last_execution: Optional[ExecutionStats] = None
        # Dynamic statement cache (DB2's "package cache"): plans keyed by
        # the exact SQL text, valid for one catalog version. EXPLAIN and
        # execution share it, so the cost-estimation pass the GDL search
        # makes over a statement means its later execution plans for
        # free. Plans stay *correct* across row writes (operators read
        # live tables); any schema or statistics change bumps the
        # catalog version and drops the cache. Set size 0 to disable.
        self.plan_cache_size = plan_cache_size
        self._plan_cache: "OrderedDict[str, Plan]" = OrderedDict()
        self._plan_cache_version = -1
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0

    # ------------------------------------------------------------------
    # DDL / DML
    # ------------------------------------------------------------------
    def create_table(self, name: str, columns: Sequence[str]) -> Table:
        """Create (or replace) a table."""
        return self.catalog.create_table(name, columns)

    def drop_table(self, name: str) -> None:
        """Drop a table if it exists."""
        self.catalog.drop_table(name)

    def insert_many(self, name: str, rows: Iterable[Sequence[object]]) -> int:
        """Bulk-insert rows into a table (duplicates ignored); returns
        how many rows were actually added."""
        return self.catalog.table(name).insert_many(rows)

    def delete_many(self, name: str, rows: Iterable[Sequence[object]]) -> int:
        """Bulk-delete rows from a table; returns the removed count."""
        return self.catalog.table(name).delete_many(rows)

    def create_index(self, name: str, columns: Sequence[str]) -> None:
        """Create a hash index on a table."""
        self.catalog.table(name).create_index(columns)

    def analyze(
        self, name: Optional[str] = None, ensure_indexes: bool = True
    ) -> None:
        """Collect optimizer statistics (like SQL ANALYZE) and, by
        default, build single-column hash indexes on narrow tables'
        key columns for the planner's index-aware access paths."""
        self.catalog.analyze(name, ensure_indexes=ensure_indexes)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _check_length(self, sql: str) -> None:
        if len(sql) > self.max_statement_length:
            raise StatementTooLongError(len(sql), self.max_statement_length)

    def plan(self, sql: str) -> Plan:
        """Parse and plan a statement (through the statement cache)."""
        self._check_length(sql)
        if self.plan_cache_size:
            version = self.catalog.version
            if version != self._plan_cache_version:
                self._plan_cache.clear()
                self._plan_cache_version = version
            cached = self._plan_cache.get(sql)
            if cached is not None:
                self._plan_cache.move_to_end(sql)
                self.plan_cache_hits += 1
                return cached
        statement = parse_sql(sql)
        plan = Planner(self.catalog, self.cost_parameters).plan(statement)
        if self.plan_cache_size:
            self.plan_cache_misses += 1
            self._plan_cache[sql] = plan
            while len(self._plan_cache) > self.plan_cache_size:
                self._plan_cache.popitem(last=False)
        return plan

    def execute(self, sql: str) -> List[Row]:
        """Run a statement and return its rows."""
        stats = ExecutionStats()
        rows = execute_plan(self.plan(sql), stats)
        self.last_execution = stats
        return rows

    def execute_columns(self, sql: str) -> Tuple[int, List[List]]:
        """Run a statement and return ``(nrows, column vectors)``.

        The columnar twin of :meth:`execute` — same answers, same
        order, but no row tuples are materialized. Shard worker
        processes answer through this and send the columns as their
        reply.
        """
        stats = ExecutionStats()
        result = execute_plan_columns(self.plan(sql), stats)
        self.last_execution = stats
        return result

    def explain(self, sql: str) -> ExplainResult:
        """The planner's cost estimate for a statement (no execution)."""
        return explain_plan(self.plan(sql))

    def estimated_cost(self, sql: str) -> float:
        """Shortcut: the total estimated cost of a statement."""
        return self.explain(sql).total_cost

    def explain_analyze(self, sql: str) -> ExplainResult:
        """``EXPLAIN ANALYZE``: execute and show measured vs. estimated
        numbers per plan node.

        The statement is planned **privately** — never through the
        shared statement cache — because the per-node instrumentation
        patches the operator instances, and a patched tree must not be
        served to a concurrent plain execution.
        """
        self._check_length(sql)
        plan = Planner(self.catalog, self.cost_parameters).plan(parse_sql(sql))
        started = time.perf_counter()
        rows, measurements = execute_plan_analyzed(plan)
        elapsed = time.perf_counter() - started
        return explain_plan_analyzed(
            plan, measurements, actual_rows=len(rows), actual_seconds=elapsed
        )

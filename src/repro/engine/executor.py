"""Plan execution: materialize CTEs in order, then pull the body.

The context maps each materialized CTE (user CTEs and planner-generated
shared scans alike) to its list of **columnar batches**; the body's
batches are flattened to row tuples only at the very end. Execution
is serial: one statement runs on its caller's thread.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.engine.operators import Batch, Operator
from repro.engine.planner import Plan

Row = Tuple


@dataclass
class ExecutionStats:
    """Counters from one plan execution (benchmark telemetry)."""

    batches: int = 0
    rows: int = 0
    materialized_ctes: int = 0


def _materialize_ctes(
    plan: Plan, stats: Optional[ExecutionStats]
) -> Dict[str, List[Batch]]:
    """Materialize *plan*'s CTEs in order; the body's execution context."""
    context: Dict[str, List[Batch]] = {}
    for name, materialize in plan.cte_plans:
        batches = list(materialize.batches(context))
        context[name] = batches
        if stats is not None:
            stats.batches += len(batches)
            stats.materialized_ctes += 1
    return context


def execute_plan(
    plan: Plan, stats: Optional[ExecutionStats] = None
) -> List[Row]:
    """Run *plan*: CTEs are materialized once, the body streams over them."""
    context = _materialize_ctes(plan, stats)
    out: List[Row] = []
    if stats is not None:
        for batch in plan.body.batches(context):
            stats.batches += 1
            out.extend(zip(*batch))
        stats.rows = len(out)
    else:
        for batch in plan.body.batches(context):
            out.extend(zip(*batch))
    return out


def _instrument_operator(op: Operator, measurements: Dict[int, Dict]) -> None:
    """Shadow *op*'s ``batches`` with a timing wrapper (instance patch).

    The wrapper measures inclusive production time: the wall clock spent
    between asking this operator for a batch and receiving it, children
    included — summed over every pull. Counters accumulate in
    *measurements* under ``id(op)``. The patch is an instance attribute
    shadowing the class method, so it must only ever be applied to a
    **privately planned** tree (never one from the shared statement
    cache — see :meth:`repro.engine.database.MiniRDBMS.explain_analyze`).
    """
    record = measurements.setdefault(
        id(op), {"rows": 0, "batches": 0, "seconds": 0.0}
    )
    inner = op.batches  # the bound class method, captured pre-patch

    def timed(context):
        started = time.perf_counter()
        iterator = inner(context)
        while True:
            try:
                batch = next(iterator)
            except StopIteration:
                record["seconds"] += time.perf_counter() - started
                return
            record["seconds"] += time.perf_counter() - started
            record["batches"] += 1
            record["rows"] += len(batch[0]) if batch else 0
            yield batch
            started = time.perf_counter()

    op.batches = timed


def _walk_operators(op: Operator, seen: set) -> List[Operator]:
    """Every distinct operator reachable from *op* (shared nodes once)."""
    if id(op) in seen:
        return []
    seen.add(id(op))
    out = [op]
    for child in op.children():
        out.extend(_walk_operators(child, seen))
    return out


def execute_plan_analyzed(
    plan: Plan,
) -> Tuple[List[Row], Dict[int, Dict]]:
    """Run *plan* serially with per-operator instrumentation.

    Returns ``(rows, measurements)`` where *measurements* maps
    ``id(operator)`` to ``{"rows", "batches", "seconds"}`` — the inputs
    :func:`repro.engine.explain.explain_plan_analyzed` renders next to
    the planner's estimates. Answers are identical to
    :func:`execute_plan` (the wrapper re-yields batches untouched).
    """
    measurements: Dict[int, Dict] = {}
    seen: set = set()
    for _name, materialize in plan.cte_plans:
        for op in _walk_operators(materialize, seen):
            _instrument_operator(op, measurements)
    for op in _walk_operators(plan.body, seen):
        _instrument_operator(op, measurements)
    context = _materialize_ctes(plan, None)
    out: List[Row] = []
    for batch in plan.body.batches(context):
        out.extend(zip(*batch))
    return out, measurements


def execute_plan_columns(
    plan: Plan, stats: Optional[ExecutionStats] = None
) -> Tuple[int, List[List]]:
    """Run *plan* and return ``(nrows, columns)`` — no row tuples built.

    The columnar twin of :func:`execute_plan` for callers that want the
    result in column vectors (a process-substrate shard worker replies
    with the columns, so answering through this skips materializing
    ``nrows`` tuples only to transpose them again).
    Column order and intra-column order match :func:`execute_plan`
    exactly; an empty result is ``(0, [])``.
    """
    context = _materialize_ctes(plan, stats)
    body_batches = list(plan.body.batches(context))
    if stats is not None:
        stats.batches += len(body_batches)
    body_batches = [batch for batch in body_batches if len(batch[0])]
    if not body_batches:
        if stats is not None:
            stats.rows = 0
        return 0, []
    width = len(body_batches[0])
    columns: List[List] = []
    for position in range(width):
        column: List = []
        for batch in body_batches:
            column.extend(batch[position])
        columns.append(column)
    nrows = len(columns[0]) if columns else 0
    if stats is not None:
        stats.rows = nrows
    return nrows, columns

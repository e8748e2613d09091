"""EXPLAIN: render a plan tree with the planner's cost estimates.

This is MiniRDBMS's analogue of Postgres ``EXPLAIN`` / DB2 ``db2expln`` —
the facility the paper's GDL algorithm consumes in its "RDBMS cost
estimation" mode. :func:`explain_text` is for humans;
:class:`ExplainResult` carries the numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.engine.operators import Operator
from repro.engine.planner import Plan


@dataclass
class ExplainResult:
    """Cost summary of a planned statement.

    ``nodes`` counts the physical operators in the plan (CTE sections —
    including planner-generated shared scans — plus the body); with
    shared-scan unions this is often far below one-pipeline-per-arm.

    For ``EXPLAIN ANALYZE`` (see :func:`explain_plan_analyzed`),
    ``actual_rows`` / ``actual_seconds`` carry the measured result size
    and wall time, and the text shows measured numbers per node next to
    the planner's estimates.
    """

    total_cost: float
    est_rows: float
    text: str
    nodes: int = 0
    actual_rows: Optional[int] = None
    actual_seconds: Optional[float] = None


def _render(
    op: Operator,
    depth: int,
    lines: List[str],
    measurements: Optional[Dict[int, Dict]] = None,
) -> int:
    indent = "  " * depth
    line = f"{indent}{op.label()}  (rows={op.est_rows:.1f}, cost={op.cost:.1f})"
    if measurements is not None:
        measured = measurements.get(id(op))
        if measured is not None and measured["batches"]:
            line += (
                f"  [actual rows={measured['rows']}"
                f", batches={measured['batches']}"
                f", time={measured['seconds'] * 1000:.3f} ms]"
            )
        else:
            line += "  [actual rows=0 (never pulled)]"
    lines.append(line)
    count = 1
    for child in op.children():
        count += _render(child, depth + 1, lines, measurements)
    return count


def explain_plan(plan: Plan) -> ExplainResult:
    """Render *plan* and collect its planner estimates."""
    lines: List[str] = []
    nodes = 0
    for name, materialize in plan.cte_plans:
        nodes += _render(materialize, 0, lines)
    nodes += _render(plan.body, 0, lines)
    lines.append(f"Total estimated cost: {plan.total_cost:.1f}")
    return ExplainResult(
        total_cost=plan.total_cost,
        est_rows=plan.est_rows,
        text="\n".join(lines),
        nodes=nodes,
    )


def explain_plan_analyzed(
    plan: Plan,
    measurements: Dict[int, Dict],
    actual_rows: int,
    actual_seconds: float,
) -> ExplainResult:
    """Render *plan* with measured numbers next to the estimates.

    *measurements* maps ``id(operator)`` to the per-node counters
    collected by :func:`repro.engine.executor.execute_plan_analyzed`
    (``rows`` / ``batches`` / ``seconds``). Per-node time is *inclusive*
    production time — the wall time spent pulling that operator's
    batches, children included — matching the convention of Postgres
    ``EXPLAIN ANALYZE`` actual times. Nodes the execution never pulled
    (e.g. the pruned side of an empty join build) are marked instead of
    showing zeros that look like measurements.
    """
    lines: List[str] = []
    nodes = 0
    for name, materialize in plan.cte_plans:
        nodes += _render(materialize, 0, lines, measurements)
    nodes += _render(plan.body, 0, lines, measurements)
    lines.append(f"Total estimated cost: {plan.total_cost:.1f}")
    lines.append(
        f"Execution: {actual_rows} rows in {actual_seconds * 1000:.3f} ms"
        f" (estimated rows: {plan.est_rows:.1f})"
    )
    return ExplainResult(
        total_cost=plan.total_cost,
        est_rows=plan.est_rows,
        text="\n".join(lines),
        nodes=nodes,
        actual_rows=actual_rows,
        actual_seconds=actual_seconds,
    )

"""The experiment harness: regenerates the paper's tables and figures.

Three entry points, one per experiment family:

* :func:`reformulation_statistics` — the §2.3/§6.1 workload profile
  (atoms per query, UCQ and minimal-UCQ reformulation sizes);
* :func:`search_space_experiment` — Table 6 (|Lq|, |Gq| capped, covers
  explored by GDL, for the star queries A3–A6);
* :func:`evaluation_experiment` — Figures 2 and 3 (evaluation time of the
  UCQ / Croot / GDL-RDBMS / GDL-ext reformulations per query, per backend
  and layout, with "statement too long" failures reported as such).

All return plain row dictionaries plus an ASCII rendering, so benchmarks
can both assert on the numbers and print paper-style tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.covers.generalized import enumerate_generalized_covers
from repro.covers.lattice import enumerate_safe_covers
from repro.cost.estimators import ExternalCoverCost
from repro.cost.model import ExternalCostModel
from repro.cost.statistics import DataStatistics
from repro.dllite.tbox import TBox
from repro.engine.errors import StatementTooLongError
from repro.optimizer.gdl import gdl_search
from repro.queries.cq import CQ
from repro.reformulation.perfectref import reformulate_to_ucq


@dataclass
class ExperimentResult:
    """Rows plus a rendered table."""

    title: str
    rows: List[Dict] = field(default_factory=list)

    def table(self) -> str:
        """ASCII-render the rows (paper-style)."""
        if not self.rows:
            return f"== {self.title} ==\n(no rows)"
        headers = list(self.rows[0].keys())
        widths = {
            h: max(len(str(h)), *(len(str(r.get(h, ""))) for r in self.rows))
            for h in headers
        }
        lines = [f"== {self.title} =="]
        lines.append(" | ".join(str(h).ljust(widths[h]) for h in headers))
        lines.append("-+-".join("-" * widths[h] for h in headers))
        for row in self.rows:
            lines.append(
                " | ".join(str(row.get(h, "")).ljust(widths[h]) for h in headers)
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# §2.3 / §6.1: workload and reformulation-size statistics
# ---------------------------------------------------------------------------


def reformulation_statistics(
    tbox: TBox,
    queries: Dict[str, CQ],
    minimize: bool = True,
) -> ExperimentResult:
    """Per query: atom count, UCQ size, minimal UCQ size, times."""
    result = ExperimentResult("Workload reformulation statistics (§2.3, §6.1)")
    for name, query in queries.items():
        started = time.perf_counter()
        ucq = reformulate_to_ucq(query, tbox, minimize=False)
        raw_seconds = time.perf_counter() - started
        row = {
            "query": name,
            "atoms": len(query.atoms),
            "ucq_size": len(ucq),
            "reformulation_ms": round(raw_seconds * 1000, 1),
        }
        if minimize:
            started = time.perf_counter()
            minimal = ucq.minimized()
            row["minimal_ucq_size"] = len(minimal)
            row["minimization_ms"] = round(
                (time.perf_counter() - started) * 1000, 1
            )
        result.rows.append(row)
    return result


# ---------------------------------------------------------------------------
# Table 6: search-space sizes and GDL exploration counts
# ---------------------------------------------------------------------------


def search_space_experiment(
    tbox: TBox,
    queries: Dict[str, CQ],
    statistics: DataStatistics,
    generalized_limit: int = 20_000,
) -> ExperimentResult:
    """|Lq|, |Gq| (capped) and the covers GDL explores, per query."""
    result = ExperimentResult("Search space sizes (Table 6)")
    model = ExternalCostModel(statistics)
    for name, query in queries.items():
        lq_size = sum(1 for _ in enumerate_safe_covers(query, tbox))
        gq_size = 0
        for _ in enumerate_generalized_covers(query, tbox, limit=generalized_limit):
            gq_size += 1
        estimator = ExternalCoverCost(tbox, model)
        search = gdl_search(query, tbox, estimator)
        result.rows.append(
            {
                "query": name,
                "atoms": len(query.atoms),
                "lq_size": lq_size,
                "gq_size": (
                    f">= {gq_size}" if gq_size >= generalized_limit else gq_size
                ),
                "gdl_safe_explored": search.safe_covers_explored,
                "gdl_generalized_explored": search.generalized_covers_explored,
                "gdl_ms": round(search.elapsed_seconds * 1000, 1),
            }
        )
    return result


# ---------------------------------------------------------------------------
# Figures 2 and 3: evaluation time per reformulation variant
# ---------------------------------------------------------------------------

#: The four per-system variants of Figure 2; Figure 3 adds the RDF layout
#: by running the same variants on an RDF-layout system.
DEFAULT_VARIANTS: Tuple[Tuple[str, str, Optional[str]], ...] = (
    ("UCQ", "ucq", None),
    ("Croot", "croot", None),
    ("GDL/RDBMS", "gdl", "rdbms"),
    ("GDL/ext", "gdl", "ext"),
)


def evaluation_experiment(
    system,
    queries: Dict[str, CQ],
    variants: Sequence[Tuple[str, str, Optional[str]]] = DEFAULT_VARIANTS,
    time_budget_seconds: Optional[float] = None,
    title: str = "Evaluation time (Figure 2/3)",
    repeat: int = 1,
) -> ExperimentResult:
    """Evaluate each query under each reformulation variant.

    ``repeat`` > 1 evaluates each statement that many times and reports
    the fastest run — the warm steady state (statement-cached plans,
    populated batch caches), which is the regime a serving deployment
    sees and the role DB2's dynamic statement cache plays in the paper's
    own measurements. Every repetition must return the same answers.

    Failures (e.g. the statement-length limit on RDF-layout
    reformulations) are recorded, not raised — matching the paper's grey
    "missing bar" treatment in Figure 3.

    Every variant is the paper's data-independent reformulation
    (``prune=False``): pruned on the predicates with no rows, the RDF
    layout's statements would stay far below DB2's length limit.
    """
    result = ExperimentResult(title)
    for name, query in queries.items():
        reference_answers = None
        for label, strategy, cost in variants:
            row: Dict = {"query": name, "variant": label}
            try:
                choice = system.reformulate(
                    query,
                    strategy=strategy,
                    cost=cost or "ext",
                    time_budget_seconds=time_budget_seconds,
                    prune=False,
                )
                row["sql_chars"] = len(choice.sql)
                started = time.perf_counter()
                answers = system.execute_choice(query, choice)
                elapsed = time.perf_counter() - started
                row["status"] = "ok"
                for _ in range(max(repeat, 1) - 1):
                    started = time.perf_counter()
                    again = system.execute_choice(query, choice)
                    elapsed = min(elapsed, time.perf_counter() - started)
                    if again != answers:
                        row["status"] = "UNSTABLE ANSWERS"
                row["eval_ms"] = round(elapsed * 1000, 2)
                row["answers"] = len(answers)
                execution = getattr(system.backend, "last_execution", None)
                if execution is not None:
                    row["batches"] = execution.batches
                if row["status"] == "ok":
                    if reference_answers is None:
                        reference_answers = answers
                    elif answers != reference_answers:
                        row["status"] = "WRONG ANSWERS"
            except StatementTooLongError as error:
                row["status"] = f"too long ({error.size:,} chars)"
                row["eval_ms"] = None
            result.rows.append(row)
    return result

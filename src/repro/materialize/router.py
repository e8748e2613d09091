"""The sat-vs-reformulation router behind ``strategy="auto"``.

Gottlob et al. ("Ontological Queries: Rewriting and Optimization")
motivate choosing between *rewriting* (the paper's cost-picked covers)
and *materialization* (answering the original CQ over saturated tables)
per query. With an incrementally maintained saturation both options are
always live, so the choice reduces to comparing two cost estimates in the
same currency the cover search already uses:

* **saturation cost** — the original CQ evaluated over the saturated
  tables: the external model priced with statistics of the *stored*
  (saturated) extensions, or the backend's own EXPLAIN estimate;
* **reformulation cost** — the best cover the GDL search found (its
  ``SearchResult.cost``, same estimator family).

The saturation side is one CQ, so the caller prices it *first* and hands
it to the GDL search as a bound: a cover that cannot come in under it is
never accepted, and (in the ``ext`` mode) stops being priced as soon as
the running sum of its terms reaches it. A search that found nothing
below the bound reports ``math.inf``, which :func:`pick` sends to ``sat``.
The bounded search never steps through a cover priced at or above
``sat``, so when the only cheaper cover lies behind such covers it is
not reached and the query goes to ``sat``, where an unbounded search
would have found it (4 of 400 and 2 of 1,500 random connected CQs over
1k LUBM facts; none of the ledger queries). A truncated saturation has no valid price; the search then runs
unbounded and the query goes to ``gdl`` whatever the costs say.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.cost.model import ExternalCostModel
from repro.queries.cq import CQ


@dataclass(frozen=True)
class RoutingDecision:
    """What ``auto`` compared and where it sent the query."""

    routed_to: str  # "sat" or the reformulation strategy's name
    saturation_cost: float
    reformulation_cost: float


class SaturationRouter:
    """Prices direct-over-saturation answering for the auto strategy."""

    def __init__(self, translator, backend) -> None:
        self.translator = translator
        self.backend = backend

    def saturation_sql(self, query: CQ) -> str:
        """The SQL answering *query* directly over the saturated tables."""
        return self.translator.cq_to_sql(query)

    def saturation_cost(
        self,
        query: CQ,
        cost: str,
        saturated_model: Optional[ExternalCostModel] = None,
    ) -> float:
        """Estimated cost of the direct plan under the given cost mode.

        ``saturated_model`` must be an external model whose statistics
        describe the saturated extensions (the base-ABox model would
        undercount what the tables actually hold).
        """
        if cost == "rdbms":
            from repro.engine.errors import StatementTooLongError

            try:
                return self.backend.estimated_cost(self.saturation_sql(query))
            except StatementTooLongError:
                return math.inf
        if saturated_model is None:
            raise ValueError(
                "saturation_cost with cost='ext' needs the saturated-statistics "
                "cost model"
            )
        return saturated_model.estimate(query)


def pick(
    saturation_cost: float, reformulation_cost: float, fallback: str
) -> RoutingDecision:
    """Route to the cheaper side; ties go to saturation (no search to
    re-run, no fragment joins, strictly simpler SQL), and so does a
    reformulation cost of ``math.inf`` (nothing priced below the bound).
    Under ``auto`` that includes a query whose only cover cheaper than
    ``sat`` the bounded search could not reach (see the module notes)."""
    routed_to = "sat" if saturation_cost <= reformulation_cost else fallback
    return RoutingDecision(
        routed_to=routed_to,
        saturation_cost=saturation_cost,
        reformulation_cost=reformulation_cost,
    )

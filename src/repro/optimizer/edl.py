"""EDL — Exhaustive Covers for DL (Section 5.3).

Enumerates every safe cover of Lq and (up to a cap) every generalized
cover of Gq, pricing each one. The paper shows this is hopeless beyond
very small queries — |Gq| exceeds 20,000 already for the 6-atom A6 — which
Table 6 (our ``benchmarks/test_bench_table6_search_space.py``) reproduces;
EDL exists as the optimality baseline GDL is compared against.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.covers.cover import GeneralizedCover
from repro.covers.generalized import enumerate_generalized_covers
from repro.covers.lattice import enumerate_safe_covers
from repro.cost.estimators import CoverCostEstimator
from repro.dllite.tbox import TBox
from repro.optimizer.result import SearchResult
from repro.queries.cq import CQ


def edl_search(
    query: CQ,
    tbox: TBox,
    estimator: CoverCostEstimator,
    generalized_limit: Optional[int] = 20_000,
    include_generalized: bool = True,
) -> SearchResult:
    """Exhaustively search Lq (and Gq up to *generalized_limit*).

    The generalized cap mirrors the paper, which stopped counting A6's
    space at 20,003 covers. Unlike GDL, EDL does not repair or filter
    anything: it prices Lq as :func:`enumerate_safe_covers` yields it
    (root fragments that are not join-connected included) and Gq as
    :func:`enumerate_generalized_covers` does.
    """
    start = time.perf_counter()
    best_cover = None
    best_cost = None
    safe_count = 0
    generalized_count = 0

    for cover in enumerate_safe_covers(query, tbox):
        safe_count += 1
        cost = estimator.estimate(cover)
        if best_cost is None or cost < best_cost:
            best_cover, best_cost = cover, cost

    if include_generalized:
        for cover in enumerate_generalized_covers(
            query, tbox, limit=generalized_limit
        ):
            if cover.is_plain():
                continue  # already priced as a safe cover
            generalized_count += 1
            cost = estimator.estimate(cover)
            if best_cost is None or cost < best_cost:
                best_cover, best_cost = cover, cost

    assert best_cover is not None and best_cost is not None
    return SearchResult(
        cover=best_cover,
        cost=best_cost,
        safe_covers_explored=safe_count,
        generalized_covers_explored=generalized_count,
        cost_estimations=estimator.calls,
        elapsed_seconds=time.perf_counter() - start,
    )

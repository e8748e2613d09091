"""GDL — Greedy Covers for DL (Algorithm 1 of the paper).

The search space is Gq (§5.2): the g-parts form a safe cover and every
f-part is join-connected. Definition 6's dependency merge can hand the
root cover fragments that are *not* join-connected, so the search starts
from the root cover repaired into Gq (:func:`~repro.covers.generalized.
connect_fragments`) and no move leaves it: an f-part that is a cartesian
product is excluded by the definition of the space, not left to a cost
model whose join-cardinality error such a product multiplies by a whole
extension (docs/ARCHITECTURE.md has the measurement). From there GDL
repeatedly evaluates the *moves* available from the current cover:

* **union** two fragments — merging ``f1||g1`` and ``f2||g2`` into
  ``(f1 ∪ f2)||(g1 ∪ g2)`` (the g-parts stay a union of root fragments,
  hence safe);
* **enlarge** a fragment ``f||g`` with one atom ``a`` join-connected to
  ``f`` — adding a semijoin reducer (Section 5.2).

The cheapest move is applied when it does not degrade the current cost
(line 3's ``<=`` admits sideways moves once, guarded here against cycles by
a visited set); the search stops when no move helps or the optional *time
budget* runs out — §6.4's time-limited GDL, which the paper finds nearly as
good as the full run because interesting covers are found early.
"""

from __future__ import annotations

import math
import time
from typing import Dict, FrozenSet, Iterator, Optional, Set, Tuple

from repro.covers.cover import (
    GeneralizedCover,
    GeneralizedFragment,
    join_components,
)
from repro.covers.generalized import connect_fragments
from repro.covers.safety import root_cover
from repro.cost.estimators import CoverCostEstimator
from repro.dllite.tbox import TBox
from repro.optimizer.result import SearchResult
from repro.queries.cq import CQ


class _MoveEnumerator:
    """Per-search enumeration state for GDL moves.

    The atom-adjacency map depends only on the query, and a fragment's
    frontier only on its ``f`` part — both recur across the covers one
    greedy descent visits, so they are computed once here instead of on
    every :func:`gdl_search` step.
    """

    def __init__(self, query: CQ) -> None:
        self.adjacency = query.atom_adjacency()
        self._frontiers: Dict[FrozenSet[int], Tuple[int, ...]] = {}

    def union_moves(self, cover: GeneralizedCover) -> Iterator[GeneralizedCover]:
        """All covers obtained by unioning two fragments of *cover* whose
        merged f-part is join-connected: a merge of fragments that share
        no variable is a cartesian product, outside Gq (§5.2)."""
        fragments = cover.fragments
        for i in range(len(fragments)):
            for j in range(i + 1, len(fragments)):
                first, second = fragments[i], fragments[j]
                merged = GeneralizedFragment(
                    first.f | second.f, first.g | second.g
                )
                if len(join_components(self.adjacency, merged.f)) > 1:
                    continue
                remaining = [
                    gf for k, gf in enumerate(fragments) if k not in (i, j)
                ]
                try:
                    yield GeneralizedCover(
                        cover.query, tuple(remaining) + (merged,)
                    )
                except ValueError:
                    continue  # inclusion among fragments: not a valid cover

    def frontier(self, f: FrozenSet[int]) -> Tuple[int, ...]:
        """Atom indices join-connected to ``f`` but outside it, sorted."""
        cached = self._frontiers.get(f)
        if cached is None:
            reachable: Set[int] = set()
            for index in f:
                reachable |= self.adjacency[index]
            cached = tuple(sorted(reachable - f))
            self._frontiers[f] = cached
        return cached

    def enlarge_moves(
        self, cover: GeneralizedCover
    ) -> Iterator[GeneralizedCover]:
        """All covers obtained by adding one connected reducer atom."""
        for fragment in cover.fragments:
            for atom_index in self.frontier(fragment.f):
                try:
                    yield cover.enlarge(fragment, atom_index)
                except ValueError:
                    continue


def gdl_search(
    query: CQ,
    tbox: TBox,
    estimator: CoverCostEstimator,
    time_budget_seconds: Optional[float] = None,
    max_steps: int = 1_000,
    enable_generalized: bool = True,
    bound: float = math.inf,
) -> SearchResult:
    """Greedy cover search (Algorithm 1), optionally time-limited.

    ``enable_generalized=False`` restricts the search to *union* moves
    (the safe-cover lattice Lq only) from the root cover as Definition 6
    builds it, with no reducer added — the ablation quantifying what the
    semijoin-reducer space Gq buys (§6.3 reports GDL picks a generalized
    cover always under the external model).

    *bound* is a price the caller already has in hand (``auto``: the
    original CQ over the saturation). No cover priced at or above it is
    accepted, and the estimator may stop pricing a cover as soon as it
    is known to reach it. Once the current cover is below the bound the
    search takes exactly the moves the unbounded one takes; a start
    cover at or above it is left only for a cover below it, and is
    returned at ``math.inf`` when there is none. So the two can differ
    only where the unbounded search reaches a cover below the bound
    *through* covers above it: the bounded search then misses it.
    """
    start = time.perf_counter()
    bounded = bound != math.inf

    def out_of_time() -> bool:
        return (
            time_budget_seconds is not None
            and time.perf_counter() - start > time_budget_seconds
        )

    def price(cover: GeneralizedCover) -> float:
        # Unbounded, the estimator gets the cover alone, so estimators
        # whose ``estimate`` takes one argument keep working.
        if bounded:
            return estimator.estimate(cover, bound)
        return estimator.estimate(cover)

    moves = _MoveEnumerator(query)
    current = GeneralizedCover.from_cover(root_cover(query, tbox))
    if enable_generalized:
        current = connect_fragments(current, moves.adjacency)
    reducers_added = sum(len(gf.reducers) for gf in current.fragments)
    current_cost = price(current)
    pruned = int(bounded and current_cost >= bound)
    visited: Set[Tuple] = {current.key()}
    safe_explored = int(current.is_plain())
    generalized_explored = 1 - safe_explored
    hit_budget = False

    for _step in range(max_steps):
        move: Optional[GeneralizedCover] = None
        move_cost: Optional[float] = None
        move_is_generalized = False
        move_kinds = [("union", moves.union_moves(current))]
        if enable_generalized:
            move_kinds.append(("enlarge", moves.enlarge_moves(current)))
        for kind, candidates in move_kinds:
            for candidate in candidates:
                if out_of_time():
                    hit_budget = True
                    break
                key = candidate.key()
                if key in visited:
                    continue
                visited.add(key)
                if candidate.is_plain():
                    safe_explored += 1
                else:
                    generalized_explored += 1
                cost = price(candidate)
                if bounded and cost >= bound:
                    pruned += 1
                    continue
                accept_first = move is None and cost <= current_cost
                beats_move = move is not None and cost < move_cost  # type: ignore[operator]
                if accept_first or beats_move:
                    move, move_cost = candidate, cost
                    move_is_generalized = not candidate.is_plain()
            if hit_budget:
                break
        if move is None:
            break
        current, current_cost = move, move_cost  # type: ignore[assignment]
        if hit_budget:
            break

    return SearchResult(
        cover=current,
        cost=current_cost,
        safe_covers_explored=safe_explored,
        generalized_covers_explored=generalized_explored,
        cost_estimations=estimator.calls,
        elapsed_seconds=time.perf_counter() - start,
        hit_time_budget=hit_budget,
        reducers_added=reducers_added,
        bound=bound,
        pruned_at_bound=pruned,
    )

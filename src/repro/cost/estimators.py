"""Cover cost estimators: the bridge between covers and cost numbers.

A :class:`CoverCostEstimator` prices a (generalized) cover by building its
cover-based reformulation and estimating its evaluation cost. Two concrete
strategies, matching the paper's "ext" and "RDBMS" modes:

* :class:`ExternalCoverCost` — prices the *logical* JUCQ with the external
  cost model (no SQL, no backend round-trip; the fast path that makes
  time-limited GDL practical, §6.4);
* :class:`RDBMSCoverCost` — translates the JUCQ to SQL and asks the
  backend's own estimator; statements exceeding the backend's length limit
  price at infinity (they cannot be evaluated at all — §6.3).

Both memoize per cover key and count estimator invocations, since cost
estimation dominates GDL's running time in the paper's measurements.
Both also accept a bound: a cover costing at least that much prices at
infinity (the external model stops adding up its terms there), and only
complete costs are memoized.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import AbstractSet, Dict, List, Optional, Tuple, Union

from repro.covers.cover import Cover, GeneralizedCover
from repro.covers.reformulate import (
    cover_based_reformulation,
    cover_based_uscq_reformulation,
)
from repro.cost.cache import ReformulationCache
from repro.cost.model import ComponentMemo, ExternalCostModel
from repro.dllite.tbox import TBox

AnyCover = Union[Cover, GeneralizedCover]


def _cut_off(cost: float, bound: float) -> bool:
    """Whether *cost* is a bounded pricing's "at least *bound*" answer."""
    return cost == math.inf and bound != math.inf


class CoverCostEstimator(ABC):
    """Prices covers; memoizes; counts calls.

    ``fragment_cache`` is the fragment-level :class:`ReformulationCache`.
    By default each estimator owns a private one; an :class:`~repro.obda.
    system.OBDASystem` injects its shared instance so fragment work is
    reused across strategies, cost modes and queries.

    An estimator lives for one search under one data epoch: its cost
    memo is never shared, so a write can never leave a stale cost
    behind. ``empty`` is the set of predicates with no rows the fragments
    are reformulated under (see :mod:`repro.reformulation.perfectref`);
    by default, none.
    """

    def __init__(
        self,
        tbox: TBox,
        minimize: bool = True,
        use_uscq: bool = False,
        fragment_cache: Optional[ReformulationCache] = None,
        empty: AbstractSet[str] = frozenset(),
    ):
        self.tbox = tbox
        self.minimize = minimize
        self.use_uscq = use_uscq
        self.empty = empty
        self.calls = 0
        self._cache: Dict[Tuple, float] = {}
        #: Set to a list by a traced search: every cover priced, with its
        #: estimate, in pricing order (the rejected alternatives).
        self.priced: Optional[List[Tuple[AnyCover, float]]] = None
        self.fragment_cache = (
            fragment_cache if fragment_cache is not None else ReformulationCache()
        )

    def reformulate(self, cover: AnyCover):
        """The reformulation whose cost is being estimated."""
        builder = (
            cover_based_uscq_reformulation
            if self.use_uscq
            else cover_based_reformulation
        )
        return builder(
            cover,
            self.tbox,
            minimize=self.minimize,
            cache=self.fragment_cache,
            empty=self.empty,
        )

    def estimate(self, cover: AnyCover, bound: float = math.inf) -> float:
        """Memoized cost of the cover's reformulation.

        With a finite *bound* a cover costing at least *bound* prices at
        ``math.inf``, and may stop being priced part-way. Such a result
        is a lower bound, not a cost: it is not kept, and is not listed
        in :attr:`priced`.
        """
        key = cover.key()
        cost = self._cache.get(key)
        if cost is None:
            self.calls += 1
            cost = self._estimate_uncached(cover, bound)
            if _cut_off(cost, bound):
                return cost
            self._cache[key] = cost
            if self.priced is not None:
                self.priced.append((cover, cost))
        return cost if cost < bound else math.inf

    @abstractmethod
    def _estimate_uncached(self, cover: AnyCover, bound: float) -> float:
        """Price one cover (no memoization); may stop at ``math.inf`` once
        the cover is known to cost at least *bound*."""


class ExternalCoverCost(CoverCostEstimator):
    """The paper's "ext" estimator: the external model on the logical plan."""

    def __init__(
        self,
        tbox: TBox,
        model: ExternalCostModel,
        minimize: bool = True,
        use_uscq: bool = False,
        fragment_cache: Optional[ReformulationCache] = None,
        empty: AbstractSet[str] = frozenset(),
    ) -> None:
        super().__init__(
            tbox,
            minimize=minimize,
            use_uscq=use_uscq,
            fragment_cache=fragment_cache,
            empty=empty,
        )
        self.model = model
        # Neighbouring covers share all but one or two fragments, and the
        # fragment cache hands back the same reformulated component for
        # each: price every component once. This estimator lives for one
        # search under one data epoch, so nothing ever invalidates it.
        self._components: ComponentMemo = {}

    def _estimate_uncached(self, cover: AnyCover, bound: float) -> float:
        return self.model.estimate(self.reformulate(cover), self._components, bound)


class RDBMSCoverCost(CoverCostEstimator):
    """The paper's "RDBMS" estimator: EXPLAIN on the translated SQL."""

    def __init__(
        self,
        tbox: TBox,
        backend,
        translator,
        minimize: bool = True,
        use_uscq: bool = False,
        fragment_cache: Optional[ReformulationCache] = None,
        empty: AbstractSet[str] = frozenset(),
    ) -> None:
        super().__init__(
            tbox,
            minimize=minimize,
            use_uscq=use_uscq,
            fragment_cache=fragment_cache,
            empty=empty,
        )
        self.backend = backend
        self.translator = translator

    def _estimate_uncached(self, cover: AnyCover, bound: float) -> float:
        # EXPLAIN prices the statement in one call: *bound* cannot cut it
        # short, the caller only compares against it.
        from repro.engine.errors import StatementTooLongError

        sql = self.translator.translate(self.reformulate(cover))
        try:
            return self.backend.estimated_cost(sql)
        except StatementTooLongError:
            # The backend cannot even parse this reformulation; it must
            # never be selected.
            return math.inf

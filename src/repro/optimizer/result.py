"""The outcome of a cover search."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.covers.cover import Cover, GeneralizedCover

AnyCover = Union[Cover, GeneralizedCover]


@dataclass
class SearchResult:
    """Best cover found, its estimated cost, and search effort counters."""

    cover: AnyCover
    cost: float
    safe_covers_explored: int = 0
    generalized_covers_explored: int = 0
    cost_estimations: int = 0
    elapsed_seconds: float = 0.0
    hit_time_budget: bool = False
    #: Reducer atoms GDL's connectivity repair put into the start cover
    #: (0 when every root fragment was already join-connected).
    reducers_added: int = 0
    #: The price the search had to beat (``math.inf``: none), and how
    #: many covers it priced at or above it. ``cost`` is ``math.inf``
    #: when no cover came in under the bound.
    bound: float = math.inf
    pruned_at_bound: int = 0

    @property
    def total_covers_explored(self) -> int:
        return self.safe_covers_explored + self.generalized_covers_explored

    def picked_generalized(self) -> bool:
        """True when the winning cover uses semijoin-reducer atoms.

        §6.3 reports GDL picks a generalized cover always with the external
        model and about half the time with the RDBMS estimator.
        """
        return isinstance(self.cover, GeneralizedCover) and not self.cover.is_plain()

"""Logical-level data statistics for the external cost model.

The paper's Java cost estimator keeps, per stored table attribute, the
cardinality and the number of distinct values (§6.1). Here statistics are
collected at the *predicate* level (concept and role extensions), which is
layout-independent: the simple layout maps predicates to tables one-to-one,
and the RDF layout stores the same logical extensions in wide rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, Tuple

from repro.dllite.abox import ABox


@dataclass(frozen=True)
class PredicateStatistics:
    """Statistics of one predicate's extension."""

    cardinality: int
    distinct_subjects: int
    distinct_objects: int = 0  # 0 for concepts

    @property
    def is_role(self) -> bool:
        return self.distinct_objects > 0 or self.cardinality == 0


class DataStatistics:
    """Per-predicate cardinalities and distinct counts."""

    def __init__(self) -> None:
        self._predicates: Dict[str, PredicateStatistics] = {}
        self.total_facts = 0

    @classmethod
    def from_abox(cls, abox: ABox) -> "DataStatistics":
        """Collect statistics from an ABox."""
        stats = cls()
        for concept in abox.concept_names():
            rows = abox.concept_facts(concept)
            stats._predicates[concept] = PredicateStatistics(
                cardinality=len(rows),
                distinct_subjects=len({r[0] for r in rows}),
            )
        for role in abox.role_names():
            rows = abox.role_facts(role)
            stats._predicates[role] = PredicateStatistics(
                cardinality=len(rows),
                distinct_subjects=len({r[0] for r in rows}),
                distinct_objects=len({r[1] for r in rows}),
            )
        stats.total_facts = len(abox)
        return stats

    def refresh_predicate(self, name: str, rows: Collection[Tuple]) -> None:
        """Recompute one predicate's statistics from its current rows
        (any sized collection; it is only read, so pass the live one).

        The write path calls this for every predicate a write touched, so
        statistics stay exact without a full rescan; the data epoch tells
        consumers which cached estimates became stale.
        """
        old = self._predicates.get(name)
        self.total_facts += len(rows) - (old.cardinality if old else 0)
        is_role = any(len(row) == 2 for row in rows)
        self._predicates[name] = PredicateStatistics(
            cardinality=len(rows),
            distinct_subjects=len({row[0] for row in rows}),
            distinct_objects=len({row[1] for row in rows}) if is_role else 0,
        )

    def for_predicate(self, name: str) -> PredicateStatistics:
        """Statistics for *name*; absent predicates have empty extensions."""
        return self._predicates.get(
            name, PredicateStatistics(cardinality=0, distinct_subjects=0)
        )

    def cardinality(self, name: str) -> int:
        return self.for_predicate(name).cardinality

    def distinct(self, name: str, position: int) -> int:
        """Distinct values in argument *position* (0 = subject, 1 = object)."""
        record = self.for_predicate(name)
        if position == 0:
            return max(1, record.distinct_subjects)
        return max(1, record.distinct_objects)

    def __len__(self) -> int:
        return len(self._predicates)

"""The statistics rescan, kept verbatim as a test oracle.

``src/repro/cost/statistics.py`` used to recompute a predicate's record
from its whole extension after every write that touched it; it now folds
in the write's own delta. The bodies below are the code that ran before
(``DataStatistics.from_abox`` / ``refresh_predicate`` and the system's
``_refresh_statistics``), moved here unchanged, so tests can assert the
maintained statistics are value-identical without a runtime switch.
"""

from __future__ import annotations

from typing import Collection, Dict, Tuple

from repro.cost.statistics import PredicateStatistics
from repro.dllite.abox import ABox


class RescannedStatistics:
    """Per-predicate cardinalities and distinct counts, by full scans."""

    def __init__(self) -> None:
        self._predicates: Dict[str, PredicateStatistics] = {}
        self.total_facts = 0

    @classmethod
    def from_abox(cls, abox: ABox) -> "RescannedStatistics":
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
        old = self._predicates.get(name)
        self.total_facts += len(rows) - (old.cardinality if old else 0)
        is_role = any(len(row) == 2 for row in rows)
        self._predicates[name] = PredicateStatistics(
            cardinality=len(rows),
            distinct_subjects=len({row[0] for row in rows}),
            distinct_objects=len({row[1] for row in rows}) if is_role else 0,
        )

    def for_predicate(self, name: str) -> PredicateStatistics:
        return self._predicates.get(
            name, PredicateStatistics(cardinality=0, distinct_subjects=0)
        )

    def names(self):
        return set(self._predicates)


def rescan(system) -> RescannedStatistics:
    """What the rescanning write path holds for *system*'s stored data:
    the ABox scanned at load, then every predicate of the saturated
    store (when there is one) rescanned as a write would have."""
    stats = RescannedStatistics.from_abox(system.kb.abox)
    if system.materialized:
        for name, rows in system._saturator.store.items():
            stats.refresh_predicate(name, rows)
    return stats

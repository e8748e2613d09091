"""Logical-level data statistics for the external cost model.

The paper's Java cost estimator keeps, per stored table attribute, the
cardinality and the number of distinct values (§6.1). Here statistics are
collected at the *predicate* level (concept and role extensions), which is
layout-independent: the simple layout maps predicates to tables one-to-one,
and the RDF layout stores the same logical extensions in wide rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, FrozenSet, Iterable, Tuple

from repro.dllite.abox import ABox
from repro.dllite.positions import PositionCounts


@dataclass(frozen=True)
class PredicateStatistics:
    """Statistics of one predicate's extension."""

    cardinality: int
    distinct_subjects: int
    distinct_objects: int = 0  # 0 for concepts


class DataStatistics:
    """Per-predicate cardinalities and distinct counts."""

    def __init__(self) -> None:
        self._predicates: Dict[str, PredicateStatistics] = {}
        self.total_facts = 0
        #: The names whose cardinality is above zero; every other name is
        #: empty. Replaced, never mutated, so a reader's snapshot holds.
        self.nonempty: FrozenSet[str] = frozenset()
        #: Value multisets of the roles written since load: a role's
        #: distinct counts after a write are ``len()`` of these. Filled
        #: per role on its first write, so loading builds nothing.
        self._positions = PositionCounts()
        self._positions_are_mine = True

    @classmethod
    def from_abox(cls, abox: ABox) -> "DataStatistics":
        """Collect statistics from an ABox."""
        stats = cls()
        for concept in abox.concept_names():
            rows = abox.concept_facts(concept)
            # Rows are 1-tuples in a set: every row is a distinct subject.
            stats._predicates[concept] = PredicateStatistics(
                cardinality=len(rows), distinct_subjects=len(rows)
            )
        for role in abox.role_names():
            rows = abox.role_facts(role)
            stats._predicates[role] = PredicateStatistics(
                cardinality=len(rows),
                distinct_subjects=len({r[0] for r in rows}),
                distinct_objects=len({r[1] for r in rows}),
            )
        stats.total_facts = len(abox)
        stats.nonempty = frozenset(
            name for name, record in stats._predicates.items() if record.cardinality
        )
        return stats

    def mark_nonempty(self, names: Iterable[str]) -> None:
        """Count *names* as non-empty ahead of the write that fills them.

        The write path calls this before the backend changes: should the
        write fail half-way, a name wrongly counted non-empty only stops
        the rewriter from pruning it, while a name wrongly counted empty
        would lose answers.
        """
        added = frozenset(names) - self.nonempty
        if added:
            self.nonempty = self.nonempty | added

    def share_positions(self, positions: PositionCounts) -> None:
        """Read role distinct counts off *positions* from now on: a
        multiset whose owner (the saturator) counts every role row it
        stores, so the statistics only ever read it."""
        self._positions = positions
        self._positions_are_mine = False

    def refresh_predicate(
        self,
        name: str,
        added: Collection[Tuple],
        removed: Collection[Tuple],
        rows: Collection[Tuple],
    ) -> None:
        """Bring one predicate's statistics up to date with a write.

        *added* / *removed* are the rows of *name* the write stored and
        dropped (of one arity, not both empty); the cost is theirs, not
        the extension's. *rows*, the live extension after the write, is
        scanned once, on the first write to a role nobody counts yet —
        never under :meth:`share_positions`. The write path calls this
        for every predicate a write touched; the data epoch tells
        consumers which cached estimates became stale. :attr:`nonempty`
        follows the cardinality, so it stays exact.
        """
        change = len(added) - len(removed)
        self.total_facts += change
        cardinality = self.for_predicate(name).cardinality + change
        if (cardinality > 0) != (name in self.nonempty):
            self.nonempty = (
                self.nonempty | {name} if cardinality > 0 else self.nonempty - {name}
            )
        if len(next(iter(added or removed))) == 1:
            self._predicates[name] = PredicateStatistics(cardinality, cardinality)
            return
        positions = self._positions
        if self._positions_are_mine:
            if name in positions:
                for row in added:
                    positions.add(name, row)
                for row in removed:
                    positions.remove(name, row)
            else:
                positions.track(name, rows)
        self._predicates[name] = PredicateStatistics(
            cardinality, positions.distinct(name, 0), positions.distinct(name, 1)
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

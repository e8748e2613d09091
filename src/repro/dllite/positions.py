"""Per-position value multisets of role extensions.

For every role it tracks, :class:`PositionCounts` knows how many stored
rows carry each value as subject and as object. Two consumers read the
same instance: the saturator asks whether a member still has a witness
(``count > 0``), and the data statistics read the number of distinct
values off ``len()`` of a multiset — so a write that adds or removes a
row pays for that row, never for the extension it belongs to.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple


class PositionCounts:
    """``role -> (subject -> rows, object -> rows)``, kept by add/remove.

    A role is *tracked* once :meth:`add` or :meth:`track` has seen it; an
    untracked role answers 0 everywhere, which is right exactly when its
    owner tracks every row it stores (the saturator does; the statistics
    call :meth:`track` before they rely on a role).
    """

    def __init__(self) -> None:
        self._roles: Dict[str, Tuple[Dict[str, int], Dict[str, int]]] = {}

    def __contains__(self, role: str) -> bool:
        return role in self._roles

    def add(self, role: str, row: Tuple[str, str]) -> None:
        """Count one newly stored row of *role*."""
        counts = self._roles.get(role)
        if counts is None:
            counts = self._roles[role] = ({}, {})
        subjects, objects = counts
        subject, obj = row
        subjects[subject] = subjects.get(subject, 0) + 1
        objects[obj] = objects.get(obj, 0) + 1

    def remove(self, role: str, row: Tuple[str, str]) -> None:
        """Uncount one row of *role* that :meth:`add` counted."""
        for values, value in zip(self._roles[role], row):
            left = values[value] - 1
            if left:
                values[value] = left
            else:
                del values[value]

    def track(self, role: str, rows: Iterable[Tuple[str, str]]) -> None:
        """Start tracking *role* from its current *rows* (one scan)."""
        self._roles[role] = ({}, {})
        for row in rows:
            self.add(role, row)

    def count(self, role: str, position: int, value: str) -> int:
        """Rows of *role* holding *value* at *position* (0 or 1)."""
        counts = self._roles.get(role)
        return counts[position].get(value, 0) if counts else 0

    def distinct(self, role: str, position: int) -> int:
        """Distinct values at *position* (0 or 1) of *role*."""
        counts = self._roles.get(role)
        return len(counts[position]) if counts else 0

    def clear(self) -> None:
        """Forget every role."""
        self._roles.clear()

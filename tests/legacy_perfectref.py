"""The classical PerfectRef fixpoint, kept verbatim as a test oracle.

``src/repro/reformulation/perfectref.py`` now removes, before the fixpoint
starts, every body atom another body atom implies under the TBox. The
fixpoint below is the code that ran before, moved here unchanged (minus
the process-wide counters), so that tests can assert the two rewriters'
minimised UCQs agree without a runtime switch, and so that tests about the
dedup key and the containment search keep drawing the CQs of the published
algorithm.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.dllite.tbox import TBox
from repro.queries.cq import CQ
from repro.queries.ucq import UCQ
from repro.queries.unification import most_general_unifier
from repro.reformulation.perfectref import _specializations_of_atom


def legacy_perfectref(
    query: CQ, tbox: TBox, max_queries: Optional[int] = None
) -> List[CQ]:
    """The UCQ reformulation of *query* w.r.t. *tbox*, as a list of CQs."""
    start = query.dedup_atoms()
    seen: Set[Tuple] = {start.canonical_key()}
    results: List[CQ] = [start]
    frontier: List[CQ] = [start]

    def consider(candidate: CQ) -> None:
        if max_queries is not None and len(results) >= max_queries:
            return
        key = candidate.canonical_key()
        if key in seen:
            return
        seen.add(key)
        results.append(candidate)
        frontier.append(candidate)

    while frontier:
        if max_queries is not None and len(results) >= max_queries:
            break
        current = frontier.pop()
        atoms = current.atoms
        protected = current.head_variables()
        unbound = current.unbound_variables()
        # (a) backward constraint applications, one atom at a time.
        for index, atom in enumerate(atoms):
            for specialized in _specializations_of_atom(atom, unbound, tbox):
                child = current._child(
                    current.head,
                    atoms[:index] + (specialized,) + atoms[index + 1 :],
                )
                # ``atoms`` holds no duplicate, so only the new atom can be one.
                consider(child.dedup_atoms() if specialized in atoms else child)
        # (b) reduce: unify pairs of atoms.
        for i in range(len(atoms)):
            for j in range(i + 1, len(atoms)):
                unifier = most_general_unifier(atoms[i], atoms[j], protected)
                if unifier is not None:
                    consider(current.apply(unifier).dedup_atoms())
    return results


def legacy_reformulate_to_ucq(query: CQ, tbox: TBox, minimize: bool = False) -> UCQ:
    """``reformulate_to_ucq`` over the classical fixpoint."""
    ucq = UCQ(tuple(legacy_perfectref(query, tbox)), name=f"{query.name}_ucq")
    return ucq.minimized() if minimize else ucq

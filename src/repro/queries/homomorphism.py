"""Homomorphisms between conjunctive queries; containment and equivalence.

``q1`` is *contained in* ``q2`` (every answer of ``q1`` is an answer of
``q2``, over every database) iff there is a homomorphism from ``q2`` into the
canonical database of ``q1``: a mapping of ``q2``'s variables to ``q1``'s
terms sending every atom of ``q2`` onto an atom of ``q1`` and the head of
``q2`` onto the head of ``q1`` positionwise (Chandra & Merlin).

The search is a backtracking join over the source atoms, ordered once by how
many target atoms share their predicate, which is fast in practice for the
small CQs produced by reformulation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.queries.atoms import Atom
from repro.queries.cq import CQ
from repro.queries.terms import Term, Variable, is_variable


def find_homomorphism(source: CQ, target: CQ) -> Optional[Dict[Variable, Term]]:
    """A homomorphism from *source* into *target*, or None.

    The mapping sends source variables to target terms; constants map to
    themselves; the source head must map positionwise onto the target head.
    """
    if len(source.head) != len(target.head):
        return None

    mapping: Dict[Variable, Term] = {}
    for source_term, target_term in zip(source.head, target.head):
        if is_variable(source_term):
            bound = mapping.get(source_term)
            if bound is None:
                mapping[source_term] = target_term
            elif bound != target_term:
                return None
        elif source_term != target_term:
            return None

    atoms_by_predicate: Dict[Tuple[str, int], List[Atom]] = {}
    for atom in target.atoms:
        atoms_by_predicate.setdefault((atom.predicate, atom.arity), []).append(atom)

    # Source atoms with the fewest same-predicate target atoms first.
    plan: List[Tuple[Atom, List[Atom]]] = []
    for atom in source.atoms:
        options = atoms_by_predicate.get((atom.predicate, atom.arity))
        if not options:
            return None
        plan.append((atom, options))
    plan.sort(key=lambda step: len(step[1]))

    def search(depth: int) -> bool:
        """Map ``plan[depth:]`` under the bindings made so far."""
        if depth == len(plan):
            return True
        atom, options = plan[depth]
        for candidate in options:
            bound = _bind(atom, candidate, mapping)
            if bound is not None:
                if search(depth + 1):
                    return True
                for variable in bound:
                    del mapping[variable]
        return False

    return mapping if search(0) else None


def _bind(
    source_atom: Atom,
    target_atom: Atom,
    mapping: Dict[Variable, Term],
) -> Optional[List[Variable]]:
    """Extend *mapping* in place so that source_atom maps onto target_atom.

    Returns the variables newly bound (for the caller to undo), or None,
    with *mapping* as it was, when the atoms do not match.
    """
    bound: List[Variable] = []
    for source_term, target_term in zip(source_atom.args, target_atom.args):
        if is_variable(source_term):
            image = mapping.get(source_term)
            if image is None:
                mapping[source_term] = target_term
                bound.append(source_term)
                continue
            source_term = image
        if source_term != target_term:
            for variable in bound:
                del mapping[variable]
            return None
    return bound


def is_contained_in(more_specific: CQ, more_general: CQ) -> bool:
    """True iff ``more_specific`` is contained in ``more_general``."""
    return find_homomorphism(more_general, more_specific) is not None


def are_equivalent(first: CQ, second: CQ) -> bool:
    """True iff the two CQs have the same answers on every database."""
    return is_contained_in(first, second) and is_contained_in(second, first)


def contained_in_any(candidate: CQ, others: Sequence[CQ]) -> bool:
    """True iff *candidate* is contained in at least one CQ of *others*."""
    return any(is_contained_in(candidate, other) for other in others)

"""The pre-string-coded ``CQ.canonical_key``, kept verbatim as a test oracle.

``src/repro/queries/cq.py`` replaced this body with a key made of plain
strings. The body below is the code that ran before, moved here
unchanged (``self`` became ``query``), so that tests can assert the two
keys induce the same equivalence classes without a runtime switch.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.queries.atoms import Atom
from repro.queries.cq import CQ
from repro.queries.substitution import Substitution
from repro.queries.terms import Constant, Term, Variable, is_variable


def legacy_canonical_key(query: CQ) -> Tuple[Tuple[Term, ...], Tuple[Atom, ...]]:
    """The key ``CQ.canonical_key`` returned before it was string-coded."""
    renaming: Dict[Variable, Variable] = {}
    for position, term in enumerate(query.head):
        if is_variable(term) and term not in renaming:
            renaming[term] = Variable(f"_h{len(renaming)}")
    fresh_index = 0
    occurrences = query.occurrence_counts()

    def term_class(term: Term) -> Tuple:
        if isinstance(term, Constant):
            return (0, str(term.value))
        if term in renaming:  # head variables only; fixed before the loop
            return (1, renaming[term].name)
        return (2, occurrences[term])

    contexts: Dict[Variable, List[Tuple]] = {}
    for atom in query.atoms:
        for position, term in enumerate(atom.args):
            if is_variable(term) and term not in renaming:
                contexts.setdefault(term, []).append(
                    (
                        atom.predicate,
                        atom.arity,
                        position,
                        tuple(term_class(t) for t in atom.args),
                    )
                )
    signature: Dict[Variable, Tuple] = {
        var: tuple(sorted(occurrence_list))
        for var, occurrence_list in contexts.items()
    }

    def atom_rank(atom: Atom) -> Tuple:
        first_seen: Dict[Variable, int] = {}
        ranks: List[Tuple] = []
        for position, term in enumerate(atom.args):
            if isinstance(term, Constant):
                ranks.append((0, str(term.value)))
            elif term in renaming:
                ranks.append((1, renaming[term].name))
            else:
                first_seen.setdefault(term, position)
                ranks.append((2, signature[term], first_seen[term]))
        return (atom.predicate, atom.arity, tuple(ranks))

    remaining = list(query.atoms)
    ordered: List[Atom] = []
    while remaining:
        best_position = min(
            range(len(remaining)),
            key=lambda i: atom_rank(remaining[i]),
        )
        atom = remaining.pop(best_position)
        for term in atom.args:
            if is_variable(term) and term not in renaming:
                renaming[term] = Variable(f"_b{fresh_index}")
                fresh_index += 1
        ordered.append(atom)

    substitution = Substitution(renaming)
    canonical_head = tuple(substitution.apply_term(t) for t in query.head)

    def atom_sort_key(atom: Atom) -> Tuple:
        # Atoms mixing Constants and Variables at one position are not
        # orderable by the dataclass ordering; rank per term class.
        return (
            atom.predicate,
            atom.arity,
            tuple(
                (0, str(t.value)) if isinstance(t, Constant) else (1, t.name)
                for t in atom.args
            ),
        )

    canonical_atoms = tuple(
        sorted(substitution.apply_atoms(ordered), key=atom_sort_key)
    )
    return (canonical_head, canonical_atoms)

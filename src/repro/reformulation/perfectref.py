"""PerfectRef: CQ-to-UCQ reformulation for DL-LiteR (Calvanese et al. [13]).

The algorithm exhaustively applies two specialization operations to the
input CQ and every CQ generated along the way, until a fixpoint:

* **backward constraint application** — an atom is replaced by the
  left-hand side of an applicable positive inclusion (read in the backward
  direction: the constraint is one of the possible *reasons* the atom may
  hold);
* **reduce** — two body atoms are specialized into their most general
  unifier; unification may turn bound variables into unbound ones, enabling
  further backward applications.

Generated CQs are deduplicated modulo variable renaming via
:meth:`repro.queries.cq.CQ.canonical_key`, which guarantees termination.

Before the fixpoint starts, the input CQ loses every body atom another body
atom implies under the TBox's positive inclusions (atom coverage, as in
Gottlob, Orsi & Pieris): ``takesCourse(x, y)`` implies ``Student(x)`` under
a domain axiom, so ``Student(x)`` need not be rewritten. The reduced query
is equivalent to the input under the TBox, so its reformulation is a
perfect reformulation of the input as well, and a much smaller one: the
exponential step runs on fewer atoms.
"""

from __future__ import annotations

import threading
from typing import FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.dllite.axioms import ConceptInclusion, RoleInclusion
from repro.dllite.tbox import TBox
from repro.dllite.vocabulary import AtomicConcept, BasicConcept, Exists, Role
from repro.obs.metrics import get_registry
from repro.queries.atoms import Atom, concept_atom, role_atom
from repro.queries.cq import CQ
from repro.queries.terms import Term, Variable, fresh_variable
from repro.queries.ucq import UCQ
from repro.queries.unification import most_general_unifier


def _backward_concept_applications(
    atom: Atom,
    target: BasicConcept,
    inclusions: Iterable[ConceptInclusion],
    anchor: Term,
) -> List[Atom]:
    """Atoms obtained by applying inclusions into *target* backward.

    *anchor* is the term of *atom* that instances of *target* bind (the
    argument of a concept atom, or the non-unbound side of a role atom).
    """
    results: List[Atom] = []
    for axiom in inclusions:
        lhs = axiom.lhs
        if isinstance(lhs, AtomicConcept):
            results.append(concept_atom(lhs.name, anchor))
        else:
            assert isinstance(lhs, Exists)
            witness = fresh_variable()
            if lhs.role.inverse:
                results.append(role_atom(lhs.role.name, witness, anchor))
            else:
                results.append(role_atom(lhs.role.name, anchor, witness))
    return results


def _backward_role_application(atom: Atom, axiom: RoleInclusion) -> Atom:
    """Apply a role inclusion backward to a role atom.

    The axiom ``S1 <= S2`` (signed roles) with ``S2.name == atom.predicate``
    states ``S1(u, v) => S2(u, v)``; reading the target atom as the signed
    atom ``S2(u, v)`` fixes ``(u, v)``, and the specialized atom is the
    signed atom ``S1(u, v)`` rendered over the underlying role name.
    """
    first, second = atom.args
    if axiom.rhs.inverse:
        u, v = second, first
    else:
        u, v = first, second
    if axiom.lhs.inverse:
        return role_atom(axiom.lhs.name, v, u)
    return role_atom(axiom.lhs.name, u, v)


def _specializations_of_atom(
    atom: Atom, unbound: FrozenSet[Variable], tbox: TBox
) -> List[Atom]:
    """All single-step backward specializations of *atom*, given the
    *unbound* variables of the query it belongs to."""
    if atom.is_concept_atom:
        target: BasicConcept = AtomicConcept(atom.predicate)
        return _backward_concept_applications(
            atom, target, tbox.inclusions_into_concept(target), atom.args[0]
        )

    results: List[Atom] = []
    subject, obj = atom.args
    if obj in unbound:
        target = Exists(Role(atom.predicate))
        results.extend(
            _backward_concept_applications(
                atom, target, tbox.inclusions_into_concept(target), subject
            )
        )
    if subject in unbound:
        target = Exists(Role(atom.predicate, inverse=True))
        results.extend(
            _backward_concept_applications(
                atom, target, tbox.inclusions_into_concept(target), obj
            )
        )
    for axiom in tbox.inclusions_into_role(atom.predicate):
        results.append(_backward_role_application(atom, axiom))
    return results


def _asserted_concepts(atom: Atom, term: Term) -> List[BasicConcept]:
    """The basic concepts *atom* asserts of *term*: ``B(t)`` asserts ``B``,
    ``R(t, _)`` asserts ``exists R`` and ``R(_, t)`` asserts ``exists R-``."""
    if atom.is_concept_atom:
        return [AtomicConcept(atom.predicate)] if atom.args[0] == term else []
    subject, obj = atom.args
    asserted: List[BasicConcept] = []
    if subject == term:
        asserted.append(Exists(Role(atom.predicate)))
    if obj == term:
        asserted.append(Exists(Role(atom.predicate, inverse=True)))
    return asserted


def _implies(
    other: Atom, atom: Atom, unbound: FrozenSet[Variable], tbox: TBox
) -> bool:
    """True when body atom *other* implies body atom *atom* under the
    positive inclusions of *tbox*, given the query's *unbound* variables:
    *atom* then adds no condition and can leave the body."""

    def asserts(term: Term, concept: BasicConcept) -> bool:
        return any(
            tbox.entails_concept_inclusion(basic, concept)
            for basic in _asserted_concepts(other, term)
        )

    if atom.is_concept_atom:
        return asserts(atom.args[0], AtomicConcept(atom.predicate))
    subject, obj = atom.args
    if obj in unbound and asserts(subject, Exists(Role(atom.predicate))):
        return True
    if subject in unbound and asserts(obj, Exists(Role(atom.predicate, inverse=True))):
        return True
    if other.is_concept_atom:
        return False
    target = Role(atom.predicate)
    if other.args == atom.args and tbox.entails_role_inclusion(
        Role(other.predicate), target
    ):
        return True
    return other.args == (obj, subject) and tbox.entails_role_inclusion(
        Role(other.predicate, inverse=True), target
    )


def _drop_implied_atoms(query: CQ, tbox: TBox) -> CQ:
    """*query* without the body atoms other body atoms imply under *tbox*.

    One atom goes at a time, the first implied one in body order, and the
    unbound variables are recomputed after each drop, so the result does
    not depend on hashing. An implied atom's terms all occur in its
    implier or are unbound, so no head variable leaves the body.
    """
    while len(query.atoms) > 1:
        atoms = query.atoms
        unbound = query.unbound_variables()
        for index, atom in enumerate(atoms):
            if any(
                _implies(other, atom, unbound, tbox)
                for position, other in enumerate(atoms)
                if position != index
            ):
                query = query._child(query.head, atoms[:index] + atoms[index + 1 :])
                break
        else:
            break
    return query


_COUNTS_LOCK = threading.Lock()
#: Process-wide totals over every :func:`perfectref` run: fixpoints run,
#: CQs keyed for deduplication (the input included), CQs kept and input
#: atoms dropped because another atom implies them. The
#: fixpoint is the expensive core the caches exist to avoid; benchmarks
#: take deltas of :func:`perfectref_invocations` to show how much work
#: sharing saved, and candidates ÷ results is the share of its work a
#: fixpoint spends rediscovering CQs it already has.
_COUNTS = {"invocations": 0, "candidates": 0, "results": 0, "eliminated": 0}


def perfectref_invocations() -> int:
    """Process-wide count of PerfectRef fixpoint runs (monotone)."""
    return _COUNTS["invocations"]


def perfectref_candidates() -> int:
    """Process-wide count of CQs PerfectRef keyed for deduplication (monotone)."""
    return _COUNTS["candidates"]


def perfectref_results() -> int:
    """Process-wide count of CQs PerfectRef kept (monotone)."""
    return _COUNTS["results"]


def perfectref_eliminated() -> int:
    """Process-wide count of input atoms PerfectRef dropped as implied by
    another atom of the same query (monotone)."""
    return _COUNTS["eliminated"]


def _record_run(candidates: int, results: int, eliminated: int) -> None:
    """Count one finished fixpoint; safe on concurrent callers' threads."""
    with _COUNTS_LOCK:
        _COUNTS["invocations"] += 1
        _COUNTS["candidates"] += candidates
        _COUNTS["results"] += results
        _COUNTS["eliminated"] += eliminated
    registry = get_registry()
    registry.inc("repro.perfectref.candidates", candidates)
    registry.inc("repro.perfectref.results", results)
    registry.inc("repro.perfectref.eliminated", eliminated)


def perfectref(query: CQ, tbox: TBox, max_queries: Optional[int] = None) -> List[CQ]:
    """The UCQ reformulation of *query* w.r.t. *tbox*, as a list of CQs.

    The first element is always the input query, deduplicated and without
    the atoms other atoms of it imply under *tbox*. ``max_queries``
    optionally bounds the fixpoint as a safety valve for adversarial
    inputs; the workloads in this repository never hit it.
    """
    deduplicated = query.dedup_atoms()
    start = _drop_implied_atoms(deduplicated, tbox)
    seen: Set[Tuple] = {start.canonical_key()}
    results: List[CQ] = [start]
    frontier: List[CQ] = [start]
    candidates = 1

    def consider(candidate: CQ) -> None:
        nonlocal candidates
        if max_queries is not None and len(results) >= max_queries:
            return
        candidates += 1
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
    _record_run(
        candidates, len(results), len(deduplicated.atoms) - len(start.atoms)
    )
    return results


def reformulate_to_ucq(
    query: CQ,
    tbox: TBox,
    minimize: bool = False,
    max_queries: Optional[int] = None,
) -> UCQ:
    """CQ-to-UCQ reformulation, optionally minimized (subsumed CQs removed)."""
    disjuncts = perfectref(query, tbox, max_queries=max_queries)
    ucq = UCQ(tuple(disjuncts), name=f"{query.name}_ucq")
    if minimize:
        ucq = ucq.minimized()
    return ucq

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

Both entry points also take the set of predicates that have no rows in
the data at hand, ``empty`` (default: none, the classical rewriter).
PerfectRef never generates a CQ with an atom over a *dead* predicate, one
whose whole ``dep(P)`` (:meth:`TBox.dependency_closure`) is empty:
backward application stays inside ``dep`` and reduce only unifies atoms
of one predicate, so every descendant of such a CQ keeps an atom over an
empty name and has no answer. :func:`reformulate_to_ucq` then drops every
disjunct with an atom over an empty predicate. The result is a perfect
reformulation only for data on which every name in
:func:`emptiness_stamp` still has no rows.
"""

from __future__ import annotations

import threading
from typing import AbstractSet, FrozenSet, Iterable, List, Optional, Set, Tuple

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
#: CQs keyed for deduplication (the input included), CQs kept, input
#: atoms dropped because another atom implies them, CQs never generated
#: because an atom of theirs is over a dead predicate, and UCQ disjuncts
#: dropped because an atom of theirs is over an empty predicate. The
#: fixpoint is the expensive core the caches exist to avoid; benchmarks
#: take deltas of :func:`perfectref_invocations` to show how much work
#: sharing saved, and candidates ÷ results is the share of its work a
#: fixpoint spends rediscovering CQs it already has.
_COUNTS = {
    "invocations": 0,
    "candidates": 0,
    "results": 0,
    "eliminated": 0,
    "pruned": 0,
    "arms_dropped": 0,
}


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


def perfectref_pruned() -> int:
    """Process-wide count of CQs PerfectRef did not generate because an
    atom of theirs is over a dead predicate (monotone)."""
    return _COUNTS["pruned"]


def arms_dropped_empty() -> int:
    """Process-wide count of UCQ disjuncts :func:`reformulate_to_ucq`
    dropped because an atom of theirs is over an empty predicate
    (monotone)."""
    return _COUNTS["arms_dropped"]


def _record_run(
    candidates: int, results: int, eliminated: int, pruned: int
) -> None:
    """Count one finished fixpoint; safe on concurrent callers' threads."""
    with _COUNTS_LOCK:
        _COUNTS["invocations"] += 1
        _COUNTS["candidates"] += candidates
        _COUNTS["results"] += results
        _COUNTS["eliminated"] += eliminated
        _COUNTS["pruned"] += pruned
    registry = get_registry()
    registry.inc("repro.perfectref.candidates", candidates)
    registry.inc("repro.perfectref.results", results)
    registry.inc("repro.perfectref.eliminated", eliminated)
    registry.inc("repro.perfectref.pruned", pruned)


def emptiness_stamp(
    query: CQ, tbox: TBox, empty: AbstractSet[str]
) -> FrozenSet[str]:
    """The empty predicates a reformulation of *query* under *empty* may
    rely on: ``empty`` met with ``dep(P)`` of every predicate of *query*.

    Every name the rewriting can reach is in that union, so a write to
    any other name cannot change the rewriting. The reformulation stays
    perfect while none of the stamp has a row: ``stamp <= empty`` for a
    caller's current set of empty predicates, ``stamp.isdisjoint(
    nonempty)`` against :attr:`DataStatistics.nonempty`.
    """
    if not empty:
        return frozenset()
    closure = tbox.dependency_closure()
    reachable: Set[str] = set()
    for predicate in {atom.predicate for atom in query.atoms}:
        reachable |= closure.get(predicate, frozenset((predicate,)))
    return frozenset(reachable.intersection(empty))


def perfectref(
    query: CQ,
    tbox: TBox,
    max_queries: Optional[int] = None,
    empty: AbstractSet[str] = frozenset(),
) -> List[CQ]:
    """The UCQ reformulation of *query* w.r.t. *tbox*, as a list of CQs.

    The first element is always the input query, deduplicated and without
    the atoms other atoms of it imply under *tbox*. ``max_queries``
    optionally bounds the fixpoint as a safety valve for adversarial
    inputs; the workloads in this repository never hit it. No other
    element has an atom over a predicate :meth:`TBox.dead_predicates`
    finds dead under *empty*; when the input has one, nothing else is
    derived.
    """
    deduplicated = query.dedup_atoms()
    start = _drop_implied_atoms(deduplicated, tbox)
    dead = tbox.dead_predicates(empty)
    seen: Set[Tuple] = {start.canonical_key()}
    results: List[CQ] = [start]
    frontier: List[CQ] = [start]
    if any(atom.predicate in dead for atom in start.atoms):
        frontier.clear()
    candidates = 1
    pruned = 0

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
                # The only new predicate is the specialized atom's: reduce
                # never brings one in, and no frontier CQ has a dead atom.
                if specialized.predicate in dead:
                    pruned += 1
                    continue
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
        candidates,
        len(results),
        len(deduplicated.atoms) - len(start.atoms),
        pruned,
    )
    return results


def reformulate_to_ucq(
    query: CQ,
    tbox: TBox,
    minimize: bool = False,
    max_queries: Optional[int] = None,
    empty: AbstractSet[str] = frozenset(),
) -> UCQ:
    """CQ-to-UCQ reformulation, optionally minimized (subsumed CQs removed).

    Disjuncts with an atom over a predicate in *empty* are dropped before
    minimization; if that would drop them all, the first one stays.
    """
    disjuncts = perfectref(query, tbox, max_queries=max_queries, empty=empty)
    if empty:
        kept = [
            cq
            for cq in disjuncts
            if not any(atom.predicate in empty for atom in cq.atoms)
        ]
        if len(kept) < len(disjuncts):
            with _COUNTS_LOCK:
                _COUNTS["arms_dropped"] += len(disjuncts) - max(len(kept), 1)
            disjuncts = kept or disjuncts[:1]
    ucq = UCQ(tuple(disjuncts), name=f"{query.name}_ucq")
    if minimize:
        ucq = ucq.minimized()
    return ucq

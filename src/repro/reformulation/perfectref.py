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


_COUNTS_LOCK = threading.Lock()
#: Process-wide totals over every :func:`perfectref` run: fixpoints run,
#: CQs keyed for deduplication (the input included) and CQs kept. The
#: fixpoint is the expensive core the caches exist to avoid; benchmarks
#: take deltas of :func:`perfectref_invocations` to show how much work
#: sharing saved, and candidates ÷ results is the share of its work a
#: fixpoint spends rediscovering CQs it already has.
_COUNTS = {"invocations": 0, "candidates": 0, "results": 0}


def perfectref_invocations() -> int:
    """Process-wide count of PerfectRef fixpoint runs (monotone)."""
    return _COUNTS["invocations"]


def perfectref_candidates() -> int:
    """Process-wide count of CQs PerfectRef keyed for deduplication (monotone)."""
    return _COUNTS["candidates"]


def perfectref_results() -> int:
    """Process-wide count of CQs PerfectRef kept (monotone)."""
    return _COUNTS["results"]


def _record_run(candidates: int, results: int) -> None:
    """Count one finished fixpoint; safe on serving-pool threads."""
    with _COUNTS_LOCK:
        _COUNTS["invocations"] += 1
        _COUNTS["candidates"] += candidates
        _COUNTS["results"] += results
    registry = get_registry()
    registry.inc("repro.perfectref.candidates", candidates)
    registry.inc("repro.perfectref.results", results)


def perfectref(query: CQ, tbox: TBox, max_queries: Optional[int] = None) -> List[CQ]:
    """The UCQ reformulation of *query* w.r.t. *tbox*, as a list of CQs.

    The first element is always (a deduplicated copy of) the input query.
    ``max_queries`` optionally bounds the fixpoint as a safety valve for
    adversarial inputs; the workloads in this repository never hit it.
    """
    start = query.dedup_atoms()
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
    _record_run(candidates, len(results))
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

"""TBoxes: axiom sets with saturation and inclusion entailment.

Besides storing axioms, a :class:`TBox` exposes the two views the rest of
the system needs:

* **PerfectRef view** — positive inclusions indexed by their right-hand
  side, to drive backward application (``inclusions_into_concept``,
  ``inclusions_into_role``);
* **entailment view** — the saturated (transitively closed) sets of basic
  concept and signed role inclusions, including the interaction
  ``R1 <= R2  entails  exists R1 <= exists R2`` and
  ``exists R1- <= exists R2-``, used for inclusion entailment
  (paper Example 2) and consistency checking.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.dllite.axioms import Axiom, ConceptInclusion, RoleInclusion
from repro.dllite.vocabulary import (
    AtomicConcept,
    BasicConcept,
    Exists,
    Role,
    predicate_name,
)


class TBox:
    """An immutable collection of DL-LiteR axioms with derived indexes."""

    def __init__(self, axioms: Iterable[Axiom] = ()) -> None:
        unique: List[Axiom] = []
        seen: Set[Axiom] = set()
        for axiom in axioms:
            if axiom not in seen:
                seen.add(axiom)
                unique.append(axiom)
        self._axioms: Tuple[Axiom, ...] = tuple(unique)
        self._saturated_concepts: Optional[Dict[BasicConcept, Set[BasicConcept]]] = None
        self._saturated_roles: Optional[Dict[Role, Set[Role]]] = None
        self._dependency_closure: Optional[Mapping[str, FrozenSet[str]]] = None
        self._last_dead: Tuple[object, FrozenSet[str]] = (None, frozenset())
        into_concept: Dict[BasicConcept, List[ConceptInclusion]] = {}
        into_role: Dict[str, List[RoleInclusion]] = {}
        for axiom in self._axioms:
            if isinstance(axiom, ConceptInclusion) and not axiom.negative:
                into_concept.setdefault(axiom.rhs, []).append(axiom)
            elif isinstance(axiom, RoleInclusion) and not axiom.negative:
                into_role.setdefault(axiom.rhs.name, []).append(axiom)
        # Tuples, so that lookups can hand out the index's own entries.
        self._rhs_concept_index = {k: tuple(v) for k, v in into_concept.items()}
        self._rhs_role_index = {k: tuple(v) for k, v in into_role.items()}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def axioms(self) -> Tuple[Axiom, ...]:
        """All axioms, declaration order, duplicates removed."""
        return self._axioms

    def __len__(self) -> int:
        return len(self._axioms)

    def __iter__(self) -> Iterator[Axiom]:
        return iter(self._axioms)

    def positive_axioms(self) -> List[Axiom]:
        """Axioms without right-hand-side negation."""
        return [a for a in self._axioms if not a.negative]

    def negative_axioms(self) -> List[Axiom]:
        """Disjointness axioms (negated right-hand side)."""
        return [a for a in self._axioms if a.negative]

    def concept_names(self) -> FrozenSet[str]:
        """All concept names mentioned by any axiom."""
        names: Set[str] = set()
        for axiom in self._axioms:
            for side in (axiom.lhs, axiom.rhs):
                if isinstance(side, AtomicConcept):
                    names.add(side.name)
        return frozenset(names)

    def role_names(self) -> FrozenSet[str]:
        """All role names mentioned by any axiom."""
        names: Set[str] = set()
        for axiom in self._axioms:
            for side in (axiom.lhs, axiom.rhs):
                if isinstance(side, Role):
                    names.add(side.name)
                elif isinstance(side, Exists):
                    names.add(side.role.name)
        return frozenset(names)

    def predicate_names(self) -> FrozenSet[str]:
        """Union of concept and role names."""
        return self.concept_names() | self.role_names()

    # ------------------------------------------------------------------
    # PerfectRef view
    # ------------------------------------------------------------------
    def inclusions_into_concept(
        self, target: BasicConcept
    ) -> Sequence[ConceptInclusion]:
        """Positive concept inclusions whose right-hand side is *target*."""
        return self._rhs_concept_index.get(target, ())

    def inclusions_into_role(self, role_name: str) -> Sequence[RoleInclusion]:
        """Positive role inclusions whose right-hand side uses *role_name*."""
        return self._rhs_role_index.get(role_name, ())

    def dependency_closure(self) -> Mapping[str, FrozenSet[str]]:
        """``dep(N)`` (Definition 4) for every predicate name of the signature.

        ``dep(N)`` is the set of names ``N`` may turn into through backward
        constraint applications: the fixpoint of ``dep(N) ∪ {cr(Y) | Y <= X
        in T, cr(X) in dep(N)}``, ``cr`` stripping inverses and existentials
        down to the bare name. Names outside the signature depend only on
        themselves and are not listed. Computed on first use and kept: the
        TBox is immutable, and every cover search asks.
        """
        if self._dependency_closure is None:
            edges: Dict[str, Set[str]] = {}
            for axiom in self.positive_axioms():
                edges.setdefault(predicate_name(axiom.rhs), set()).add(
                    predicate_name(axiom.lhs)
                )
            closure: Dict[str, Set[str]] = {
                name: {name} for name in self.predicate_names()
            }
            changed = True
            while changed:
                changed = False
                for deps in closure.values():
                    additions: Set[str] = set()
                    for dep in deps:
                        additions |= edges.get(dep, set())
                    new = additions - deps
                    if new:
                        deps |= new
                        changed = True
            self._dependency_closure = {
                name: frozenset(deps) for name, deps in closure.items()
            }
        return self._dependency_closure

    def dead_predicates(self, empty: AbstractSet[str]) -> FrozenSet[str]:
        """The names in *empty* whose every dependency (``dep``, above) is
        in *empty* too: no CQ a rewriting derives from an atom over one
        has an answer.

        The last result for a frozen *empty* is kept, keyed by its
        identity: a system hands every fragment of a search one set.
        """
        if not empty:
            return frozenset()
        last_empty, dead = self._last_dead
        if last_empty is empty:
            return dead
        closure = self.dependency_closure()
        dead = frozenset(
            name for name in empty if closure.get(name, frozenset((name,))) <= empty
        )
        if isinstance(empty, frozenset):
            self._last_dead = (empty, dead)
        return dead

    # ------------------------------------------------------------------
    # Saturation
    # ------------------------------------------------------------------
    def _saturate(self) -> None:
        if self._saturated_concepts is not None:
            return
        role_closure: Dict[Role, Set[Role]] = {}

        def add_role_edge(sub: Role, sup: Role) -> None:
            role_closure.setdefault(sub, set()).add(sup)

        for axiom in self._axioms:
            if isinstance(axiom, RoleInclusion) and not axiom.negative:
                add_role_edge(axiom.lhs, axiom.rhs)
                add_role_edge(axiom.lhs.inverted(), axiom.rhs.inverted())

        _transitive_closure(role_closure)

        concept_closure: Dict[BasicConcept, Set[BasicConcept]] = {}

        def add_concept_edge(sub: BasicConcept, sup: BasicConcept) -> None:
            concept_closure.setdefault(sub, set()).add(sup)

        for axiom in self._axioms:
            if isinstance(axiom, ConceptInclusion) and not axiom.negative:
                add_concept_edge(axiom.lhs, axiom.rhs)
        for sub, supers in role_closure.items():
            for sup in supers:
                add_concept_edge(Exists(sub), Exists(sup))
                add_concept_edge(Exists(sub.inverted()), Exists(sup.inverted()))

        _transitive_closure(concept_closure)

        self._saturated_roles = role_closure
        self._saturated_concepts = concept_closure

    def super_concepts(self, basic: BasicConcept) -> Set[BasicConcept]:
        """All basic concepts entailed to include *basic* (reflexive)."""
        self._saturate()
        assert self._saturated_concepts is not None
        result = set(self._saturated_concepts.get(basic, ()))
        result.add(basic)
        return result

    def super_roles(self, signed: Role) -> Set[Role]:
        """All signed roles entailed to include *signed* (reflexive)."""
        self._saturate()
        assert self._saturated_roles is not None
        result = set(self._saturated_roles.get(signed, ()))
        result.add(signed)
        return result

    # ------------------------------------------------------------------
    # Entailment
    # ------------------------------------------------------------------
    def entails_concept_inclusion(
        self, lhs: BasicConcept, rhs: BasicConcept, negative: bool = False
    ) -> bool:
        """Decide ``T |= lhs <= rhs`` (or ``lhs <= not rhs``)."""
        if not negative:
            return rhs in self.super_concepts(lhs)
        lhs_supers = self.super_concepts(lhs)
        rhs_supers = self.super_concepts(rhs)
        for declared in self.negative_axioms():
            forbidden = _concept_disjointness(declared)
            if forbidden is None:
                continue
            first, second = forbidden
            if (first in lhs_supers and second in rhs_supers) or (
                first in rhs_supers and second in lhs_supers
            ):
                return True
        return False

    def entails_role_inclusion(
        self, lhs: Role, rhs: Role, negative: bool = False
    ) -> bool:
        """Decide ``T |= lhs <= rhs`` (or ``lhs <= not rhs``) over roles."""
        if not negative:
            return rhs in self.super_roles(lhs)
        lhs_supers = self.super_roles(lhs)
        rhs_supers = self.super_roles(rhs)
        for declared in self.negative_axioms():
            if not isinstance(declared, RoleInclusion):
                continue
            pairs = [
                (declared.lhs, declared.rhs),
                (declared.lhs.inverted(), declared.rhs.inverted()),
            ]
            for first, second in pairs:
                if (first in lhs_supers and second in rhs_supers) or (
                    first in rhs_supers and second in lhs_supers
                ):
                    return True
        return False

    def entails(self, axiom: Axiom) -> bool:
        """Decide ``T |= axiom`` for any axiom kind."""
        if isinstance(axiom, ConceptInclusion):
            return self.entails_concept_inclusion(axiom.lhs, axiom.rhs, axiom.negative)
        if isinstance(axiom, RoleInclusion):
            return self.entails_role_inclusion(axiom.lhs, axiom.rhs, axiom.negative)
        raise TypeError(f"not an axiom: {axiom!r}")

    def extended_with(self, axioms: Iterable[Axiom]) -> "TBox":
        """A new TBox with *axioms* appended."""
        return TBox(list(self._axioms) + list(axioms))

    def statistics(self) -> Dict[str, int]:
        """Signature and axiom-shape counts (used by the benchmark reports)."""
        counts = {
            "concepts": len(self.concept_names()),
            "roles": len(self.role_names()),
            "axioms": len(self._axioms),
            "concept_inclusions": 0,
            "role_inclusions": 0,
            "existential_rhs": 0,
            "negative": 0,
        }
        for axiom in self._axioms:
            if axiom.negative:
                counts["negative"] += 1
            if isinstance(axiom, ConceptInclusion):
                counts["concept_inclusions"] += 1
                if isinstance(axiom.rhs, Exists) and not axiom.negative:
                    counts["existential_rhs"] += 1
            else:
                counts["role_inclusions"] += 1
        return counts

    def __str__(self) -> str:
        return "\n".join(str(a) for a in self._axioms)


def _transitive_closure(graph: Dict) -> None:
    """In-place transitive closure of an adjacency-set graph."""
    changed = True
    while changed:
        changed = False
        for node, successors in list(graph.items()):
            additions = set()
            for successor in successors:
                additions |= graph.get(successor, set())
            new = additions - successors
            if new:
                successors |= new
                changed = True


def _concept_disjointness(axiom: Axiom) -> Optional[Tuple[BasicConcept, BasicConcept]]:
    """The pair of disjoint basic concepts an axiom declares, if any.

    Negative role inclusions ``R1 <= not R2`` also induce the concept-level
    disjointness of their domains only when combined with further reasoning;
    for the purposes of concept-level disjointness we return None for them
    (they are checked at the role level by the consistency query).
    """
    if isinstance(axiom, ConceptInclusion) and axiom.negative:
        return (axiom.lhs, axiom.rhs)
    return None

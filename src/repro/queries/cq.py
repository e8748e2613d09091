"""Conjunctive queries (CQs), the base dialect of the framework.

A CQ is ``q(x1, ..., xk) <- a1 AND ... AND an`` where the head terms are the
*distinguished* (free) variables and the body is a conjunction of atoms.
Body variables not in the head are existentially quantified.

The class is immutable; reformulation operates by producing new CQs. Two
notions of identity matter here:

* **structural equality** (``==``): same head, same atom tuple;
* **equality modulo variable renaming**: captured by :meth:`CQ.canonical_key`,
  a deterministic normal form used to deduplicate the thousands of CQs that
  the PerfectRef fixpoint generates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.queries.atoms import Atom
from repro.queries.substitution import Substitution
from repro.queries.terms import Term, Variable, is_variable


@dataclass(frozen=True)
class CQ:
    """A conjunctive query with head ``head`` and body ``atoms``."""

    head: Tuple[Term, ...]
    atoms: Tuple[Atom, ...]
    name: str = "q"

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("a CQ must have at least one body atom")
        body_vars = self.variables()
        for term in self.head:
            if is_variable(term) and term not in body_vars:
                raise ValueError(
                    f"head variable {term} does not appear in the body of {self.name}"
                )

    # ------------------------------------------------------------------
    # Variable structure
    # ------------------------------------------------------------------
    def variables(self) -> FrozenSet[Variable]:
        """All variables appearing in the body."""
        return frozenset(v for atom in self.atoms for v in atom.variables())

    def head_variables(self) -> FrozenSet[Variable]:
        """Variables appearing in the head (the distinguished variables)."""
        return frozenset(t for t in self.head if is_variable(t))

    def existential_variables(self) -> FrozenSet[Variable]:
        """Body variables not exported by the head."""
        return self.variables() - self.head_variables()

    def occurrence_counts(self) -> Dict[Variable, int]:
        """Number of occurrences of each variable across body atom positions."""
        counts: Dict[Variable, int] = {}
        for atom in self.atoms:
            for term in atom.args:
                if is_variable(term):
                    counts[term] = counts.get(term, 0) + 1
        return counts

    def unbound_variables(self) -> FrozenSet[Variable]:
        """Variables playing the role of ``_`` in PerfectRef.

        A variable is *unbound* when it occurs exactly once in the body and
        is not distinguished; such a variable carries no join or output
        obligation, which is what makes certain backward constraint
        applications legal.
        """
        head_vars = self.head_variables()
        return frozenset(
            var
            for var, count in self.occurrence_counts().items()
            if count == 1 and var not in head_vars
        )

    # ------------------------------------------------------------------
    # Graph structure
    # ------------------------------------------------------------------
    def atoms_sharing_variable(self) -> Dict[Variable, List[int]]:
        """Map each variable to the indexes of the atoms it appears in."""
        index: Dict[Variable, List[int]] = {}
        for position, atom in enumerate(self.atoms):
            for var in set(atom.variables()):
                index.setdefault(var, []).append(position)
        return index

    def is_connected(self) -> bool:
        """True when the body atoms form one join-connected component."""
        return len(self.connected_components()) <= 1

    def atom_adjacency(self) -> Dict[int, Set[int]]:
        """The join graph of the body: atom index -> atoms sharing a variable."""
        adjacency: Dict[int, Set[int]] = {i: set() for i in range(len(self.atoms))}
        for positions in self.atoms_sharing_variable().values():
            for i in positions:
                adjacency[i].update(j for j in positions if j != i)
        return adjacency

    def connected_components(self) -> List[FrozenSet[int]]:
        """Partition atom indexes into join-connected components."""
        adjacency = self.atom_adjacency()
        seen: Set[int] = set()
        components: List[FrozenSet[int]] = []
        for start in range(len(self.atoms)):
            if start in seen:
                continue
            stack = [start]
            component: Set[int] = set()
            while stack:
                node = stack.pop()
                if node in component:
                    continue
                component.add(node)
                stack.extend(adjacency[node] - component)
            seen |= component
            components.append(frozenset(component))
        return components

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def _child(self, head: Tuple[Term, ...], atoms: Tuple[Atom, ...]) -> "CQ":
        """A CQ derived from this one by a step that cannot take a head
        variable out of the body — a substitution applied to head and body
        alike, duplicate atoms dropped, PerfectRef specializing one atom
        (only an unbound, hence non-head, variable can disappear) — so the
        validation of ``__post_init__`` is skipped."""
        child = object.__new__(CQ)
        object.__setattr__(child, "head", head)
        object.__setattr__(child, "atoms", atoms)
        object.__setattr__(child, "name", self.name)
        return child

    def apply(self, substitution: Substitution) -> "CQ":
        """Apply *substitution* to head and body, returning a new CQ."""
        return self._child(
            tuple(substitution.apply_term(t) for t in self.head),
            substitution.apply_atoms(self.atoms),
        )

    def with_atoms(self, atoms: Sequence[Atom]) -> "CQ":
        """Return a copy of this CQ with a replaced body."""
        return CQ(head=self.head, atoms=tuple(atoms), name=self.name)

    def dedup_atoms(self) -> "CQ":
        """Remove syntactically duplicate atoms, preserving first occurrence."""
        seen: Set[Atom] = set()
        kept: List[Atom] = []
        for atom in self.atoms:
            if atom not in seen:
                seen.add(atom)
                kept.append(atom)
        if len(kept) == len(self.atoms):
            return self
        return self._child(self.head, tuple(kept))

    # ------------------------------------------------------------------
    # Canonical form
    # ------------------------------------------------------------------
    def canonical_key(self) -> Tuple[Tuple[str, ...], Tuple[Tuple[str, ...], ...]]:
        """An opaque, hashable normal form for equality modulo variable renaming.

        Head variables are named positionally first (``_h0``, ``_h1``, …);
        the remaining variables are named ``_b0``, ``_b1``, … greedily, in
        the order the lexicographically least not-yet-chosen atom mentions
        them. Ties between not-yet-named variables are broken by
        order-independent structure — a one-step refinement signature (the
        sorted multiset of the variable's occurrence contexts, each with
        the classes of its co-arguments) plus the repetition pattern
        within the atom — never by atom position, so the key is invariant
        under reordering the body.

        The key is ``(head codes, sorted (predicate, argument code, …)
        tuples)``, all plain ``str``: a variable's code is its canonical
        name, a constant's is ``"#" + repr(value)`` (injective, and no
        canonical name starts with ``#``). Callers must treat it as
        opaque: hash it, compare it, nothing else. Two CQs with equal keys
        are isomorphic. (For highly symmetric bodies two isomorphic CQs
        could in principle receive different keys; this only causes a
        harmless duplicate during deduplication, never an incorrect
        merge.)
        """
        names: Dict[str, str] = {}  # input variable name -> canonical name
        for term in self.head:
            if isinstance(term, Variable) and term.name not in names:
                names[term.name] = f"_h{len(names)}"
        head_names = dict(names)
        # Flatten once: a variable becomes its name, a constant stays itself.
        flat = [
            (
                atom.predicate,
                tuple([t.name if isinstance(t, Variable) else t for t in atom.args]),
            )
            for atom in self.atoms
        ]
        # An atom's rank starts with (predicate, arity), so the greedy
        # selection empties one such group before it looks at the next, and
        # only inside a group of several atoms does the rest of the rank —
        # and so the signatures — get compared at all.
        group_of = [(predicate, len(args)) for predicate, args in flat]
        order = sorted(range(len(flat)), key=group_of.__getitem__)
        signature: Optional[Dict[str, Tuple]] = None
        fresh = 0
        start = 0
        while start < len(order):
            end = start + 1
            while end < len(order) and group_of[order[end]] == group_of[order[start]]:
                end += 1
            group = order[start:end]  # body order: the first minimum wins
            start = end
            ranks: Dict[int, Tuple] = {}
            if len(group) > 1:
                if signature is None:
                    signature = _signatures(flat, head_names)
                ranks = {i: _atom_rank(flat[i][1], names, signature) for i in group}
            while group:
                best = min(group, key=ranks.__getitem__) if len(group) > 1 else group[0]
                group.remove(best)
                named = set()
                for arg in flat[best][1]:
                    if type(arg) is str and arg not in names:
                        names[arg] = f"_b{fresh}"
                        fresh += 1
                        named.add(arg)
                if named and len(group) > 1:
                    for i in group:
                        if not named.isdisjoint(flat[i][1]):
                            ranks[i] = _atom_rank(flat[i][1], names, signature)

        def code(arg) -> str:
            return names[arg] if type(arg) is str else "#" + repr(arg.value)

        return (
            tuple([code(t.name if isinstance(t, Variable) else t) for t in self.head]),
            tuple(sorted([(predicate, *map(code, args)) for predicate, args in flat])),
        )

    def rename_apart(self, taken: Iterable[Variable]) -> "CQ":
        """Rename body variables so none collides with *taken*.

        Head variables are preserved (callers must ensure the head does not
        collide); only existential variables are renamed.
        """
        taken_set = set(taken)
        mapping: Dict[Variable, Variable] = {}
        for var in sorted(self.existential_variables()):
            if var in taken_set:
                from repro.queries.terms import fresh_variable

                replacement = fresh_variable("_r")
                while replacement in taken_set:
                    replacement = fresh_variable("_r")
                mapping[var] = replacement
                taken_set.add(replacement)
        if not mapping:
            return self
        return self.apply(Substitution(mapping))

    def __str__(self) -> str:
        head_render = ", ".join(str(t) for t in self.head)
        body_render = " AND ".join(str(a) for a in self.atoms)
        return f"{self.name}({head_render}) <- {body_render}"


def _signatures(
    flat: List[Tuple[str, Tuple]], head_names: Dict[str, str]
) -> Dict[str, Tuple]:
    """One-step refinement signature of every non-head variable of a
    flattened body: the sorted multiset of its occurrence contexts, each
    with the classes of its co-arguments (constant, head variable, or a
    body variable's occurrence count)."""
    occurrences: Dict[str, int] = {}
    for _, args in flat:
        for arg in args:
            if type(arg) is str:
                occurrences[arg] = occurrences.get(arg, 0) + 1
    contexts: Dict[str, List[Tuple]] = {}
    for predicate, args in flat:
        classes = tuple(
            [
                (0, str(arg.value))
                if type(arg) is not str
                else (1, head_names[arg])
                if arg in head_names
                else (2, occurrences[arg])
                for arg in args
            ]
        )
        for position, arg in enumerate(args):
            if type(arg) is str and arg not in head_names:
                contexts.setdefault(arg, []).append(
                    (predicate, len(args), position, classes)
                )
    return {name: tuple(sorted(found)) for name, found in contexts.items()}


def _atom_rank(
    args: Tuple, names: Dict[str, str], signature: Dict[str, Tuple]
) -> Tuple:
    """Where :meth:`CQ.canonical_key` orders one flattened atom among
    those of its predicate and arity.

    Constants rank before named variables before not-yet-named ones; a
    not-yet-named variable ranks by its signature, then by the position
    of its first occurrence in this atom (the repetition pattern).
    """
    first_seen: Dict[str, int] = {}
    entries: List[Tuple] = []
    for position, arg in enumerate(args):
        if type(arg) is not str:
            entries.append((0, str(arg.value)))
        elif arg in names:
            entries.append((1, names[arg]))
        else:
            entries.append((2, signature[arg], first_seen.setdefault(arg, position)))
    return tuple(entries)


def make_cq(name: str, head: Sequence[Term], atoms: Sequence[Atom]) -> CQ:
    """Convenience constructor accepting any sequences."""
    return CQ(head=tuple(head), atoms=tuple(atoms), name=name)

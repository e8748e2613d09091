"""Incrementally maintained saturation: the chase as a live data structure.

The test oracle in :mod:`repro.dllite.saturation` rebuilds the whole chase
on every call; serving a write workload needs the opposite: a saturated
fact store that is *maintained* as facts arrive and depart. This module
provides it, exploiting a structural gift of DL-LiteR: every positive
axiom is a **single-premise rule** (one body atom), so derivations form a
BFS-able graph and semi-naive evaluation degenerates to pure per-predicate
delta propagation — no joins inside rule bodies, ever.

* :meth:`Saturator.saturate` — full semi-naive chase from the ABox;
* :meth:`Saturator.insert` — delta chase: only consequences of the new
  facts are derived;
* :meth:`Saturator.delete` — delete/re-derive (DRed [Gupta, Mumick &
  Subrahmanian]): over-delete everything the removed facts could have
  supported, then re-admit what is still derivable and re-fire existential
  rules for members that lost their witness.

Existential axioms (``A <= exists R``) are honoured exactly as in the
oracle chase: a fresh labeled null witnesses each unwitnessed member, up
to ``max_generations`` nesting of nulls; hitting the bound sets
``truncated`` so callers can refuse to trust answers. Each mutation
returns the net ``(added, removed)`` fact deltas, which is precisely what
the OBDA system mirrors into its backend as stored-tuple inserts/deletes.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.dllite.abox import ABox, Assertion, ConceptAssertion, RoleAssertion
from repro.dllite.axioms import ConceptInclusion, RoleInclusion
from repro.dllite.positions import PositionCounts
from repro.dllite.saturation import NULL_PREFIX, is_null
from repro.dllite.tbox import TBox
from repro.dllite.vocabulary import AtomicConcept, Exists

#: A fact is a (predicate name, row) pair; rows are 1- or 2-tuples.
Fact = Tuple[str, Tuple]

FactStore = Dict[str, Set[Tuple]]


@dataclass(frozen=True)
class _RoleRule:
    """``lhs-role <= rhs-role`` compiled to row rewriting.

    A premise row ``(s, o)`` is read logically as ``(o, s)`` when
    ``swap_in`` (inverse on the left), and the logical pair is written
    reversed when ``swap_out`` (inverse on the right).
    """

    premise: str
    swap_in: bool
    target: str
    swap_out: bool

    def consequent(self, row: Tuple) -> Fact:
        x, y = (row[1], row[0]) if self.swap_in else (row[0], row[1])
        return (self.target, (y, x) if self.swap_out else (x, y))

    def premise_row(self, row: Tuple) -> Tuple:
        """The premise row that would derive target row *row* (inverse
        direction, used by the re-derivation check)."""
        x, y = (row[1], row[0]) if self.swap_out else (row[0], row[1])
        return (y, x) if self.swap_in else (x, y)


@dataclass(frozen=True)
class _MemberRule:
    """A concept inclusion compiled to member extraction + emission.

    The premise contributes a *member* (the individual whose basic-concept
    membership fires the rule): column ``member_pos`` of the premise
    predicate. The consequence is either membership in an atomic concept
    (``target_concept``) or existence of a role witness (``target_role``
    with the member at ``target_member_pos``).
    """

    premise: str
    premise_arity: int
    member_pos: int
    target_concept: Optional[str] = None
    target_role: Optional[str] = None
    target_member_pos: int = 0

    @property
    def is_existential(self) -> bool:
        return self.target_role is not None

    @property
    def target_witness_pos(self) -> int:
        return 1 - self.target_member_pos


class Saturator:
    """A chase kept current under inserts and deletes.

    The authoritative saturated store lives here, in decoded constants
    (the OBDA system translates deltas to dictionary-encoded rows for its
    backend). ``store`` always equals ``chase(base facts)`` up to the
    choice of null names — an invariant the property tests pin against the
    oracle after arbitrary mixed write sequences.
    """

    def __init__(
        self, tbox: TBox, abox: ABox, max_generations: int = 4
    ) -> None:
        self.tbox = tbox
        self.abox = abox
        self.max_generations = max_generations
        #: (rule, member) pairs whose existential firing the generation
        #: bound suppressed; pruned lazily by :attr:`truncated`, so the
        #: flag clears itself when the suppressing facts are deleted (or
        #: the member gains a real witness) — never sticky.
        self._suppressed: Set[Tuple[_MemberRule, str]] = set()
        self.store: FactStore = {}
        #: generation of each labeled null (constants are generation 0)
        self._generation: Dict[str, int] = {}
        self._null_counter = itertools.count()
        #: Multiset of the values at each position of every stored role
        #: row, for O(1) witness checks and backward membership checks;
        #: the data statistics read their distinct counts off the same
        #: instance (``DataStatistics.share_positions``).
        self.positions = PositionCounts()
        #: how many store rows mention each live null; when a null's count
        #: hits zero its name is recycled (``_free_nulls``) so a long
        #: churn workload neither leaks generation entries nor grows the
        #: dictionary without bound.
        self._null_refs: Counter = Counter()
        self._free_nulls: List[str] = []
        #: role -> its rows that contain a null (the existential
        #: witnesses), so redundancy checks and over-deletes touch only
        #: the null rows, never the whole extension.
        self._null_rows: Dict[str, Set[Tuple]] = {}
        self._compile_rules()

    # ------------------------------------------------------------------
    # Rule compilation
    # ------------------------------------------------------------------
    def _compile_rules(self) -> None:
        self._role_rules: Dict[str, List[_RoleRule]] = {}
        self._member_rules: Dict[str, List[_MemberRule]] = {}
        self._rules_into_concept: Dict[str, List[_MemberRule]] = {}
        self._rules_into_role: Dict[str, List[_RoleRule]] = {}
        self._existential_rules: List[_MemberRule] = []
        for axiom in self.tbox.axioms:
            if axiom.negative:
                continue
            if isinstance(axiom, RoleInclusion):
                rule = _RoleRule(
                    premise=axiom.lhs.name,
                    swap_in=axiom.lhs.inverse,
                    target=axiom.rhs.name,
                    swap_out=axiom.rhs.inverse,
                )
                self._role_rules.setdefault(rule.premise, []).append(rule)
                self._rules_into_role.setdefault(rule.target, []).append(rule)
                continue
            assert isinstance(axiom, ConceptInclusion)
            lhs = axiom.lhs
            if isinstance(lhs, Exists):
                premise = lhs.role.name
                arity = 2
                member_pos = 1 if lhs.role.inverse else 0
            else:
                assert isinstance(lhs, AtomicConcept)
                premise = lhs.name
                arity = 1
                member_pos = 0
            rhs = axiom.rhs
            if isinstance(rhs, Exists):
                witness_pos = 0 if rhs.role.inverse else 1
                rule = _MemberRule(
                    premise=premise,
                    premise_arity=arity,
                    member_pos=member_pos,
                    target_role=rhs.role.name,
                    target_member_pos=1 - witness_pos,
                )
                self._existential_rules.append(rule)
            else:  # AtomicConcept
                rule = _MemberRule(
                    premise=premise,
                    premise_arity=arity,
                    member_pos=member_pos,
                    target_concept=rhs.name,
                )
                self._rules_into_concept.setdefault(rhs.name, []).append(rule)
            self._member_rules.setdefault(premise, []).append(rule)

    # ------------------------------------------------------------------
    # Store primitives
    # ------------------------------------------------------------------
    def _add(self, fact: Fact) -> bool:
        predicate, row = fact
        rows = self.store.setdefault(predicate, set())
        if row in rows:
            return False
        rows.add(row)
        if len(row) == 2:
            self.positions.add(predicate, row)
        has_null = False
        for value in row:
            if is_null(value):
                has_null = True
                self._null_refs[value] += 1
        if has_null and len(row) == 2:
            self._null_rows.setdefault(predicate, set()).add(row)
        return True

    def _remove(self, fact: Fact) -> bool:
        predicate, row = fact
        rows = self.store.get(predicate)
        if rows is None or row not in rows:
            return False
        rows.discard(row)
        if len(row) == 2:
            self.positions.remove(predicate, row)
        has_null = False
        for value in row:
            if is_null(value):
                has_null = True
                self._null_refs[value] -= 1
                if self._null_refs[value] <= 0:
                    # The null left the store entirely: free its
                    # generation entry and recycle the name (fresh again
                    # by construction — nothing references it).
                    del self._null_refs[value]
                    self._generation.pop(value, None)
                    self._free_nulls.append(value)
        if has_null and len(row) == 2:
            null_rows = self._null_rows.get(predicate)
            if null_rows is not None:
                null_rows.discard(row)
        return True

    def _contains(self, fact: Fact) -> bool:
        return fact[1] in self.store.get(fact[0], ())

    def _witnessed(self, role: str, member_pos: int, member: str) -> bool:
        return self.positions.count(role, member_pos, member) > 0

    def _generation_of(self, value: str) -> int:
        return self._generation.get(value, 0)

    def _suppression_live(self, rule: _MemberRule, member: str) -> bool:
        """A suppression is live while the rule still wants to fire for
        *member* and still cannot: premise holds, no witness, at the
        generation bound."""
        return (
            self._generation_of(member) >= self.max_generations
            and self._member_holds(rule, member)
            and not self._witnessed(
                rule.target_role, rule.target_member_pos, member
            )
        )

    @property
    def truncated(self) -> bool:
        """Whether the store currently under-approximates the chase.

        Pure read (safe for answer-path threads racing a writer): dead
        suppression entries simply evaluate to not-live. The write paths
        prune the set under the system's write lock; ``tuple()`` on a
        built-in set is atomic under the GIL, so the snapshot never
        observes a concurrent mutation mid-iteration.
        """
        return any(
            self._suppression_live(rule, member)
            for rule, member in tuple(self._suppressed)
        )

    def _prune_suppressions(self) -> None:
        """Drop dead suppression entries. Write paths only (the caller
        holds the system write lock), so readers never see the set
        reassigned from a stale snapshot."""
        self._suppressed = {
            (rule, member)
            for rule, member in self._suppressed
            if self._suppression_live(rule, member)
        }

    def _is_base(self, fact: Fact) -> bool:
        predicate, row = fact
        if len(row) == 1:
            return row in self.abox.concept_facts(predicate)
        return row in self.abox.role_facts(predicate)

    # ------------------------------------------------------------------
    # Semi-naive forward propagation
    # ------------------------------------------------------------------
    def _fire_existential(self, rule: _MemberRule, member: str) -> Optional[Fact]:
        """Create a fresh null witness for *member*, or None if suppressed."""
        role = rule.target_role
        if self._witnessed(role, rule.target_member_pos, member):
            return None
        if self._generation_of(member) >= self.max_generations:
            self._suppressed.add((rule, member))
            return None
        if self._free_nulls:
            null = self._free_nulls.pop()
        else:
            null = f"{NULL_PREFIX}{next(self._null_counter)}"
        self._generation[null] = self._generation_of(member) + 1
        row: List = [None, None]
        row[rule.target_member_pos] = member
        row[rule.target_witness_pos] = null
        return (role, tuple(row))

    def _propagate(self, delta: Iterable[Fact], added: Set[Fact]) -> None:
        """Close the store under all rules, starting from *delta*.

        Every fact inserted along the way (including *delta* facts that
        were genuinely new) is recorded in *added*. Existential firings
        are deferred until the non-existential rules reach a fixpoint:
        their witness check then sees every derivable real witness, so
        nulls are only invented for members that truly lack one (fewer
        redundant nulls than a naive rule order; answers are invariant
        either way).
        """
        queue = deque()
        pending: deque = deque()  # deferred (existential rule, member)
        for fact in delta:
            if self._add(fact):
                added.add(fact)
                queue.append(fact)
        while queue or pending:
            if not queue:
                rule, member = pending.popleft()
                fired = self._fire_existential(rule, member)
                if fired is not None and self._add(fired):
                    added.add(fired)
                    queue.append(fired)
                continue
            predicate, row = queue.popleft()
            consequents: List[Fact] = []
            for role_rule in self._role_rules.get(predicate, ()):
                consequents.append(role_rule.consequent(row))
            for rule in self._member_rules.get(predicate, ()):
                if rule.premise_arity != len(row):
                    continue
                member = row[rule.member_pos]
                if rule.is_existential:
                    pending.append((rule, member))
                else:
                    consequents.append((rule.target_concept, (member,)))
            for fact in consequents:
                if self._add(fact):
                    added.add(fact)
                    queue.append(fact)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def saturate(self) -> Set[Fact]:
        """Chase the current ABox from scratch; returns the derived facts
        (everything in the store beyond the base facts)."""
        self.store = {}
        self.positions.clear()  # in place: the statistics may share it
        self._generation = {}
        self._null_counter = itertools.count()
        self._null_refs = Counter()
        self._free_nulls = []
        self._null_rows = {}
        self._suppressed = set()
        base: List[Fact] = [
            (predicate, row)
            for predicate, rows in self.abox.fact_store().items()
            for row in rows
        ]
        added: Set[Fact] = set()
        self._propagate(base, added)
        return {fact for fact in added if not self._is_base(fact)}

    def insert(self, assertions: Iterable[Assertion]) -> Tuple[Set[Fact], Set[Fact]]:
        """Maintain saturation after *assertions* joined the ABox.

        The caller has already added them to the ABox. Derivation is a
        delta chase; additionally, null witnesses made redundant by a new
        *real* witness are retracted (with their consequences), keeping
        the invariant that the store matches a fresh chase — so
        ``removed`` can be non-empty even for an insert. Returns the net
        ``(added, removed)`` store deltas.
        """
        added: Set[Fact] = set()
        self._propagate((fact_of(a) for a in assertions), added)
        redundant = self._redundant_null_rows(added)
        if not redundant:
            self._prune_suppressions()
            return added, set()
        retract_added, retract_removed = self._retract(redundant)
        events = added | retract_added | retract_removed
        net_added, net_removed = set(), set()
        for fact in events:
            was_stored = fact in retract_removed and fact not in added
            is_stored = self._contains(fact)
            if is_stored and not was_stored:
                net_added.add(fact)
            elif was_stored and not is_stored:
                net_removed.add(fact)
        return net_added, net_removed

    def delete(self, assertions: Iterable[Assertion]) -> Tuple[Set[Fact], Set[Fact]]:
        """Maintain saturation after *assertions* left the ABox (DRed).

        The caller has already removed them from the ABox. Over-deletes
        the forward closure of the removed facts, then re-derives: a
        removed fact returns if some surviving fact still derives it, and
        existential rules re-fire for members that lost their witness.
        Returns the net ``(added, removed)`` store deltas.
        """
        return self._retract([fact_of(a) for a in assertions])

    def _redundant_null_rows(self, added: Set[Fact]) -> Set[Fact]:
        """Null-witness rows obsoleted by newly stored real role rows.

        The chase only invents a null for an *unwitnessed* member, so
        once a real row witnesses the member, a fresh chase would hold no
        null there — retracting it keeps the store lean and lets the
        truncation flag clear when a suppressed null chain loses its
        reason to exist.
        """
        redundant: Set[Fact] = set()
        for predicate, row in added:
            if len(row) != 2 or any(is_null(value) for value in row):
                continue
            null_rows = self._null_rows.get(predicate)
            if not null_rows:
                continue
            for position in (0, 1):
                member = row[position]
                for other in null_rows:
                    if other[position] == member and is_null(other[1 - position]):
                        redundant.add((predicate, other))
        return redundant

    def _retract(self, facts: Iterable[Fact]) -> Tuple[Set[Fact], Set[Fact]]:
        """DRed over-delete + re-derive, starting from *facts*."""
        removed: Set[Fact] = set()
        touched: Set[str] = set()

        # --- over-delete: forward closure of the retracted facts -------
        queue = deque(facts)
        while queue:
            fact = queue.popleft()
            if not self._contains(fact) or self._is_base(fact):
                continue
            self._remove(fact)
            removed.add(fact)
            predicate, row = fact
            touched.update(value for value in row if not is_null(value))
            for role_rule in self._role_rules.get(predicate, ()):
                queue.append(role_rule.consequent(row))
            for rule in self._member_rules.get(predicate, ()):
                if rule.premise_arity != len(row):
                    continue
                member = row[rule.member_pos]
                if rule.is_existential:
                    # Null witnesses for this member may have depended on
                    # this membership; over-delete them all (re-derivation
                    # re-fires the rule if the member is still eligible).
                    role = rule.target_role
                    for target_row in list(self._null_rows.get(role, ())):
                        if target_row[rule.target_member_pos] == member and is_null(
                            target_row[rule.target_witness_pos]
                        ):
                            queue.append((role, target_row))
                else:
                    queue.append((rule.target_concept, (member,)))

        # --- re-derive: DRed's second phase ----------------------------
        added: Set[Fact] = set()
        candidates = set(removed)
        changed = True
        while changed:
            changed = False
            for fact in sorted(candidates):
                if self._contains(fact):
                    candidates.discard(fact)
                    continue
                if self._derivable(fact):
                    self._propagate([fact], added)
                    candidates.discard(fact)
                    changed = True
            # Members that lost their witness (or whose membership was
            # re-established) get their existential rules re-checked.
            for rule in self._existential_rules:
                for member in sorted(touched):
                    if not self._member_holds(rule, member):
                        continue
                    fired = self._fire_existential(rule, member)
                    if fired is not None:
                        self._propagate([fired], added)
                        changed = True
        self._prune_suppressions()
        return added - removed, removed - added

    # ------------------------------------------------------------------
    # Re-derivation checks (backward, one step, against the live store)
    # ------------------------------------------------------------------
    def _member_holds(self, rule: _MemberRule, member: str) -> bool:
        """Is *member* in the extension of the rule's premise concept?"""
        if rule.premise_arity == 1:
            return (member,) in self.store.get(rule.premise, ())
        return self._witnessed(rule.premise, rule.member_pos, member)

    def _derivable(self, fact: Fact) -> bool:
        """One-step derivability of *fact* from the current store.

        Facts whose only support would be an existential rule are *not*
        re-derived here — the rule re-fires with a fresh null instead,
        which is sound because certain answers are invariant under the
        choice (and number) of null witnesses.
        """
        predicate, row = fact
        if len(row) == 1:
            member = row[0]
            return any(
                self._member_holds(rule, member)
                for rule in self._rules_into_concept.get(predicate, ())
            )
        return any(
            rule.premise_row(row) in self.store.get(rule.premise, ())
            for rule in self._rules_into_role.get(predicate, ())
        )


def fact_of(assertion: Assertion) -> Fact:
    """The (predicate, row) fact an assertion denotes."""
    if isinstance(assertion, ConceptAssertion):
        return (assertion.concept, (assertion.individual,))
    if isinstance(assertion, RoleAssertion):
        return (assertion.role, (assertion.subject, assertion.object))
    raise TypeError(f"not an assertion: {assertion!r}")


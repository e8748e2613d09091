"""Reformulation for the data at hand: pruning on empty predicates.

PerfectRef never rewrites into a *dead* predicate (every name of its
``dep`` has no rows) and ``reformulate_to_ucq`` drops every disjunct with
an atom over an empty predicate. The same functions with no empty
predicate are the classical rewriter, so they are the oracle here,
together with the chase. Pruning is the one optimisation that makes a
stale plan *wrong*, so most of this file writes: it fills and drains
predicates and checks every strategy's answers after each write.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from test_property_based import CONCEPTS, INDIVIDUALS, ROLES, connected_cqs, tboxes

from repro.bench.lubm import lubm_exists_tbox
from repro.dllite.abox import ABox
from repro.dllite.kb import KnowledgeBase
from repro.dllite.parser import parse_query, parse_tbox
from repro.dllite.saturation import ChaseTruncatedError, certain_answers
from repro.obda.system import OBDASystem
from repro.obs.metrics import get_registry
from repro.queries.evaluate import evaluate_ucq
from repro.reformulation.perfectref import (
    arms_dropped_empty,
    emptiness_stamp,
    perfectref,
    perfectref_pruned,
    reformulate_to_ucq,
)
from repro.storage.layouts import SimpleLayout

#: A TBox with one concept and one role nobody asserts: ``Visitor`` and
#: ``mentors`` are dead on the data below, ``Researcher`` is only empty.
TBOX = parse_tbox(
    """
    role worksWith
    role mentors
    PhDStudent <= Researcher
    Visitor <= Researcher
    exists worksWith <= Researcher
    mentors <= worksWith
    """
)


def _abox() -> ABox:
    abox = ABox()
    abox.add_concept("PhDStudent", "Damian")
    abox.add_role("worksWith", "Ioana", "Francois")
    return abox


class TestRules:
    def test_default_is_the_classical_rewriter(self):
        tbox = lubm_exists_tbox()
        query = parse_query("q(x) <- Professor(x), worksFor(x, y), Department(y)")
        keys = [cq.canonical_key() for cq in perfectref(query, tbox)]
        assert keys == [
            cq.canonical_key() for cq in perfectref(query, tbox, empty=frozenset())
        ]

    def test_dead_and_stamp(self):
        empty = frozenset({"Researcher", "Visitor", "mentors"})
        assert TBOX.dead_predicates(empty) == {"Visitor", "mentors"}
        query = parse_query("q(x) <- Researcher(x)")
        # dep(Researcher) reaches every name of the TBox.
        assert emptiness_stamp(query, TBOX, empty) == empty
        assert emptiness_stamp(parse_query("q(x) <- PhDStudent(x)"), TBOX, empty) == (
            frozenset()
        )

    def test_rule_i_never_generates_a_dead_atom(self):
        query = parse_query("q(x) <- Researcher(x)")
        empty = frozenset({"Researcher", "Visitor", "mentors"})
        before, registry_before = perfectref_pruned(), _counter("pruned")
        pruned = perfectref(query, TBOX, empty=empty)
        full = perfectref(query, TBOX)
        predicates = {atom.predicate for cq in pruned for atom in cq.atoms}
        assert not predicates & {"Visitor", "mentors"}
        assert len(pruned) < len(full)
        assert perfectref_pruned() - before >= 2
        assert _counter("pruned") - registry_before == perfectref_pruned() - before

    def test_rule_ii_drops_empty_arms_and_keeps_one_if_all_go(self):
        query = parse_query("q(x) <- Researcher(x)")
        empty = frozenset({"Researcher", "Visitor", "mentors"})
        before = arms_dropped_empty()
        ucq = reformulate_to_ucq(query, TBOX, minimize=True, empty=empty)
        assert {cq.atoms[0].predicate for cq in ucq} == {"PhDStudent", "worksWith"}
        assert arms_dropped_empty() - before == 1  # Researcher(x)
        everything = frozenset(TBOX.predicate_names())
        alone = reformulate_to_ucq(query, TBOX, empty=everything)
        assert len(alone) == 1 and alone.disjuncts[0].atoms[0].predicate == "Researcher"

    def test_a_dead_input_derives_nothing(self):
        query = parse_query("q(x) <- Visitor(x), PhDStudent(x)")
        assert len(perfectref(query, TBOX, empty=frozenset({"Visitor"}))) == 1


def _counter(name: str) -> float:
    return get_registry().snapshot()["counters"].get(f"repro.perfectref.{name}", 0)


# ---------------------------------------------------------------------------
# Stamps: fills drop exactly the plans that assumed the predicate empty
# ---------------------------------------------------------------------------
class TestStamps:
    QUERY = "q(x) <- Researcher(x)"

    def test_a_fill_drops_the_pruned_plans_and_serves_the_row(self):
        with OBDASystem(TBOX, _abox()) as system:
            for strategy in ("ucq", "croot", "gdl"):
                report = system.answer(self.QUERY, strategy=strategy)
                assert report.choice.assumed_empty == {
                    "Researcher",
                    "Visitor",
                    "mentors",
                }
                assert system.answer(self.QUERY, strategy=strategy).plan_cache_hit
            stats = system.cache_stats()
            system.insert_facts([("Visitor", "Zoe")])
            for strategy in ("ucq", "croot", "gdl"):
                report = system.answer(self.QUERY, strategy=strategy)
                assert not report.plan_cache_hit, strategy
                assert ("Zoe",) in report.answers, strategy
                assert "Visitor" not in report.choice.assumed_empty
            after = system.cache_stats()
            assert after["plan"]["stale"] - stats["plan"]["stale"] == 3
            assert after["fragments"]["stale"] > stats["fragments"]["stale"]

    def test_a_write_outside_the_stamp_keeps_the_plan(self):
        with OBDASystem(TBOX, _abox()) as system:
            system.answer("q(x) <- PhDStudent(x)", strategy="ucq")
            system.insert_facts([("Visitor", "Zoe")])
            report = system.answer("q(x) <- PhDStudent(x)", strategy="ucq")
            assert report.plan_cache_hit

    def test_a_fill_racing_the_plan_is_caught_before_execution(self, monkeypatch):
        # The write lands between planning and execution: the re-check
        # under the read barrier re-plans.
        with OBDASystem(TBOX, _abox()) as system:
            real = system.reformulate

            def plan_then_write(*args, **kwargs):
                choice = real(*args, **kwargs)
                system.insert_facts([("mentors", "Ada", "Bob")])
                return choice

            monkeypatch.setattr(system, "reformulate", plan_then_write)
            report = system.answer(self.QUERY, strategy="ucq")
            assert ("Ada",) in report.answers
            assert "mentors" not in report.choice.assumed_empty

    def test_execute_choice_replans_a_choice_a_write_made_wrong(self):
        with OBDASystem(TBOX, _abox()) as system:
            query = parse_query(self.QUERY)
            choice = system.reformulate(query, strategy="gdl")
            system.insert_facts([("Visitor", "Zoe")])
            assert ("Zoe",) in system.execute_choice(query, choice)

    def test_a_failed_write_still_counts_its_rows(self, monkeypatch):
        # The statistics refresh fails after the backend took the rows:
        # the filled predicate already counts as non-empty, so no plan
        # pruned on it runs against them, and the epoch names the new
        # rows, so a plan picked by cost before them is picked again.
        other = "q(x, y) <- worksWith(x, y)"
        with OBDASystem(TBOX, _abox()) as system:
            assert ("Zoe",) not in system.answer(self.QUERY, strategy="gdl").answers
            before = system.answer(other, strategy="gdl")
            assert "Visitor" not in before.choice.assumed_empty
            assert system.answer(other, strategy="gdl").plan_cache_hit

            def broken(*args, **kwargs):
                raise RuntimeError("refresh failed")

            monkeypatch.setattr(system.statistics, "refresh_predicate", broken)
            with pytest.raises(RuntimeError, match="refresh failed"):
                system.insert_facts([("Visitor", "Zoe")])
            monkeypatch.undo()
            assert system.data_epoch == system.epoch_token() == 1
            after = system.answer(other, strategy="gdl")
            assert not after.plan_cache_hit
            assert after.epoch == 1 and after.answers == before.answers
            for strategy in ("ucq", "croot", "gdl"):
                assert ("Zoe",) in system.answer(self.QUERY, strategy=strategy).answers

    def test_prune_false_is_the_classical_reformulation(self):
        with OBDASystem(TBOX, _abox()) as system:
            pruned = system.reformulate(self.QUERY, strategy="ucq")
            classical = system.reformulate(self.QUERY, strategy="ucq", prune=False)
            assert classical.assumed_empty == frozenset()
            assert len(classical.reformulation) > len(pruned.reformulation)
            assert not system.reformulate(
                self.QUERY, strategy="ucq", prune=False
            ).plan_cache_hit
            query = parse_query(self.QUERY)
            assert system.execute_choice(query, classical) == (
                system.execute_choice(query, pruned)
            )

    def test_reformulate_span_reports_the_pruning(self):
        with OBDASystem(TBOX, _abox(), trace=True) as system:
            report = system.answer(self.QUERY, strategy="ucq")
            (span,) = report.trace.find("reformulate")
            attributes = span.attributes
            assert attributes["perfectref_pruned"] >= 2
            assert attributes["arms_dropped_empty"] == 1
            assert attributes["assumed_empty"] == 3


# ---------------------------------------------------------------------------
# Property: fills and drains never change an answer
# ---------------------------------------------------------------------------
class _FullSchema(SimpleLayout):
    """The simple layout with a table for every name of the vocabulary,
    whether or not the TBox or the ABox mentions it."""

    def build(self, abox, tbox=None, extra_concepts=(), extra_roles=()):
        return super().build(
            abox, tbox, extra_concepts=CONCEPTS, extra_roles=ROLES
        )


NAMES = CONCEPTS + ROLES


def _facts(names):
    """Facts over *names* (concepts and roles of the shared vocabulary)."""
    individual = st.sampled_from(INDIVIDUALS)
    options = []
    concepts = [name for name in names if name in CONCEPTS]
    roles = [name for name in names if name in ROLES]
    if concepts:
        options.append(st.tuples(st.sampled_from(concepts), individual))
    if roles:
        options.append(st.tuples(st.sampled_from(roles), individual, individual))
    return st.one_of(*options)


@st.composite
def histories(draw):
    """Initial facts that leave some names empty, then a few steps: a
    step fills (inserts facts, often into the names left empty) or
    drains (deletes every fact of one name)."""
    held = sorted(draw(st.sets(st.sampled_from(NAMES), min_size=2, max_size=5)))
    rest = [name for name in NAMES if name not in held]
    initial = draw(st.lists(_facts(rest), max_size=6))
    steps = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("insert"), st.lists(_facts(held), min_size=1, max_size=2)),
                st.tuples(st.just("insert"), st.lists(_facts(NAMES), min_size=1, max_size=2)),
                st.tuples(st.just("drain"), st.sampled_from(NAMES)),
            ),
            min_size=1,
            max_size=5,
        )
    )
    return set(initial), steps


def _abox_of(facts) -> ABox:
    abox = ABox()
    for fact in facts:
        if len(fact) == 2:
            abox.add_concept(*fact)
        else:
            abox.add_role(*fact)
    return abox


class TestPruningUnderWrites:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(tboxes(), histories(), connected_cqs())
    def test_answers_equal_the_unpruned_path_and_the_chase(
        self, tbox, history, query
    ):
        facts, steps = history
        plain = OBDASystem(tbox, _abox_of(facts), layout=_FullSchema())
        saturated = OBDASystem(tbox, _abox_of(facts), layout=_FullSchema())
        try:
            for step in [None, *steps]:
                if step is not None:
                    kind, payload = step
                    if kind == "insert":
                        changed = set(payload)
                        facts = facts | changed
                    else:
                        changed = {fact for fact in facts if fact[0] == payload}
                        facts = facts - changed
                    for system in (plain, saturated):
                        write = system.insert_facts if kind == "insert" else (
                            system.delete_facts
                        )
                        write(sorted(changed))
                truth = _abox_of(facts)
                expected = evaluate_ucq(
                    reformulate_to_ucq(query, tbox), truth.fact_store()
                )
                try:
                    chased = certain_answers(
                        query, KnowledgeBase(tbox, truth), max_generations=6
                    )
                except ChaseTruncatedError:
                    chased = None
                if chased is not None:
                    assert expected == chased
                for strategy in ("ucq", "croot", "gdl"):
                    got = plain.answer(query, strategy=strategy).answers
                    assert got == expected, (strategy, step)
                got = saturated.answer(query, strategy="auto").answers
                assert got == expected, ("auto", step)
        finally:
            plain.close()
            saturated.close()

"""The materialized-saturation subsystem and the write path.

Covers, roughly inside-out:

* the engine/storage write primitives (``Table.delete``,
  ``Backend.insert_rows`` / ``delete_rows`` on both backends);
* the :class:`~repro.materialize.saturator.Saturator` against the oracle
  chase, including incremental maintenance under mixed writes;
* the ``sat`` / ``auto`` strategies agreeing with ``gdl`` on the full
  LUBM query suite, before and after a sequence of inserts and deletes
  (the PR's acceptance criterion);
* epoch-based invalidation: a write makes exactly the data-dependent
  cache entries unreachable — and a no-op write invalidates nothing;
* the chase truncation flag and ``answer_many(on_error=...)``.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.generator import generate_abox
from repro.bench.lubm import lubm_exists_tbox
from repro.bench.queries import benchmark_queries
from repro.dllite.abox import ABox, ConceptAssertion, RoleAssertion
from repro.dllite.axioms import ConceptInclusion, RoleInclusion
from repro.dllite.kb import KnowledgeBase
from repro.dllite.saturation import (
    ChaseTruncatedError,
    certain_answers,
    chase,
    is_null,
)
from repro.dllite.parser import parse_query
from repro.dllite.tbox import TBox
from repro.dllite.vocabulary import AtomicConcept as C
from repro.dllite.vocabulary import Exists, Role
from repro.materialize.saturator import Saturator
from repro.obda.system import OBDASystem
from repro.queries.evaluate import evaluate_cq
from repro.storage.layouts import LayoutData, TableSpec
from repro.storage.memory_backend import MemoryBackend
from repro.storage.sqlite_backend import SQLiteBackend


@pytest.fixture(scope="module")
def lubm_tbox():
    return lubm_exists_tbox()


@pytest.fixture(scope="module")
def lubm_queries():
    return benchmark_queries()


def _oracle_answers(query, tbox, abox):
    return certain_answers(query, KnowledgeBase(tbox, abox), max_generations=4)


def _store_answers(query, store):
    rows = evaluate_cq(query, store)
    return {row for row in rows if not any(is_null(value) for value in row)}


# ---------------------------------------------------------------------------
# Storage write primitives
# ---------------------------------------------------------------------------


def _loaded_backend(backend):
    backend.load(
        LayoutData(
            tables=[
                TableSpec(
                    name="r_t",
                    columns=("s", "o"),
                    rows=[(1, 2), (3, 4)],
                    indexes=(("s",), ("o",)),
                )
            ]
        )
    )
    return backend


@pytest.mark.parametrize("backend_cls", [MemoryBackend, SQLiteBackend])
class TestBackendWrites:
    def test_insert_rows_is_set_semantics(self, backend_cls):
        backend = _loaded_backend(backend_cls())
        backend.insert_rows("r_t", [(5, 6), (1, 2), (5, 6)])
        rows = set(backend.execute("SELECT s, o FROM r_t"))
        assert rows == {(1, 2), (3, 4), (5, 6)}

    def test_delete_rows_counts_removals(self, backend_cls):
        backend = _loaded_backend(backend_cls())
        removed = backend.delete_rows("r_t", [(1, 2), (9, 9)])
        assert removed == 1
        assert set(backend.execute("SELECT s, o FROM r_t")) == {(3, 4)}

    def test_write_refreshes_cost_statistics(self, backend_cls):
        backend = _loaded_backend(backend_cls())
        cold = backend.estimated_cost("SELECT s FROM r_t")
        backend.insert_rows("r_t", [(i, i) for i in range(10, 400)])
        warm = backend.estimated_cost("SELECT s FROM r_t")
        assert warm > cold  # the estimator sees the larger table


# ---------------------------------------------------------------------------
# Saturator vs the oracle chase
# ---------------------------------------------------------------------------


class TestSaturator:
    def test_full_saturation_matches_oracle_answers(self, lubm_tbox, lubm_queries):
        abox = generate_abox("tiny", seed=11)
        saturator = Saturator(lubm_tbox, abox, max_generations=4)
        saturator.saturate()
        for query in lubm_queries.values():
            assert _store_answers(query, saturator.store) == _oracle_answers(
                query, lubm_tbox, abox
            )

    def test_insert_only_derives_consequences(self):
        tbox = TBox(
            [
                ConceptInclusion(C("A"), C("B")),
                ConceptInclusion(C("B"), C("D")),
            ]
        )
        abox = ABox()
        abox.add_concept("A", "x")
        saturator = Saturator(tbox, abox)
        saturator.saturate()
        assertion = ConceptAssertion("A", "y")
        abox.add(assertion)
        added, removed = saturator.insert([assertion])
        assert removed == set()
        assert added == {
            ("A", ("y",)),
            ("B", ("y",)),
            ("D", ("y",)),
        }

    def test_delete_keeps_facts_with_other_support(self):
        works_with = Role("worksWith")
        tbox = TBox(
            [
                ConceptInclusion(C("PhD"), C("Researcher")),
                ConceptInclusion(Exists(works_with), C("Researcher")),
            ]
        )
        abox = ABox()
        abox.add_concept("PhD", "ana")
        abox.add_role("worksWith", "ana", "bo")
        saturator = Saturator(tbox, abox)
        saturator.saturate()
        assertion = ConceptAssertion("PhD", "ana")
        abox.remove(assertion)
        added, removed = saturator.delete([assertion])
        # Researcher(ana) survives: still derived from worksWith(ana, bo).
        assert ("ana",) in saturator.store["Researcher"]
        assert ("PhD", ("ana",)) in removed
        assert ("Researcher", ("ana",)) not in removed

    def test_delete_refires_existential_for_lost_witness(self):
        advisor = Role("advisor")
        tbox = TBox([ConceptInclusion(C("Grad"), Exists(advisor))])
        abox = ABox()
        abox.add_concept("Grad", "zoe")
        abox.add_role("advisor", "zoe", "prof")
        saturator = Saturator(tbox, abox)
        saturator.saturate()
        # The real witness suppresses the null...
        assert not any(
            is_null(obj) for _, obj in saturator.store.get("advisor", ())
        )
        assertion = RoleAssertion("advisor", "zoe", "prof")
        abox.remove(assertion)
        added, removed = saturator.delete([assertion])
        # ...and deleting it re-fires the rule with a fresh null.
        assert ("advisor", ("zoe", "prof")) in removed
        nulls = [
            row
            for row in saturator.store["advisor"]
            if row[0] == "zoe" and is_null(row[1])
        ]
        assert len(nulls) == 1
        assert ("advisor", nulls[0]) in added

    def test_role_inclusion_cycle_deletes_cleanly(self):
        r, s = Role("r"), Role("s")
        tbox = TBox([RoleInclusion(r, s), RoleInclusion(s, r)])
        abox = ABox()
        abox.add_role("r", "a", "b")
        saturator = Saturator(tbox, abox)
        saturator.saturate()
        assert ("a", "b") in saturator.store["s"]
        assertion = RoleAssertion("r", "a", "b")
        abox.remove(assertion)
        _, removed = saturator.delete([assertion])
        # DRed: the mutually-supporting cycle must not resurrect itself.
        assert saturator.store.get("r", set()) == set()
        assert saturator.store.get("s", set()) == set()
        assert {("r", ("a", "b")), ("s", ("a", "b"))} <= removed

    def test_churn_cycle_does_not_leak_nulls(self):
        advisor = Role("advisor")
        tbox = TBox([ConceptInclusion(C("Grad"), Exists(advisor))])
        abox = ABox()
        abox.add_concept("Grad", "zoe")
        saturator = Saturator(tbox, abox)
        saturator.saturate()
        assertion = ConceptAssertion("Grad", "zoe")
        for _ in range(50):
            abox.remove(assertion)
            saturator.delete([assertion])
            abox.add(assertion)
            saturator.insert([assertion])
        # Dead nulls free their generation entries and their names are
        # recycled, so 50 delete/insert cycles allocate no new nulls.
        assert len(saturator._generation) == 1
        assert next(saturator._null_counter) <= 2

    def test_truncation_sets_flag(self):
        manages = Role("manages")
        tbox = TBox(
            [
                ConceptInclusion(C("Boss"), Exists(manages)),
                ConceptInclusion(Exists(manages.inverted()), C("Boss")),
            ]
        )
        abox = ABox()
        abox.add_concept("Boss", "root")
        saturator = Saturator(tbox, abox, max_generations=2)
        saturator.saturate()
        assert saturator.truncated

    def test_real_witness_insert_retracts_null_chain_and_untruncates(self):
        manages = Role("manages")
        tbox = TBox(
            [
                ConceptInclusion(C("Boss"), Exists(manages)),
                ConceptInclusion(Exists(manages.inverted()), C("Boss")),
            ]
        )
        abox = ABox()
        abox.add_concept("Boss", "root")
        saturator = Saturator(tbox, abox, max_generations=2)
        saturator.saturate()
        assert saturator.truncated  # null chain hits the bound
        # A real self-loop witnesses root — a fresh chase of the new ABox
        # would hold no nulls, so the stale chain must be retracted and
        # the truncation flag must clear.
        assertion = RoleAssertion("manages", "root", "root")
        abox.add(assertion)
        added, removed = saturator.insert([assertion])
        assert not saturator.truncated
        assert not any(
            is_null(value)
            for rows in saturator.store.values()
            for row in rows
            for value in row
        )
        assert ("manages", ("root", "root")) in added
        assert all(
            any(is_null(value) for value in row)
            for _, row in removed
        )


# ---------------------------------------------------------------------------
# sat / auto strategies vs gdl — the acceptance criterion
# ---------------------------------------------------------------------------


class TestSatAndAutoStrategies:
    @pytest.fixture(scope="class")
    def system(self, lubm_tbox):
        with OBDASystem(
            lubm_tbox, generate_abox("tiny", seed=5), backend="sqlite"
        ) as system:
            yield system

    def test_full_suite_agreement_before_and_after_writes(
        self, system, lubm_queries
    ):
        def check(stage):
            for name, query in lubm_queries.items():
                gdl = system.answer(query, strategy="gdl").answers
                sat = system.answer(query, strategy="sat").answers
                auto = system.answer(query, strategy="auto").answers
                assert sat == gdl, f"{name} sat != gdl {stage}"
                assert auto == gdl, f"{name} auto != gdl {stage}"

        check("before writes")
        inserted = system.insert_facts(
            [
                ("GraduateStudent", "NewGrad"),
                ("advisor", "NewGrad", "NewProf"),
                ("FullProfessor", "NewProf"),
                ("worksFor", "NewProf", "Dept0_0"),
                ("takesCourse", "NewGrad", "GradCourse0_0_0"),
            ]
        )
        assert inserted == 5
        deleted = system.delete_facts(
            [
                ("advisor", "NewGrad", "NewProf"),
                ("takesCourse", "NewGrad", "GradCourse0_0_0"),
                ("headOf", "missing", "nowhere"),  # absent: not counted
            ]
        )
        assert deleted == 2
        check("after writes")

    def test_sat_answers_equal_oracle(self, system, lubm_queries, lubm_tbox):
        for query in lubm_queries.values():
            expected = _oracle_answers(query, lubm_tbox, system.kb.abox)
            assert system.answer(query, strategy="sat").answers == expected

    def test_auto_reports_routing_decision(self, system):
        report = system.answer(
            "q(x) <- Professor(x), worksFor(x, y)", strategy="auto"
        )
        routing = report.choice.routing
        assert routing is not None
        assert routing.routed_to in ("sat", "gdl")
        assert routing.saturation_cost >= 0
        assert routing.reformulation_cost >= 0

    def test_sat_requires_simple_layout(self, lubm_tbox):
        with OBDASystem(
            lubm_tbox, generate_abox("tiny", seed=5), layout="rdf"
        ) as system:
            with pytest.raises(ValueError, match="simple layout"):
                system.answer("q(x) <- Professor(x)", strategy="sat")


# ---------------------------------------------------------------------------
# Epoch-based invalidation: never a stale plan, never a full flush
# ---------------------------------------------------------------------------


class TestDataEpoch:
    @pytest.fixture
    def system(self, lubm_tbox):
        with OBDASystem(
            lubm_tbox, generate_abox("tiny", seed=9), materialize=True
        ) as system:
            yield system

    def test_write_invalidates_cost_based_plan(self, system):
        query = "q(x) <- Professor(x), worksFor(x, y), Department(y)"
        assert not system.answer(query, strategy="gdl").plan_cache_hit
        assert system.answer(query, strategy="gdl").plan_cache_hit
        before = system.plan_cache.stats()["stale"]
        system.insert_facts([("Professor", "Fresh")])
        report = system.answer(query, strategy="gdl")
        assert not report.plan_cache_hit  # the pre-write plan was dropped
        assert system.plan_cache.stats()["stale"] > before
        assert system.answer(query, strategy="gdl").plan_cache_hit

    def test_write_keeps_data_independent_plans(self, system):
        query = "q(x) <- GraduateStudent(x)"
        for strategy in ("ucq", "croot", "sat"):
            system.answer(query, strategy=strategy)
        system.insert_facts([("GraduateStudent", "Eve")])
        for strategy in ("ucq", "croot", "sat"):
            report = system.answer(query, strategy=strategy)
            assert report.plan_cache_hit, strategy
            assert ("Eve",) in report.answers  # reused plan, fresh data

    def test_write_filling_an_assumed_empty_predicate_drops_the_plan(self, system):
        # The complement: a ucq / croot plan is pruned on the predicates
        # it found empty, so a write that fills one of them drops it.
        query = "q(x) <- GraduateStudent(x)"
        for strategy in ("ucq", "croot"):
            report = system.answer(query, strategy=strategy)
            assert "DoctoralStudent" in report.choice.assumed_empty
        stale = system.plan_cache.stats()["stale"]
        system.insert_facts([("DoctoralStudent", "Dora")])
        for strategy in ("ucq", "croot"):
            report = system.answer(query, strategy=strategy)
            assert not report.plan_cache_hit, strategy
            assert ("Dora",) in report.answers
            assert "DoctoralStudent" not in report.choice.assumed_empty
        assert system.plan_cache.stats()["stale"] - stale == 2

    def test_noop_write_invalidates_nothing(self, system):
        query = "q(x) <- Professor(x), worksFor(x, y)"
        system.answer(query, strategy="gdl")
        epoch = system.data_epoch
        existing = next(iter(system.kb.abox.role_facts("worksFor")))
        assert system.insert_facts([("worksFor",) + existing]) == 0
        assert system.delete_facts([("Professor", "NoSuchPerson")]) == 0
        assert system.data_epoch == epoch
        assert system.answer(query, strategy="gdl").plan_cache_hit

    def test_churn_does_not_grow_the_dictionary(self, system):
        system.answer("q(x) <- GraduateStudent(x), advisor(x, y)", strategy="sat")
        system.insert_facts([("GraduateStudent", "churner")])
        system.delete_facts([("GraduateStudent", "churner")])
        baseline = len(system.layout.dictionary)
        for _ in range(25):
            system.insert_facts([("GraduateStudent", "churner")])
            system.delete_facts([("GraduateStudent", "churner")])
        # Null witnesses invented by re-inserts recycle retired names, so
        # the dictionary stays put across identical-state cycles.
        assert len(system.layout.dictionary) == baseline

    def test_concurrent_writes_and_reads_stay_consistent(self, system):
        # Readers and writers interleave; every observed answer set must
        # be one the sequential system could produce (never a torn scan).
        import threading

        query = "q(x) <- GraduateStudent(x), advisor(x, y)"
        errors = []

        def reader():
            try:
                for _ in range(30):
                    answers = system.answer(query, strategy="sat").answers
                    assert all(len(row) == 1 for row in answers)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def writer():
            try:
                for i in range(15):
                    system.insert_facts([("GraduateStudent", f"W{i}")])
                    system.delete_facts([("GraduateStudent", f"W{i}")])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []

    def test_consistency_checked_writes_roll_back(self, lubm_tbox):
        from repro.dllite.kb import InconsistentKBError

        with OBDASystem(
            lubm_tbox,
            generate_abox("tiny", seed=4),
            check_consistency=True,
            materialize=True,
        ) as system:
            epoch = system.data_epoch
            # Person and Publication are disjoint in the LUBM∃ TBox.
            with pytest.raises(InconsistentKBError):
                system.insert_facts([("Person", "janus"), ("Publication", "janus")])
            assert system.data_epoch == epoch
            assert ("janus",) not in system.kb.abox.concept_facts("Person")
            assert system.kb.is_consistent()

    def test_duplicate_inputs_count_once(self, system):
        assert system.insert_facts(
            [("Professor", "dupe"), ("Professor", "dupe")]
        ) == 1
        assert system.delete_facts(
            [("Professor", "dupe"), ("Professor", "dupe")]
        ) == 1

    def test_write_refreshes_statistics(self, system):
        before = system.statistics.cardinality("Professor")
        system.insert_facts(
            [("Professor", f"Hire{i}") for i in range(7)]
        )
        assert system.statistics.cardinality("Professor") == before + 7
        system.delete_facts([("Professor", "Hire0")])
        assert system.statistics.cardinality("Professor") == before + 6

    def test_search_after_a_write_prices_its_covers(self, system):
        query = "q(x) <- Professor(x), worksFor(x, y), Department(y)"
        system.answer(query, strategy="gdl", use_plan_cache=False)
        system.insert_facts([("Department", "NewDept")])
        report = system.answer(query, strategy="gdl", use_plan_cache=False)
        assert report.choice.search.cost_estimations > 0

    def test_unknown_predicate_gets_a_table(self, system):
        assert system.insert_facts([("BrandNewConcept", "thing")]) == 1
        report = system.answer("q(x) <- BrandNewConcept(x)", strategy="ucq")
        assert report.answers == {("thing",)}

    @pytest.mark.parametrize("strategy", ["ucq", "croot", "sat"])
    def test_plan_over_unknown_constant_is_not_write_proof(
        self, system, strategy
    ):
        # "newprof" is not in the dictionary yet: the cached SQL froze it
        # as an impossible code, so the plan must NOT survive the write
        # that introduces the constant.
        query = 'q(x) <- advisor(x, "BrandNewProf")'
        assert system.answer(query, strategy=strategy).answers == set()
        system.insert_facts([("advisor", "someone", "BrandNewProf")])
        report = system.answer(query, strategy=strategy)
        assert report.answers == {("someone",)}, strategy

    def test_failed_write_mutates_nothing(self, lubm_tbox):
        with OBDASystem(
            lubm_tbox, generate_abox("tiny", seed=9), layout="rdf"
        ) as system:
            epoch = system.data_epoch
            with pytest.raises(ValueError, match="simple layout"):
                system.insert_facts([("Professor", "ghost")])
            # The rejected write left no trace: the ABox, the epoch and a
            # retry all behave as if it never happened.
            assert ("ghost",) not in system.kb.abox.concept_facts("Professor")
            assert system.data_epoch == epoch
            with pytest.raises(ValueError, match="simple layout"):
                system.insert_facts([("Professor", "ghost")])


# ---------------------------------------------------------------------------
# answer_many error policy
# ---------------------------------------------------------------------------


class TestAnswerManyOnError:
    @pytest.fixture
    def system(self, lubm_tbox):
        with OBDASystem(lubm_tbox, generate_abox("tiny", seed=2)) as system:
            yield system

    def test_collect_isolates_the_failure(self, system):
        good = "q(x) <- Professor(x)"
        reports = system.answer_many(
            [good, good], strategy="gdl", on_error="collect"
        )
        assert all(not r.failed for r in reports)
        reports = system.answer_many(
            [good, "this is not a query", good],
            strategy="gdl",
            on_error="collect",
        )
        assert [r.failed for r in reports] == [False, True, False]
        assert reports[1].error is not None
        assert reports[1].answers == set()
        assert reports[0].answers == reports[2].answers != set()

    def test_collect_works_threaded(self, system, answer_concurrently):
        reports = answer_concurrently(
            system,
            ["q(x) <- Professor(x)", "broken(", "q(x) <- Student(x)"],
            3,
            on_error="collect",
        )
        assert [r.failed for r in reports] == [False, True, False]

    def test_raise_is_the_default(self, system):
        with pytest.raises(Exception):
            system.answer_many(["broken("])

    def test_rejects_unknown_policy(self, system):
        with pytest.raises(ValueError, match="on_error"):
            system.answer_many(["q(x) <- Professor(x)"], on_error="swallow")


# ---------------------------------------------------------------------------
# Chase truncation is loud
# ---------------------------------------------------------------------------


class TestChaseTruncation:
    def _cyclic_kb(self):
        manages = Role("manages")
        tbox = TBox(
            [
                ConceptInclusion(C("Boss"), Exists(manages)),
                ConceptInclusion(Exists(manages.inverted()), C("Boss")),
            ]
        )
        abox = ABox()
        abox.add_concept("Boss", "root")
        return KnowledgeBase(tbox, abox)

    def test_chase_reports_truncation(self):
        kb = self._cyclic_kb()
        store = chase(kb, max_generations=2)
        assert store.truncated

    def test_certain_answers_raises_on_truncation(self):
        kb = self._cyclic_kb()
        query_kb = kb
        from repro.dllite.parser import parse_query

        query = parse_query("q(x) <- Boss(x)")
        with pytest.raises(ChaseTruncatedError, match="max_generations=2"):
            certain_answers(query, query_kb, max_generations=2)
        # Opting in to the approximation still works.
        answers = certain_answers(
            query, query_kb, max_generations=2, on_truncation="ignore"
        )
        assert ("root",) in answers

    def test_acyclic_chase_is_not_truncated(self, lubm_tbox):
        kb = KnowledgeBase(lubm_tbox, generate_abox("tiny", seed=1))
        assert not chase(kb, max_generations=4).truncated

    def test_sat_refuses_truncated_saturation_and_auto_reroutes(self):
        kb = self._cyclic_kb()
        with OBDASystem(
            kb.tbox, kb.abox, materialize=True, max_generations=1
        ) as system:
            assert system._saturator.truncated
            query = "q(x) <- Boss(x), manages(x, y)"
            # sat would under-approximate — it must refuse, like the oracle.
            with pytest.raises(ChaseTruncatedError):
                system.answer(query, strategy="sat")
            # auto must fall back to the (complete) reformulation side.
            report = system.answer(query, strategy="auto")
            assert report.choice.routing.routed_to == "gdl"
            assert report.answers == system.answer(query, strategy="gdl").answers
            assert report.answers == {("root",)}

    def test_cached_sat_plan_does_not_outlive_truncation(self):
        # A sat plan cached while the chase was complete must refuse to
        # run once a write makes the saturation truncated — the guard
        # sits on the execution path, not only at plan time.
        manages = Role("manages")
        tbox = TBox(
            [
                ConceptInclusion(C("Boss"), Exists(manages)),
                ConceptInclusion(Exists(manages.inverted()), C("Boss")),
            ]
        )
        with OBDASystem(tbox, ABox(), materialize=True, max_generations=1) as system:
            query = "q(x) <- Boss(x)"
            assert system.answer(query, strategy="sat").answers == set()
            system.insert_facts([("Boss", "root")])  # now truncated
            assert system._saturator.truncated
            with pytest.raises(ChaseTruncatedError):
                system.answer(query, strategy="sat")
            # ...and deleting the truncating fact un-truncates: the flag is
            # recomputed from live suppressions, never sticky.
            system.delete_facts([("Boss", "root")])
            assert not system._saturator.truncated
            assert system.answer(query, strategy="sat").answers == set()


# ---------------------------------------------------------------------------
# Randomized micro-KB property test: every strategy vs the oracle,
# including after a mixed insert/delete sequence
# ---------------------------------------------------------------------------

ALL_STRATEGIES = ("ucq", "croot", "gdl", "edl", "sat", "auto")

PROPERTY_QUERIES = [
    "q(x) <- GraduateStudent(x)",
    "q(x) <- Person(x), worksFor(x, y)",
    "q(x, y) <- advisor(x, y)",
    "q(x) <- Professor(x), teacherOf(x, y)",
    "q(x) <- Student(x), takesCourse(x, y), memberOf(x, d)",
]


class TestStrategyOracleProperty:
    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_all_strategies_match_oracle_under_churn(self, seed, lubm_tbox):
        rng = random.Random(seed)
        abox = generate_abox("tiny", seed=seed)
        with OBDASystem(lubm_tbox, abox, materialize=True) as system:

            def check(stage):
                for text in PROPERTY_QUERIES:
                    expected = _oracle_answers(
                        parse_query(text), lubm_tbox, system.kb.abox
                    )
                    for strategy in ALL_STRATEGIES:
                        got = system.answer(text, strategy=strategy).answers
                        assert got == expected, (
                            f"{strategy} diverged from oracle on {text!r} "
                            f"({stage}, seed={seed})"
                        )

            check("initial")
            pool = list(system.kb.abox.assertions())
            for step in range(12):
                action = rng.random()
                if action < 0.45 and len(pool) > 10:
                    victim = pool.pop(rng.randrange(len(pool)))
                    system.delete_facts([victim])
                elif action < 0.75:
                    fresh = RoleAssertion(
                        rng.choice(["advisor", "worksFor", "takesCourse"]),
                        f"Ind{seed}_{step}",
                        rng.choice(["Dept0_0", "NewTarget", "GradCourse0_0_1"]),
                    )
                    if system.insert_facts([fresh]):
                        pool.append(fresh)
                else:
                    fresh = ConceptAssertion(
                        rng.choice(
                            ["GraduateStudent", "Professor", "Lecturer"]
                        ),
                        f"Ind{seed}_{step}",
                    )
                    if system.insert_facts([fresh]):
                        pool.append(fresh)
            check("after mixed churn")

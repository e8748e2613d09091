"""End-to-end integration tests on generated LUBM∃ data.

These exercise the full pipeline — generator → KB → reformulation →
cover search → SQL → backend → decode — across every strategy, backend
and layout combination, on the `tiny` benchmark scale.
"""

import pytest

from repro.bench.generator import generate_abox
from repro.bench.lubm import lubm_exists_tbox
from repro.bench.queries import benchmark_queries, query
from repro.dllite.abox import ConceptAssertion
from repro.obda.system import OBDASystem


@pytest.fixture(scope="module")
def tbox():
    return lubm_exists_tbox()


@pytest.fixture(scope="module")
def abox():
    return generate_abox("tiny", seed=42)


@pytest.fixture(scope="module")
def sqlite_system(tbox, abox):
    with OBDASystem(tbox, abox, backend="sqlite", layout="simple") as system:
        yield system


@pytest.fixture(scope="module")
def memory_system(tbox, abox):
    with OBDASystem(tbox, abox, backend="memory", layout="simple") as system:
        yield system


@pytest.fixture(scope="module")
def rdf_system(tbox, abox):
    with OBDASystem(
        tbox, abox, backend="memory", layout="rdf", rdf_width=4
    ) as system:
        yield system


class TestStrategiesAgree:
    """Every strategy must return the same certain answers."""

    @pytest.mark.parametrize("name", ["Q2", "Q4", "Q9", "Q12"])
    def test_strategies_agree_on_sqlite(self, sqlite_system, name):
        q = query(name)
        reference = sqlite_system.answer(q, strategy="ucq").answers
        for strategy in ("croot", "gdl"):
            assert (
                sqlite_system.answer(q, strategy=strategy).answers == reference
            ), (name, strategy)

    @pytest.mark.parametrize("name", ["Q2", "Q12"])
    def test_backends_agree(self, sqlite_system, memory_system, name):
        q = query(name)
        lite = sqlite_system.answer(q, strategy="gdl").answers
        mini = memory_system.answer(q, strategy="gdl").answers
        assert lite == mini, name

    @pytest.mark.parametrize("name", ["Q2", "Q12"])
    def test_layouts_agree(self, memory_system, rdf_system, name):
        q = query(name)
        simple = memory_system.answer(q, strategy="croot").answers
        rdf = rdf_system.answer(q, strategy="croot").answers
        assert simple == rdf, name

    def test_rdbms_and_ext_estimators_agree_on_answers(self, memory_system):
        q = query("Q12")
        ext = memory_system.answer(q, strategy="gdl", cost="ext").answers
        rdbms = memory_system.answer(q, strategy="gdl", cost="rdbms").answers
        assert ext == rdbms


class TestReasoningOnGeneratedData:
    def test_chairs_inferred_from_headof(self, tbox, abox, sqlite_system):
        # The generator asserts headOf without asserting Chair types:
        # exists headOf <= Chair makes every head a certain Chair answer.
        report = sqlite_system.answer("q(x) <- Chair(x)", strategy="ucq")
        heads = {
            subject for subject, _dept in abox.role_facts("headOf")
        }
        answered = {a[0] for a in report.answers}
        assert heads <= answered

    def test_grads_without_advisor_edges_still_answer(self, abox, sqlite_system):
        # GraduateStudent <= exists advisor: grads whose advisor edge was
        # omitted are still answers to the advisor query.
        report = sqlite_system.answer("q(x) <- advisor(x, y)", strategy="ucq")
        answered = {a[0] for a in report.answers}
        explicit_grads = {
            individual for (individual,) in abox.concept_facts("GraduateStudent")
        }
        missing_edge = explicit_grads - {
            s for s, _o in abox.role_facts("advisor")
        }
        assert missing_edge, "the generator must omit some advisor edges"
        assert missing_edge <= answered

    def test_person_query_spans_everyone(self, abox, sqlite_system):
        report = sqlite_system.answer("q(x) <- Person(x)", strategy="gdl")
        answered = {a[0] for a in report.answers}
        # All workers are persons through worksFor's domain chain.
        workers = {s for s, _o in abox.role_facts("worksFor")}
        assert workers <= answered

    def test_entailment_on_generated_kb(self, tbox, abox):
        from repro.dllite.kb import KnowledgeBase

        kb = KnowledgeBase(tbox, abox)
        head = next(iter(abox.role_facts("headOf")))[0]
        assert kb.entails_assertion(ConceptAssertion("Professor", head))
        assert kb.entails_assertion(ConceptAssertion("Person", head))


class TestReportPlumbing:
    def test_search_metadata_exposed(self, sqlite_system):
        report = sqlite_system.answer(query("Q8"), strategy="gdl")
        search = report.choice.search
        assert search is not None
        assert search.cost_estimations >= 1
        assert search.elapsed_seconds >= 0
        assert report.choice.sql.startswith("WITH") or report.choice.sql.startswith(
            "SELECT"
        )

    def test_edl_on_small_star(self, sqlite_system):
        from repro.bench.queries import star_queries

        a3 = star_queries()["A3"]
        report = sqlite_system.answer(a3, strategy="edl")
        search = report.choice.search
        assert search.safe_covers_explored >= 2

    def test_time_budgeted_answer(self, sqlite_system):
        report = sqlite_system.answer(
            query("Q8"), strategy="gdl", time_budget_seconds=0.01
        )
        assert report.answers == sqlite_system.answer(
            query("Q8"), strategy="ucq"
        ).answers

"""Tests for the benchmark package: TBox, generator, workload, harness."""

import pytest

from repro.bench.generator import generate_abox, scale_parameters
from repro.bench.lubm import lubm_exists_tbox, tbox_statistics
from repro.bench.queries import (
    benchmark_queries,
    query,
    star_queries,
    workload_profile,
)
from repro.dllite.kb import KnowledgeBase
from repro.dllite.vocabulary import AtomicConcept as C
from repro.dllite.vocabulary import Exists, Role


class TestLubmTBox:
    def test_signature_matches_the_paper(self):
        stats = tbox_statistics()
        # The paper's LUBM∃ TBox: 128 concepts, 34 roles, 212 constraints.
        assert stats["concepts"] == 128
        assert stats["roles"] == 34
        assert stats["axioms"] == 212

    def test_axiom_shape_mix(self):
        stats = tbox_statistics()
        assert stats["existential_rhs"] >= 20   # LUBM∃'s defining trait
        assert stats["role_inclusions"] >= 10
        assert stats["negative"] >= 5

    def test_hierarchy_depth(self):
        tbox = lubm_exists_tbox()
        supers = tbox.super_concepts(C("DistinguishedProfessor"))
        # DistinguishedProfessor <= FullProfessor <= Professor <= Faculty
        # <= Employee <= Person.
        for name in ("FullProfessor", "Professor", "Faculty", "Employee", "Person"):
            assert C(name) in supers

    def test_role_hierarchy_chain(self):
        tbox = lubm_exists_tbox()
        supers = tbox.super_roles(Role("headOf"))
        assert Role("worksFor") in supers
        assert Role("memberOf") in supers  # headOf <= worksFor <= memberOf

    def test_existential_entailment(self):
        tbox = lubm_exists_tbox()
        assert tbox.entails_concept_inclusion(
            C("DoctoralStudent"), Exists(Role("advisor"))
        )

    def test_tbox_is_cached(self):
        assert lubm_exists_tbox() is lubm_exists_tbox()


class TestGenerator:
    def test_deterministic(self):
        first = generate_abox("tiny", seed=7)
        second = generate_abox("tiny", seed=7)
        assert sorted(map(str, first.assertions())) == sorted(
            map(str, second.assertions())
        )

    def test_seed_changes_data(self):
        first = generate_abox("tiny", seed=1)
        second = generate_abox("tiny", seed=2)
        assert sorted(map(str, first.assertions())) != sorted(
            map(str, second.assertions())
        )

    def test_scales_grow(self):
        tiny = len(generate_abox("tiny"))
        small = len(generate_abox("small"))
        medium = len(generate_abox("medium"))
        assert tiny < small < medium

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            scale_parameters("galactic")

    def test_incompleteness_knob(self):
        complete = generate_abox("tiny", type_omission_probability=0.0)
        sparse = generate_abox("tiny", type_omission_probability=1.0)
        assert len(sparse.concept_names()) < len(complete.concept_names())

    def test_generated_kb_is_consistent(self):
        abox = generate_abox("tiny")
        kb = KnowledgeBase(lubm_exists_tbox(), abox)
        assert kb.is_consistent()

    def test_reasoning_is_required(self):
        # With type omission, some department heads lack explicit Chair
        # facts but are still certain answers through headOf's domain.
        from repro.dllite.parser import parse_query
        from repro.queries.evaluate import evaluate_cq, evaluate_ucq
        from repro.reformulation.perfectref import reformulate_to_ucq

        abox = generate_abox("tiny", type_omission_probability=1.0)
        q = parse_query("q(x) <- Chair(x)")
        plain = evaluate_cq(q, abox.fact_store())
        reformulated = evaluate_ucq(
            reformulate_to_ucq(q, lubm_exists_tbox()), abox.fact_store()
        )
        assert plain == set()
        assert reformulated  # every department has a head


class TestWorkload:
    def test_thirteen_queries(self):
        queries = benchmark_queries()
        assert len(queries) == 13
        assert set(queries) == {f"Q{i}" for i in range(1, 14)}

    def test_atom_range_matches_paper(self):
        profile = workload_profile()
        assert min(profile.values()) == 2
        assert max(profile.values()) == 10
        assert 4.5 <= sum(profile.values()) / 13 <= 6.0

    def test_queries_are_connected(self):
        for name, cq in benchmark_queries().items():
            assert cq.is_connected(), name

    def test_star_queries_are_prefixes_of_q1(self):
        stars = star_queries()
        q1 = query("Q1")
        assert set(stars) == {"A3", "A4", "A5", "A6"}
        for i in range(3, 7):
            assert stars[f"A{i}"].atoms == q1.atoms[:i]
        assert stars["A6"].atoms == q1.atoms  # A6 = Q1

    def test_star_queries_are_stars(self):
        from repro.queries.terms import Variable

        for name, star in star_queries().items():
            for atom in star.atoms:
                assert Variable("x") in set(atom.variables()), name

    def test_reformulation_size_spread(self):
        # The paper: 35-667 CQs, which the classical fixpoint reproduces
        # (Q12 50, Q6 585; the full table is a bench). PerfectRef first
        # drops the atoms other atoms imply: Q12 has none, while
        # advisor(x, y) implies Student(x) and FullProfessor(y) implies
        # worksFor(y, d), so Q6 rewrites to 2 CQs.
        from legacy_perfectref import legacy_perfectref

        from repro.reformulation.perfectref import perfectref

        tbox = lubm_exists_tbox()
        assert len(perfectref(query("Q12"), tbox)) == 50
        assert len(perfectref(query("Q6"), tbox)) == 2
        assert len(legacy_perfectref(query("Q6"), tbox)) == 585


class TestHarness:
    def test_reformulation_statistics(self):
        from repro.bench.harness import reformulation_statistics

        tbox = lubm_exists_tbox()
        queries = {"Q12": query("Q12")}
        result = reformulation_statistics(tbox, queries)
        assert result.rows[0]["ucq_size"] == 50
        assert "minimal_ucq_size" in result.rows[0]
        assert "Q12" in result.table()

    def test_search_space_experiment(self):
        from repro.bench.harness import search_space_experiment
        from repro.cost.statistics import DataStatistics

        tbox = lubm_exists_tbox()
        abox = generate_abox("tiny")
        stats = DataStatistics.from_abox(abox)
        result = search_space_experiment(
            tbox, {"A3": star_queries()["A3"]}, stats, generalized_limit=100
        )
        row = result.rows[0]
        assert row["lq_size"] >= 1
        assert row["gdl_safe_explored"] >= 1

    def test_evaluation_experiment_smoke(self):
        from repro.bench.harness import evaluation_experiment
        from repro.obda.system import OBDASystem

        tbox = lubm_exists_tbox()
        abox = generate_abox("tiny")
        with OBDASystem(tbox, abox, backend="sqlite") as system:
            result = evaluation_experiment(
                system,
                {"Q12": query("Q12")},
                variants=(("UCQ", "ucq", None), ("GDL/ext", "gdl", "ext")),
            )
            assert len(result.rows) == 2
            statuses = {row["status"] for row in result.rows}
            assert statuses == {"ok"}
            answer_counts = {row["answers"] for row in result.rows}
            assert len(answer_counts) == 1  # both variants agree

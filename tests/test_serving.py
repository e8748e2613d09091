"""Tests for the shared-work answering layer.

Covers the fragment-level :class:`ReformulationCache`, the plan-level
:class:`PlanCache`, ``OBDASystem.answer_many`` (sequential and threaded),
and backend teardown.
"""

import threading

import pytest

from repro.cost.cache import ReformulationCache
from repro.cost.estimators import ExternalCoverCost
from repro.cost.model import ExternalCostModel
from repro.cost.statistics import DataStatistics
from repro.covers.reformulate import (
    cover_based_reformulation,
    cover_based_uscq_reformulation,
)
from repro.covers.safety import root_cover
from repro.dllite.parser import parse_query
from repro.obda.system import OBDASystem
from repro.optimizer.gdl import gdl_search
from repro.queries.jucq import JUCQ, JUSCQ
from repro.serving.plan_cache import PlanCache
from repro.storage.sqlite_backend import SQLiteBackend

TBOX = """
role worksWith
role supervisedBy
PhDStudent <= Researcher
exists worksWith <= Researcher
exists worksWith- <= Researcher
worksWith <= worksWith-
supervisedBy <= worksWith
exists supervisedBy <= PhDStudent
PhDStudent <= not exists supervisedBy-
"""
ABOX = """
worksWith(Ioana, Francois)
supervisedBy(Damian, Ioana)
supervisedBy(Damian, Francois)
"""
QUERY = "q(x) <- PhDStudent(x), worksWith(y, x)"


@pytest.fixture
def system():
    instance = OBDASystem.from_text(TBOX, ABOX)
    yield instance
    instance.close()


class TestReformulationCache:
    def test_counts_hits_and_misses(self, example1_tbox):
        cache = ReformulationCache()
        query = parse_query(QUERY)
        cover = root_cover(query, example1_tbox)
        first = cover_based_reformulation(cover, example1_tbox, cache=cache)
        assert cache.misses == len(cover.fragments)
        assert cache.hits == 0
        second = cover_based_reformulation(cover, example1_tbox, cache=cache)
        assert cache.hits == len(cover.fragments)
        assert first.components == second.components

    def test_dialects_never_collide(self, example1_tbox):
        # The same fragments through both builders against one cache: the
        # USCQ keys carry a marker, so the JUCQ entries are not reused.
        cache = ReformulationCache()
        query = parse_query(QUERY)
        cover = root_cover(query, example1_tbox)
        jucq = cover_based_reformulation(cover, example1_tbox, cache=cache)
        juscq = cover_based_uscq_reformulation(
            cover, example1_tbox, cache=cache
        )
        assert isinstance(jucq, JUCQ)
        assert isinstance(juscq, JUSCQ)
        assert cache.hits == 0  # no cross-dialect reuse
        assert len(cache) == 2 * len(cover.fragments)

    def test_shared_across_estimators(self, example1_tbox, example1_abox):
        # Two estimators over one cache: the second search's fragments are
        # all warm, so PerfectRef runs strictly fewer times than cold.
        shared = ReformulationCache()
        model = ExternalCostModel(DataStatistics.from_abox(example1_abox))
        query = parse_query(QUERY)

        cold = ExternalCoverCost(
            example1_tbox, model, fragment_cache=shared
        )
        gdl_search(query, example1_tbox, cold)
        cold_misses = shared.misses

        warm = ExternalCoverCost(
            example1_tbox, model, fragment_cache=shared
        )
        gdl_search(query, example1_tbox, warm)
        assert shared.misses == cold_misses  # nothing recomputed
        assert shared.hits > 0

    def test_clear_resets(self):
        cache = ReformulationCache()
        cache[("k",)] = "v"
        assert ("k",) in cache and cache[("k",)] == "v"
        cache.clear()
        assert len(cache) == 0
        assert cache.stats() == {"entries": 0, "hits": 0, "misses": 0, "stale": 0}

    def test_bounded_capacity_evicts_lru(self):
        cache = ReformulationCache(capacity=2)
        cache[("a",)] = 1
        cache[("b",)] = 2
        assert cache[("a",)] == 1  # refreshes "a"
        cache[("c",)] = 3  # evicts "b"
        assert ("b",) not in cache
        assert ("a",) in cache and ("c",) in cache
        with pytest.raises(ValueError):
            ReformulationCache(capacity=0)


class TestPlanCache:
    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.get(("a",)) == 1  # refreshes "a"
        cache.put(("c",), 3)  # evicts "b", the LRU entry
        assert ("b",) not in cache
        assert cache.get(("a",)) == 1
        assert cache.get(("c",)) == 3

    def test_counters_and_clear(self):
        cache = PlanCache(capacity=4)
        assert cache.get(("missing",)) is None
        cache.put(("k",), "plan")
        assert cache.get(("k",)) == "plan"
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 0

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_thread_safety_under_contention(self):
        cache = PlanCache(capacity=8)
        errors = []

        def worker(seed: int) -> None:
            try:
                for i in range(200):
                    key = (f"k{(seed + i) % 16}",)
                    cache.put(key, i)
                    cache.get(key)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 8


class TestPlanCacheInSystem:
    @pytest.mark.parametrize("strategy", ["ucq", "croot", "gdl", "edl"])
    def test_second_answer_hits_plan_cache(self, system, strategy):
        cold = system.answer(QUERY, strategy=strategy)
        warm = system.answer(QUERY, strategy=strategy)
        assert not cold.plan_cache_hit
        assert warm.plan_cache_hit
        assert warm.answers == cold.answers == {("Damian",)}
        assert warm.cache_stats["plan"]["hits"] >= 1

    def test_renamed_query_shares_the_plan(self, system):
        system.answer(QUERY, strategy="gdl")
        renamed = system.answer(
            "q(a) <- PhDStudent(a), worksWith(b, a)", strategy="gdl"
        )
        assert renamed.plan_cache_hit  # canonical keys match

    def test_flags_key_the_cache(self, system):
        baseline = system.answer(QUERY, strategy="croot")
        for kwargs in (
            {"strategy": "ucq"},
            {"strategy": "croot", "minimize": False},
            {"strategy": "croot", "use_uscq": True},
        ):
            report = system.answer(QUERY, **kwargs)
            assert not report.plan_cache_hit, kwargs
            assert report.answers == baseline.answers

    def test_time_budget_bypasses_the_cache(self, system):
        system.answer(QUERY, strategy="gdl")
        budgeted = system.answer(
            QUERY, strategy="gdl", time_budget_seconds=10.0
        )
        assert not budgeted.plan_cache_hit

    def test_opt_out(self, system):
        system.answer(QUERY, strategy="gdl")
        report = system.answer(QUERY, strategy="gdl", use_plan_cache=False)
        assert not report.plan_cache_hit

    def test_cached_plan_skips_perfectref(self, system):
        from repro.reformulation.perfectref import perfectref_invocations

        system.answer(QUERY, strategy="gdl")
        before = perfectref_invocations()
        system.answer(QUERY, strategy="gdl")
        assert perfectref_invocations() == before

    @pytest.mark.parametrize("strategy", ["ucq", "croot", "gdl", "edl"])
    def test_queries_with_constants_are_cacheable(self, system, strategy):
        # Regression: canonical_key (the plan-cache key) used to crash
        # sorting atoms that mix a Constant and a Variable at the same
        # argument position of one predicate.
        query = "q(x) <- worksWith(x, Francois), worksWith(x, y)"
        cold = system.answer(query, strategy=strategy)
        warm = system.answer(query, strategy=strategy)
        assert warm.plan_cache_hit
        assert warm.answers == cold.answers == {("Ioana",), ("Damian",)}


class TestAnswerMany:
    QUERIES = [
        QUERY,
        "q(x) <- Researcher(x)",
        QUERY,  # duplicate: exercised through the plan cache
        "q(x, y) <- supervisedBy(x, y)",
    ]

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_matches_sequential_answers(self, backend):
        with OBDASystem.from_text(TBOX, ABOX, backend=backend) as system:
            sequential = [
                system.answer(q, strategy="gdl", use_plan_cache=False)
                for q in self.QUERIES
            ]
            batched = system.answer_many(self.QUERIES, strategy="gdl")
            assert [r.answers for r in batched] == [
                r.answers for r in sequential
            ]

    def test_threaded_against_sqlite_matches_sequential(self, answer_concurrently):
        with OBDASystem.from_text(TBOX, ABOX, backend="sqlite") as system:
            expected = [
                system.answer(q, strategy="gdl", use_plan_cache=False).answers
                for q in self.QUERIES
            ]
            for _ in range(3):  # repeat to shake out races
                batched = answer_concurrently(
                    system, self.QUERIES, 4, strategy="gdl"
                )
                assert [r.answers for r in batched] == expected

    def test_duplicates_hit_the_plan_cache(self, system):
        reports = system.answer_many(self.QUERIES, strategy="gdl")
        assert not reports[0].plan_cache_hit
        assert reports[2].plan_cache_hit  # the duplicate of reports[0]

    def test_threaded_duplicates_are_single_flighted(
        self, system, answer_concurrently
    ):
        # Concurrent requests for the same uncached plan must not race
        # duplicate searches: exactly one computes, the rest wait and hit.
        reports = answer_concurrently(system, [QUERY] * 6, 6, strategy="gdl")
        cold = [r for r in reports if not r.plan_cache_hit]
        assert len(cold) == 1
        assert len({frozenset(r.answers) for r in reports}) == 1

    def test_accepts_parsed_queries(self, system):
        parsed = [parse_query(q) for q in self.QUERIES]
        reports = system.answer_many(parsed, strategy="croot")
        assert reports[0].answers == {("Damian",)}


class TestLubmCacheCorrectness:
    """Cached and uncached reformulations answer identically on LUBM."""

    STRATEGIES = ("ucq", "croot", "gdl", "edl")

    @pytest.fixture(scope="class")
    def lubm_system(self):
        from repro.bench.generator import generate_abox
        from repro.bench.lubm import lubm_exists_tbox

        system = OBDASystem(lubm_exists_tbox(), generate_abox("tiny"))
        yield system
        system.close()

    @pytest.fixture(scope="class")
    def workload(self):
        from repro.bench.queries import query, star_queries

        picks = {"Q9": query("Q9"), "Q11": query("Q11")}
        picks["A3"] = star_queries()["A3"]
        return picks

    def test_cached_answers_match_uncached(self, lubm_system, workload):
        for name, cq in workload.items():
            for strategy in self.STRATEGIES:
                # Truly cold: bypass the plan cache and drop the shared
                # fragment cache so every reformulation is recomputed.
                lubm_system.reformulation_cache.clear()
                cold = lubm_system.answer(
                    cq, strategy=strategy, use_plan_cache=False
                )
                warm_fragments = lubm_system.answer(
                    cq, strategy=strategy, use_plan_cache=False
                )
                warm_plan = lubm_system.answer(cq, strategy=strategy)
                warm_plan_hit = lubm_system.answer(cq, strategy=strategy)
                assert warm_plan_hit.plan_cache_hit
                assert (
                    cold.answers
                    == warm_fragments.answers
                    == warm_plan.answers
                    == warm_plan_hit.answers
                ), (name, strategy)

    def test_strategies_agree_through_the_caches(self, lubm_system, workload):
        for name, cq in workload.items():
            reference = None
            for strategy in self.STRATEGIES:
                report = lubm_system.answer(cq, strategy=strategy)
                if reference is None:
                    reference = report.answers
                else:
                    assert report.answers == reference, (name, strategy)

    def test_search_ignores_an_earlier_atom_order(self, lubm_system):
        """Two spellings of one query share a canonical key but not
        their atom indexes, so a cover priced for one is a different
        cover of the other: a search must price its own covers, whatever
        the system searched before."""
        first = parse_query("q(x) <- Department(x), takesCourse(x, x), Chair(x)")
        second = parse_query("q(x) <- Chair(x), Department(x), takesCourse(x, x)")
        assert first.canonical_key() == second.canonical_key()
        lubm_system.reformulate(first, strategy="gdl", use_plan_cache=False)
        choice = lubm_system.reformulate(
            second, strategy="gdl", use_plan_cache=False
        )
        alone = gdl_search(
            second,
            lubm_system.kb.tbox,
            ExternalCoverCost(
                lubm_system.kb.tbox,
                lubm_system.cost_model,
                empty=lubm_system.empty_predicates(),
            ),
        )
        assert choice.search.cover == alone.cover
        assert choice.search.cost == alone.cost


class TestTeardown:
    def test_sqlite_backend_close_is_idempotent(self):
        backend = SQLiteBackend()
        backend.close()
        backend.close()
        with pytest.raises(RuntimeError):
            backend.execute("SELECT 1")

    def test_sqlite_backend_context_manager(self):
        from repro.storage.layouts import SimpleLayout
        from repro.dllite.parser import parse_abox

        abox = parse_abox(ABOX)
        with SQLiteBackend() as backend:
            backend.load(SimpleLayout().build(abox))
            assert backend.execute("SELECT 1") == [(1,)]
        with pytest.raises(RuntimeError):
            backend.execute("SELECT 1")

    def test_system_close_closes_backend(self):
        system = OBDASystem.from_text(TBOX, ABOX, backend="sqlite")
        system.answer(QUERY, strategy="croot")
        system.close()
        with pytest.raises(RuntimeError):
            system.backend.execute("SELECT 1")
        assert len(system.plan_cache) == 0

    def test_system_context_manager(self):
        with OBDASystem.from_text(TBOX, ABOX, backend="sqlite") as system:
            assert system.answer(QUERY, strategy="ucq").answers == {
                ("Damian",)
            }
        with pytest.raises(RuntimeError):
            system.backend.execute("SELECT 1")

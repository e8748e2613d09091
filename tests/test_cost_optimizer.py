"""Tests for statistics, the external cost model, EDL and GDL."""

import math
import os
import subprocess
import sys

import pytest

from repro.bench.datagen import stream_facts
from repro.bench.generator import generate_abox
from repro.bench.lubm import lubm_exists_tbox
from repro.bench.queries import benchmark_queries
from repro.cost.cache import ReformulationCache
from repro.cost.estimators import ExternalCoverCost, RDBMSCoverCost
from repro.cost.model import ExternalCostModel
from repro.cost.statistics import DataStatistics
from repro.covers.cover import GeneralizedCover
from repro.covers.generalized import in_generalized_space
from repro.covers.safety import root_cover, single_fragment_cover
from repro.dllite.abox import ABox
from repro.dllite.parser import parse_query
from repro.optimizer.edl import edl_search
from repro.optimizer.gdl import gdl_search
from repro.queries.evaluate import evaluate, evaluate_jucq
from repro.reformulation.perfectref import reformulate_to_ucq
from repro.sql.translator import SQLTranslator
from repro.storage.layouts import SimpleLayout
from repro.storage.memory_backend import MemoryBackend


@pytest.fixture
def rich_abox(example1_abox):
    # Widen the data so cost differences are meaningful.
    for i in range(60):
        example1_abox.add_role("worksWith", f"r{i}", f"r{(i + 1) % 60}")
    for i in range(20):
        example1_abox.add_role("supervisedBy", f"s{i}", f"r{i % 5}")
        example1_abox.add_concept("PhDStudent", f"s{i}")
    return example1_abox


class TestStatistics:
    def test_from_abox(self, rich_abox):
        stats = DataStatistics.from_abox(rich_abox)
        assert stats.cardinality("worksWith") == 61
        assert stats.cardinality("PhDStudent") == 20
        assert stats.distinct("worksWith", 0) >= 60
        assert stats.total_facts == len(rich_abox)

    def test_missing_predicate_is_empty(self, rich_abox):
        stats = DataStatistics.from_abox(rich_abox)
        assert stats.cardinality("Nothing") == 0
        assert stats.distinct("Nothing", 0) == 1  # floor avoids div-by-zero


class TestExternalCostModel:
    @pytest.fixture
    def model(self, rich_abox):
        return ExternalCostModel(DataStatistics.from_abox(rich_abox))

    def test_single_atom_cost_tracks_cardinality(self, model):
        small = model.estimate(parse_query("q(x) <- PhDStudent(x)"))
        large = model.estimate(parse_query("q(x, y) <- worksWith(x, y)"))
        assert large > small

    def test_constant_enables_index_access(self, model):
        scan = model.estimate(parse_query("q(x, y) <- worksWith(x, y)"))
        probe = model.estimate(parse_query("q(y) <- worksWith(Ioana, y)"))
        assert probe < scan

    def test_join_costs_more_than_parts(self, model):
        join = model.estimate(
            parse_query("q(x) <- PhDStudent(x), worksWith(x, y)")
        )
        part = model.estimate(parse_query("q(x) <- PhDStudent(x)"))
        assert join > part

    def test_ucq_cost_roughly_additive(self, model, example1_tbox):
        query = parse_query("q(x) <- PhDStudent(x), worksWith(y, x)")
        ucq = reformulate_to_ucq(query, example1_tbox, minimize=True)
        ucq_cost = model.estimate(ucq)
        max_disjunct = max(model.estimate(cq) for cq in ucq.disjuncts)
        assert ucq_cost > max_disjunct

    def test_rows_estimate_positive(self, model):
        rows = model.estimated_rows(parse_query("q(x, y) <- worksWith(x, y)"))
        assert rows > 0

    def test_jucq_estimate_includes_materialization(
        self, model, example1_tbox
    ):
        from repro.covers.reformulate import cover_based_reformulation

        query = parse_query("q(x) <- PhDStudent(x), worksWith(y, x)")
        cover = single_fragment_cover(query)
        jucq = cover_based_reformulation(cover, example1_tbox)
        assert model.estimate(jucq) > 0


class TestEstimators:
    @pytest.fixture
    def query(self):
        return parse_query("q(x) <- PhDStudent(x), worksWith(y, x)")

    def test_external_estimator_memoizes(self, query, example1_tbox, rich_abox):
        model = ExternalCostModel(DataStatistics.from_abox(rich_abox))
        estimator = ExternalCoverCost(example1_tbox, model)
        cover = root_cover(query, example1_tbox)
        first = estimator.estimate(cover)
        second = estimator.estimate(cover)
        assert first == second
        assert estimator.calls == 1

    def test_rdbms_estimator_prices_with_backend(
        self, query, example1_tbox, rich_abox
    ):
        layout = SimpleLayout()
        backend = MemoryBackend()
        backend.load(layout.build(rich_abox))
        estimator = RDBMSCoverCost(
            example1_tbox, backend, SQLTranslator(layout)
        )
        cost = estimator.estimate(root_cover(query, example1_tbox))
        assert cost > 0

    def test_rdbms_estimator_prices_oversized_at_infinity(
        self, query, example1_tbox, rich_abox
    ):
        layout = SimpleLayout()
        backend = MemoryBackend(max_statement_length=200)
        backend.load(layout.build(rich_abox))
        estimator = RDBMSCoverCost(
            example1_tbox, backend, SQLTranslator(layout)
        )
        assert estimator.estimate(single_fragment_cover(query)) == math.inf


class TestGDL:
    @pytest.fixture
    def query(self):
        return parse_query(
            "q(x) <- PhDStudent(x), supervisedBy(x, y), worksWith(z, y)"
        )

    @pytest.fixture
    def estimator(self, example1_tbox, rich_abox):
        model = ExternalCostModel(DataStatistics.from_abox(rich_abox))
        return ExternalCoverCost(example1_tbox, model)

    def test_gdl_returns_valid_cover(self, query, example1_tbox, estimator):
        result = gdl_search(query, example1_tbox, estimator)
        assert isinstance(result.cover, GeneralizedCover)
        assert result.cost < math.inf
        assert result.cost_estimations >= 1

    def test_gdl_never_worse_than_root(self, query, example1_tbox, estimator):
        root = GeneralizedCover.from_cover(root_cover(query, example1_tbox))
        root_cost = estimator.estimate(root)
        result = gdl_search(query, example1_tbox, estimator)
        assert result.cost <= root_cost

    def test_gdl_reformulation_is_equivalent(
        self, query, example1_tbox, estimator, rich_abox
    ):
        result = gdl_search(query, example1_tbox, estimator)
        jucq = estimator.reformulate(result.cover)
        reference = evaluate(
            reformulate_to_ucq(query, example1_tbox), rich_abox.fact_store()
        )
        assert evaluate_jucq(jucq, rich_abox.fact_store()) == reference

    def test_time_budget_stops_early(self, query, example1_tbox, estimator):
        result = gdl_search(
            query, example1_tbox, estimator, time_budget_seconds=0.0
        )
        # With a zero budget the search stops during the first sweep but
        # still returns the root cover.
        assert result.cover is not None
        assert result.hit_time_budget or result.total_covers_explored >= 1

    def test_explored_counts_are_modest(self, query, example1_tbox, estimator):
        # Table 6: GDL explores tens of covers, not thousands.
        result = gdl_search(query, example1_tbox, estimator)
        assert result.total_covers_explored < 100

    def test_budget_hit_mid_scan_still_applies_best_move(self, monkeypatch):
        # Pins the time-budget semantics the simplified loop-exit condition
        # must preserve: a budget expiring mid-scan still applies the
        # cheapest move found so far (and reports the truncation) instead
        # of discarding it. The TBox keeps the three atoms
        # dependency-independent so the root cover has three fragments and
        # the first sweep offers several moves; a fake clock driven by the
        # estimator makes the expiry deterministic.
        import repro.optimizer.gdl as gdl_module
        from repro.dllite.parser import parse_tbox

        tbox = parse_tbox(
            """
            role teaches
            role attends
            Professor <= Person
            Student <= Person
            """
        )
        query = parse_query("q(x) <- Person(x), teaches(x, a), attends(x, b)")

        class FakeClock:
            def __init__(self):
                self.now = 0.0

            def perf_counter(self):
                return self.now

        clock = FakeClock()
        monkeypatch.setattr(gdl_module, "time", clock)

        class ClockedEstimator:
            """Root, then an improving move, then the budget expires."""

            def __init__(self):
                self.calls = 0

            def estimate(self, cover):
                self.calls += 1
                if self.calls == 1:
                    return 100.0  # the root cover
                if self.calls == 2:
                    return 50.0  # an improving move
                clock.now += 1.0  # past the budget, mid-scan
                return 999.0

        estimator = ClockedEstimator()
        result = gdl_search(query, tbox, estimator, time_budget_seconds=0.5)
        assert result.hit_time_budget
        assert result.cost == 50.0  # the improving move was applied

    def test_uscq_estimator_reuses_fragment_cache(
        self, query, example1_tbox, rich_abox
    ):
        # Satellite regression: USCQ-mode estimation must go through the
        # fragment cache too — a second search over a shared cache runs
        # PerfectRef zero times.
        from repro.cost.cache import ReformulationCache
        from repro.reformulation.perfectref import perfectref_invocations

        shared = ReformulationCache()
        model = ExternalCostModel(DataStatistics.from_abox(rich_abox))
        first = ExternalCoverCost(
            example1_tbox, model, use_uscq=True, fragment_cache=shared
        )
        gdl_search(query, example1_tbox, first)
        assert shared.misses > 0
        before = perfectref_invocations()
        second = ExternalCoverCost(
            example1_tbox, model, use_uscq=True, fragment_cache=shared
        )
        gdl_search(query, example1_tbox, second)
        assert perfectref_invocations() == before

    def test_uscq_and_jucq_results_unchanged_by_shared_cache(
        self, query, example1_tbox, rich_abox
    ):
        # Cache correctness: searches over a shared (warm) cache pick the
        # same cover at the same cost as searches with private caches.
        from repro.cost.cache import ReformulationCache

        model = ExternalCostModel(DataStatistics.from_abox(rich_abox))
        for use_uscq in (False, True):
            shared = ReformulationCache()
            private_result = gdl_search(
                query,
                example1_tbox,
                ExternalCoverCost(example1_tbox, model, use_uscq=use_uscq),
            )
            gdl_search(  # warm the shared cache
                query,
                example1_tbox,
                ExternalCoverCost(
                    example1_tbox, model, use_uscq=use_uscq, fragment_cache=shared
                ),
            )
            warm_result = gdl_search(
                query,
                example1_tbox,
                ExternalCoverCost(
                    example1_tbox, model, use_uscq=use_uscq, fragment_cache=shared
                ),
            )
            assert warm_result.cover.key() == private_result.cover.key()
            assert warm_result.cost == private_result.cost


#: The 16 queries of the end-to-end ledger (``benchmarks/e2e``): the
#: superclass queries S1-S3 beside the workload's Q1-Q13.
LEDGER_QUERIES = {
    "S1": parse_query("q(x) <- Student(x), takesCourse(x, y)"),
    "S2": parse_query("q(x) <- Professor(x), worksFor(x, y)"),
    "S3": parse_query("q(x, y) <- Article(x), publicationAuthor(x, y)"),
    **benchmark_queries(),
}

#: Prints the cover GDL picks for every ledger query, one per line; run
#: in a child interpreter so ``PYTHONHASHSEED`` can be set.
PICKS_SCRIPT = """
from repro.bench.generator import generate_abox
from repro.bench.lubm import lubm_exists_tbox
from repro.cost.estimators import ExternalCoverCost
from repro.cost.model import ExternalCostModel
from repro.cost.statistics import DataStatistics
from repro.optimizer.gdl import gdl_search
from test_cost_optimizer import LEDGER_QUERIES

tbox = lubm_exists_tbox()
model = ExternalCostModel(DataStatistics.from_abox(generate_abox("tiny")))
for name, query in LEDGER_QUERIES.items():
    print(name, gdl_search(query, tbox, ExternalCoverCost(tbox, model)).cover)
"""


class TestGDLStaysInGq:
    """GDL starts from the root cover repaired into Gq and no move
    leaves it (§5.2: safe g-cover, join-connected f-parts)."""

    @pytest.fixture(scope="class")
    def tbox(self):
        return lubm_exists_tbox()

    @pytest.fixture(scope="class")
    def model_100k(self):
        """The ext model over the ledger's 100k tier, seed 2016."""
        abox = ABox()
        for fact in stream_facts(100_000, 2016):
            if fact[0] == "c":
                abox.add_concept(fact[1], fact[2])
            else:
                abox.add_role(fact[1], fact[2], fact[3])
        return ExternalCostModel(DataStatistics.from_abox(abox))

    @pytest.fixture(scope="class")
    def fragments(self):
        return ReformulationCache()

    @pytest.mark.parametrize("name", list(LEDGER_QUERIES))
    def test_ledger_pick_is_in_gq(self, name, tbox, model_100k, fragments):
        estimator = ExternalCoverCost(tbox, model_100k, fragment_cache=fragments)
        search = gdl_search(LEDGER_QUERIES[name], tbox, estimator)
        assert in_generalized_space(search.cover, tbox)

    def test_q10_pick_is_pinned(self, tbox, model_100k, fragments):
        # The root cover's f0 carries University(u) as a cartesian
        # product (861 ms on SQLite); the repaired start cover, with
        # subOrganizationOf(d, u) as reducer, runs in 109 ms and no move
        # is priced below it.
        estimator = ExternalCoverCost(tbox, model_100k, fragment_cache=fragments)
        search = gdl_search(LEDGER_QUERIES["Q10"], tbox, estimator)
        assert str(search.cover) == (
            "{[0, 1, 2, 3, 4, 5, 7, 8, 9]||[0, 1, 2, 3, 4, 5, 8, 9]; "
            "[6, 7]||[6, 7]}"
        )
        assert search.reducers_added == 1

    def test_zero_budget_returns_the_connected_start_cover(
        self, tbox, model_100k, fragments
    ):
        estimator = ExternalCoverCost(tbox, model_100k, fragment_cache=fragments)
        search = gdl_search(
            LEDGER_QUERIES["Q10"], tbox, estimator, time_budget_seconds=0
        )
        assert search.hit_time_budget
        assert search.total_covers_explored == 1
        assert in_generalized_space(search.cover, tbox)

    @pytest.mark.parametrize("name", ["Q7", "Q8", "Q10", "Q12"])
    def test_lq_ablation_adds_no_reducer(self, name, tbox, model_100k, fragments):
        # These four have a disconnected root fragment; the Lq-only
        # search starts from the root cover as Definition 6 builds it.
        estimator = ExternalCoverCost(tbox, model_100k, fragment_cache=fragments)
        search = gdl_search(
            LEDGER_QUERIES[name], tbox, estimator, enable_generalized=False
        )
        assert search.cover.is_plain()
        assert search.reducers_added == 0
        assert search.generalized_covers_explored == 0

    def test_disconnected_query_terminates_with_ucq_answers(self, tbox):
        # No join path exists, so there is nothing to repair, and the
        # union of the two fragments (a cross product) is not a move.
        query = parse_query("q(x, y) <- Student(x), University(y)")
        abox = generate_abox("tiny")
        model = ExternalCostModel(DataStatistics.from_abox(abox))
        estimator = ExternalCoverCost(tbox, model)
        search = gdl_search(query, tbox, estimator)
        assert search.cover == GeneralizedCover.from_cover(root_cover(query, tbox))
        assert search.reducers_added == 0
        assert search.total_covers_explored == 1
        facts = abox.fact_store()
        assert evaluate_jucq(estimator.reformulate(search.cover), facts) == evaluate(
            reformulate_to_ucq(query, tbox), facts
        )

    def test_picks_do_not_depend_on_the_hash_seed(self):
        here = os.path.dirname(os.path.abspath(__file__))
        picks = []
        for seed in ("0", "5"):
            path = os.pathsep.join([here] + sys.path)
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
            done = subprocess.run(
                [sys.executable, "-c", PICKS_SCRIPT],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            picks.append(done.stdout)
        assert picks[0].count("\n") == len(LEDGER_QUERIES)
        assert picks[0] == picks[1]

    @pytest.mark.parametrize("use_uscq", [False, True])
    def test_component_memo_is_exact(self, use_uscq, tbox, model_100k, fragments):
        # Every cover a search prices through the per-component memo gets
        # the very float the model computes from scratch. (RDBMSCoverCost
        # prices whole SQL statements and has no memo.)
        for name, query in LEDGER_QUERIES.items():
            if use_uscq and name in ("Q5", "Q10"):
                continue  # factorising their fragments takes 7 s each
            estimator = ExternalCoverCost(
                tbox, model_100k, use_uscq=use_uscq, fragment_cache=fragments
            )
            estimator.priced = []
            gdl_search(query, tbox, estimator)
            assert estimator.priced
            for cover, cost in estimator.priced:
                assert cost == model_100k.estimate(estimator.reformulate(cover))


class TestEDL:
    def test_edl_explores_whole_lattice(self, example1_tbox, rich_abox):
        query = parse_query("q(x) <- PhDStudent(x), worksWith(y, x)")
        model = ExternalCostModel(DataStatistics.from_abox(rich_abox))
        estimator = ExternalCoverCost(example1_tbox, model)
        result = edl_search(query, example1_tbox, estimator)
        assert result.safe_covers_explored >= 1
        assert result.cost < math.inf

    def test_edl_at_least_as_good_as_gdl(self, example1_tbox, rich_abox):
        query = parse_query(
            "q(x) <- PhDStudent(x), supervisedBy(x, y), worksWith(z, y)"
        )
        model = ExternalCostModel(DataStatistics.from_abox(rich_abox))
        edl_estimator = ExternalCoverCost(example1_tbox, model)
        gdl_estimator = ExternalCoverCost(example1_tbox, model)
        edl_result = edl_search(query, example1_tbox, edl_estimator)
        gdl_result = gdl_search(query, example1_tbox, gdl_estimator)
        assert edl_result.cost <= gdl_result.cost

    def test_generalized_limit_respected(self, example1_tbox, rich_abox):
        query = parse_query(
            "q(x) <- PhDStudent(x), supervisedBy(x, y), worksWith(z, y)"
        )
        model = ExternalCostModel(DataStatistics.from_abox(rich_abox))
        estimator = ExternalCoverCost(example1_tbox, model)
        result = edl_search(
            query, example1_tbox, estimator, generalized_limit=5
        )
        assert result.generalized_covers_explored <= 5


class TestOBDASystem:
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

    @pytest.mark.parametrize("strategy", ["ucq", "croot", "gdl", "edl"])
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_all_strategies_agree(self, strategy, backend):
        from repro.obda.system import OBDASystem

        with OBDASystem.from_text(self.TBOX, self.ABOX, backend=backend) as system:
            report = system.answer(
                "q(x) <- PhDStudent(x), worksWith(y, x)", strategy=strategy
            )
            assert report.answers == {("Damian",)}

    def test_rdbms_cost_mode(self):
        from repro.obda.system import OBDASystem

        with OBDASystem.from_text(self.TBOX, self.ABOX) as system:
            report = system.answer(
                "q(x) <- PhDStudent(x), worksWith(y, x)",
                strategy="gdl",
                cost="rdbms",
            )
            assert report.answers == {("Damian",)}

    def test_rdf_layout_end_to_end(self):
        from repro.obda.system import OBDASystem

        with OBDASystem.from_text(
            self.TBOX, self.ABOX, layout="rdf", rdf_width=4
        ) as system:
            report = system.answer(
                "q(x) <- PhDStudent(x), worksWith(y, x)", strategy="ucq"
            )
            assert report.answers == {("Damian",)}

    def test_uscq_reformulation_mode(self):
        from repro.obda.system import OBDASystem

        with OBDASystem.from_text(self.TBOX, self.ABOX) as system:
            report = system.answer(
                "q(x) <- PhDStudent(x), worksWith(y, x)",
                strategy="croot",
                use_uscq=True,
            )
            assert report.answers == {("Damian",)}

    def test_boolean_query(self):
        from repro.obda.system import OBDASystem

        with OBDASystem.from_text(self.TBOX, self.ABOX) as system:
            positive = system.answer("q() <- PhDStudent(Damian)", strategy="ucq")
            assert positive.answers == {()}
            negative = system.answer("q() <- PhDStudent(Ioana)", strategy="ucq")
            assert negative.answers == set()

    def test_consistency_gate(self):
        from repro.dllite.kb import InconsistentKBError
        from repro.obda.system import OBDASystem

        bad_abox = self.ABOX + "\nsupervisedBy(Ioana, Damian)\n"
        with pytest.raises(InconsistentKBError):
            OBDASystem.from_text(self.TBOX, bad_abox, check_consistency=True)

    def test_report_carries_timings_and_sql(self):
        from repro.obda.system import OBDASystem

        with OBDASystem.from_text(self.TBOX, self.ABOX) as system:
            report = system.answer(
                "q(x) <- PhDStudent(x), worksWith(y, x)", strategy="gdl"
            )
            assert report.choice.sql.startswith(("WITH", "SELECT"))
            assert report.total_seconds >= 0
            assert report.choice.search is not None

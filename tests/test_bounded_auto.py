"""``auto`` prices ``sat`` first and searches only below it.

``strategy="auto"`` hands the saturation-side estimate to GDL as a bound:
no cover priced at or above it is accepted, and pricing a cover stops as
soon as its running sum reaches it. The unbounded search — the ``gdl``
strategy — is the oracle:

* a cover priced below the bound gets the very float the unbounded
  estimate gives it, and a cover cut off costs at least the bound;
* where bounded ``auto`` routes to ``gdl`` it picks the unbounded
  search's cover at the unbounded cost;
* on the ledger queries the routing and the SQL are byte-identical;
* a cut-off price never reaches a cache another search reads.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, event, given, settings
from test_cost_optimizer import LEDGER_QUERIES
from test_property_based import LUBM_CONCEPTS, LUBM_ROLES, connected_cqs

from repro.bench.datagen import stream_facts
from repro.bench.lubm import lubm_exists_tbox
from repro.cost.estimators import ExternalCoverCost
from repro.dllite.abox import ABox
from repro.materialize.router import pick
from repro.obda.system import OBDASystem
from repro.optimizer.gdl import gdl_search

RANDOM_CQS = connected_cqs(max_atoms=5, concepts=LUBM_CONCEPTS, roles=LUBM_ROLES)

PROPERTY_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _abox(scale: int, seed: int) -> ABox:
    """The ledger's generated data at *scale* facts."""
    abox = ABox()
    for fact in stream_facts(scale, seed):
        if fact[0] == "c":
            abox.add_concept(fact[1], fact[2])
        else:
            abox.add_role(fact[1], fact[2], fact[3])
    return abox


def _materialized(scale: int, seed: int) -> OBDASystem:
    return OBDASystem(
        lubm_exists_tbox(), _abox(scale, seed), backend="memory", materialize=True
    )


@pytest.fixture(scope="module")
def system_1k():
    with _materialized(1_000, 2016) as system:
        yield system


def _unbounded_estimator(system: OBDASystem, use_uscq: bool = False):
    """An ``ext`` estimator over the system's saturated statistics that
    shares no cost cache with the system's own searches, and prunes on
    the same empty predicates they do."""
    return ExternalCoverCost(
        system.kb.tbox,
        system.cost_model,
        use_uscq=use_uscq,
        fragment_cache=system.reformulation_cache,
        empty=system.empty_predicates(),
    )


def _sat_cost(system: OBDASystem, query) -> float:
    return system.cost_model.estimate(query)


class TestBoundedPricing:
    @PROPERTY_SETTINGS
    @given(query=RANDOM_CQS)
    def test_price_is_exact_below_the_bound_and_inf_at_or_above(
        self, system_1k, query
    ):
        tbox = system_1k.kb.tbox
        unbounded = _unbounded_estimator(system_1k)
        unbounded.priced = []
        gdl_search(query, tbox, unbounded)
        costs = sorted(cost for _cover, cost in unbounded.priced)
        # The sat price, every cover's own price (a tie is "at the
        # bound"), a bound between two prices, and nothing to beat.
        bounds = {_sat_cost(system_1k, query), 0.0, *costs}
        bounds.update((a + b) / 2 for a, b in zip(costs, costs[1:]))
        # One estimator across every bound: what it keeps from one bound
        # must stay right under the next.
        bounded = _unbounded_estimator(system_1k)
        for bound in sorted(bounds, reverse=True):
            for cover, cost in unbounded.priced:
                price = bounded.estimate(cover, bound)
                if cost < bound:
                    assert price == cost
                else:
                    assert price == math.inf

    def test_model_bound_covers_every_dialect(self, system_1k):
        # Component by component (JUCQ), CQ by CQ (UCQ), SCQ by SCQ
        # (JUSCQ / USCQ), and a bare CQ: exact below, inf at or above.
        tbox, model = system_1k.kb.tbox, system_1k.cost_model
        query = LEDGER_QUERIES["Q9"]
        for use_uscq in (False, True):
            estimator = _unbounded_estimator(system_1k, use_uscq)
            search = gdl_search(query, tbox, estimator)
            reformulation = estimator.reformulate(search.cover)
            parts = [reformulation, *reformulation.components, query]
            for part in parts:
                cost = model.estimate(part)
                assert model.estimate(part, bound=math.inf) == cost
                assert model.estimate(part, bound=cost * 1.5 + 1) == cost
                assert model.estimate(part, bound=cost) == math.inf
                assert model.estimate(part, bound=cost / 2) == math.inf

    def test_a_cut_off_component_is_not_memoised(self, system_1k):
        tbox, model = system_1k.kb.tbox, system_1k.cost_model
        estimator = _unbounded_estimator(system_1k)
        search = gdl_search(LEDGER_QUERIES["Q9"], tbox, estimator)
        jucq = estimator.reformulate(search.cover)
        memo = {}
        assert model.estimate(jucq, memo, bound=0.0) == math.inf
        assert memo == {}
        assert model.estimate(jucq, memo) == model.estimate(jucq)
        assert len(memo) == len(jucq.components)


class TestBoundedRouting:
    @PROPERTY_SETTINGS
    @given(query=RANDOM_CQS)
    def test_auto_picks_the_unbounded_cover_when_it_routes_to_gdl(
        self, system_1k, query
    ):
        choice = system_1k.reformulate(query, strategy="auto", use_plan_cache=False)
        search = gdl_search(
            query, system_1k.kb.tbox, _unbounded_estimator(system_1k)
        )
        if choice.routing.routed_to == "gdl":
            assert choice.search.cover == search.cover
            assert choice.search.cost == search.cost
            assert choice.search.cost < choice.routing.saturation_cost
        else:
            # Nothing came in under sat. The unbounded search can still
            # find a cover below it, by descending through covers above
            # it — a path the bounded search does not take. How often
            # shows under ``pytest --hypothesis-show-statistics``.
            if search.cost < choice.routing.saturation_cost:
                event("auto routed to sat past a cheaper cover")
            assert choice.search.cost == math.inf
            sat = system_1k.reformulate(query, strategy="sat", use_plan_cache=False)
            assert choice.sql == sat.sql

    @pytest.mark.parametrize("seed", [2016, 7])
    def test_ledger_routing_and_sql_are_byte_identical(self, seed):
        # The unbounded oracle is the gdl strategy on the same system, run
        # *after* auto, so auto cannot borrow its complete prices.
        with _materialized(100_000, seed) as system:
            for use_uscq in (False, True):
                for name, query in LEDGER_QUERIES.items():
                    if use_uscq and name in ("Q5", "Q10"):
                        continue  # factorising their fragments takes 7 s each
                    options = dict(use_uscq=use_uscq, use_plan_cache=False)
                    auto = system.reformulate(query, strategy="auto", **options)
                    gdl = system.reformulate(query, strategy="gdl", **options)
                    sat = system.reformulate(query, strategy="sat", **options)
                    expected = pick(
                        auto.routing.saturation_cost, gdl.search.cost, "gdl"
                    )
                    label = (seed, name, use_uscq)
                    assert auto.routing.routed_to == expected.routed_to, label
                    oracle = sat if expected.routed_to == "sat" else gdl
                    assert auto.sql == oracle.sql, label


class TestNoLowerBoundPassesForACost:
    def test_gdl_after_auto_matches_gdl_on_a_fresh_system(self):
        # A cut-off price written into the shared cost cache (or kept by an
        # estimator) would hand the later gdl search an inf or spare it
        # pricings: its cover, cost or estimation count would move.
        sat_routed = 0
        with _materialized(1_000, 2016) as system, _materialized(
            1_000, 2016
        ) as fresh:
            for name, query in LEDGER_QUERIES.items():
                auto = system.reformulate(
                    query, strategy="auto", use_plan_cache=False
                )
                after = system.reformulate(
                    query, strategy="gdl", use_plan_cache=False
                ).search
                alone = fresh.reformulate(
                    query, strategy="gdl", use_plan_cache=False
                ).search
                assert after.cover == alone.cover, name
                assert after.cost == alone.cost, name
                if auto.routing.routed_to == "sat":
                    sat_routed += 1
                    assert after.cost_estimations == alone.cost_estimations, name
        assert sat_routed >= 8

    def test_cut_off_covers_are_not_listed_as_priced(self, system_1k):
        estimator = _unbounded_estimator(system_1k)
        estimator.priced = []
        search = gdl_search(
            LEDGER_QUERIES["Q10"],
            system_1k.kb.tbox,
            estimator,
            bound=_sat_cost(system_1k, LEDGER_QUERIES["Q10"]),
        )
        assert search.pruned_at_bound >= 1
        assert all(cost < search.bound for _cover, cost in estimator.priced)


class TestBoundedSearch:
    def test_start_cover_above_the_bound_takes_only_moves_below_it(self):
        # A fake estimator, called with the bound as gdl_search passes it:
        # the start cover and the first move price above the bound, a
        # later move below it; only that one may be taken.
        from repro.dllite.parser import parse_query, parse_tbox

        tbox = parse_tbox(
            """
            role teaches
            role attends
            Professor <= Person
            Student <= Person
            """
        )
        query = parse_query("q(x) <- Person(x), teaches(x, a), attends(x, b)")
        prices = iter([100.0, 60.0, 40.0, 70.0])

        class Priced:
            calls = 0

            def estimate(self, cover, bound=math.inf):
                self.calls += 1
                price = next(prices, 90.0)
                return price if price < bound else math.inf

        search = gdl_search(query, tbox, Priced(), bound=50.0)
        assert search.cost == 40.0
        assert search.bound == 50.0
        assert search.pruned_at_bound >= 3

    def test_nothing_below_the_bound_returns_the_start_cover_at_inf(self):
        from repro.dllite.parser import parse_query, parse_tbox

        tbox = parse_tbox("role teaches\nProfessor <= Person")
        query = parse_query("q(x) <- Person(x), teaches(x, a)")

        class Expensive:
            calls = 0

            def estimate(self, cover, bound=math.inf):
                self.calls += 1
                return math.inf

        search = gdl_search(query, tbox, Expensive(), bound=1.0)
        assert search.cost == math.inf
        assert search.pruned_at_bound == search.total_covers_explored


def test_unbounded_search_calls_the_estimator_with_the_cover_only():
    # Hand-written estimators that take one argument keep working: the
    # bound is a gdl_search argument, passed on only when it is finite.
    from repro.dllite.parser import parse_query, parse_tbox

    tbox = parse_tbox("role teaches\nProfessor <= Person")
    query = parse_query("q(x) <- Person(x), teaches(x, a)")

    class OneArgument:
        calls = 0

        def estimate(self, cover):
            self.calls += 1
            return 1.0

    search = gdl_search(query, tbox, OneArgument())
    assert search.cost == 1.0
    assert search.bound == math.inf
    assert search.pruned_at_bound == 0

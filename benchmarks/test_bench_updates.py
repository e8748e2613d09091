"""The update workload: incremental saturation maintenance and routing.

Not a paper experiment — the serving-grade claims of the materialization
subsystem (see ``repro/materialize``) under churn:

* **incremental beats re-saturation** — maintaining the saturated store
  through a stream of small write batches (the delta chase on insert,
  delete/re-derive on delete) must be at least 5x faster than chasing the
  whole ABox from scratch after every batch, while producing an
  answer-equivalent store;
* **auto matches the best fixed strategy** — on a warm plan cache, the
  cost-routed ``auto`` strategy's per-query answer times track
  ``min(sat, gdl)`` over the workload (modulo timing noise);
* **writes never serve stale state** — after every batch the epoch has
  advanced and a cost-based plan cached before the write is recomputed,
  with answers identical to a freshly built system's;
* **a write costs what it changes** — the same 6-fact insert takes about
  as long on a 100k-fact materialized system as on a 1k-fact one, and
  the statistics layer iterates no row of any stored extension;
* **a read after a write prices what it can use** — ``auto`` prices
  ``sat`` first and searches only below it, so it makes at most a fifth
  of the per-CQ estimates the unbounded ``gdl`` search makes.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from pathlib import Path

from conftest import SCALE_15M

from repro.bench.generator import generate_abox
from repro.bench.harness import ExperimentResult
from repro.dllite.abox import ConceptAssertion, RoleAssertion
from repro.materialize.saturator import Saturator
from repro.obda.system import OBDASystem

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))
from workloads import QUERIES, ChurnSat100k, build_abox, individuals  # noqa: E402

#: Write batches per benchmark run; each batch is a handful of facts —
#: the "small delta" regime incremental maintenance is built for.
BATCHES = 12

#: Queries used for the routing comparison (a mix of reformulation-heavy
#: and saturation-friendly shapes).
ROUTED_QUERIES = ("Q1", "Q2", "Q5", "Q9")


def _write_batches(rng, abox):
    """A deterministic churn script: small insert and delete batches."""
    pool = list(abox.assertions())
    batches = []
    for step in range(BATCHES):
        batch = []
        if step % 3 == 2:  # every third batch deletes
            for _ in range(2):
                batch.append(("delete", pool.pop(rng.randrange(len(pool)))))
        else:
            for i in range(3):
                if rng.random() < 0.5:
                    fresh = RoleAssertion(
                        rng.choice(["advisor", "worksFor", "takesCourse"]),
                        f"Churn{step}_{i}",
                        rng.choice(["Dept0_0", "Dept0_1", "GradCourse0_0_0"]),
                    )
                else:
                    fresh = ConceptAssertion(
                        rng.choice(["GraduateStudent", "Professor"]),
                        f"Churn{step}_{i}",
                    )
                batch.append(("insert", fresh))
                pool.append(fresh)
        batches.append(batch)
    return batches


def test_incremental_maintenance_beats_resaturation(benchmark, tbox):
    def run():
        rng = random.Random(2016)
        # A private ABox: the churn script mutates it, and the session
        # fixtures must stay pristine for the other benchmark files.
        abox = generate_abox(SCALE_15M)
        batches = _write_batches(rng, abox)

        # --- incremental: one saturator maintained through the churn ---
        saturator = Saturator(tbox, abox)
        saturator.saturate()
        applied = []  # (op, assertion) actually applied, for replay/undo
        started = time.perf_counter()
        for batch in batches:
            for op, assertion in batch:
                if op == "insert":
                    if assertion not in abox:
                        abox.add(assertion)
                        saturator.insert([assertion])
                        applied.append(("insert", assertion))
                else:
                    if abox.remove(assertion):
                        saturator.delete([assertion])
                        applied.append(("delete", assertion))
        incremental_seconds = time.perf_counter() - started
        incremental_store = {
            predicate: set(rows) for predicate, rows in saturator.store.items()
        }

        # --- baseline: full re-saturation after every batch -------------
        # (The ABox is already in its post-churn state; re-applying the
        # batches against a replayed ABox would double-count churn, so the
        # baseline chases the *final* ABox once per batch — the cheapest
        # possible full-rechase schedule, i.e. a conservative baseline.)
        resat = Saturator(tbox, abox)
        started = time.perf_counter()
        for _ in batches:
            resat.saturate()
        resaturation_seconds = time.perf_counter() - started

        # Same final state (up to null names): compare null-free facts.
        from repro.dllite.saturation import is_null

        def null_free(store):
            return {
                (predicate, row)
                for predicate, rows in store.items()
                for row in rows
                if not any(is_null(value) for value in row)
            }

        assert null_free(incremental_store) == null_free(resat.store)
        return incremental_seconds, resaturation_seconds, len(applied)

    incremental_seconds, resaturation_seconds, writes = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    speedup = resaturation_seconds / max(incremental_seconds, 1e-9)
    print()
    result = ExperimentResult("Incremental maintenance vs full re-saturation")
    result.rows.append(
        {
            "writes": writes,
            "batches": BATCHES,
            "incremental_ms": round(incremental_seconds * 1000, 2),
            "resaturation_ms": round(resaturation_seconds * 1000, 2),
            "speedup": round(speedup, 1),
        }
    )
    print(result.table())
    # Acceptance: >=5x on the small-delta workload. Only asserted when the
    # timed section is long enough to mean something — at tiny (CI smoke)
    # scale a single scheduler hiccup inside a sub-millisecond window
    # would fail the ratio with no code defect; the store-equality check
    # above is the blocking assertion there.
    if resaturation_seconds >= 0.05:
        assert speedup >= 5.0, (
            f"incremental maintenance must be >=5x faster than "
            f"re-saturation, got {speedup:.1f}x"
        )
    benchmark.extra_info["speedup"] = round(speedup, 1)


def test_auto_matches_best_fixed_strategy(benchmark, tbox, abox_15m, queries):
    system = OBDASystem(tbox, abox_15m, backend="sqlite", materialize=True)

    def timed(name, strategy):
        query = queries[name]
        system.answer(query, strategy=strategy)  # warm the plan cache
        started = time.perf_counter()
        report = system.answer(query, strategy=strategy)
        return time.perf_counter() - started, report

    def run():
        result = ExperimentResult("auto vs fixed strategies (warm plans)")
        totals = {"sat": 0.0, "gdl": 0.0, "auto": 0.0}
        for name in ROUTED_QUERIES:
            row = {"query": name}
            answers = {}
            for strategy in ("sat", "gdl", "auto"):
                seconds, report = timed(name, strategy)
                totals[strategy] += seconds
                answers[strategy] = report.answers
                row[f"{strategy}_ms"] = round(seconds * 1000, 2)
            assert answers["sat"] == answers["gdl"] == answers["auto"]
            result.rows.append(row)
        return result, totals

    result, totals = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(result.table())
    print(f"totals: { {k: round(v * 1000, 2) for k, v in totals.items()} } ms")
    best_fixed = min(totals["sat"], totals["gdl"])
    # Acceptance: auto tracks the best fixed strategy (generous noise
    # margin — these are sub-millisecond executions on laptop scale).
    # Ratio asserted only when the totals are big enough to be signal;
    # the answer-agreement asserts inside run() always block.
    if best_fixed >= 0.005:
        assert totals["auto"] <= best_fixed * 2.0, (
            f"auto={totals['auto']:.4f}s should track best fixed "
            f"{best_fixed:.4f}s"
        )
    benchmark.extra_info["totals_ms"] = {
        k: round(v * 1000, 2) for k, v in totals.items()
    }
    system.close()


def test_writes_invalidate_without_serving_stale_answers(
    benchmark, tbox, queries
):
    # A private ABox: insert_facts mutates it (session fixtures stay clean).
    system = OBDASystem(tbox, generate_abox(SCALE_15M), materialize=True)
    probe = queries["Q2"]

    def run():
        system.answer(probe, strategy="gdl")
        epochs = [system.data_epoch]
        stale_before = system.plan_cache.stats()["stale"]
        for i in range(5):
            system.insert_facts(
                [("Professor", f"Stale{i}"), ("worksFor", f"Stale{i}", "Dept0_0")]
            )
            report = system.answer(probe, strategy="gdl")
            # The pre-write plan must have been dropped, and the new
            # professor must be visible immediately.
            assert not report.plan_cache_hit
            assert (f"Stale{i}",) in report.answers
            epochs.append(system.data_epoch)
        assert epochs == sorted(set(epochs))  # strictly increasing
        return system.plan_cache.stats()["stale"] - stale_before

    stale = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(f"stale plans dropped during churn: {stale}")
    print(f"plan cache: {system.plan_cache.stats()}")
    assert stale >= 5
    system.close()


class _CountingRows:
    """A stored extension that counts the rows anyone iterates out of it."""

    def __init__(self, rows, tally):
        self.rows, self.tally = rows, tally

    def __iter__(self):
        for row in self.rows:
            self.tally[0] += 1
            yield row

    def __len__(self):
        return len(self.rows)


def test_write_cost_is_independent_of_extension_size(tbox):
    """The ledger's ``churn_sat_100k`` write, one 6-fact student, at two
    tiers. Timing gate (a wide one: 4x between tiers 100x apart; before the
    statistics were maintained from the delta it was ~40x) and a count
    gate that cannot drift with the machine."""
    seed, rounds = 2016, 40
    ledger = ChurnSat100k(seed, quick=False, recorder=None)  # for its batch()
    insert_ms = {}
    for scale in (1_000, 100_000):
        rng = random.Random(seed)
        people = individuals(scale, seed)
        scanned = [0]
        with OBDASystem(tbox, build_abox(scale, seed), materialize=True) as system:
            refresh = system.statistics.refresh_predicate
            system.statistics.refresh_predicate = (
                lambda name, added, removed, rows: refresh(
                    name, added, removed, _CountingRows(rows, scanned)
                )
            )
            batches = [ledger.batch(i, rng, people) for i in range(rounds)]
            samples = []
            for batch in batches:
                started = time.perf_counter()
                assert system.insert_facts(batch) == len(batch)
                samples.append((time.perf_counter() - started) * 1e3)
            for batch in batches[: rounds // 2]:
                assert system.delete_facts(batch) == len(batch)
        assert scanned[0] == 0, (
            f"the statistics layer iterated {scanned[0]} stored rows "
            f"during {rounds + rounds // 2} writes at {scale} facts"
        )
        insert_ms[scale] = statistics.median(samples)
    print()
    print(f"6-fact insert_facts, median ms by loaded facts: {insert_ms}")
    assert insert_ms[100_000] <= 4 * insert_ms[1_000], insert_ms


def test_auto_after_a_write_prices_little_more_than_sat(tbox):
    """``churn_sat_100k``'s read after a write: ``auto`` re-plans, prices
    the original CQ over the saturation first and searches only below
    that bound. A count gate on the ext model's per-CQ estimates for the
    three queries whose discarded search cost most (before the bound,
    auto priced what gdl prices, plus one CQ)."""
    seed, names = 2016, ("Q10", "Q8", "Q5")
    ledger = ChurnSat100k(seed, quick=False, recorder=None)  # for its batch()
    with OBDASystem(
        tbox, build_abox(100_000, seed), backend="memory", materialize=True
    ) as system:
        for name in names:  # warm the fragment caches, as the ledger does
            system.answer(QUERIES[name], strategy="auto")
        batch = ledger.batch(0, random.Random(seed), individuals(100_000, seed))
        assert system.insert_facts(batch) == len(batch)
        model = system.cost_model
        estimate_cq = model._estimate_cq
        calls = [0]

        def counted(query):
            calls[0] += 1
            return estimate_cq(query)

        model._estimate_cq = counted
        priced = {}
        try:
            for strategy in ("auto", "gdl"):  # auto first: no borrowed prices
                calls[0] = 0
                for name in names:
                    choice = system.reformulate(QUERIES[name], strategy=strategy)
                    assert not choice.plan_cache_hit
                priced[strategy] = calls[0]
        finally:
            del model._estimate_cq
    print()
    print(f"_estimate_cq calls after a write, {'/'.join(names)}: {priced}")
    assert priced["auto"] <= 0.2 * priced["gdl"], priced

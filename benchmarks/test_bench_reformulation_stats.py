"""E1 — §2.3 / §6.1 workload statistics.

Paper: 13 CQs of 2–10 atoms (average 5.77); UCQ reformulations of 35–667
CQs (average 290.2); the minimal UCQ of Q9 is 145 CQs and "runs in 5665 ms
on DB2" before optimization.

Ours: the table printed below — 2–10 atoms (average 5.0), raw UCQ sizes
of the classical fixpoint (``tests/legacy_perfectref.py``) 13–585
(average 227), minimal sizes 2–240. Shape criterion, on the classical
fixpoint: two orders of magnitude of spread, with 2-atom queries among
the largest reformulations. The ``ucq_size`` column is what PerfectRef
makes once it has dropped the atoms other atoms imply (2–270 raw CQs);
the minimal sizes are the same.

The second test pins what is machine-independent — per query, the raw
result count and the number of CQs PerfectRef keyed for deduplication —
and reports (ungated) what one dedup key costs next to the key it
replaced, which ``tests/legacy_canonical_key.py`` keeps as an oracle.
The third gates what dropping implied atoms must do against the
classical fixpoint: key at most half its candidates, and minimise to the
same UCQ. The fourth gates what reformulating for the data at hand must
do on generated data, where most signature predicates have no rows: one
cold ``gdl`` round keys at most a third of the candidates and prints at
most half the SQL of the same round told of no empty predicate, with the
same answers.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from collections import Counter

from repro.bench.datagen import stream_facts
from repro.bench.harness import reformulation_statistics
from repro.dllite.abox import ABox
from repro.dllite.parser import parse_query
from repro.obda.system import OBDASystem
from repro.queries.cq import CQ
from repro.queries.minimize import minimize_ucq
from repro.reformulation.perfectref import (
    perfectref,
    perfectref_candidates,
    perfectref_results,
)

TESTS = Path(__file__).resolve().parent.parent / "tests"
sys.path.insert(0, str(TESTS))
from legacy_canonical_key import legacy_canonical_key  # noqa: E402
from legacy_perfectref import legacy_perfectref  # noqa: E402

#: S1–S3 + Q1–Q13: query text, raw result count, candidates keyed.
PINS = json.loads((TESTS / "fixtures" / "perfectref_lubm_pins.json").read_text())


def test_reformulation_statistics(benchmark, tbox, queries):
    result = benchmark.pedantic(
        lambda: reformulation_statistics(tbox, queries),
        rounds=1,
        iterations=1,
    )
    for row in result.rows:
        row["classical_ucq_size"] = len(legacy_perfectref(queries[row["query"]], tbox))
    print()
    print(result.table())

    sizes = [row["classical_ucq_size"] for row in result.rows]
    atoms = [row["atoms"] for row in result.rows]
    # Paper-shape assertions, on the published algorithm.
    assert len(result.rows) == 13
    assert min(atoms) == 2 and max(atoms) == 10
    assert max(sizes) / min(sizes) >= 10, "size spread must span >= 1 order"
    assert max(sizes) >= 300, "largest reformulations are in the hundreds"
    two_atom_sizes = [r["classical_ucq_size"] for r in result.rows if r["atoms"] == 2]
    assert max(two_atom_sizes) >= 300, (
        "a 2-atom query yields one of the largest reformulations (paper Q11)"
    )
    for row in result.rows:
        assert row["minimal_ucq_size"] <= row["ucq_size"] <= row["classical_ucq_size"]

    benchmark.extra_info["ucq_sizes"] = {
        row["query"]: row["ucq_size"] for row in result.rows
    }


def test_pinned_sizes_candidates_and_key_cost(benchmark, tbox, monkeypatch):
    candidates = []
    keyed = CQ.canonical_key

    def recording_key(query):
        candidates.append(query)
        return keyed(query)

    def run():
        rows = {}
        for name, pin in PINS.items():
            before = perfectref_candidates(), perfectref_results()
            results = perfectref(parse_query(pin["query"]), tbox)
            rows[name] = {
                "results": len(results),
                "candidates": perfectref_candidates() - before[0],
                "counted_results": perfectref_results() - before[1],
            }
        return rows

    monkeypatch.setattr(CQ, "canonical_key", recording_key)
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    monkeypatch.undo()

    for name, pin in PINS.items():
        assert rows[name]["results"] == pin["results"], name
        assert rows[name]["counted_results"] == pin["results"], name
        assert rows[name]["candidates"] == pin["candidates"], name
    assert sum(row["results"] for row in rows.values()) == 943
    assert len(candidates) == sum(row["candidates"] for row in rows.values()) == 2939

    def microseconds_per_key(key) -> float:
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            for query in candidates:
                key(query)
            best = min(best, time.perf_counter() - started)
        return best / len(candidates) * 1e6

    new_us = microseconds_per_key(CQ.canonical_key)
    legacy_us = microseconds_per_key(legacy_canonical_key)
    print()
    print(
        f"dedup key over {len(candidates)} candidates: {new_us:.1f} us/key, "
        f"legacy {legacy_us:.1f} us/key ({legacy_us / new_us:.1f}x), "
        f"candidates / results = {len(candidates) / 943:.2f}"
    )
    benchmark.extra_info["candidates"] = {n: r["candidates"] for n, r in rows.items()}
    benchmark.extra_info["key_us"] = round(new_us, 2)
    benchmark.extra_info["legacy_key_us"] = round(legacy_us, 2)


def test_dropping_implied_atoms_halves_the_candidates(benchmark, tbox, monkeypatch):
    keyed = []
    real_key = CQ.canonical_key

    def counting_key(query):
        keyed.append(None)
        return real_key(query)

    def run():
        counts, minimised = {}, {}
        for rewriter in (legacy_perfectref, perfectref):
            keyed.clear()
            for name, pin in PINS.items():
                results = rewriter(parse_query(pin["query"]), tbox)
                minimised[rewriter, name] = Counter(
                    real_key(cq) for cq in minimize_ucq(results)
                )
            counts[rewriter] = len(keyed)
        return counts, minimised

    monkeypatch.setattr(CQ, "canonical_key", counting_key)
    counts, minimised = benchmark.pedantic(run, rounds=1, iterations=1)
    monkeypatch.undo()

    print()
    print(
        f"candidates keyed: classical {counts[legacy_perfectref]}, "
        f"implied atoms dropped {counts[perfectref]}"
    )
    assert 2 * counts[perfectref] <= counts[legacy_perfectref]
    for name in PINS:
        assert minimised[perfectref, name] == minimised[legacy_perfectref, name], name


def test_pruning_empty_predicates_shrinks_a_cold_round(benchmark, tbox):
    abox = ABox()
    for fact in stream_facts(10_000, 2016):
        if fact[0] == "c":
            abox.add_concept(fact[1], fact[2])
        else:
            abox.add_role(fact[1], fact[2], fact[3])

    def cold_round(prune: bool):
        system = OBDASystem(tbox, abox, backend="sqlite")
        if not prune:
            system.empty_predicates = frozenset
        before = perfectref_candidates()
        answers, sql_chars = {}, 0
        for name, pin in PINS.items():
            report = system.answer(pin["query"], strategy="gdl")
            answers[name] = report.answers
            sql_chars += len(report.choice.sql)
        system.close()
        return perfectref_candidates() - before, sql_chars, answers

    def run():
        return {prune: cold_round(prune) for prune in (False, True)}

    rounds = benchmark.pedantic(run, rounds=1, iterations=1)
    (full_candidates, full_chars, full_answers) = rounds[False]
    (candidates, sql_chars, answers) = rounds[True]
    print()
    print(
        f"cold gdl round at 10k: candidates {full_candidates} -> {candidates}, "
        f"SQL characters {full_chars} -> {sql_chars}"
    )
    assert 3 * candidates <= full_candidates
    assert 2 * sql_chars <= full_chars
    for name in PINS:
        assert answers[name] == full_answers[name], name

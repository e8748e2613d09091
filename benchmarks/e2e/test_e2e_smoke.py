"""Smoke test of the end-to-end ledger: ``run.py --quick`` (1k-fact tier,
fixed step counts) emits every workload and metric ``BENCHMARK.json``
names, fails no operation, repeats its counts exactly under one seed
and not under another; the oracle agrees with the repository's naive
evaluator; ``compare.py`` reaches the right verdicts."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
COUNTS = ("ucq_disjuncts", "covers_explored", "cost_estimations", "rows_out")


def run(tmp_path: Path, *arguments: str) -> dict:
    """``run.py --quick <arguments>`` under a hostile environment; the
    records it wrote, plus the last line of its standard output."""
    out = tmp_path / ("-".join(arguments).replace("/", "_") + ".json")
    finished = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(out), *arguments],
        # A CI matrix leg's knobs must not re-shape a workload.
        env={**os.environ, "REPRO_SHARDS": "4", "REPRO_TRACE": "1"},
        stdout=subprocess.PIPE,
        timeout=120,
        check=True,
    )
    written = json.loads(out.read_text())
    written["last_line"] = json.loads(finished.stdout.decode().splitlines()[-1])
    return written


def counts_of(record: dict) -> dict:
    """The fields of a traced record that must repeat exactly."""
    counts = {name: record["metrics"][name]["value"] for name in COUNTS}
    for query, row in record["detail"].get("queries", {}).items():
        counts[f"answers.{query}"] = row["answers"]
    return counts


def test_quick_ledger_emits_every_metric_and_repeats_its_counts(tmp_path):
    ledger = run(tmp_path, "--traced", "--seed", "2016")
    assert set(ledger["fingerprint"]["repro_env_stripped"]) >= {
        "REPRO_SHARDS",
        "REPRO_TRACE",
    }
    assert ledger["fingerprint"]["cpus"] >= 1
    records = {(r["workload"], r["trace"]): r for r in ledger["runs"]}
    assert set(records) == {(w, t) for w in WORKLOADS for t in (0, 1)}
    for (workload, trace), record in records.items():
        expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert {
            name: entry["unit"] for name, entry in record["metrics"].items()
        } == {metric["name"]: metric["unit"] for metric in expected}, workload
        assert record["correct"], (workload, record["problems"])
        assert record["failed"] == 0 and record["attempted"] >= 1
        assert record["detail"]["named"]["failed_ratio"] == [0.0, "ratio"]
        if not trace:
            assert all(e["value"] > 0 for e in record["metrics"].values())
    assert set(ledger["last_line"]) == {"correct", "attempted", "failed", "metrics"}
    assert ledger["last_line"]["correct"] is True
    # Plan-cache behaviour is the point of the first two workloads.
    assert records["cold_sqlite_100k", 1]["metrics"]["plan_cache_hit_ratio"]["value"] == 0
    assert records["warm_memory_1m", 1]["metrics"]["plan_cache_hit_ratio"]["value"] == 1

    same_seed, other_seed = {}, {}
    for workload in WORKLOADS:
        single = ("--workload", workload, "--trace", "1", "--seed")
        again = run(tmp_path, *single, "2016")
        assert set(again["last_line"]["metrics"]) == {
            metric["name"] for metric in SPEC["per_layer"]
        }
        same_seed[workload] = counts_of(again["runs"][0])
        assert same_seed[workload] == counts_of(records[workload, 1]), workload
        other_seed[workload] = counts_of(run(tmp_path, *single, "7")["runs"][0])
        assert other_seed[workload].keys() == same_seed[workload].keys()
    assert other_seed != same_seed  # the data, hence some count, depends on the seed

    for workload in WORKLOADS:
        trace_file = json.loads((HERE / "out" / f"trace_{workload}.json").read_text())
        names = {span["name"] for span in trace_file["spans"]}
        assert {"answer", "parse", "reformulate", "execute", "decode"} <= names


def test_oracle_agrees_with_the_naive_evaluator_and_the_pinned_digests():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import oracle
    from repro.bench.lubm import lubm_exists_tbox
    from repro.dllite.kb import KnowledgeBase
    from repro.dllite.parser import parse_query
    from repro.dllite.saturation import chase, is_null
    from repro.queries.evaluate import evaluate_cq
    from workloads import QUERIES, QUICK_SCALE, build_abox

    extra = [("GraduateStudent", "Zed"), ("advisor", "Zed", "FullProfessor0_0_0")]
    abox = build_abox(QUICK_SCALE, 2016, extra)
    tbox = lubm_exists_tbox()
    truth = oracle.Oracle(tbox, abox)
    chased = chase(KnowledgeBase(tbox, abox))
    texts = dict(QUERIES, probe="q(y) <- advisor(Zed, y), Professor(y)")
    for name, text in texts.items():
        query = parse_query(text)
        reference = {
            row
            for row in evaluate_cq(query, chased)
            if not any(is_null(value) for value in row)
        }
        assert truth.answers(query) == reference, name
    assert truth.answers(parse_query(texts["probe"])) == {("FullProfessor0_0_0",)}

    pinned = oracle.load_expected(QUICK_SCALE, 2016)
    base = oracle.Oracle(tbox, build_abox(QUICK_SCALE, 2016))
    assert pinned == {
        name: oracle.digest(base.answers(parse_query(text)))
        for name, text in QUERIES.items()
    }


def test_compare_verdicts(tmp_path):
    sys.path.insert(0, str(HERE))
    import compare

    def side(name: str, latencies, failed: int = 0) -> str:
        runs = [
            {
                "workload": "cold_sqlite_100k",
                "trace": 0,
                "correct": True,
                "failed": failed,
                "metrics": {"latency_ms": {"value": value, "unit": "ms"}},
            }
            for value in latencies
        ]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"runs": runs}))
        return str(path)

    (bound,) = [m["bound"] for m in SPEC["end_to_end"] if m["name"] == "latency_ms"]
    worse = 100 * (1 + bound + 0.05)
    steady = side("steady", [100, 101, 100, 99, 100])
    slower = side("slower", [worse, worse + 1, worse, worse - 1, worse])
    noisy = side("noisy", [100 * (1 - 2 * bound), 100, 100 * (1 + 2 * bound), 160, 100])

    def verdict(a, b=None):
        base, _ = compare.load([a])
        other = compare.load([b])[0] if b else None
        (row,) = compare.compare(base, other, SPEC)
        return row["verdict"]

    assert verdict(steady) == "steady"
    assert verdict(noisy) == "noisy"
    assert verdict(steady, steady) == "within-bound"
    assert verdict(steady, slower) == "regression"
    assert verdict(slower, steady) == "within-bound"  # faster is not worse
    assert verdict(steady, noisy) == "unresolved"
    assert compare.main([steady]) == 0
    assert compare.main([steady, "--against", slower]) == 1
    assert compare.main([steady, "--against", side("failing", [100] * 5, failed=1)]) == 1

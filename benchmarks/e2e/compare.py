"""Compare end-to-end results of the ledger: one set of runs against
itself (how steady is each metric?) or against another set (did
anything get worse?).

    python3 benchmarks/e2e/compare.py A.json [A2.json ...]
    python3 benchmarks/e2e/compare.py A.json [...] --against B.json [...]

Inputs are files written by ``run.py --out``; every untraced run in them
counts as one sample of its (workload, metric). One row is printed per
(workload, end-to-end metric): each side's median and quartiles
(``statistics.quantiles(values, n=4)``), its spread — the distance
between the quartiles as a share of the median — and a verdict against
the metric's bound in ``BENCHMARK.json``:

* one set: ``steady`` (spread within a third of the bound),
  ``within-bound``, or ``noisy``;
* two sets: ``unresolved`` when either side's own spread exceeds the
  bound, ``regression`` when B's median is worse than A's by more than
  the bound (the delta is relative to A's median), else
  ``within-bound``. ``failed`` counts may not rise.

Exits 1 when any row is ``regression``, ``unresolved`` or ``noisy``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

Samples = Dict[Tuple[str, str], List[float]]


def load(paths: List[str]) -> Tuple[Samples, Dict[str, int]]:
    """Samples per (workload, metric) and failed operations per
    workload, over every untraced run in *paths*."""
    samples: Samples = {}
    failed: Dict[str, int] = {}
    for path in paths:
        for run in json.loads(Path(path).read_text())["runs"]:
            if run["trace"]:
                continue
            workload = run["workload"]
            failed[workload] = failed.get(workload, 0) + run["failed"]
            if not run["correct"]:
                failed[workload] += 1
            for metric, entry in run["metrics"].items():
                samples.setdefault((workload, metric), []).append(entry["value"])
    return samples, failed


def summary(values: List[float]) -> Tuple[float, float, float, float]:
    """``(median, q1, q3, spread)`` of a sample."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def compare(
    base: Samples, other: Optional[Samples], spec: Dict
) -> List[Dict]:
    """One row per (workload, end-to-end metric), in BENCHMARK.json order."""
    rows = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base or (other is not None and key not in other):
                continue
            bound = metric["bound"]
            median, q1, q3, spread = summary(base[key])
            row = {
                "workload": workload,
                "metric": metric["name"],
                "unit": metric["unit"],
                "bound": bound,
                "a": (len(base[key]), median, q1, q3, spread),
            }
            if other is None:
                row["verdict"] = (
                    "steady"
                    if spread <= bound / 3
                    else "within-bound" if spread <= bound else "noisy"
                )
            else:
                b_median, b_q1, b_q3, b_spread = summary(other[key])
                row["b"] = (len(other[key]), b_median, b_q1, b_q3, b_spread)
                change = (b_median - median) / median
                row["worse_by"] = change if metric["better"] == "lower" else -change
                if max(spread, b_spread) > bound:
                    row["verdict"] = "unresolved"
                elif row["worse_by"] > bound:
                    row["verdict"] = "regression"
                else:
                    row["verdict"] = "within-bound"
            rows.append(row)
    return rows


def render(side: Tuple[int, float, float, float, float]) -> str:
    """``n median [q1 .. q3] spread`` of one side."""
    count, median, q1, q3, spread = side
    return f"n={count:<3} {median:>11.4f} [{q1:>11.4f} ..{q3:>11.4f}] {spread:>6.1%}"


def main(argv: Optional[List[str]] = None) -> int:
    """Print the comparison; exit 1 unless every row is acceptable."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", nargs="+", help="result files of side A")
    parser.add_argument("--against", nargs="+", help="result files of side B")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK_JSON.read_text())
    base, base_failed = load(args.a)
    other, other_failed = load(args.against) if args.against else (None, {})
    rows = compare(base, other, spec)
    bad = 0
    for row in rows:
        line = (
            f"{row['workload']:<19}{row['metric']:<12}{row['unit']:<4}"
            f" A {render(row['a'])}"
        )
        if "b" in row:
            line += f"  B {render(row['b'])}  worse by {row['worse_by']:>+7.1%} of A"
        line += f"  bound {row['bound']:.0%}  {row['verdict']}"
        print(line)
        bad += row["verdict"] in ("regression", "unresolved", "noisy")
    for workload, count in base_failed.items():
        risen = other_failed.get(workload, 0) > count
        if count or risen:
            print(
                f"{workload}: failed operations A={count}"
                + (f" B={other_failed.get(workload, 0)}" if other is not None else "")
            )
            bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

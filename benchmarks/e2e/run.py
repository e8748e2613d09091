"""One end-to-end ledger for ``OBDASystem``: four named workloads,
absolute numbers, per-layer spans.

Two ways to run it, both from the root of a checkout::

    # one measurement, the form the benchmark driver calls
    python3 benchmarks/e2e/run.py --workload cold_sqlite_100k --seed 3 \\
        --seconds 10 --trace 0

    # the whole ledger: every workload, untraced then (--traced) traced
    python3 benchmarks/e2e/run.py [--seed N] [--seconds S] [--traced] [--quick]

Each workload runs in its own fresh child interpreter, one after
another, with every ``REPRO_*`` variable stripped from its environment:
all configuration reaches the system under test as constructor
arguments. Every metric is printed by name with its unit, then a
machine fingerprint; the last line of standard output is one JSON
object (``correct``, ``attempted``, ``failed``, ``metrics``) — the
single measurement with ``--workload``, the sums over workloads without.
``--out FILE`` also writes the full records for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SOURCES = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
CHILD_TIMEOUT_SECONDS = 900


def fingerprint(stripped: Dict[str, str]) -> Dict:
    """The machine and interpreter the numbers belong to."""
    gil_enabled = getattr(sys, "_is_gil_enabled", lambda: True)()
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gil": bool(gil_enabled),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "repro_env_stripped": stripped,
    }


def run_child(
    workload: str, seed: int, seconds: float, trace: int, quick: bool
) -> Optional[Dict]:
    """Run one workload in a fresh interpreter with a hermetic
    environment; its record, or None when it crashed."""
    environment = {
        name: value
        for name, value in os.environ.items()
        if not name.startswith("REPRO_")
    }
    # Sets of strings iterate in hash order, so the row order of every
    # table — hence join and cache behaviour — would differ per process.
    environment["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--child",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    if quick:
        command.append("--quick")
    try:
        finished = subprocess.run(
            command,
            env=environment,
            stdout=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_SECONDS,
            check=False,
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result after {CHILD_TIMEOUT_SECONDS} s", file=sys.stderr)
        return None
    lines = finished.stdout.decode("utf-8", "replace").strip().splitlines()
    if finished.returncode != 0 or not lines:
        print(f"{workload}: child exited with {finished.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def child_main(args, spec: Dict) -> int:
    """The child interpreter: run the workload, print its record."""
    sys.path[:0] = [str(SOURCES), str(HERE)]
    from workloads import run_workload

    record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.quick, spec
    )
    print(json.dumps(record))
    return 0


def print_record(record: Dict) -> None:
    """Every metric of one run by name, with its unit."""
    mode = "traced" if record["trace"] else "untraced"
    print(
        f"== {record['workload']}  seed={record['seed']}  "
        f"seconds={record['seconds']}  {mode}"
        f"{'  quick' if record['quick'] else ''}"
    )
    for metric, entry in record["metrics"].items():
        print(f"  {metric:<26}{entry['value']:>16.4f} {entry['unit']}")
    detail = record["detail"]
    for metric, (value, unit) in detail["named"].items():
        print(f"  {metric:<26}{value:>16.4f} {unit}")
    print(f"  samples: {detail['samples']}  facts: {detail['facts']}")
    for name, row in detail.get("queries", {}).items():
        print(
            f"    {name:<4} median_ms={row['median_ms']:<12.3f}"
            f"max_ms={row['max_ms']:<12.3f}n={row['n']:<5}"
            f"answers={row['answers']}"
        )
    for operation, shares in detail.get("self_time_share", {}).items():
        table = "  ".join(
            f"{layer}={share:.1%}"
            for layer, share in sorted(shares.items(), key=lambda item: -item[1])
        )
        print(f"    self time of {operation}: {table}")
    print(
        f"  attempted={record['attempted']} failed={record['failed']} "
        f"correct={record['correct']}"
    )
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")


def write_expected() -> int:
    """Regenerate the pinned oracle digests under ``expected/``."""
    sys.path[:0] = [str(SOURCES), str(HERE)]
    import oracle
    from repro.bench.lubm import lubm_exists_tbox
    from repro.dllite.parser import parse_query
    from workloads import QUERIES, QUICK_SCALE, WORKLOADS, build_abox

    scales = sorted({QUICK_SCALE, *(cls.scale for cls in WORKLOADS.values())})
    for scale in scales:
        for seed in oracle.PINNED_SEEDS:
            truth = oracle.Oracle(lubm_exists_tbox(), build_abox(scale, seed))
            digests = {
                name: oracle.digest(truth.answers(parse_query(text)))
                for name, text in QUERIES.items()
            }
            print(oracle.write_expected(scale, seed, digests))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments and run; see the module docstring."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument(
        "--seconds", type=float, help="timed section length (default: run_seconds)"
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="with --workload: 0 prints the end-to-end metrics, 1 the per-layer",
    )
    parser.add_argument(
        "--traced", action="store_true",
        help="without --workload: add a traced pass per workload",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="1k-fact tier and fixed step counts (the smoke test)",
    )
    parser.add_argument("--out", help="also write the full records to this file")
    parser.add_argument("--write-expected", action="store_true")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SOURCES / "repro").is_dir() or not BENCHMARK_JSON.is_file():
        print(f"no program to measure under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK_JSON.read_text())
    names = [entry["name"] for entry in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.child:
        return child_main(args, spec)
    if args.write_expected:
        return write_expected()

    stripped = {
        name: value
        for name, value in os.environ.items()
        if name.startswith("REPRO_")
    }
    if args.workload is not None:
        plan = [(args.workload, args.trace)]
    else:
        plan = [
            (name, trace)
            for name in names
            for trace in ((0, 1) if args.traced else (0,))
        ]
    records = []
    crashed = 0
    for name, trace in plan:
        record = run_child(name, args.seed, args.seconds, trace, args.quick)
        if record is None:
            crashed += 1
            continue
        print_record(record)
        records.append(record)
    machine = fingerprint(stripped)
    print("== fingerprint")
    for key, value in machine.items():
        print(f"  {key}: {value}")
    if args.out:
        Path(args.out).write_text(
            json.dumps({"fingerprint": machine, "runs": records}, indent=1) + "\n"
        )
    if crashed and args.workload is not None:
        return 1
    if args.workload is not None:
        summary = {
            key: records[0][key]
            for key in ("correct", "attempted", "failed", "metrics")
        }
    else:
        summary = {
            "correct": not crashed and all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records) + crashed,
            "failed": sum(r["failed"] for r in records) + crashed,
            "metrics": {
                f"{r['workload']}.{metric}": entry
                for r in records
                for metric, entry in r["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

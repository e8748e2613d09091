"""CI gate: diff ``BENCH_engine.json`` speedups against the baseline.

Usage (after the benchmark run that wrote the report)::

    python benchmarks/check_engine_regressions.py [BENCH_engine.json]

Fails (exit 1) loudly when:

* the report is missing or contains no runs;
* any run that has baseline coverage shows a geometric-mean speedup
  below the floor (``REPRO_BENCH_REGRESSION_FLOOR``, default 0.5 — i.e.
  a 2x slowdown against the recorded engine baseline, far outside CI
  timing noise);
* a run recorded rows but every row failed;
* a ``parallel_*`` / ``process_*`` scaling block whose benchmark ran
  on scaling-capable hardware (it recorded ``scaling_asserted: true``)
  reports a speedup (``speedup_4w_vs_1w``) below the scaling floor
  (``REPRO_BENCH_SCALING_FLOOR``, default 2.0).
  Blocks measured on hardware that cannot scale (one CPU, or a
  GIL-bound thread benchmark) carry ``scaling_asserted: false`` and are
  informational only.

Baselines are per-scale (``baseline_engine.json`` at the default
scales, ``baseline_engine_tiny.json`` at the tiny smoke scale — see
``conftest.py``); rows with no baseline counterpart (new runs, expected
"too long" failures) are informational only.
"""

from __future__ import annotations

import json
import os
import sys


def check(path: str) -> int:
    """Validate the report at *path*; returns a process exit code."""
    floor = float(os.environ.get("REPRO_BENCH_REGRESSION_FLOOR", "0.5"))
    if not os.path.exists(path):
        print(f"FAIL: no benchmark report at {path}")
        return 1
    with open(path) as handle:
        report = json.load(handle)
    runs = report.get("runs", {})
    if not runs:
        print(f"FAIL: {path} contains no benchmark runs")
        return 1
    failures = []
    for name, run in sorted(runs.items()):
        rows = run.get("rows", [])
        ok_rows = [row for row in rows if row.get("status") == "ok"]
        if rows and not ok_rows:
            failures.append(f"{name}: every row failed")
            continue
        geomean = run.get("geomean_speedup")
        if geomean is None:
            print(f"  {name}: {len(ok_rows)}/{len(rows)} rows ok, no baseline coverage")
            continue
        marker = "ok" if geomean >= floor else "REGRESSION"
        print(
            f"  {name}: geomean speedup vs baseline {geomean:.2f}x "
            f"(floor {floor:.2f}) {marker}"
        )
        if geomean < floor:
            failures.append(
                f"{name}: geomean speedup {geomean:.2f}x below floor {floor:.2f}x"
            )
    scaling_floor = float(
        os.environ.get("REPRO_BENCH_SCALING_FLOOR", "2.0")
    )
    extras = report.get("extras", {})
    # Overhead contracts priced by the bench suite: extras block name ->
    # (fraction key, human label). Each asserted block must keep its
    # measured fraction under the recorded ceiling.
    overhead_gates = {
        "obs_overhead": (
            "disabled_overhead_fraction", "disabled-tracing overhead",
        ),
        "fault_tolerance": (
            "supervision_overhead_fraction", "supervision overhead",
        ),
    }
    for name, payload in sorted(extras.items()):
        print(f"  extras.{name}: {payload}")
        if (
            name in overhead_gates
            and isinstance(payload, dict)
            and payload.get("overhead_asserted")
        ):
            key, label = overhead_gates[name]
            fraction = payload.get(key, 0.0)
            ceiling = payload.get("ceiling", 0.05)
            marker = "ok" if fraction < ceiling else "REGRESSION"
            print(
                f"    {label}: {fraction:.1%} "
                f"(ceiling {ceiling:.0%}) {marker}"
            )
            if fraction >= ceiling:
                failures.append(
                    f"extras.{name}: {label} {fraction:.1%} "
                    f"at or above the {ceiling:.0%} ceiling"
                )
            continue
        if not name.startswith(("parallel_", "process_")):
            continue
        if not isinstance(payload, dict) or "speedup_4w_vs_1w" not in payload:
            continue
        speedup = payload["speedup_4w_vs_1w"]
        if payload.get("scaling_asserted"):
            marker = "ok" if speedup >= scaling_floor else "REGRESSION"
            print(
                f"    scaling: {speedup:.2f}x at 4 workers "
                f"(floor {scaling_floor:.2f}) {marker}"
            )
            if speedup < scaling_floor:
                failures.append(
                    f"extras.{name}: speedup_4w_vs_1w {speedup:.2f}x below "
                    f"scaling floor {scaling_floor:.2f}x on hardware that "
                    "asserted scaling"
                )
        else:
            print(
                f"    scaling: {speedup:.2f}x at 4 workers "
                "(recorded, not asserted on this hardware)"
            )
    if failures:
        print("FAIL:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    overall = report.get("geomean_speedup_vs_baseline")
    if overall is not None:
        print(f"overall geomean speedup vs baseline: {overall:.2f}x")
    print("engine benchmark regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(check(sys.argv[1] if len(sys.argv) > 1 else "BENCH_engine.json"))

"""Shared fixtures for the benchmark harness.

Scale mapping (see DESIGN.md §3): the paper's LUBM∃ 15M- and 100M-fact
ABoxes become the generator's ``small`` and ``medium`` scales — laptop-size
stand-ins whose *relative* effects (which reformulation wins, where
failures appear) match the paper. Override with::

    REPRO_BENCH_PAPER15M=medium REPRO_BENCH_PAPER100M=large \
        pytest benchmarks/ --benchmark-only

Every benchmark test starts from a collected heap (autouse
:func:`settled_heap`).
"""

from __future__ import annotations

import gc
import os
from pathlib import Path

import pytest

from repro.bench.generator import generate_abox
from repro.bench.lubm import lubm_exists_tbox
from repro.bench.queries import benchmark_queries, star_queries
from repro.bench.report import EngineBenchReport

SCALE_15M = os.environ.get("REPRO_BENCH_PAPER15M", "small")
SCALE_100M = os.environ.get("REPRO_BENCH_PAPER100M", "medium")

#: Where the machine-readable engine benchmark report lands (CI uploads
#: it as an artifact). Baselines are recorded per scale
#: (``capture_baseline.py``): the default scales diff against
#: ``baseline_engine.json``, the tiny smoke scale against
#: ``baseline_engine_tiny.json``; any other override runs without a
#: baseline. ``check_engine_regressions.py`` turns the diff into a CI
#: gate.
BENCH_JSON = os.environ.get("REPRO_BENCH_JSON", "BENCH_engine.json")
_AT_DEFAULT_SCALES = SCALE_15M == "small" and SCALE_100M == "medium"
_AT_TINY_SCALES = SCALE_15M == "tiny" and SCALE_100M == "tiny"
if _AT_DEFAULT_SCALES:
    BASELINE_JSON = Path(__file__).parent / "baseline_engine.json"
elif _AT_TINY_SCALES:
    BASELINE_JSON = Path(__file__).parent / "baseline_engine_tiny.json"
else:
    BASELINE_JSON = None


@pytest.fixture(autouse=True)
def settled_heap():
    """Run one full collection before each benchmark test.

    The tests that ran before leave cyclic garbage and a large heap
    behind; collecting it costs tens of milliseconds — more than some
    timed sections — and where it would land inside the next test is
    luck. Paying it here keeps it out of every timed section.
    """
    gc.collect()


@pytest.fixture(scope="session")
def tbox():
    return lubm_exists_tbox()


@pytest.fixture(scope="session")
def abox_15m():
    """The stand-in for the paper's LUBM∃ 15M ABox."""
    return generate_abox(SCALE_15M)


@pytest.fixture(scope="session")
def abox_100m():
    """The stand-in for the paper's LUBM∃ 100M ABox."""
    return generate_abox(SCALE_100M)


@pytest.fixture(scope="session")
def queries():
    return benchmark_queries()


@pytest.fixture(scope="session")
def stars():
    return star_queries()


@pytest.fixture(scope="session")
def engine_report():
    """Session-wide collector for the Fig 2/3 evaluation rows; writes
    ``BENCH_engine.json`` (timings, batch counts, speedup vs the recorded
    pre-PR baseline) at teardown."""
    report = EngineBenchReport(baseline_path=BASELINE_JSON)
    yield report
    written = report.write(BENCH_JSON)
    if written is not None:
        print(f"\nengine benchmark report written to {written}")

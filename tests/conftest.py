"""Shared fixtures: the paper's running-example knowledge bases, plus
the ``REPRO_SCALE`` tier knob for scale-gated tests.

``REPRO_SCALE`` selects how much generated data scale-aware tests use:
``tiny`` (the tier-1 default, ~1k facts), ``medium`` (~100k, the CI
smoke tier) or ``large`` (~1M, the acceptance tier). Tests marked
``@pytest.mark.scale("medium")`` / ``("large")`` are skipped below
their tier, so the default suite stays fast.

The ``answer_concurrently`` fixture answers queries from several threads
at once, the way concurrent callers (the HTTP edge) drive a system.

Autouse leak fixtures ride along for every test: whatever a test does,
it must leave the cyclic collector running and no
:func:`repro.collector.paused` scope open, and every thread and child
process it started must be gone by the time its module's fixtures are
torn down.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import collector
from repro.dllite.abox import ABox
from repro.dllite.axioms import ConceptInclusion, RoleInclusion
from repro.dllite.tbox import TBox
from repro.dllite.vocabulary import AtomicConcept as C
from repro.dllite.vocabulary import Exists, Role

#: How long a test's threads and child processes get to finish, once the
#: fixtures of its module are torn down, before they count as leaked.
LEAK_GRACE_SECONDS = 0.5

#: Fact budget per scale tier (generator scale factors).
SCALE_FACTS = {"tiny": 1_000, "medium": 100_000, "large": 1_000_000}
_TIER_ORDER = ("tiny", "medium", "large")


def active_scale() -> str:
    """The tier selected by ``REPRO_SCALE`` (default ``tiny``)."""
    tier = os.environ.get("REPRO_SCALE", "tiny").strip().lower()
    if tier not in SCALE_FACTS:
        raise ValueError(
            f"REPRO_SCALE={tier!r} is not one of {sorted(SCALE_FACTS)}"
        )
    return tier


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "scale(tier): run only when REPRO_SCALE is at or above *tier*",
    )


def pytest_collection_modifyitems(config, items):
    active = _TIER_ORDER.index(active_scale())
    for item in items:
        marker = item.get_closest_marker("scale")
        if marker is None:
            continue
        tier = marker.args[0]
        if _TIER_ORDER.index(tier) > active:
            item.add_marker(
                pytest.mark.skip(
                    reason=(
                        f"needs REPRO_SCALE={tier} "
                        f"(active tier: {_TIER_ORDER[active]})"
                    )
                )
            )


def _answer_concurrently(system, queries, workers, **kwargs):
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(
            pool.map(lambda query: system.answer_many([query], **kwargs)[0], queries)
        )


@pytest.fixture
def answer_concurrently():
    """``answer_concurrently(system, queries, workers, **kwargs)``:
    answer each query on a pool of *workers* threads, reports in input
    order. Each query is a one-query ``answer_many`` call, so
    ``on_error`` / ``timeout_seconds`` / ``min_epoch`` behave as they do
    on a batch (and as on one ``POST /answer`` request)."""
    return _answer_concurrently


def _collector_running() -> bool:
    return gc.isenabled() and collector.depth() == 0


@pytest.fixture(autouse=True)
def collector_left_running(request):
    """Fail the test that leaves the cyclic collector off or a
    ``paused()`` scope open (a test that inherits the leak is not
    blamed for it)."""
    clean_before = _collector_running()
    yield
    if clean_before and not _collector_running():
        pytest.fail(
            f"{request.node.nodeid} left the cyclic collector in a bad "
            f"state: gc.isenabled()={gc.isenabled()}, "
            f"paused depth={collector.depth()}"
        )


def _running() -> set:
    """The live threads and child processes of this interpreter."""
    return {*threading.enumerate(), *multiprocessing.active_children()}


def _alive(item) -> bool:
    """Whether a thread or child process is still running."""
    try:
        return item.is_alive()
    except ValueError:  # a closed Process object: its process is gone
        return False


@pytest.fixture(scope="module", autouse=True)
def module_left_no_threads_or_children():
    """Fail the module whose tests left a thread or child process
    running once its fixtures are torn down.

    The check waits for the module's end, not the test's, because a
    thread or child a test starts may belong to a longer-lived fixture
    (a dispatch thread started on first use, a shard worker respawned
    after an injected crash) that stops it at its own teardown. The
    failure names the test that started each survivor.
    """
    started = []  # (test node id, thread or process)
    yield started
    deadline = time.monotonic() + LEAK_GRACE_SECONDS
    leaked = [(test, item) for test, item in started if _alive(item)]
    while leaked and time.monotonic() < deadline:
        time.sleep(0.01)
        leaked = [(test, item) for test, item in leaked if _alive(item)]
    if leaked:
        pytest.fail(
            "left running: "
            + ", ".join(sorted(f"{item.name} (from {test})" for test, item in leaked))
        )


@pytest.fixture(autouse=True)
def threads_and_children_started(request, module_left_no_threads_or_children):
    """Record the threads and child processes a test leaves running, for
    :func:`module_left_no_threads_or_children` to check."""
    before = _running()
    yield
    module_left_no_threads_or_children.extend(
        (request.node.nodeid, item) for item in _running() - before
    )


@pytest.fixture(scope="session")
def scale_facts() -> int:
    """The fact budget of the active ``REPRO_SCALE`` tier."""
    return SCALE_FACTS[active_scale()]


@pytest.fixture
def example1_tbox() -> TBox:
    """The TBox of paper Example 1 (Table 2, constraints T1-T7)."""
    works_with = Role("worksWith")
    supervised_by = Role("supervisedBy")
    return TBox(
        [
            ConceptInclusion(C("PhDStudent"), C("Researcher")),                      # T1
            ConceptInclusion(Exists(works_with), C("Researcher")),                   # T2
            ConceptInclusion(Exists(works_with.inverted()), C("Researcher")),        # T3
            RoleInclusion(works_with, works_with.inverted()),                        # T4
            RoleInclusion(supervised_by, works_with),                                # T5
            ConceptInclusion(Exists(supervised_by), C("PhDStudent")),                # T6
            ConceptInclusion(
                C("PhDStudent"), Exists(supervised_by.inverted()), negative=True
            ),                                                                       # T7
        ]
    )


@pytest.fixture
def example1_abox() -> ABox:
    """The ABox of paper Example 1 (assertions A1-A3)."""
    abox = ABox()
    abox.add_role("worksWith", "Ioana", "Francois")      # A1
    abox.add_role("supervisedBy", "Damian", "Ioana")     # A2
    abox.add_role("supervisedBy", "Damian", "Francois")  # A3
    return abox


@pytest.fixture
def example7_tbox() -> TBox:
    """The TBox of paper Example 7 (running example of Section 4)."""
    supervised_by = Role("supervisedBy")
    return TBox(
        [
            ConceptInclusion(C("Graduate"), Exists(supervised_by)),
            RoleInclusion(supervised_by, Role("worksWith")),
        ]
    )


@pytest.fixture
def example7_abox() -> ABox:
    """The ABox of paper Example 7."""
    abox = ABox()
    abox.add_concept("PhDStudent", "Damian")
    abox.add_concept("Graduate", "Damian")
    return abox

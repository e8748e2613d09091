"""The conformance matrix: every backend × layout × strategy.

Runs the shared suite in ``backend_conformance.py`` over both plain
backends and :class:`~repro.storage.sharded_backend.ShardedBackend` at
1, 2 and 8 shards (memory children) plus 2 sqlite-children shards. Each
backend is checked against an *independent* oracle implementation
(memory-family backends against SQLite and vice versa), and at the
system level every strategy must produce exactly the unsharded memory
system's answers.
"""

import pytest

from backend_conformance import (
    check_bulk_load_abort,
    check_bulk_load_equivalence,
    check_delete_count_semantics,
    check_dialect_translations,
    check_fill_dead_predicate,
    check_random_workloads,
    check_random_write_churn,
    check_session_consistency,
    check_unknown_predicate,
    clone_abox,
)
from repro.obda.system import OBDASystem
from repro.storage.layouts import RDFLayout, SimpleLayout
from repro.storage.memory_backend import MemoryBackend
from repro.storage.process_workers import process_substrate_available
from repro.storage.sharded_backend import ShardedBackend
from repro.storage.sqlite_backend import SQLiteBackend

#: name -> (backend factory, independent oracle factory).
BACKENDS = {
    "memory": (MemoryBackend, SQLiteBackend),
    "sqlite": (SQLiteBackend, MemoryBackend),
    "sharded-memory-1": (lambda: ShardedBackend(1), SQLiteBackend),
    "sharded-memory-2": (lambda: ShardedBackend(2), SQLiteBackend),
    "sharded-memory-8": (lambda: ShardedBackend(8), SQLiteBackend),
    "sharded-sqlite-2": (
        lambda: ShardedBackend(2, child="sqlite"),
        MemoryBackend,
    ),
}

if process_substrate_available():
    # Process-substrate legs: each shard lives in its own worker
    # process and answers return over shared-memory columnar exchange.
    BACKENDS["sharded-memory-2-process"] = (
        lambda: ShardedBackend(2, substrate="process"),
        SQLiteBackend,
    )
    BACKENDS["sharded-sqlite-2-process"] = (
        lambda: ShardedBackend(2, child="sqlite", substrate="process"),
        MemoryBackend,
    )

LAYOUTS = {
    "simple": SimpleLayout,
    "rdf": lambda: RDFLayout(width=4),
}

#: Strategies exercised at the system level (edl equals gdl's contract
#: and is much slower; it keeps its own dedicated tests).
STRATEGIES = ("ucq", "croot", "gdl", "sat", "auto")


@pytest.fixture
def example_abox(example1_abox):
    example1_abox.add_concept("PhDStudent", "Damian")
    example1_abox.add_concept("Researcher", "Ioana")
    return example1_abox


@pytest.mark.parametrize("backend_name", sorted(BACKENDS))
@pytest.mark.parametrize("seed", range(3))
def test_random_workloads(backend_name, seed):
    factory, oracle = BACKENDS[backend_name]
    check_random_workloads(factory, oracle, 1000 + seed)


@pytest.mark.parametrize("shards", (2, 8))
@pytest.mark.parametrize("batch_size", (1, 2))
def test_sharded_small_batches(shards, batch_size):
    """Batch boundaries inside sharded children never change answers
    (the sharded counterpart of test_differential_small_batches)."""
    from repro.engine.operators import CostParameters

    check_random_workloads(
        lambda: ShardedBackend(
            shards,
            child_factory=lambda: MemoryBackend(
                cost_parameters=CostParameters(batch_size=batch_size)
            ),
        ),
        SQLiteBackend,
        77,
    )


@pytest.mark.parametrize("backend_name", sorted(BACKENDS))
@pytest.mark.parametrize("seed", range(2))
def test_random_write_churn(backend_name, seed):
    factory, oracle = BACKENDS[backend_name]
    check_random_write_churn(factory, oracle, 2000 + seed)


@pytest.mark.parametrize("backend_name", sorted(BACKENDS))
@pytest.mark.parametrize("seed", range(2))
def test_bulk_load_equivalence(backend_name, seed):
    factory, oracle = BACKENDS[backend_name]
    check_bulk_load_equivalence(factory, oracle, 3000 + seed)


@pytest.mark.parametrize("backend_name", sorted(BACKENDS))
def test_bulk_load_abort_recovery(backend_name):
    factory, oracle = BACKENDS[backend_name]
    check_bulk_load_abort(factory, oracle, 4000)


@pytest.mark.parametrize("backend_name", sorted(BACKENDS))
def test_delete_count_semantics(backend_name):
    factory, _oracle = BACKENDS[backend_name]
    check_delete_count_semantics(factory)


@pytest.mark.parametrize("backend_name", sorted(BACKENDS))
@pytest.mark.parametrize("layout_name", sorted(LAYOUTS))
def test_dialect_translations(
    backend_name, layout_name, example_abox, example1_tbox
):
    factory, _oracle = BACKENDS[backend_name]
    check_dialect_translations(
        factory, LAYOUTS[layout_name], example_abox, example1_tbox
    )


@pytest.mark.parametrize("backend_name", sorted(BACKENDS))
@pytest.mark.parametrize("layout_name", sorted(LAYOUTS))
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_strategy_conformance(
    backend_name, layout_name, strategy, example1_tbox, example_abox
):
    """Every strategy over every backend equals the plain memory system."""
    if layout_name == "rdf" and strategy in ("sat", "auto"):
        pytest.skip("materialization requires the simple layout")
    factory, _oracle = BACKENDS[backend_name]
    queries = [
        "q(x) <- PhDStudent(x)",
        "q(x) <- PhDStudent(x), worksWith(y, x)",
        "q(x) <- supervisedBy(Damian, x)",
        "q(x, y) <- worksWith(x, y), Researcher(y)",
    ]
    with OBDASystem(
        example1_tbox, example_abox, backend="memory", layout=layout_name
    ) as oracle, OBDASystem(
        example1_tbox,
        example_abox,
        backend=factory(),
        layout=layout_name,
    ) as system:
        for query in queries:
            expected = oracle.answer(query, strategy=strategy).answers
            assert (
                system.answer(query, strategy=strategy).answers == expected
            ), (backend_name, layout_name, strategy, query)


@pytest.mark.parametrize("backend_name", sorted(BACKENDS))
def test_fill_dead_predicate(backend_name):
    """A fact in a predicate every plan was pruned on is served at once,
    on every strategy."""
    factory, _oracle = BACKENDS[backend_name]
    check_fill_dead_predicate(
        lambda tbox, abox: OBDASystem(tbox, abox, backend=factory()), STRATEGIES
    )


@pytest.mark.parametrize("backend_name", sorted(BACKENDS))
def test_unknown_predicate(backend_name):
    """An atom over a predicate no axiom and no fact names reads no
    rows, on every strategy."""
    factory, _oracle = BACKENDS[backend_name]
    check_unknown_predicate(
        lambda tbox, abox: OBDASystem(tbox, abox, backend=factory()), STRATEGIES
    )


# ---------------------------------------------------------------------------
# Session consistency: epoch tokens under a concurrent writer
# ---------------------------------------------------------------------------
#: name -> OBDASystem kwargs for the session oracle's system under test.
SESSION_SYSTEMS = {
    "memory": {"backend": "memory"},
    "sqlite": {"backend": "sqlite"},
}

if process_substrate_available():
    SESSION_SYSTEMS["sharded-process"] = {
        "backend": "memory",
        "shards": 2,
        "executor": "process",
    }


@pytest.mark.parametrize("system_name", sorted(SESSION_SYSTEMS))
@pytest.mark.parametrize("seed", (5001, 5002, 5004))
def test_session_consistency(system_name, seed):
    """Every answer observed with token t equals the sequential oracle
    at exactly its reported epoch >= t."""
    kwargs = SESSION_SYSTEMS[system_name]
    # Process legs fork 2 workers per system; keep the script short so
    # the matrix stays tier-1 fast.
    process = system_name == "sharded-process"
    check_session_consistency(
        lambda tbox, abox: OBDASystem(tbox, abox, **kwargs),
        seed=seed,
        writes=6 if process else 10,
        readers=2 if process else 3,
    )


def test_strategy_conformance_survives_writes(example1_tbox, example_abox):
    """Sharded answers track the oracle through the system write path."""
    queries = [
        "q(x) <- Researcher(x)",
        "q(x) <- PhDStudent(x), worksWith(y, x)",
    ]
    with OBDASystem(
        example1_tbox, clone_abox(example_abox), backend="memory"
    ) as oracle, OBDASystem(
        example1_tbox, clone_abox(example_abox), backend="memory", shards=3
    ) as system:
        for strategy in ("gdl", "sat"):
            for query in queries:
                assert (
                    system.answer(query, strategy=strategy).answers
                    == oracle.answer(query, strategy=strategy).answers
                )
        writes = [
            ("worksWith", "Zed", "Ioana"),
            ("PhDStudent", "Zed"),
        ]
        assert oracle.insert_facts(writes) == system.insert_facts(writes)
        assert oracle.delete_facts([("PhDStudent", "Damian")]) == (
            system.delete_facts([("PhDStudent", "Damian")])
        )
        for strategy in ("gdl", "sat", "auto"):
            for query in queries:
                assert (
                    system.answer(query, strategy=strategy).answers
                    == oracle.answer(query, strategy=strategy).answers
                ), (strategy, query)

"""The reusable backend-conformance suite.

Every storage backend must behave *identically* — same answers on every
statement shape the translator emits, same write semantics, same
return-count contracts — regardless of how it stores rows. The checks
here were extracted from the ad-hoc MemoryBackend-vs-SQLiteBackend
differential tests (``test_engine_vectorized.py`` /
``test_sql_storage.py``) so that any backend, notably
:class:`~repro.storage.sharded_backend.ShardedBackend` at every shard
count, runs through one shared contract:

* :func:`check_random_workloads` — seeded random CQ/UCQ-shaped SQL
  (joins, filters, DISTINCT, UNION / UNION ALL) against an oracle
  backend, answers compared as sorted multisets;
* :func:`check_random_write_churn` — random ``insert_rows`` /
  ``delete_rows`` / ``apply_changes`` churn; the backend must agree with
  the oracle on every *return count* and every answer at every step;
* :func:`check_delete_count_semantics` — the pinned ``delete_rows``
  contract: duplicate input rows count **once**, absent rows count
  zero, a repeated delete returns zero;
* :func:`check_bulk_load_equivalence` — the same dataset ingested via
  a streaming :meth:`~repro.storage.base.Backend.bulk_load` session,
  via plain ``load`` and via incremental ``insert_rows`` must be
  indistinguishable: same answers, same statistics cardinalities, and
  the bulk-loaded instance keeps taking ordinary writes afterwards;
* :func:`check_bulk_load_abort` — an aborted bulk session leaves a
  backend that can still be loaded and queried;
* :func:`check_dialect_translations` — translated CQ / UCQ / JUCQ /
  USCQ / JUSCQ reformulations against the trusted naive evaluator, per
  layout;
* :func:`check_fill_dead_predicate` — answer, insert one fact into a
  predicate the rewriter pruned as dead, answer again: every strategy
  serves the new answer at once;
* :func:`check_unknown_predicate` — a query over a predicate that
  neither the TBox nor any fact names reads it as empty, on every
  strategy, and a later write into it is served;
* :func:`check_session_consistency` — the **session-consistency
  oracle**: concurrent readers with epoch tokens against a writer,
  every answer required to equal the sequential single-backend oracle
  at exactly the epoch it reports, with that epoch never below the
  reader's token.

``tests/test_backend_conformance.py`` runs the full backend × layout ×
strategy matrix (and the session oracle over memory, sqlite and
sharded-process systems); the original differential tests delegate
here too.
"""

from __future__ import annotations

import random
import threading
from typing import Callable, Dict, List, Sequence, Tuple

from repro.covers.reformulate import (
    cover_based_reformulation,
    cover_based_uscq_reformulation,
)
from repro.covers.safety import root_cover
from repro.dllite.parser import parse_query
from repro.queries.evaluate import evaluate
from repro.reformulation.perfectref import reformulate_to_ucq
from repro.reformulation.uscq import factorize_ucq
from repro.sql.translator import SQLTranslator
from repro.storage.layouts import LayoutData, TableSpec

CONCEPTS = ("c_a", "c_b", "c_c")
ROLES = ("r_p", "r_q", "r_r")


def clone_abox(abox):
    """An independent ABox copy (systems under test mutate their own)."""
    from repro.dllite.abox import ABox

    clone = ABox()
    for concept in abox.concept_names():
        for (individual,) in abox.concept_facts(concept):
            clone.add_concept(concept, individual)
    for role in abox.role_names():
        for subject, value in abox.role_facts(role):
            clone.add_role(role, subject, value)
    return clone

#: The dialect workload (paper Example 1 vocabulary): bound and unbound
#: subjects, object-position joins, a boolean query.
DIALECT_QUERIES = (
    "q(x) <- PhDStudent(x)",
    "q(x) <- worksWith(y, x)",
    "q(x, y) <- worksWith(x, y)",
    "q(x) <- PhDStudent(x), worksWith(y, x)",
    "q(x) <- PhDStudent(x), supervisedBy(x, y), worksWith(z, y)",
    "q() <- supervisedBy(Damian, Ioana)",
    "q(x) <- supervisedBy(x, Ioana)",
    "q(x) <- supervisedBy(Damian, x)",
)


# ---------------------------------------------------------------------------
# Random workload generation (shared by the differential tests)
# ---------------------------------------------------------------------------
def random_layout_data(rng: random.Random) -> LayoutData:
    """A small random simple-layout dataset over a fixed schema."""
    tables = []
    for name in CONCEPTS:
        rows = sorted({(rng.randrange(8),) for _ in range(rng.randrange(1, 10))})
        tables.append(
            TableSpec(name=name, columns=("s",), rows=list(rows), indexes=(("s",),))
        )
    for name in ROLES:
        rows = sorted(
            {
                (rng.randrange(8), rng.randrange(8))
                for _ in range(rng.randrange(1, 14))
            }
        )
        tables.append(
            TableSpec(
                name=name,
                columns=("s", "o"),
                rows=list(rows),
                indexes=(("s",), ("o",), ("s", "o")),
            )
        )
    return LayoutData(tables=tables)


def random_core(rng: random.Random, arity: int) -> str:
    """One SELECT block over random sources with random predicates."""
    sources = []
    for i in range(rng.randrange(1, 4)):
        table = rng.choice(CONCEPTS + ROLES)
        sources.append(
            (f"t{i}", table, ("s",) if table.startswith("c_") else ("s", "o"))
        )
    conditions = []
    for i in range(1, len(sources)):
        # Connect to an earlier source most of the time (else cross join).
        if rng.random() < 0.85:
            left_alias, _t, left_cols = sources[rng.randrange(i)]
            alias, _t2, cols = sources[i]
            conditions.append(
                f"{left_alias}.{rng.choice(left_cols)} = {alias}.{rng.choice(cols)}"
            )
    for alias, _table, cols in sources:
        if rng.random() < 0.4:
            op = "=" if rng.random() < 0.8 else "<>"
            conditions.append(f"{alias}.{rng.choice(cols)} {op} {rng.randrange(8)}")
        if len(cols) == 2 and rng.random() < 0.15:
            conditions.append(f"{alias}.s = {alias}.o")
    projections = []
    for _ in range(arity):
        alias, _table, cols = rng.choice(sources)
        projections.append(f"{alias}.{rng.choice(cols)}")
    sql = "SELECT "
    if rng.random() < 0.5:
        sql += "DISTINCT "
    sql += ", ".join(f"{p} AS out{i}" for i, p in enumerate(projections))
    sql += " FROM " + ", ".join(f"{t} {a}" for a, t, _ in sources)
    if conditions:
        sql += " WHERE " + " AND ".join(conditions)
    return sql


def random_statement(rng: random.Random) -> str:
    """A random one-to-three-arm UNION / UNION ALL statement."""
    arity = rng.randrange(1, 3)
    arms = [random_core(rng, arity) for _ in range(rng.randrange(1, 4))]
    if len(arms) == 1:
        return arms[0]
    connector = " UNION " if rng.random() < 0.7 else " UNION ALL "
    return connector.join(arms)


# ---------------------------------------------------------------------------
# Conformance checks
# ---------------------------------------------------------------------------
def check_random_workloads(
    make_backend: Callable,
    make_oracle: Callable,
    seed: int,
    statements: int = 25,
) -> None:
    """Backend and oracle agree on random workloads, as sorted multisets
    (so UNION ALL duplicate counts are pinned too)."""
    rng = random.Random(seed)
    data = random_layout_data(rng)
    backend, oracle = make_backend(), make_oracle()
    try:
        backend.load(data)
        oracle.load(data)
        for _ in range(statements):
            sql = random_statement(rng)
            assert sorted(backend.execute(sql)) == sorted(
                oracle.execute(sql)
            ), f"divergence on: {sql}"
    finally:
        backend.close()
        oracle.close()


def check_random_write_churn(
    make_backend: Callable,
    make_oracle: Callable,
    seed: int,
    epochs: int = 8,
    statements_per_epoch: int = 6,
) -> None:
    """Random write churn: identical return counts and answers at every
    epoch. Delete batches deliberately include duplicate rows."""
    rng = random.Random(seed)
    data = random_layout_data(rng)
    backend, oracle = make_backend(), make_oracle()

    def random_rows(table: str, count: int):
        arity = 1 if table.startswith("c_") else 2
        return [
            tuple(rng.randrange(8) for _ in range(arity)) for _ in range(count)
        ]

    try:
        backend.load(data)
        oracle.load(data)
        for _ in range(epochs):
            table = rng.choice(CONCEPTS + ROLES)
            inserts = random_rows(table, rng.randrange(0, 5))
            deletes = random_rows(table, rng.randrange(0, 5))
            if deletes and rng.random() < 0.5:
                deletes.append(deletes[0])  # duplicate input row
            if rng.random() < 0.5:
                backend.insert_rows(table, inserts)
                oracle.insert_rows(table, inserts)
                removed = backend.delete_rows(table, deletes)
                assert removed == oracle.delete_rows(table, deletes)
            else:
                other = rng.choice(CONCEPTS + ROLES)
                changes = (
                    {table: inserts},
                    {table: deletes, other: random_rows(other, 2)}
                    if other != table
                    else {table: deletes},
                )
                backend.apply_changes(*changes)
                oracle.apply_changes(*changes)
            for _ in range(statements_per_epoch):
                sql = random_statement(rng)
                assert sorted(backend.execute(sql)) == sorted(
                    oracle.execute(sql)
                ), f"divergence after churn on: {sql}"
    finally:
        backend.close()
        oracle.close()


def check_bulk_load_equivalence(
    make_backend: Callable,
    make_oracle: Callable,
    seed: int,
    batch_rows: int = 7,
    statements: int = 15,
) -> None:
    """``bulk_load`` ≡ ``load`` ≡ incremental ``insert_rows``.

    The same random dataset is ingested three ways into the backend
    under test — one streaming bulk session (batched, shuffled, with
    duplicate rows mixed in to exercise the deferred dedup pass), one
    plain ``load``, and one empty ``load`` followed by batched
    ``insert_rows`` — plus once into the independent oracle. All four
    must agree on every random statement (as sorted multisets), the
    three backend instances must report the same exact statistics
    cardinality per table, and the bulk-loaded instance must keep
    taking ordinary writes afterwards, still tracking the oracle.
    """
    rng = random.Random(seed)
    data = random_layout_data(rng)
    schema_only = LayoutData(
        tables=[
            TableSpec(
                name=spec.name,
                columns=spec.columns,
                rows=[],
                indexes=spec.indexes,
            )
            for spec in data.tables
        ]
    )
    bulk = make_backend()
    loaded = make_backend()
    incremental = make_backend()
    oracle = make_oracle()
    try:
        loaded.load(data)
        oracle.load(data)
        incremental.load(schema_only)
        for spec in data.tables:
            for start in range(0, len(spec.rows), batch_rows):
                incremental.insert_rows(
                    spec.name, spec.rows[start : start + batch_rows]
                )
        with bulk.bulk_load() as loader:
            for spec in data.tables:
                loader.create_table(
                    spec.name, spec.columns, indexes=spec.indexes
                )
            for spec in data.tables:
                rows = list(spec.rows)
                rows.extend(
                    rng.choice(rows) for _ in range(rng.randrange(0, 4))
                )
                rng.shuffle(rows)
                for start in range(0, len(rows), batch_rows):
                    loader.append(spec.name, rows[start : start + batch_rows])
        for spec in data.tables:
            expected = len(spec.rows)
            for system in (bulk, loaded, incremental):
                stats = system.table_statistics(spec.name)
                if stats is not None:
                    assert stats.cardinality == expected, spec.name
        for _ in range(statements):
            sql = random_statement(rng)
            answer = sorted(oracle.execute(sql))
            assert sorted(bulk.execute(sql)) == answer, f"bulk: {sql}"
            assert sorted(loaded.execute(sql)) == answer, f"load: {sql}"
            assert (
                sorted(incremental.execute(sql)) == answer
            ), f"incremental: {sql}"
        for _ in range(4):
            table = rng.choice(CONCEPTS + ROLES)
            arity = 1 if table.startswith("c_") else 2
            inserts = [
                tuple(rng.randrange(8) for _ in range(arity))
                for _ in range(rng.randrange(1, 4))
            ]
            deletes = [
                tuple(rng.randrange(8) for _ in range(arity))
                for _ in range(rng.randrange(1, 4))
            ]
            bulk.insert_rows(table, inserts)
            oracle.insert_rows(table, inserts)
            assert bulk.delete_rows(table, deletes) == oracle.delete_rows(
                table, deletes
            )
            sql = random_statement(rng)
            assert sorted(bulk.execute(sql)) == sorted(
                oracle.execute(sql)
            ), f"post-bulk churn: {sql}"
    finally:
        bulk.close()
        loaded.close()
        incremental.close()
        oracle.close()


def check_bulk_load_abort(
    make_backend: Callable, make_oracle: Callable, seed: int
) -> None:
    """An aborted bulk session leaves a backend that still loads and
    answers correctly (no half-published tables poisoning later use)."""
    rng = random.Random(seed)
    data = random_layout_data(rng)
    backend, oracle = make_backend(), make_oracle()
    boom = RuntimeError("simulated mid-load failure")
    try:
        oracle.load(data)
        try:
            with backend.bulk_load() as loader:
                loader.create_table("c_a", ("s",), indexes=(("s",),))
                loader.append("c_a", [(1,), (2,), (3,)])
                raise boom
        except RuntimeError as err:
            assert err is boom
        backend.load(data)
        for _ in range(8):
            sql = random_statement(rng)
            assert sorted(backend.execute(sql)) == sorted(
                oracle.execute(sql)
            ), f"post-abort divergence on: {sql}"
    finally:
        backend.close()
        oracle.close()


def check_delete_count_semantics(make_backend: Callable) -> None:
    """The pinned ``Backend.delete_rows`` return-count contract."""
    backend = make_backend()
    try:
        backend.load(
            LayoutData(
                tables=[
                    TableSpec(
                        name="c_a",
                        columns=("s",),
                        rows=[(1,), (2,), (3,)],
                        indexes=(("s",),),
                    ),
                    TableSpec(
                        name="r_p",
                        columns=("s", "o"),
                        rows=[(1, 2), (2, 3)],
                        indexes=(("s",), ("o",), ("s", "o")),
                    ),
                ]
            )
        )
        # Duplicate input rows count once: one stored row was removed.
        assert backend.delete_rows("c_a", [(1,), (1,)]) == 1
        # Absent rows count zero.
        assert backend.delete_rows("c_a", [(9,)]) == 0
        # Mixed batch: duplicates collapse, absents don't count.
        assert backend.delete_rows("c_a", [(2,), (2,), (3,), (99,)]) == 2
        # Deleting again finds nothing.
        assert backend.delete_rows("c_a", [(2,)]) == 0
        assert backend.execute("SELECT s FROM c_a") == []
        # Same contract on binary tables.
        assert backend.delete_rows("r_p", [(1, 2), (1, 2), (7, 7)]) == 1
        assert sorted(backend.execute("SELECT s, o FROM r_p")) == [(2, 3)]
    finally:
        backend.close()


def check_dialect_translations(
    make_backend: Callable,
    layout_factory: Callable,
    abox,
    tbox,
    queries: Sequence[str] = DIALECT_QUERIES,
) -> None:
    """Translated dialects match the trusted naive evaluator.

    Covers plain CQs plus the UCQ / JUCQ / USCQ / JUSCQ reformulations
    of the running-example query, on the given layout.
    """
    layout = layout_factory()
    data = layout.build(abox, tbox)
    translator = SQLTranslator(layout)
    backend = make_backend()
    store = abox.fact_store()

    def assert_matches(query_like, query_for_expected=None):
        sql = translator.translate(query_like)
        rows = backend.execute(sql)
        expected = evaluate(query_for_expected or query_like, store)
        head = getattr(query_like, "head", None)
        if head is None or head:
            decoded = {layout.dictionary.decode_row(row) for row in rows}
            assert decoded == expected, query_like
        else:
            assert (len(rows) > 0) == (len(expected) > 0), query_like

    try:
        backend.load(data)
        for text in queries:
            assert_matches(parse_query(text))
        query = parse_query("q(x) <- PhDStudent(x), worksWith(y, x)")
        ucq = reformulate_to_ucq(query, tbox)
        assert_matches(ucq)
        assert_matches(factorize_ucq(ucq), ucq)
        cover = root_cover(query, tbox)
        assert_matches(cover_based_reformulation(cover, tbox))
        assert_matches(cover_based_uscq_reformulation(cover, tbox))
    finally:
        backend.close()


# ---------------------------------------------------------------------------
# Filling a predicate the rewriter pruned
# ---------------------------------------------------------------------------
#: Probes whose rewritings reach the dead ``Visitor`` / ``mentors``.
FILL_PROBES = (
    "q(x) <- Researcher(x)",
    "q(x, y) <- worksWith(x, y)",
    "q(x) <- PhDStudent(x), worksWith(y, x)",
)


def dead_predicate_kb():
    """:func:`session_consistency_kb` plus a concept and a role nobody
    asserts, ``Visitor <= Researcher`` and ``mentors <= worksWith``: both
    are dead on its data, so every plan of the probes is pruned on them."""
    from repro.dllite.axioms import ConceptInclusion, RoleInclusion
    from repro.dllite.tbox import TBox
    from repro.dllite.vocabulary import AtomicConcept, Role

    tbox, abox = session_consistency_kb()
    tbox = TBox(
        [
            *tbox.axioms,
            ConceptInclusion(AtomicConcept("Visitor"), AtomicConcept("Researcher")),
            RoleInclusion(Role("mentors"), Role("worksWith")),
        ]
    )
    return tbox, abox


def check_fill_dead_predicate(
    make_system: Callable, strategies: Sequence[str]
) -> None:
    """Answer every probe under every strategy (so each plan is cached,
    pruned on the dead predicates), insert one fact into a dead
    predicate, and answer again: every answer must equal the classical
    UCQ over the new ABox. Then the same for the second dead predicate.

    ``sat`` and ``auto`` run on a system of their own: once the store is
    saturated, a stale plan would read the derived tuples and hide the
    fault this checks for. ``make_system(tbox, abox)`` builds the systems
    under test (any backend, shard count or substrate)."""
    saturating = [s for s in strategies if s in ("sat", "auto")]
    plain = [s for s in strategies if s not in saturating]
    for group in (plain, saturating):
        if group:
            _fill_dead_predicates(make_system, group)


def _fill_dead_predicates(make_system: Callable, strategies: Sequence[str]) -> None:
    tbox, abox = dead_predicate_kb()
    truth = clone_abox(abox)
    system = make_system(tbox, clone_abox(abox))
    try:
        for fact in (("Visitor", "Zoe"), ("mentors", "Ada", "Bob")):
            for strategy in strategies:
                for text in FILL_PROBES:
                    system.answer(text, strategy=strategy)
            assert system.insert_facts([fact]) == 1
            if len(fact) == 2:
                truth.add_concept(*fact)
            else:
                truth.add_role(*fact)
            for text in FILL_PROBES:
                query = parse_query(text)
                expected = evaluate(
                    reformulate_to_ucq(query, tbox), truth.fact_store()
                )
                for strategy in strategies:
                    report = system.answer(query, strategy=strategy)
                    assert report.answers == expected, (fact, strategy, text)
    finally:
        system.close()


# ---------------------------------------------------------------------------
# A predicate with no table
# ---------------------------------------------------------------------------
#: Probes over ``Ghost`` / ``haunts``, which no axiom and no fact names.
UNKNOWN_PROBES = (
    "q(x) <- Ghost(x)",
    "q(x) <- Researcher(x), Ghost(x)",
    "q(x, y) <- haunts(x, y)",
    "q(x) <- PhDStudent(x), haunts(x, y)",
)


def check_unknown_predicate(
    make_system: Callable, strategies: Sequence[str]
) -> None:
    """An atom over a predicate with no table is an atom over an empty
    predicate: every probe has no answers under every strategy, the
    system's other answers are untouched, and facts written into the
    predicate afterwards are served. ``make_system(tbox, abox)`` builds
    the system under test."""
    tbox, abox = session_consistency_kb()
    truth = clone_abox(abox)
    system = make_system(tbox, clone_abox(abox))
    try:
        for strategy in strategies:
            for text in UNKNOWN_PROBES:
                assert system.answer(text, strategy=strategy).answers == set(), (
                    strategy,
                    text,
                )
        facts = [("Ghost", "Damian"), ("haunts", "Damian", "Ioana")]
        assert system.insert_facts(facts) == 2
        truth.add_concept("Ghost", "Damian")
        truth.add_role("haunts", "Damian", "Ioana")
        for text in (*UNKNOWN_PROBES, "q(x) <- Researcher(x)"):
            query = parse_query(text)
            expected = evaluate(
                reformulate_to_ucq(query, tbox), truth.fact_store()
            )
            for strategy in strategies:
                report = system.answer(query, strategy=strategy)
                assert report.answers == expected, (strategy, text)
    finally:
        system.close()


# ---------------------------------------------------------------------------
# Session consistency
# ---------------------------------------------------------------------------
#: Probe queries for the session oracle (Example 1 vocabulary: one
#: concept with a subsumption chain, one role with inference, one join).
SESSION_PROBES = (
    "q(x) <- Researcher(x)",
    "q(x, y) <- worksWith(x, y)",
    "q(x) <- PhDStudent(x), worksWith(y, x)",
)

#: Predicates the oracle's write script draws from.
_WRITE_CONCEPTS = ("Researcher", "PhDStudent")
_WRITE_ROLES = ("worksWith", "supervisedBy")


def session_consistency_kb():
    """The oracle's KB: paper Example 1 constraints (minus the negative
    one, so random inserts can never make the KB inconsistent) over a
    small seed ABox that mentions every write-script predicate."""
    from repro.dllite.abox import ABox
    from repro.dllite.axioms import ConceptInclusion, RoleInclusion
    from repro.dllite.tbox import TBox
    from repro.dllite.vocabulary import AtomicConcept, Exists, Role

    works_with = Role("worksWith")
    supervised_by = Role("supervisedBy")
    tbox = TBox(
        [
            ConceptInclusion(
                AtomicConcept("PhDStudent"), AtomicConcept("Researcher")
            ),
            ConceptInclusion(Exists(works_with), AtomicConcept("Researcher")),
            ConceptInclusion(
                Exists(works_with.inverted()), AtomicConcept("Researcher")
            ),
            RoleInclusion(works_with, works_with.inverted()),
            RoleInclusion(supervised_by, works_with),
            ConceptInclusion(
                Exists(supervised_by), AtomicConcept("PhDStudent")
            ),
        ]
    )
    abox = ABox()
    abox.add_role("worksWith", "Ioana", "Francois")
    abox.add_role("supervisedBy", "Damian", "Ioana")
    abox.add_concept("PhDStudent", "Damian")
    abox.add_concept("Researcher", "Ioana")
    return tbox, abox


def session_write_script(
    rng: random.Random, writes: int
) -> List[List[Tuple]]:
    """A deterministic write script where **every step changes the
    data** — so each step advances the primary's epoch by exactly one
    and the sequential history indexes cleanly by epoch. Steps insert
    fresh facts (fresh individuals, so they cannot pre-exist) or delete
    facts a previous step inserted."""
    script: List[List[Tuple]] = []
    inserted: List[Tuple] = []
    for step in range(writes):
        if inserted and rng.random() < 0.3:
            victim = inserted.pop(rng.randrange(len(inserted)))
            script.append([("delete", victim)])
            continue
        batch = []
        for j in range(rng.randrange(1, 3)):
            name = f"w{step}_{j}"
            if rng.random() < 0.5:
                fact = (rng.choice(_WRITE_CONCEPTS), name)
            else:
                fact = (rng.choice(_WRITE_ROLES), name, f"v{step}_{j}")
            batch.append(("insert", fact))
            inserted.append(fact)
        script.append(batch)
    return script


def _apply_script_step(system, step: List[Tuple]) -> None:
    inserts = [fact for op, fact in step if op == "insert"]
    deletes = [fact for op, fact in step if op == "delete"]
    if inserts:
        assert system.insert_facts(inserts) == len(inserts)
    if deletes:
        assert system.delete_facts(deletes) == len(deletes)


def check_session_consistency(
    make_system: Callable,
    seed: int,
    queries: Sequence[str] = SESSION_PROBES,
    writes: int = 10,
    readers: int = 3,
    strategy: str = "ucq",
) -> None:
    """The session-consistency oracle.

    ``make_system(tbox, abox)`` returns the
    :class:`~repro.obda.system.OBDASystem` under test (any backend,
    shard count or substrate).

    The oracle first replays a deterministic, always-effective write
    script on a single-backend reference system, recording every probe
    query's answers at every epoch — the sequential history
    ``history[query][epoch]``. Then, on the system under test, a writer
    thread replays the same script while reader threads issue reads
    under three token modes (``fresh``: default session token; ``any``:
    ``min_epoch=0``; ``monotonic``: the reader's last observed epoch).
    Every report must satisfy, with ``t`` the effective token:

    * ``report.epoch >= t`` — the token was honored (read-your-writes /
      monotonic reads);
    * ``report.answers == history[query][report.epoch]`` — the answer
      is **byte-identical to the single-backend sequential oracle at
      exactly the epoch the report claims**, i.e. some epoch ``>= t``.

    A final fully-caught-up read per query must equal the history at
    the last epoch.
    """
    rng = random.Random(seed)
    script = session_write_script(rng, writes)

    # Sequential history on a single-backend reference.
    from repro.obda.system import OBDASystem

    tbox, abox = session_consistency_kb()
    history: Dict[str, List] = {query: [] for query in queries}
    with OBDASystem(tbox, clone_abox(abox), backend="memory") as reference:
        for query in queries:
            history[query].append(
                reference.answer(query, strategy=strategy).answers
            )
        for step in script:
            _apply_script_step(reference, step)
            assert reference.data_epoch == len(history[queries[0]]), (
                "write script step was not a single-epoch write"
            )
            for query in queries:
                history[query].append(
                    reference.answer(query, strategy=strategy).answers
                )

    tbox, abox = session_consistency_kb()
    system = make_system(tbox, abox)
    failures: List[str] = []
    done = threading.Event()

    def read_loop(reader_index: int) -> None:
        reader_rng = random.Random(f"{seed}:{reader_index}")
        last_seen = 0
        while not failures and (not done.is_set() or last_seen == 0):
            query = reader_rng.choice(list(queries))
            mode = reader_rng.choice(("fresh", "any", "monotonic"))
            try:
                if mode == "fresh":
                    token = system.epoch_token()  # >= this at answer time
                    report = system.answer(query, strategy=strategy)
                elif mode == "any":
                    token = 0
                    report = system.answer(query, strategy=strategy, min_epoch=0)
                else:
                    token = last_seen
                    report = system.answer(
                        query, strategy=strategy, min_epoch=last_seen
                    )
            except Exception as exc:
                failures.append(f"read raised {exc!r} ({mode}, {query})")
                return
            if report.epoch is None:
                failures.append(f"report without epoch ({mode}, {query})")
                return
            if report.epoch < token:
                failures.append(
                    f"token violated: epoch {report.epoch} < token "
                    f"{token} ({mode}, {query})"
                )
                return
            if report.answers != history[query][report.epoch]:
                failures.append(
                    f"answers diverge from sequential oracle at epoch "
                    f"{report.epoch} ({mode}, {query}): got "
                    f"{sorted(report.answers)!r}, expected "
                    f"{sorted(history[query][report.epoch])!r}"
                )
                return
            last_seen = report.epoch

    try:
        threads = [
            threading.Thread(target=read_loop, args=(index,), daemon=True)
            for index in range(readers)
        ]
        for thread in threads:
            thread.start()
        for step in script:
            _apply_script_step(system, step)
        done.set()
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive(), "reader thread hung"
        assert not failures, failures[0]
        final = system.epoch_token()
        assert final == len(script)
        for query in queries:
            report = system.answer(
                query, strategy=strategy, min_epoch=final
            )
            assert report.epoch >= final
            assert report.answers == history[query][final], query
    finally:
        done.set()
        system.close()

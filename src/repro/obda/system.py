"""The OBDA facade: load a KB once, answer queries many ways.

The pipeline per query (Figure 1 of the paper):

1. choose a *strategy* — how to pick the FOL reformulation:
   ``"ucq"`` (the classical single UCQ), ``"croot"`` (the fixed root-cover
   JUCQ), ``"gdl"`` / ``"edl"`` (cost-driven search over Lq ∪ Gq);
2. choose a *cost estimator* for the search — ``"ext"`` (the external
   model) or ``"rdbms"`` (the backend's EXPLAIN);
3. translate the chosen reformulation to SQL over the loaded layout;
4. evaluate on the backend; decode the dictionary-encoded answers.

Every step is timed; :class:`AnswerReport` carries the numbers the
benchmark harness prints.

Two further strategies answer over a **materialized saturation** (see
:mod:`repro.materialize`): ``"sat"`` chases the TBox into the backend as
extra stored tuples and runs the *original* CQ unchanged; ``"auto"``
routes each query to saturation or the cheapest reformulation by cost.

Two layers of shared work make repeated and batched traffic cheap:

* a fragment-level :class:`~repro.cost.cache.ReformulationCache` shared by
  every estimator and strategy this system creates, so a fragment query is
  run through PerfectRef once per system, not once per cover;
* a :class:`~repro.serving.plan_cache.PlanCache` of finished
  :class:`ReformulationChoice` objects, so answering a query a second time
  skips search and SQL translation entirely (see :meth:`OBDASystem.
  answer_many` for the batched entry point).

The system is also **writable**: :meth:`OBDASystem.insert_facts` /
:meth:`OBDASystem.delete_facts` update the ABox, incrementally maintain
the saturation (delta chase on insert, delete/re-derive on delete), and
advance a monotonically increasing **data epoch**. Every cached plan
picked by cost is stamped with the epoch it was computed under and
lazily dropped when read under a newer one.

Reformulation is for the data at hand: the rewriter is told which
predicates have no rows (:attr:`DataStatistics.nonempty` is exact) and
does not rewrite into them. Every plan and every fragment reformulation
therefore carries the set of empty predicates it relied on, and is
dropped when read after a write has filled one of them; UCQ/Croot/sat
plans survive every other write. ``answer()`` checks the stamp again
under the read barrier before it executes, and re-plans if a write got
in between. A write therefore never leaves a wrong or stale plan
servable, and never costs a full-cache flush or a sweep.
"""

from __future__ import annotations

import heapq
import logging
import math
import os
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from repro.collector import paused, thread_gc_seconds
from repro.covers.reformulate import (
    cover_based_reformulation,
    cover_based_uscq_reformulation,
)
from repro.covers.safety import root_cover
from repro.cost.estimators import (
    CoverCostEstimator,
    ExternalCoverCost,
    RDBMSCoverCost,
)
from repro.cost.cache import DEFAULT_FRAGMENT_CACHE_CAPACITY, ReformulationCache
from repro.cost.model import ExternalCostModel
from repro.cost.statistics import DataStatistics
from repro.dllite.abox import (
    ABox,
    Assertion,
    ConceptAssertion,
    RoleAssertion,
)
from repro.dllite.kb import InconsistentKBError, KnowledgeBase
from repro.dllite.parser import parse_abox, parse_query, parse_tbox
from repro.dllite.saturation import ChaseTruncatedError, is_null
from repro.dllite.tbox import TBox
from repro.materialize.router import RoutingDecision, SaturationRouter, pick
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import (
    NO_SPAN,
    QueryTrace,
    Tracer,
    activate,
    current_span,
    trace_enabled_default,
)
from repro.materialize.saturator import Fact, Saturator, fact_of as _fact_of
from repro.optimizer.edl import edl_search
from repro.optimizer.gdl import gdl_search
from repro.optimizer.result import SearchResult
from repro.queries.cq import CQ
from repro.queries.terms import is_variable
from repro.reformulation.perfectref import (
    arms_dropped_empty,
    emptiness_stamp,
    perfectref_candidates,
    perfectref_eliminated,
    perfectref_invocations,
    perfectref_pruned,
    perfectref_results,
    reformulate_to_ucq,
)
from repro.serving.concurrency import (
    ReadWriteBarrier,
    check_deadline,
    current_deadline,
    deadline_scope,
)
from repro.serving.plan_cache import PlanCache
from repro.sql.translator import SQLTranslator
from repro.storage.layouts import LayoutData, RDFLayout, SimpleLayout, TableSpec
from repro.storage.memory_backend import MemoryBackend
from repro.storage.sharded_backend import ShardedBackend
from repro.storage.sqlite_backend import SQLiteBackend

STRATEGIES = ("ucq", "croot", "gdl", "edl", "sat", "auto")
COST_MODES = ("ext", "rdbms")

#: Environment knob: default shard count for systems constructed with a
#: *named* backend and no explicit ``shards`` argument. Values below 2
#: keep the plain single backend.
SHARDS_ENV = "REPRO_SHARDS"

#: Environment knob: slow-query threshold in milliseconds. Any query
#: whose reformulation + execution total meets it is logged on the
#: ``repro.slow_query`` logger as a structured WARNING record with the
#: query's trace attached (when tracing is on). Unset = no slow log.
SLOW_QUERY_ENV = "REPRO_SLOW_QUERY_MS"

#: The slow-query logger; handlers attached here receive one record per
#: slow query with ``query_ms`` / ``strategy`` / ``query_trace`` extras.
_SLOW_QUERY_LOGGER = logging.getLogger("repro.slow_query")


def _env_shards() -> Optional[int]:
    raw = os.environ.get(SHARDS_ENV)
    if raw is None:
        return None
    try:
        count = int(raw)
    except ValueError:
        return None
    return count if count >= 2 else None


def _env_slow_query_ms() -> Optional[float]:
    raw = os.environ.get(SLOW_QUERY_ENV)
    if raw is None:
        return None
    try:
        threshold = float(raw)
    except ValueError:
        return None
    return threshold if threshold >= 0 else None


#: Default cap on the generalized covers EDL enumerates. Kept as a named
#: constant because the plan cache only stores plans computed with this
#: default (the plan key deliberately excludes the knob).
DEFAULT_GENERALIZED_LIMIT = 20_000


def _perfectref_counts() -> Tuple[int, ...]:
    """PerfectRef's process-wide (invocations, candidates, results,
    eliminated, pruned, arms dropped as empty)."""
    return (
        perfectref_invocations(),
        perfectref_candidates(),
        perfectref_results(),
        perfectref_eliminated(),
        perfectref_pruned(),
        arms_dropped_empty(),
    )


def _describe_search(
    span, search: "SearchResult", estimator: CoverCostEstimator
) -> None:
    """Fold a cover search's effort counters onto its trace span: the
    cost-estimation side of the paper's pipeline (candidates considered,
    estimator calls, chosen cost), and what makes a bad pick diagnosable
    — the chosen cover, the reducer atoms the connectivity repair added
    to the start cover, and the five cheapest covers the search priced
    and rejected. A bounded search (``auto``) adds the bound and how many
    covers it cut off; only fully priced covers are alternatives, and a
    cost that did not come in under the bound is left out rather than
    written as infinity. No-op with tracing off."""
    if not span.enabled:
        return
    chosen = search.cover.key()
    rejected = heapq.nsmallest(
        5,
        (pair for pair in estimator.priced or () if pair[0].key() != chosen),
        key=lambda pair: pair[1],
    )
    span.set(
        safe_covers_explored=search.safe_covers_explored,
        generalized_covers_explored=search.generalized_covers_explored,
        cost_estimations=search.cost_estimations,
        hit_time_budget=search.hit_time_budget,
        cover=str(search.cover),
        reducers_added=search.reducers_added,
        alternatives=[[str(cover), cost] for cover, cost in rejected],
    )
    _set_finite(span, est_cost=search.cost)
    if search.bound != math.inf:
        span.set(bound=search.bound, pruned_at_bound=search.pruned_at_bound)


def _set_finite(span, **costs: float) -> None:
    """Set the cost attributes that are finite; an infinite one means
    "not priced below a bound" (or unpriceable) and is left out."""
    span.set(**{name: cost for name, cost in costs.items() if cost != math.inf})


@dataclass
class ReformulationChoice:
    """The reformulation a strategy picked for a query."""

    strategy: str
    reformulation: object
    sql: str
    search: Optional[SearchResult] = None
    reformulation_seconds: float = 0.0
    plan_cache_hit: bool = False
    #: For ``strategy="auto"``: the costs compared and the winner.
    routing: Optional[RoutingDecision] = None
    #: The empty predicates the reformulation was pruned on: the plan
    #: returns the certain answers while none of them has a row.
    assumed_empty: FrozenSet[str] = frozenset()


@dataclass
class AnswerReport:
    """Answers plus per-stage timings and cache accounting."""

    #: The answered query; on a collected parse failure, the raw input.
    query: Union[CQ, str]
    choice: Optional[ReformulationChoice]
    answers: Set[Tuple]
    execution_seconds: float = 0.0
    #: Snapshot of the system's plan- and fragment-cache counters at
    #: answer time: ``{"plan": {...}, "fragments": {...}}``.
    cache_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: The per-query trace (:class:`repro.obs.trace.QueryTrace`) when
    #: the system was constructed with tracing on (``trace=True`` /
    #: ``REPRO_TRACE=1``); ``None`` otherwise.
    trace: Optional[QueryTrace] = None
    #: The exception this query raised, when ``answer_many`` ran with
    #: ``on_error="collect"``; ``None`` on success (then ``choice`` is set).
    error: Optional[BaseException] = None
    #: The **exact data epoch this answer observed** — the backend state
    #: the rows were read from, frozen for the duration of the read by
    #: the serving barrier (always ``>=`` the read's ``min_epoch``
    #: token); usable as a session token for subsequent reads.
    epoch: Optional[int] = None

    @property
    def failed(self) -> bool:
        """True when this report carries an error instead of answers."""
        return self.error is not None

    @property
    def plan_cache_hit(self) -> bool:
        """Whether this answer reused a cached plan (no search, no SQL gen)."""
        return self.choice is not None and self.choice.plan_cache_hit

    @property
    def total_seconds(self) -> float:
        """Reformulation plus execution time for this answer."""
        reformulation = self.choice.reformulation_seconds if self.choice else 0.0
        return reformulation + self.execution_seconds


class OBDASystem:
    """A loaded OBDA instance: KB + layout + backend + estimators.

    The single public entry point of the reproduction (Figure 1 of the
    paper): construct one with a TBox and an ABox, then call
    :meth:`answer` (one query), :meth:`answer_many` (a batch, answered
    in order with per-query deadlines), and :meth:`insert_facts` /
    :meth:`delete_facts` (the epoch-based write path; writes take an
    exclusive barrier that drains in-flight queries before the backend
    mutates). The system owns no serving threads: concurrency is the
    callers' threads, each calling :meth:`answer` (the HTTP edge runs
    each request on its own). ``query_timeout_seconds`` is the
    per-query deadline every batch and every lone :meth:`answer`
    inherits.

    Storage scaling: ``shards=N`` (or ``REPRO_SHARDS>=2`` in the
    environment) hash-partitions every table across N child backends of
    the named kind behind a :class:`~repro.storage.sharded_backend.
    ShardedBackend` — shard-key-bound queries prune to a single shard,
    co-partitioned queries scatter-gather, and everything else falls
    back to a gathered coordinator; answers are identical to the
    unsharded system at any shard count. ``executor`` picks the
    execution substrate under the shards (``"serial"`` / ``"process"``
    / ``"auto"``; default ``REPRO_EXECUTOR``): on ``process``, a sharded
    memory/sqlite system hosts each shard's engine in a long-lived forked
    worker and results return over its pipe as columns — real
    parallelism on stock CPython, with answers still byte-identical to
    serial.

    Session consistency rides epoch tokens (:meth:`epoch_token`,
    ``answer(..., min_epoch=tok)``): every read is served by the one
    backend at its current epoch, so any token the system issued is
    already satisfied, and one it never issued is refused.
    """

    def __init__(
        self,
        tbox: TBox,
        abox: ABox,
        backend: Union[str, object] = "memory",
        layout: Union[str, object] = "simple",
        rdf_width: int = 8,
        check_consistency: bool = False,
        plan_cache_size: int = 256,
        materialize: bool = False,
        max_generations: int = 4,
        query_timeout_seconds: Optional[float] = None,
        shards: Optional[int] = None,
        executor: Optional[str] = None,
        trace: Optional[bool] = None,
        slow_query_ms: Optional[float] = None,
    ) -> None:
        self.kb = KnowledgeBase(tbox, abox)
        #: When True, every insert_facts re-validates the disjointness
        #: constraints (deletes cannot introduce violations), so the
        #: construction-time guarantee survives the write workload.
        self.check_consistency = check_consistency
        if check_consistency:
            self.kb.check_consistency()

        if isinstance(layout, str):
            if layout == "simple":
                self.layout = SimpleLayout()
            elif layout == "rdf":
                self.layout = RDFLayout(width=rdf_width)
            else:
                raise ValueError(f"unknown layout {layout!r}")
        else:
            self.layout = layout

        if isinstance(backend, str):
            if shards is None:
                shards = _env_shards()
            if backend not in ("memory", "sqlite"):
                raise ValueError(f"unknown backend {backend!r}")
            if shards:
                self.backend = ShardedBackend(
                    shards, child=backend, substrate=executor
                )
            elif backend == "memory":
                self.backend = MemoryBackend()
            else:
                self.backend = SQLiteBackend()
        else:
            if shards is not None:
                raise ValueError(
                    "shards= requires a named backend ('memory'/'sqlite'); "
                    "construct a ShardedBackend yourself for custom children"
                )
            self.backend = backend

        # Ingest is an acyclic data phase: rows, indexes and statistics
        # are built with the cyclic collector held off (repro.collector).
        with paused():
            data = self.layout.build(abox, tbox)
            self.backend.load(data)
            self.statistics = DataStatistics.from_abox(abox)
        self._table_names = {spec.name for spec in data.tables}
        self.translator = SQLTranslator(self.layout)
        self.cost_model = ExternalCostModel(self.statistics)
        self._signature = frozenset(tbox.predicate_names())
        #: ``(statistics.nonempty, the signature's empty predicates)``
        #: for the last set :meth:`empty_predicates` derived.
        self._empty_memo: Tuple[object, FrozenSet[str]] = (None, frozenset())

        #: Fragment reformulations shared across strategies, cost modes and
        #: queries for the lifetime of this system (one TBox, so sound);
        #: LRU-bounded so long-lived serving processes stay bounded too.
        self.reformulation_cache = ReformulationCache(
            capacity=DEFAULT_FRAGMENT_CACHE_CAPACITY
        )
        #: Finished plans: repeated queries skip search and translation.
        self.plan_cache = PlanCache(plan_cache_size)
        # Single-flight guards: concurrent answer() callers asking for
        # the same (not yet cached) plan serialize per key, so one computes
        # and the rest hit the cache instead of racing duplicate searches.
        self._plan_locks: Dict[Tuple, threading.Lock] = {}
        self._plan_locks_guard = threading.Lock()

        #: Monotonically increasing data epoch: advanced by every write
        #: that changes anything (and by enabling materialization), read
        #: by every epoch-stamped cache. Never reset.
        self.data_epoch = 0
        self.max_generations = max_generations
        self._saturator: Optional[Saturator] = None
        self._router = SaturationRouter(self.translator, self.backend)
        self._write_lock = threading.Lock()

        # Serving-layer concurrency: queries hold the barrier's shared
        # side around their backend read, writes its exclusive side
        # around the backend/statistics/epoch mutation — so a write
        # drains in-flight queries and no query ever reads mid-write
        # state.
        self._barrier = ReadWriteBarrier()
        self.query_timeout_seconds = query_timeout_seconds

        # Observability (see repro.obs): per-query tracing is opt-in
        # (``trace=True`` or ``REPRO_TRACE=1``) because a built trace
        # costs real allocations per query; metrics recording is always
        # on (a handful of registry updates per query). The slow-query
        # threshold (``slow_query_ms`` / ``REPRO_SLOW_QUERY_MS``) logs
        # any query whose total time meets it, trace attached.
        self.trace_enabled = (
            trace_enabled_default() if trace is None else bool(trace)
        )
        self.slow_query_ms = (
            _env_slow_query_ms() if slow_query_ms is None else slow_query_ms
        )
        if materialize:
            self.enable_materialization()

    # ------------------------------------------------------------------
    # Materialized saturation and the write path
    # ------------------------------------------------------------------
    @property
    def materialized(self) -> bool:
        """Whether the backend currently holds the saturated tables."""
        return self._saturator is not None

    def enable_materialization(self) -> None:
        """Chase the TBox into the backend as extra stored tuples.

        Idempotent. Called eagerly by ``materialize=True`` or lazily by the
        first ``sat``/``auto`` query. Requires the simple layout (the only
        layout with a per-predicate write path). After this, all write
        methods maintain the saturation incrementally.
        """
        with self._write_lock:
            if self._saturator is not None:
                return
            if not isinstance(self.layout, SimpleLayout):
                raise ValueError(
                    "materialized saturation requires the simple layout; "
                    f"got {type(self.layout).__name__}"
                )
            with paused():  # the initial chase derives acyclic facts only
                saturator = Saturator(
                    self.kb.tbox,
                    self.kb.abox,
                    max_generations=self.max_generations,
                )
                started = time.perf_counter()
                derived = saturator.saturate()
                get_registry().observe(
                    "repro.write.saturate.seconds", time.perf_counter() - started
                )
                self._saturator = saturator
                # From here on the saturator counts every stored role row;
                # the statistics read the same multiset instead of a second.
                self.statistics.share_positions(saturator.positions)
                self._apply_write(derived, set())

    def insert_facts(self, assertions: Sequence[Union[Assertion, Tuple]]) -> int:
        """Insert ABox facts; returns how many were genuinely new.

        Maintains the materialized saturation incrementally (a delta chase
        derives only consequences of the new facts), mirrors the changed
        tuples into the backend, refreshes statistics for the touched
        predicates and advances the data epoch — all under the write lock,
        so no stale plan, statistic or cover cost is ever served afterwards.
        A call that changes nothing leaves every cache intact.
        """
        started = time.perf_counter()
        parsed = [self._as_assertion(a) for a in assertions]
        with self._write_lock:
            self._check_writable()
            new = list(
                dict.fromkeys(a for a in parsed if a not in self.kb.abox)
            )
            if not new:
                return 0
            for assertion in new:
                self.kb.abox.add(assertion)
            if self.check_consistency:
                violated = self.kb.first_violated_constraint()
                if violated is not None:
                    # Roll back before any other state diverges: the
                    # saturator, backend and epoch have not been touched,
                    # and every assertion in `new` was previously absent.
                    for assertion in new:
                        self.kb.abox.remove(assertion)
                    raise InconsistentKBError(violated)
            self._maintain(new, True, started)
            return len(new)

    def delete_facts(self, assertions: Sequence[Union[Assertion, Tuple]]) -> int:
        """Delete ABox facts; returns how many were actually present.

        With materialization enabled this is DRed-style incremental
        maintenance: the deleted facts' consequences are over-deleted, the
        still-derivable ones re-derived — never a full re-saturation.
        Derived facts that remain entailed by other base facts stay put.
        """
        started = time.perf_counter()
        parsed = [self._as_assertion(a) for a in assertions]
        with self._write_lock:
            self._check_writable()
            present = list(
                dict.fromkeys(a for a in parsed if a in self.kb.abox)
            )
            if not present:
                return 0
            for assertion in present:
                self.kb.abox.remove(assertion)
            self._maintain(present, False, started)
            return len(present)

    def epoch_token(self) -> int:
        """The current data epoch as a **session token**.

        A client that captures this after a write (every write advances
        the epoch by one) and passes it as ``min_epoch`` to later reads
        gets read-your-writes: no answer carrying that token observed
        an epoch before the write. ``report.epoch`` on any
        :class:`AnswerReport` works as a token too (monotonic reads:
        never observe older state again).
        """
        return self.data_epoch

    def _as_assertion(self, value: Union[Assertion, Tuple]) -> Assertion:
        """Accept ``ConceptAssertion``/``RoleAssertion`` or plain tuples
        ``("C", "a")`` / ``("R", "a", "b")``."""
        if isinstance(value, (ConceptAssertion, RoleAssertion)):
            return value
        if isinstance(value, tuple) and len(value) == 2:
            return ConceptAssertion(*value)
        if isinstance(value, tuple) and len(value) == 3:
            return RoleAssertion(*value)
        raise TypeError(f"not an assertion: {value!r}")

    def _check_writable(self) -> None:
        """Reject writes up front — before any state is mutated — so a
        failed write can never leave the ABox and backend out of step."""
        if not isinstance(self.layout, SimpleLayout):
            raise ValueError(
                "the write path requires the simple layout; "
                f"got {type(self.layout).__name__}"
            )

    def _maintain(
        self, assertions: List[Assertion], inserted: bool, started: float
    ) -> None:
        """The shared tail of ``insert_facts`` / ``delete_facts``, under
        the write lock: *assertions* already joined or left the ABox;
        derive the stored-tuple deltas (the saturator's, or the facts
        themselves), apply them, and record the write begun at *started*."""
        registry = get_registry()
        if self._saturator is not None:
            saturator = self._saturator
            chase = saturator.insert if inserted else saturator.delete
            chase_started = time.perf_counter()
            added, removed = chase(assertions)
            registry.observe(
                "repro.write.saturate.seconds",
                time.perf_counter() - chase_started,
            )
        else:
            facts = {_fact_of(a) for a in assertions}
            added, removed = (facts, set()) if inserted else (set(), facts)
        self._apply_write(added, removed)
        registry.observe("repro.write.seconds", time.perf_counter() - started)

    def _apply_write(self, added: Set[Fact], removed: Set[Fact]) -> None:
        """Mirror store deltas into the backend and invalidate by epoch.

        Caller holds the write lock. No-op (epoch untouched) when both
        deltas are empty: a write that changed nothing invalidates nothing.
        Once the backend has taken the rows the epoch advances, even if
        the statistics refresh after it raises: an epoch names the data,
        so a token or a plan stamp never passes the old epoch off as the
        new rows.
        """
        if not added and not removed:
            return
        inserts = self._rows_by_table(added)
        deletes = self._rows_by_table(removed)
        for table in (*inserts, *deletes):
            self._ensure_table(table)
        # The exclusive barrier drains every in-flight query, then the
        # backend, the statistics and the epoch all change before the
        # next query is admitted — a reader can never observe the
        # backend ahead of the statistics or the epoch behind either.
        # (Each backend additionally serializes reads against its own
        # writes, so even barrier-less readers see whole writes.)
        registry = get_registry()
        with self._barrier.exclusive(), paused():
            # Before the backend changes: if the write fails past here,
            # the filled predicates already count as non-empty, so no
            # plan pruned on them can run against their new rows.
            self.statistics.mark_nonempty(predicate for predicate, _ in added)
            started = time.perf_counter()
            self.backend.apply_changes(inserts, deletes)
            applied = time.perf_counter()
            try:
                touched = self._refresh_statistics(added, removed)
            finally:
                self.data_epoch += 1
            refreshed = time.perf_counter()
        registry.observe("repro.write.apply_changes.seconds", applied - started)
        registry.observe("repro.write.stats_refresh.seconds", refreshed - applied)
        registry.inc("repro.write.facts_added", len(added))
        registry.inc("repro.write.facts_removed", len(removed))
        registry.inc("repro.write.predicates_touched", touched)

    def _rows_by_table(self, facts: Set[Fact]) -> Dict[str, List[Tuple]]:
        """Group facts per backend table, dictionary-encoded."""
        encode = self.layout.dictionary.encode
        grouped: Dict[str, List[Tuple]] = {}
        for predicate, row in sorted(facts):
            if len(row) == 1:
                table = self.layout.concept_table(predicate)
            else:
                table = self.layout.role_table(predicate)
            grouped.setdefault(table, []).append(
                tuple(encode(value) for value in row)
            )
        return grouped

    def _ensure_table(self, table: str) -> None:
        """Create a table for a predicate outside the loaded schema."""
        if table in self._table_names:
            return
        if table.startswith("c_"):
            spec = TableSpec(name=table, columns=("s",), rows=[], indexes=(("s",),))
        else:
            spec = TableSpec(
                name=table,
                columns=("s", "o"),
                rows=[],
                indexes=(("s",), ("o",), ("s", "o")),
            )
        self.backend.load(LayoutData(tables=[spec]))
        self._table_names.add(table)

    def _ensure_query_tables(self, query: CQ) -> None:
        """Give every predicate *query* names a table. One that neither
        the TBox nor a fact ever named has none yet: it is an empty
        predicate, so it gets an empty table and its atoms read no rows.
        The other layouts store every predicate in shared tables."""
        if not isinstance(self.layout, SimpleLayout):
            return
        missing = {
            branch.table
            for atom in query.atoms
            if atom.predicate not in self._signature
            for branch in self.layout.atom_branches(atom)
        } - self._table_names
        if missing:
            with self._write_lock:
                for table in sorted(missing):
                    self._ensure_table(table)

    def _refresh_statistics(self, added: Set[Fact], removed: Set[Fact]) -> int:
        """Fold a write's deltas into the logical statistics, one call
        per touched predicate; returns how many that was.

        Statistics describe what the backend *stores*: base facts plus,
        under materialization, the derived tuples — that is what cost
        estimates are estimates of. Only the deltas are read; a role's
        asserted rows ride along for the one scan a non-materialized
        system needs on its first write to that role (under
        materialization the saturator already counts every stored row).
        """
        changes: Dict[Tuple[str, int], Tuple[List[Tuple], List[Tuple]]] = {}
        for side, facts in enumerate((added, removed)):
            for predicate, row in facts:
                # Keyed by arity too, so each call sees rows of one shape.
                key = (predicate, len(row))
                if key not in changes:
                    changes[key] = ([], [])
                changes[key][side].append(row)
        role_facts = self.kb.abox.role_facts
        for (predicate, _), (plus, minus) in changes.items():
            self.statistics.refresh_predicate(
                predicate, plus, minus, role_facts(predicate)
            )
        return len(changes)

    def empty_predicates(self) -> FrozenSet[str]:
        """The signature's predicates with no rows now, the set every
        rewriting path prunes on; derived once per change of
        :attr:`DataStatistics.nonempty`."""
        nonempty = self.statistics.nonempty
        memo_nonempty, empty = self._empty_memo
        if memo_nonempty is not nonempty:
            empty = self._signature - nonempty
            self._empty_memo = (nonempty, empty)
        return empty

    # ------------------------------------------------------------------
    @classmethod
    def from_text(
        cls, tbox_text: str, abox_text: str, **kwargs
    ) -> "OBDASystem":
        """Build a system from the textual KB syntax."""
        return cls(parse_tbox(tbox_text), parse_abox(abox_text), **kwargs)

    # ------------------------------------------------------------------
    def _estimator(
        self,
        cost: str,
        minimize: bool,
        use_uscq: bool,
        empty: FrozenSet[str],
    ) -> CoverCostEstimator:
        if cost == "ext":
            return ExternalCoverCost(
                self.kb.tbox,
                self.cost_model,
                minimize=minimize,
                use_uscq=use_uscq,
                fragment_cache=self.reformulation_cache,
                empty=empty,
            )
        if cost == "rdbms":
            return RDBMSCoverCost(
                self.kb.tbox,
                self.backend,
                self.translator,
                minimize=minimize,
                use_uscq=use_uscq,
                fragment_cache=self.reformulation_cache,
                empty=empty,
            )
        raise ValueError(f"unknown cost mode {cost!r}; expected one of {COST_MODES}")

    def _search(
        self,
        span,
        algorithm: str,
        query: CQ,
        estimator: CoverCostEstimator,
        time_budget_seconds: Optional[float],
        generalized_limit: Optional[int],
        bound: float = math.inf,
    ) -> SearchResult:
        """Run one cover search under a ``cover_search`` child of *span*."""
        with span.child("cover_search", algorithm=algorithm) as search_span:
            if search_span.enabled:
                estimator.priced = []
            if algorithm == "gdl":
                search = gdl_search(
                    query,
                    self.kb.tbox,
                    estimator,
                    time_budget_seconds=time_budget_seconds,
                    bound=bound,
                )
            else:
                search = edl_search(
                    query,
                    self.kb.tbox,
                    estimator,
                    generalized_limit=generalized_limit,
                )
            _describe_search(search_span, search, estimator)
        return search

    def _plan_key(
        self, query: CQ, strategy: str, cost: str, minimize: bool, use_uscq: bool
    ) -> Tuple:
        """The plan-cache key: canonical query plus every plan-shaping flag."""
        return (query.canonical_key(), strategy, cost, minimize, use_uscq)

    def _has_unencoded_constants(self, query: CQ) -> bool:
        """Whether the query names a constant the dictionary has not seen."""
        dictionary = self.layout.dictionary
        return any(
            not is_variable(term) and dictionary.try_encode(term.value) is None
            for atom in query.atoms
            for term in atom.args
        )

    def reformulate(
        self,
        query: Union[str, CQ],
        strategy: str = "gdl",
        cost: str = "ext",
        minimize: bool = True,
        use_uscq: bool = False,
        time_budget_seconds: Optional[float] = None,
        generalized_limit: Optional[int] = DEFAULT_GENERALIZED_LIMIT,
        use_plan_cache: bool = True,
        prune: bool = True,
    ) -> ReformulationChoice:
        """Pick a FOL reformulation for *query* and translate it to SQL.

        With ``use_plan_cache`` (the default) the finished choice is stored
        in — and served from — the system's :class:`PlanCache`, so a
        repeated query skips search and translation entirely; concurrent
        requests for the same uncached plan are single-flighted (one
        computes, the rest wait and hit). Calls with a time budget or a
        non-default generalized cap bypass the cache (the plan key
        deliberately excludes those knobs, and a budget-truncated plan
        must not be served as the full one).

        The reformulation is pruned on the predicates that have no rows
        now (:meth:`empty_predicates`). ``prune=False`` asks for the
        classical one, which holds on any data — what the paper measures
        (:func:`repro.bench.harness.evaluation_experiment` reproduces its
        figures with it); such a call bypasses the plan cache.
        """
        if isinstance(query, str):
            query = parse_query(query)
        self._ensure_query_tables(query)
        if strategy in ("sat", "auto") and self._saturator is None:
            # Before epoch capture: enabling materialization advances the
            # epoch, and the plan must be stamped with the post-enable one.
            self.enable_materialization()
        # The epoch and the emptiness this plan is computed under. Captured
        # *before* the computation: if a concurrent write lands
        # mid-search, the stored plan is already stale and its stamps
        # make the next get() drop it.
        epoch = self.data_epoch
        empty = self.empty_predicates() if prune else frozenset()
        cacheable = (
            use_plan_cache
            and prune
            and time_budget_seconds is None
            and generalized_limit == DEFAULT_GENERALIZED_LIMIT
        )
        if not cacheable:
            return self._compute_choice(
                query,
                strategy,
                cost,
                minimize,
                use_uscq,
                time_budget_seconds,
                generalized_limit,
                empty,
            )
        plan_key = self._plan_key(query, strategy, cost, minimize, use_uscq)
        with self._plan_locks_guard:
            flight_lock = self._plan_locks.setdefault(plan_key, threading.Lock())
        try:
            with flight_lock:
                lookup_started = time.perf_counter()
                cached = self.plan_cache.get(plan_key, self.data_epoch, empty)
                if cached is not None:
                    return replace(
                        cached,
                        plan_cache_hit=True,
                        reformulation_seconds=time.perf_counter() - lookup_started,
                    )
                choice = self._compute_choice(
                    query,
                    strategy,
                    cost,
                    minimize,
                    use_uscq,
                    time_budget_seconds,
                    generalized_limit,
                    empty,
                )
                data_dependent = (
                    # A plan picked by cost is only the best one for the
                    # statistics it was priced against.
                    choice.search is not None
                    # A constant the dictionary has never seen translates
                    # to an impossible code; a later write may introduce
                    # it, so such a plan's SQL is *not* write-proof. (Codes
                    # of already-encoded constants are stable forever —
                    # the dictionary is append-only.)
                    or self._has_unencoded_constants(query)
                )
                self.plan_cache.put(
                    plan_key,
                    choice,
                    epoch if data_dependent else None,
                    choice.assumed_empty,
                )
                return choice
        finally:
            with self._plan_locks_guard:
                self._plan_locks.pop(plan_key, None)

    def _compute_choice(
        self,
        query: CQ,
        strategy: str,
        cost: str,
        minimize: bool,
        use_uscq: bool,
        time_budget_seconds: Optional[float],
        generalized_limit: Optional[int],
        empty: FrozenSet[str],
    ) -> ReformulationChoice:
        """The uncached reformulate-translate pipeline, pruned on the
        *empty* predicates, sharing fragment work through the system's
        fragment cache.

        When a trace is active (``answer()`` activates its reformulate
        span around this call), cover-search and SQL-translation child
        spans hang off :func:`~repro.obs.trace.current_span`; with
        tracing off those are no-op singleton calls.
        """
        fragments = self.reformulation_cache
        started = time.perf_counter()
        span = current_span()
        search: Optional[SearchResult] = None
        routing: Optional[RoutingDecision] = None

        if strategy == "sat":
            # Answer the original CQ directly over the saturated tables;
            # nulls are filtered at decode time. A truncated chase would
            # under-approximate the certain answers, so refuse it loudly
            # (same contract as the certain_answers oracle).
            if self._saturator.truncated:
                raise ChaseTruncatedError(self.max_generations)
            reformulation: object = query
        elif strategy == "auto":
            # Price the saturation side first (one CQ): the search then
            # only has to look below it, and a cover it cannot beat is
            # not priced to the end.
            truncated = self._saturator.truncated
            if truncated:
                # Saturation is incomplete at this generation bound;
                # reformulation is the only complete side, whatever the
                # costs say, so the search runs unbounded.
                saturation_cost = math.inf
            else:
                saturated_model = self.cost_model if cost == "ext" else None
                saturation_cost = self._router.saturation_cost(
                    query, cost, saturated_model
                )
            estimator = self._estimator(cost, minimize, use_uscq, empty)
            search = self._search(
                span,
                "gdl",
                query,
                estimator,
                time_budget_seconds,
                generalized_limit,
                bound=saturation_cost,
            )
            if truncated:
                routing = RoutingDecision(
                    routed_to="gdl",
                    saturation_cost=saturation_cost,
                    reformulation_cost=search.cost,
                )
            else:
                routing = pick(saturation_cost, search.cost, "gdl")
            if routing.routed_to == "sat":
                reformulation = query
            else:
                reformulation = estimator.reformulate(search.cover)
        elif strategy == "ucq":
            ucq_key = (query.head, query.atoms, minimize)
            reformulation = fragments.get(ucq_key, empty=empty)
            if reformulation is None:
                reformulation = reformulate_to_ucq(
                    query, self.kb.tbox, minimize=minimize, empty=empty
                )
                fragments.put(
                    ucq_key,
                    reformulation,
                    emptiness_stamp(query, self.kb.tbox, empty),
                )
        elif strategy == "croot":
            cover = root_cover(query, self.kb.tbox)
            builder = (
                cover_based_uscq_reformulation if use_uscq else cover_based_reformulation
            )
            reformulation = builder(
                cover,
                self.kb.tbox,
                minimize=minimize,
                cache=fragments,
                empty=empty,
            )
        elif strategy in ("gdl", "edl"):
            estimator = self._estimator(cost, minimize, use_uscq, empty)
            search = self._search(
                span, strategy, query, estimator, time_budget_seconds, generalized_limit
            )
            reformulation = estimator.reformulate(search.cover)
        else:
            raise ValueError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )

        with span.child("translate") as translate_span:
            sql = self.translator.translate(reformulation)
            translate_span.set(sql_chars=len(sql))
        # The original CQ over the saturation is not pruned; a rewriting
        # relied on every empty name its query can reach.
        assumed_empty = (
            frozenset()
            if reformulation is query
            else emptiness_stamp(query, self.kb.tbox, empty)
        )
        elapsed = time.perf_counter() - started
        return ReformulationChoice(
            strategy=strategy,
            reformulation=reformulation,
            sql=sql,
            search=search,
            reformulation_seconds=elapsed,
            routing=routing,
            assumed_empty=assumed_empty,
        )

    # ------------------------------------------------------------------
    def answer(
        self,
        query: Union[str, CQ],
        strategy: str = "gdl",
        cost: str = "ext",
        minimize: bool = True,
        use_uscq: bool = False,
        time_budget_seconds: Optional[float] = None,
        use_plan_cache: bool = True,
        min_epoch: Optional[int] = None,
    ) -> AnswerReport:
        """Answer *query*: reformulate, translate, evaluate, decode.

        ``min_epoch`` is the client's **session token** — from
        :meth:`epoch_token` or a prior report's ``report.epoch``. Every
        read observes the current epoch, so a token the system issued
        (``0 <= min_epoch <= data_epoch``) is always satisfied and
        ``report.epoch`` is at least it; any other token raises
        ``ValueError`` before any work is done.

        The deadline is the caller's ``deadline_scope`` when one is
        open (``answer_many`` opens one per query), else
        ``query_timeout_seconds``; it bounds every wait below — each
        shard worker RPC — and is checked after reformulation and after
        execution, so a stage that ran past it raises
        :class:`~repro.serving.concurrency.QueryTimeoutError` rather
        than answering late. Without either, a worker RPC has only its
        fault detection timeout (``REPRO_RPC_TIMEOUT_MS``).

        With tracing on (``trace=True`` / ``REPRO_TRACE=1``) the report
        carries one coherent :class:`~repro.obs.trace.QueryTrace`:
        parse, reformulation (cover-search and translation children with
        PerfectRef / cache-delta counters), execution (per-shard
        children on a sharded backend, including span subtrees shipped
        back from forked workers) and decode. Metrics are recorded
        either way, and a query meeting the slow-query threshold is
        logged with its trace attached.
        """
        if min_epoch is not None and not 0 <= min_epoch <= self.data_epoch:
            raise ValueError(
                f"epoch token {min_epoch} was never issued (the data is "
                f"at epoch {self.data_epoch})"
            )
        query_started = time.perf_counter()
        tracer: Optional[Tracer] = None
        root = NO_SPAN
        if self.trace_enabled:
            tracer = Tracer()
            root = tracer.root("query", strategy=strategy, cost=cost)
            gc_before = thread_gc_seconds()
        timeout = (
            self.query_timeout_seconds if current_deadline() is None else None
        )
        with root, deadline_scope(timeout):
            if isinstance(query, str):
                with root.child("parse"):
                    query = parse_query(query)
            with root.child("reformulate", strategy=strategy) as ref_span:
                if ref_span.enabled:
                    perfectref_before = _perfectref_counts()
                    caches_before = self.cache_stats()
                with activate(ref_span):
                    choice = self.reformulate(
                        query,
                        strategy=strategy,
                        cost=cost,
                        minimize=minimize,
                        use_uscq=use_uscq,
                        time_budget_seconds=time_budget_seconds,
                        use_plan_cache=use_plan_cache,
                    )
                if ref_span.enabled:
                    self._describe_choice(
                        ref_span, choice, perfectref_before, caches_before
                    )
            check_deadline()
            self._check_saturation_complete(choice)
            # Execution and decode allocate only acyclic rows: the cyclic
            # collector is held off until the answers are decoded.
            with paused():
                started = time.perf_counter()
                # Shared barrier: a concurrent write drains this read
                # before mutating anything, so the rows and the
                # saturation state the re-check sees belong to one
                # consistent epoch.
                with self._barrier.shared():
                    if not choice.assumed_empty.isdisjoint(
                        self.statistics.nonempty
                    ):
                        # A write since planning filled a predicate the
                        # plan assumed empty. No write can land while the
                        # barrier is held, so a plan for the emptiness of
                        # now holds through the read.
                        choice = self._replan(
                            root,
                            query,
                            strategy,
                            cost,
                            minimize,
                            use_uscq,
                            time_budget_seconds,
                            self.empty_predicates(),
                        )
                    with root.child(
                        "execute", backend=self.backend.name
                    ) as exec_span:
                        with activate(exec_span):
                            rows = self.backend.execute(choice.sql)
                        if exec_span.enabled:
                            self._describe_execution(exec_span, choice, rows)
                    # Re-checked *after* execution: a write may have
                    # truncated the saturation between the first check
                    # and the table read, and the rows would then
                    # under-approximate. (A write landing after this
                    # point is fine — the answer is the valid pre-write
                    # one.)
                    self._check_saturation_complete(choice)
                    observed_epoch = self.data_epoch
                execution = time.perf_counter() - started
                check_deadline()
                with root.child("decode") as decode_span:
                    answers = self._decode(query, rows)
                    decode_span.set(answers=len(answers))
            if root.enabled:
                # Same name and meaning as the benchmark ledger's gc_ms:
                # collector time this thread paid inside the answer.
                root.set(gc_ms=(thread_gc_seconds() - gc_before) * 1e3)
        report = AnswerReport(
            query=query,
            choice=choice,
            answers=answers,
            execution_seconds=execution,
            cache_stats=self.cache_stats(),
            epoch=observed_epoch,
        )
        if tracer is not None:
            report.trace = tracer.trace()
        self._record_answer(report, time.perf_counter() - query_started)
        return report

    def _replan(
        self,
        span,
        query: CQ,
        strategy: str,
        cost: str,
        minimize: bool,
        use_uscq: bool,
        time_budget_seconds: Optional[float],
        empty: FrozenSet[str],
    ) -> ReformulationChoice:
        """Plan *query* again, under *empty*, bypassing the plan cache:
        the plan in hand assumed a predicate empty that has rows in the
        data about to be read."""
        get_registry().inc("repro.query.replanned")
        with span.child("replan", strategy=strategy) as replan_span:
            with activate(replan_span):
                return self._compute_choice(
                    query,
                    strategy,
                    cost,
                    minimize,
                    use_uscq,
                    time_budget_seconds,
                    DEFAULT_GENERALIZED_LIMIT,
                    empty,
                )

    def _describe_choice(
        self,
        span,
        choice: ReformulationChoice,
        perfectref_before: Tuple[int, ...],
        caches_before: Dict[str, Dict[str, int]],
    ) -> None:
        """Annotate a reformulate span with what the choice cost:
        PerfectRef fixpoints run, CQs they keyed, CQs they kept, input
        atoms they dropped as implied by another atom, CQs they did not
        generate because of a dead atom, UCQ disjuncts dropped as empty
        and how many empty predicates the plan relied on, and per-cache
        hit/miss/stale deltas this query caused, plus the plan-cache
        outcome and routing decision."""
        invocations, candidates, results, eliminated, pruned, dropped = (
            now - before
            for now, before in zip(_perfectref_counts(), perfectref_before)
        )
        span.set(
            chosen_strategy=choice.strategy,
            plan_cache_hit=choice.plan_cache_hit,
            perfectref_invocations=invocations,
            perfectref_candidates=candidates,
            perfectref_results=results,
            perfectref_eliminated=eliminated,
            perfectref_pruned=pruned,
            arms_dropped_empty=dropped,
            assumed_empty=len(choice.assumed_empty),
            seconds=choice.reformulation_seconds,
        )
        caches_after = self.cache_stats()
        for cache_name, counters in caches_after.items():
            before = caches_before.get(cache_name, {})
            for key in ("hits", "misses", "stale"):
                if key in counters:
                    span.set(
                        **{
                            f"{cache_name}_{key}": counters[key]
                            - before.get(key, 0)
                        }
                    )
        if choice.routing is not None:
            span.set(routed_to=choice.routing.routed_to)
            _set_finite(
                span,
                saturation_cost=choice.routing.saturation_cost,
                reformulation_cost=choice.routing.reformulation_cost,
            )

    def _describe_execution(
        self, span, choice: ReformulationChoice, rows: List[Tuple]
    ) -> None:
        """Annotate an execute span with the backend's counters for this
        statement (folded out of ``ExecutionStats`` or its sharded /
        worker equivalents) and the search's estimated cost, so the
        trace shows estimated vs. measured side by side."""
        span.set(rows=len(rows), sql_chars=len(choice.sql))
        routing = choice.routing
        if routing is not None and routing.routed_to == "sat":
            _set_finite(span, est_cost=routing.saturation_cost)
        elif choice.search is not None:
            _set_finite(span, est_cost=choice.search.cost)
        execution = getattr(self.backend, "last_execution", None)
        if execution is not None:
            for attribute in ("batches", "materialized_ctes", "route"):
                value = getattr(execution, attribute, None)
                if value:
                    span.set(**{attribute: value})

    def _record_answer(self, report: AnswerReport, total_seconds: float) -> None:
        """Always-on per-query accounting: registry metrics plus the
        slow-query log (a structured WARNING with the trace attached
        when one was collected)."""
        choice = report.choice
        registry = get_registry()
        registry.inc("repro.query.count")
        registry.observe("repro.query.seconds", total_seconds)
        registry.observe(
            "repro.query.execution.seconds", report.execution_seconds
        )
        if choice is not None:
            registry.inc(f"repro.query.strategy.{choice.strategy}")
            registry.observe(
                "repro.query.reformulation.seconds",
                choice.reformulation_seconds,
            )
            registry.inc(
                "repro.plan_cache.hits"
                if choice.plan_cache_hit
                else "repro.plan_cache.misses"
            )
        if self.slow_query_ms is None:
            return
        total_ms = total_seconds * 1000.0
        if total_ms < self.slow_query_ms:
            return
        registry.inc("repro.query.slow")
        _SLOW_QUERY_LOGGER.warning(
            "slow query: %.1f ms (strategy=%s, answers=%d, threshold=%.1f ms)",
            total_ms,
            choice.strategy if choice is not None else "?",
            len(report.answers),
            self.slow_query_ms,
            extra={
                "query_ms": total_ms,
                "strategy": choice.strategy if choice is not None else None,
                "query_trace": (
                    report.trace.to_dict() if report.trace is not None else None
                ),
            },
        )

    def answer_many(
        self,
        queries: Sequence[Union[str, CQ]],
        strategy: str = "gdl",
        cost: str = "ext",
        minimize: bool = True,
        use_uscq: bool = False,
        use_plan_cache: bool = True,
        on_error: str = "raise",
        timeout_seconds: Optional[float] = None,
        min_epoch: Optional[int] = None,
    ) -> List[AnswerReport]:
        """Answer a batch of queries in order, one :meth:`answer` each.

        Duplicate queries in one batch are where the plan cache shines:
        one cold plan, the rest hits. The batch runs on the caller's
        thread; callers that want concurrency call from several threads
        (as the HTTP edge does, one request per thread) — the plan and
        fragment caches are thread-safe, identical plan misses are
        single-flighted, and writes drain in-flight
        queries through the read/write barrier, so concurrent callers
        get exactly the sequential answers, even racing
        :meth:`insert_facts` / :meth:`delete_facts`.

        ``timeout_seconds`` (default ``query_timeout_seconds``) is each
        query's deadline: it bounds every wait inside the query and is
        checked between its stages (see :meth:`answer`); a query that
        blows it gets a
        :class:`~repro.serving.concurrency.QueryTimeoutError`.

        ``on_error`` decides what one failing query does to the batch:
        ``"raise"`` (the default) propagates its exception, ``"collect"``
        records it on that query's :class:`AnswerReport` (``error`` set,
        ``answers`` empty) and lets the rest of the batch finish.

        ``min_epoch`` is the whole batch's session token (see
        :meth:`answer`); an unissued one fails every query of the batch.
        """
        if on_error not in ("raise", "collect"):
            raise ValueError(
                f"on_error must be 'raise' or 'collect', got {on_error!r}"
            )
        if timeout_seconds is None:
            timeout_seconds = self.query_timeout_seconds

        def one(query: Union[str, CQ]) -> AnswerReport:
            # Parsing happens inside the guard: a malformed query string is
            # just another failure this query's report should carry.
            try:
                parsed = parse_query(query) if isinstance(query, str) else query
                with deadline_scope(timeout_seconds):
                    return self.answer(
                        parsed,
                        strategy=strategy,
                        cost=cost,
                        minimize=minimize,
                        use_uscq=use_uscq,
                        use_plan_cache=use_plan_cache,
                        min_epoch=min_epoch,
                    )
            except Exception as exc:
                if on_error == "raise":
                    raise
                return AnswerReport(
                    query=query,
                    choice=None,
                    answers=set(),
                    cache_stats=self.cache_stats(),
                    error=exc,
                )

        return [one(query) for query in queries]

    def _check_saturation_complete(self, choice: ReformulationChoice) -> None:
        """Refuse to *execute* a saturation-backed plan over a truncated
        chase.

        Plan-time checks are not enough: a ``sat`` plan is cached without
        an epoch stamp (its SQL is write-proof), but a later write can
        make the saturation truncated — the guard must sit on the
        execution path, where the current store state is known.
        """
        uses_saturation = choice.strategy == "sat" or (
            choice.routing is not None and choice.routing.routed_to == "sat"
        )
        if (
            uses_saturation
            and self._saturator is not None
            and self._saturator.truncated
        ):
            raise ChaseTruncatedError(self.max_generations)

    def execute_choice(self, query: CQ, choice: ReformulationChoice) -> Set[Tuple]:
        """Evaluate an already-made reformulation choice (bench harness).

        A choice that assumed a predicate empty which has rows now is
        planned again first, with its strategy and the default flags."""
        self._check_saturation_complete(choice)
        with paused():
            with self._barrier.shared():
                if not choice.assumed_empty.isdisjoint(self.statistics.nonempty):
                    choice = self._replan(
                        current_span(),
                        query,
                        choice.strategy,
                        "ext",
                        True,
                        False,
                        None,
                        self.empty_predicates(),
                    )
                rows = self.backend.execute(choice.sql)
                self._check_saturation_complete(choice)  # see answer()
            return self._decode(query, rows)

    def _decode(self, query: CQ, rows: List[Tuple]) -> Set[Tuple]:
        if not query.head:
            return {()} if rows else set()
        # Saturated tables contain labeled nulls (existential witnesses);
        # they assert existence, not identity, so rows naming them are
        # not certain answers.
        drop_nulls = self._saturator is not None
        dictionary = self.layout.dictionary
        if all(is_variable(term) for term in query.head):
            # Every output column is a stored column: all codes.
            return dictionary.decode_rows(rows, drop_nulls)
        decoded = {dictionary.decode_row(row) for row in rows}
        if drop_nulls:
            decoded = {
                row
                for row in decoded
                if not any(is_null(value) for value in row)
            }
        return decoded

    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Current plan- and fragment-cache counters."""
        return {
            "plan": self.plan_cache.stats(),
            "fragments": self.reformulation_cache.stats(),
        }

    def _merged_registry(self) -> MetricsRegistry:
        """A read-only merge of every registry this system can see:
        the process-wide one, plus (on the process substrate) the shard
        workers' own registries fetched over one RPC per worker. Merging
        happens into a *fresh* registry so repeated calls never
        double-count the cumulative worker counters."""
        merged = MetricsRegistry()
        merged.merge_snapshot(get_registry().snapshot())
        fetch = getattr(self.backend, "metrics_snapshot", None)
        if fetch is not None:
            merged.merge_snapshot(fetch())
        for cache_name, counters in self.cache_stats().items():
            for key, value in counters.items():
                merged.set_gauge(f"repro.cache.{cache_name}.{key}", value)
        merged.set_gauge("repro.data_epoch", self.data_epoch)
        return merged

    def metrics(self) -> Dict:
        """One unified metrics snapshot for the whole system.

        Counters, gauges and histogram summaries (p50/p95/p99) under the
        stable names catalogued in ``docs/OBSERVABILITY.md`` — the
        coordinator's process-wide registry merged with every forked
        shard worker's, plus the cache counters as gauges. JSON-able.
        """
        return self._merged_registry().snapshot()

    def metrics_prometheus(self) -> str:
        """The same unified view as :meth:`metrics`, rendered in the
        Prometheus plain-text exposition format."""
        return self._merged_registry().render_prometheus()

    def close(self) -> None:
        """Release the backend's resources and drop cached plans. Idempotent."""
        self.backend.close()
        self.plan_cache.clear()
        self.reformulation_cache.clear()

    def __enter__(self) -> "OBDASystem":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

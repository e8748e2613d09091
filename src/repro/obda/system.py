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

Three layers of shared work make repeated and batched traffic cheap:

* a fragment-level :class:`~repro.cost.cache.ReformulationCache` shared by
  every estimator and strategy this system creates, so a fragment query is
  run through PerfectRef once per system, not once per cover;
* a cover-level :class:`~repro.cost.cache.CostCache` shared the same way,
  so a cover priced by one search is free for the next;
* a :class:`~repro.serving.plan_cache.PlanCache` of finished
  :class:`ReformulationChoice` objects, so answering a query a second time
  skips search and SQL translation entirely (see :meth:`OBDASystem.
  answer_many` for the batched entry point).

The system is also **writable**: :meth:`OBDASystem.insert_facts` /
:meth:`OBDASystem.delete_facts` update the ABox, incrementally maintain
the saturation (delta chase on insert, delete/re-derive on delete), and
advance a monotonically increasing **data epoch**. Every cache entry
whose validity depends on the data — cost-picked plans, cover costs,
statistics-derived estimates — is stamped with the epoch it was computed
under and lazily dropped when read under a newer one; data-independent
entries (UCQ/Croot/sat plans, fragment reformulations) survive every
write. A write therefore never leaves a stale plan or statistic servable,
and never costs a full-cache flush.
"""

from __future__ import annotations

import heapq
import logging
import math
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.collector import paused, thread_gc_seconds
from repro.covers.reformulate import (
    cover_based_reformulation,
    cover_based_uscq_reformulation,
)
from repro.covers.safety import root_cover, single_fragment_cover
from repro.cost.estimators import (
    CoverCostEstimator,
    ExternalCoverCost,
    RDBMSCoverCost,
)
from repro.cost.cache import (
    CostCache,
    DEFAULT_FRAGMENT_CACHE_CAPACITY,
    ReformulationCache,
)
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
    perfectref_candidates,
    perfectref_invocations,
    perfectref_results,
    reformulate_to_ucq,
)
from repro.serving.concurrency import (
    AdmissionController,
    QueryTimeoutError,
    ReadWriteBarrier,
    deadline_scope,
)
from repro.serving.plan_cache import PlanCache
from repro.serving.replicas import ReplicaSet
from repro.sql.translator import SQLTranslator
from repro.storage.layouts import LayoutData, RDFLayout, SimpleLayout, TableSpec
from repro.storage.memory_backend import MemoryBackend
from repro.storage.epoch_log import EpochDelta, EpochLog
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

#: Environment knob: default replica count for systems constructed with
#: a *named* backend and no explicit ``replicas`` argument. N >= 1
#: builds N read-only replica backends fed asynchronously by the write
#: path's epoch-tagged deltas and routes every read across them; unset
#: (or < 1) keeps the structurally unchanged single-backend read path.
REPLICAS_ENV = "REPRO_REPLICAS"

#: Environment knob: how long a read carrying an epoch token waits for
#: its replica to catch up before failing with a
#: :class:`~repro.serving.replicas.ReplicaLagTimeoutError`, in
#: milliseconds. Default 5000.
REPLICA_LAG_ENV = "REPRO_REPLICA_LAG_MS"

#: Environment knob: per-replica admission bound (queries in flight on
#: one replica before the router sheds to its siblings). Default 8.
REPLICA_IN_FLIGHT_ENV = "REPRO_REPLICA_MAX_IN_FLIGHT"

#: Default per-replica admission bound (see ``REPRO_REPLICA_MAX_IN_FLIGHT``).
DEFAULT_REPLICA_IN_FLIGHT = 8

#: Default token-wait deadline in seconds (see ``REPRO_REPLICA_LAG_MS``).
DEFAULT_REPLICA_LAG_TIMEOUT = 5.0

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


def _env_replicas() -> Optional[int]:
    raw = os.environ.get(REPLICAS_ENV)
    if raw is None:
        return None
    try:
        count = int(raw)
    except ValueError:
        return None
    return count if count >= 1 else None


def _env_replica_lag_seconds() -> float:
    raw = os.environ.get(REPLICA_LAG_ENV)
    if raw is None:
        return DEFAULT_REPLICA_LAG_TIMEOUT
    try:
        millis = float(raw)
    except ValueError:
        return DEFAULT_REPLICA_LAG_TIMEOUT
    return millis / 1000.0 if millis >= 0 else DEFAULT_REPLICA_LAG_TIMEOUT


def _env_replica_in_flight() -> int:
    raw = os.environ.get(REPLICA_IN_FLIGHT_ENV)
    if raw is None:
        return DEFAULT_REPLICA_IN_FLIGHT
    try:
        bound = int(raw)
    except ValueError:
        return DEFAULT_REPLICA_IN_FLIGHT
    return bound if bound >= 1 else DEFAULT_REPLICA_IN_FLIGHT

#: Strategies whose chosen reformulation does not depend on data
#: statistics; their cached plans survive writes (epoch stamp ``None``).
DATA_INDEPENDENT_STRATEGIES = frozenset({"ucq", "croot", "sat"})

#: Default cap on the generalized covers EDL enumerates. Kept as a named
#: constant because the plan cache only stores plans computed with this
#: default (the plan key deliberately excludes the knob).
DEFAULT_GENERALIZED_LIMIT = 20_000


def _perfectref_counts() -> Tuple[int, int, int]:
    """PerfectRef's process-wide (invocations, candidates, results)."""
    return (perfectref_invocations(), perfectref_candidates(), perfectref_results())


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
    #: On a sharded backend: the precomputed shard route (pruned /
    #: scatter / gather) the execution should take, derived from the
    #: logical reformulation at plan time so cached plans skip the
    #: SQL-level route analysis. ``None`` lets the backend analyze.
    shard_route: Optional[object] = None


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
    #: the serving barrier. On a replicated system this is the chosen
    #: replica's applied epoch (always ``>=`` the read's ``min_epoch``
    #: token); usable as a session token for subsequent reads.
    epoch: Optional[int] = None
    #: Which replica served the read (``None`` on the primary path).
    replica: Optional[int] = None

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
    :meth:`answer` (one query), :meth:`answer_many` (a batch, optionally
    dispatched concurrently over the serving executor with admission
    control and per-query deadlines), and :meth:`insert_facts` /
    :meth:`delete_facts` (the epoch-based write path; writes take an
    exclusive barrier that drains in-flight queries before the backend
    mutates). Concurrency knobs: ``serving_workers`` sets the default
    ``answer_many`` thread count, ``max_in_flight`` /
    ``query_timeout_seconds`` the admission bound and per-query deadline
    every batch inherits.

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
    worker and scatter results return as columnar shared-memory batches
    — real parallelism on stock CPython, with answers still
    byte-identical to serial.

    Replicated serving: ``replicas=N`` (or ``REPRO_REPLICAS>=1``)
    builds N read-only replicas of the whole backend (same kind,
    shards and substrate), fed asynchronously by the write path's
    epoch-tagged deltas (healed from a folded epoch log), and routes
    every read across them with least-loaded selection and per-replica
    admission control. Session consistency rides epoch tokens
    (:meth:`epoch_token`, ``answer(..., min_epoch=tok)``); the default
    token is the primary's current epoch, so in-process callers keep
    exact read-your-writes with answers byte-identical to the
    unreplicated system.
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
        serving_workers: Optional[int] = None,
        max_in_flight: Optional[int] = None,
        query_timeout_seconds: Optional[float] = None,
        shards: Optional[int] = None,
        executor: Optional[str] = None,
        trace: Optional[bool] = None,
        slow_query_ms: Optional[float] = None,
        replicas: Optional[int] = None,
        replica_lag_timeout_seconds: Optional[float] = None,
        replica_max_in_flight: Optional[int] = None,
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

        # The backend factory doubles as the replica factory: every
        # replica is a full backend of the primary's exact construction
        # (same kind, shard count and substrate), which is what makes
        # shard routes portable and replica answers byte-identical.
        backend_factory = None
        if isinstance(backend, str):
            if shards is None:
                shards = _env_shards()
            if backend not in ("memory", "sqlite"):
                raise ValueError(f"unknown backend {backend!r}")
            if shards:

                def backend_factory() -> ShardedBackend:
                    return ShardedBackend(
                        shards, child=backend, substrate=executor
                    )

            elif backend == "memory":
                backend_factory = MemoryBackend
            else:
                backend_factory = SQLiteBackend
            self.backend = backend_factory()
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

        # Replicated serving (see repro.serving.replicas): N read-only
        # replica backends fed asynchronously by the write path's
        # epoch-tagged deltas, rebuilt from an epoch log that starts
        # from the same LayoutData the primary loaded, at epoch 0 —
        # exactly the primary's starting state.
        replicas_explicit = replicas is not None
        if replicas is None:
            replicas = _env_replicas()
        self._epoch_log: Optional[EpochLog] = None
        self._replicas: Optional[ReplicaSet] = None
        if replicas and backend_factory is None:
            # An explicit request is a hard error; the env knob is a
            # fleet-wide default and degrades to unreplicated where a
            # custom backend object cannot be cloned into replicas.
            if replicas_explicit:
                raise ValueError(
                    "replicas= requires a named backend "
                    "('memory'/'sqlite'); custom backend objects "
                    "cannot be cloned into replicas"
                )
            replicas = 0
        if replicas:
            self._epoch_log = EpochLog(data.tables)
            self._replicas = ReplicaSet(
                replicas,
                backend_factory,
                self._epoch_log,
                max_in_flight=(
                    replica_max_in_flight
                    if replica_max_in_flight is not None
                    else _env_replica_in_flight()
                ),
                lag_timeout_seconds=(
                    replica_lag_timeout_seconds
                    if replica_lag_timeout_seconds is not None
                    else _env_replica_lag_seconds()
                ),
            )
        self.translator = SQLTranslator(self.layout)
        self.cost_model = ExternalCostModel(self.statistics)

        #: Fragment reformulations shared across strategies, cost modes and
        #: queries for the lifetime of this system (one TBox, so sound);
        #: LRU-bounded so long-lived serving processes stay bounded too.
        self.reformulation_cache = ReformulationCache(
            capacity=DEFAULT_FRAGMENT_CACHE_CAPACITY
        )
        #: Cover costs shared across searches, epoch-stamped (a write makes
        #: estimates computed against the old statistics unreachable).
        self.cost_cache = CostCache()
        #: Finished plans: repeated queries skip search and translation.
        self.plan_cache = PlanCache(plan_cache_size)
        # Single-flight guards: concurrent answer_many() workers asking for
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
        # state. The executor is shared by every answer_many call and
        # sized lazily to the largest worker count ever requested.
        self._barrier = ReadWriteBarrier()
        self.serving_workers = serving_workers
        self.max_in_flight = max_in_flight
        self.query_timeout_seconds = query_timeout_seconds
        self._serving_pool: Optional[ThreadPoolExecutor] = None
        self._serving_pool_size = 0
        self._serving_guard = threading.Lock()
        #: Telemetry from the most recent concurrent ``answer_many``:
        #: ``{"serving.workers", "serving.wall.seconds", "admission": {...},
        #: ...}``.
        self.last_batch_stats: Optional[Dict] = None

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
        gets read-your-writes across replicas: no answer carrying that
        token can come from a replica that has not applied the write.
        ``report.epoch`` on any :class:`AnswerReport` works as a token
        too (monotonic reads: never observe older state again).
        """
        return self.data_epoch

    @property
    def replica_set(self) -> Optional[ReplicaSet]:
        """The serving replica set, or ``None`` when unreplicated."""
        return self._replicas

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
        """
        if not added and not removed:
            return
        inserts = self._rows_by_table(added)
        deletes = self._rows_by_table(removed)
        new_tables = []
        for table in (*inserts, *deletes):
            spec = self._ensure_table(table)
            if spec is not None:
                new_tables.append(spec)
        # The exclusive barrier drains every in-flight query, then the
        # backend, the statistics and the epoch all change before the
        # next query is admitted — a reader can never observe the
        # backend ahead of the statistics or the epoch behind either.
        # (Each backend additionally serializes reads against its own
        # writes, so even barrier-less readers see whole writes.)
        registry = get_registry()
        with self._barrier.exclusive(), paused():
            started = time.perf_counter()
            self.backend.apply_changes(inserts, deletes)
            applied = time.perf_counter()
            touched = self._refresh_statistics(added, removed)
            refreshed = time.perf_counter()
            self.data_epoch += 1
            if self._epoch_log is not None:
                # Delta shipping: record the write (created tables plus
                # both row deltas) under its resulting epoch, then fan
                # it out to the replica queues. Recording happens under
                # the exclusive barrier so deltas hit the log in strict
                # epoch order; applying is asynchronous — the write
                # returns without waiting for any replica.
                delta = EpochDelta(
                    epoch=self.data_epoch,
                    tables=tuple(new_tables),
                    inserts=inserts,
                    deletes=deletes,
                )
                self._epoch_log.record(delta)
                self._replicas.publish(delta)
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

    def _ensure_table(self, table: str) -> Optional[TableSpec]:
        """Create a table for a predicate outside the loaded schema;
        returns its spec when one was created (the write's delta ships
        it to the replicas) and ``None`` when the table already existed."""
        if table in self._table_names:
            return None
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
        return spec

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

    # ------------------------------------------------------------------
    @classmethod
    def from_text(
        cls, tbox_text: str, abox_text: str, **kwargs
    ) -> "OBDASystem":
        """Build a system from the textual KB syntax."""
        return cls(parse_tbox(tbox_text), parse_abox(abox_text), **kwargs)

    # ------------------------------------------------------------------
    def _estimator(
        self, cost: str, minimize: bool, use_uscq: bool
    ) -> CoverCostEstimator:
        if cost == "ext":
            return ExternalCoverCost(
                self.kb.tbox,
                self.cost_model,
                minimize=minimize,
                use_uscq=use_uscq,
                fragment_cache=self.reformulation_cache,
                cost_cache=self.cost_cache,
                epoch=self.data_epoch,
            )
        if cost == "rdbms":
            return RDBMSCoverCost(
                self.kb.tbox,
                self.backend,
                self.translator,
                minimize=minimize,
                use_uscq=use_uscq,
                fragment_cache=self.reformulation_cache,
                cost_cache=self.cost_cache,
                epoch=self.data_epoch,
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
        """
        if isinstance(query, str):
            query = parse_query(query)
        if strategy in ("sat", "auto") and self._saturator is None:
            # Before epoch capture: enabling materialization advances the
            # epoch, and the plan must be stamped with the post-enable one.
            self.enable_materialization()
        # The epoch this plan is computed under. Captured *before* the
        # computation: if a concurrent write lands mid-search, the stored
        # plan is already stale and the stamp makes the next get() drop it.
        epoch = self.data_epoch
        cacheable = (
            use_plan_cache
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
            )
        plan_key = self._plan_key(query, strategy, cost, minimize, use_uscq)
        with self._plan_locks_guard:
            flight_lock = self._plan_locks.setdefault(plan_key, threading.Lock())
        try:
            with flight_lock:
                lookup_started = time.perf_counter()
                cached = self.plan_cache.get(plan_key, self.data_epoch)
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
                )
                data_independent = (
                    strategy in DATA_INDEPENDENT_STRATEGIES
                    # A constant the dictionary has never seen translates
                    # to an impossible code; a later write may introduce
                    # it, so such a plan's SQL is *not* write-proof. (Codes
                    # of already-encoded constants are stable forever —
                    # the dictionary is append-only.)
                    and not self._has_unencoded_constants(query)
                )
                stamp = None if data_independent else epoch
                self.plan_cache.put(plan_key, choice, stamp)
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
    ) -> ReformulationChoice:
        """The uncached reformulate-translate pipeline.

        When a trace is active (``answer()`` activates its reformulate
        span around this call), cover-search and SQL-translation child
        spans hang off :func:`~repro.obs.trace.current_span`; with
        tracing off those are no-op singleton calls.
        """
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
            estimator = self._estimator(cost, minimize, use_uscq)
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
            reformulation = self.reformulation_cache.get(ucq_key)
            if reformulation is None:
                reformulation = reformulate_to_ucq(
                    query, self.kb.tbox, minimize=minimize
                )
                self.reformulation_cache[ucq_key] = reformulation
        elif strategy == "croot":
            cover = root_cover(query, self.kb.tbox)
            builder = (
                cover_based_uscq_reformulation if use_uscq else cover_based_reformulation
            )
            reformulation = builder(
                cover,
                self.kb.tbox,
                minimize=minimize,
                cache=self.reformulation_cache,
            )
        elif strategy in ("gdl", "edl"):
            estimator = self._estimator(cost, minimize, use_uscq)
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
        shard_route = None
        if isinstance(self.backend, ShardedBackend):
            # Logical hint: routes plan-cached statements without ever
            # re-parsing the (possibly megabyte-scale) SQL. Dialects the
            # hint does not cover leave None and the backend analyzes
            # the statement itself on first execution.
            shard_route = self.backend.route_from_hint(
                self.translator.shard_hint(reformulation)
            )
        elapsed = time.perf_counter() - started
        return ReformulationChoice(
            strategy=strategy,
            reformulation=reformulation,
            sql=sql,
            search=search,
            reformulation_seconds=elapsed,
            routing=routing,
            shard_route=shard_route,
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

        On a replicated system (``replicas=N`` / ``REPRO_REPLICAS``)
        the read is routed to a replica; ``min_epoch`` is the **session
        token** deciding how fresh that replica must be. ``None`` (the
        default) uses the primary's current epoch — the state this
        process has already observed, so in-process callers keep exact
        read-your-writes semantics with no code change. An explicit
        token from :meth:`epoch_token` or a prior report's
        ``report.epoch`` pins freshness for out-of-process clients
        (``min_epoch=0`` accepts any replica state). The chosen replica
        blocks until it has applied the token's epoch, bounded by the
        lag deadline (:class:`~repro.serving.replicas.
        ReplicaLagTimeoutError` past it), and ``report.epoch`` records
        the exact epoch the answer observed. Without replicas the
        token is ignored — the primary always serves its own epoch.

        With tracing on (``trace=True`` / ``REPRO_TRACE=1``) the report
        carries one coherent :class:`~repro.obs.trace.QueryTrace`:
        parse, reformulation (cover-search and translation children with
        PerfectRef / cache-delta counters), execution (per-shard
        children on a sharded backend, including span subtrees shipped
        back from forked workers, or the replica-routing span on a
        replicated system) and decode. Metrics are recorded either way,
        and a query meeting the slow-query threshold is logged with its
        trace attached.
        """
        query_started = time.perf_counter()
        tracer: Optional[Tracer] = None
        root = NO_SPAN
        if self.trace_enabled:
            tracer = Tracer()
            root = tracer.root("query", strategy=strategy, cost=cost)
            gc_before = thread_gc_seconds()
        with root:
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
            self._check_saturation_complete(choice)
            # Execution and decode allocate only acyclic rows: the cyclic
            # collector is held off until the answers are decoded.
            with paused():
                started = time.perf_counter()
                replica_index: Optional[int] = None
                if self._replicas is not None:
                    # Replicated read: route to a replica at least as fresh
                    # as the session token (default: the primary's current
                    # epoch — exact read-your-writes for in-process callers).
                    token = self.data_epoch if min_epoch is None else min_epoch
                    with root.child(
                        "execute", backend=self.backend.name
                    ) as exec_span:
                        with activate(exec_span):
                            rows, observed_epoch, replica_index = (
                                self._replicas.execute(
                                    choice.sql,
                                    min_epoch=token,
                                    route=choice.shard_route,
                                )
                            )
                        if exec_span.enabled:
                            exec_span.set(
                                rows=len(rows),
                                sql_chars=len(choice.sql),
                                replica=replica_index,
                            )
                    self._check_saturation_complete(choice)  # see below
                else:
                    # Shared barrier: a concurrent write drains this read
                    # before mutating anything, so the rows and the
                    # saturation state the re-check sees belong to one
                    # consistent epoch.
                    with self._barrier.shared():
                        with root.child(
                            "execute", backend=self.backend.name
                        ) as exec_span:
                            with activate(exec_span):
                                rows = self._execute_sql(choice)
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
            replica=replica_index,
        )
        if tracer is not None:
            report.trace = tracer.trace()
        self._record_answer(report, time.perf_counter() - query_started)
        return report

    def _describe_choice(
        self,
        span,
        choice: ReformulationChoice,
        perfectref_before: Tuple[int, int, int],
        caches_before: Dict[str, Dict[str, int]],
    ) -> None:
        """Annotate a reformulate span with what the choice cost:
        PerfectRef fixpoints run, CQs they keyed and CQs they kept, and
        per-cache hit/miss deltas this query caused, plus the plan-cache
        outcome and routing decision."""
        invocations, candidates, results = (
            now - before
            for now, before in zip(_perfectref_counts(), perfectref_before)
        )
        span.set(
            chosen_strategy=choice.strategy,
            plan_cache_hit=choice.plan_cache_hit,
            perfectref_invocations=invocations,
            perfectref_candidates=candidates,
            perfectref_results=results,
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
        max_workers: Optional[int] = None,
        on_error: str = "raise",
        max_in_flight: Optional[int] = None,
        timeout_seconds: Optional[float] = None,
        min_epoch: Optional[int] = None,
    ) -> List[AnswerReport]:
        """Answer a batch of queries, reports in input order.

        With ``max_workers`` > 1 (or a constructor-level
        ``serving_workers`` default) the batch is dispatched over the
        system's **shared serving executor**: one thread pool reused by
        every batch, so the process-wide thread count stays bounded under
        sustained traffic. The plan, fragment and cost caches are
        thread-safe, fresh estimators are built per call, both backends
        serialize their storage accesses, and writes drain in-flight
        queries through the read/write barrier — so concurrent batches
        return exactly the sequential answers, even racing
        :meth:`insert_facts` / :meth:`delete_facts`. Duplicate queries in
        one batch are where the plan cache shines: one cold plan, the
        rest hits (identical misses are single-flighted).

        **Admission control.** At most ``max_in_flight`` queries
        (default ``2 × max_workers``) are dispatched-but-unfinished at
        any moment; the rest of the batch waits at the gate.
        ``timeout_seconds`` is a per-query deadline: a query that blows
        it gets a :class:`~repro.serving.concurrency.QueryTimeoutError`
        (its worker thread is abandoned, not killed). Telemetry for the
        batch lands on :attr:`last_batch_stats`.

        ``on_error`` decides what one failing query does to the batch:
        ``"raise"`` (the default) propagates its exception, ``"collect"``
        records it on that query's :class:`AnswerReport` (``error`` set,
        ``answers`` empty) and lets the rest of the batch finish.

        ``min_epoch`` is the whole batch's session token on a
        replicated system (see :meth:`answer`).
        """
        if on_error not in ("raise", "collect"):
            raise ValueError(
                f"on_error must be 'raise' or 'collect', got {on_error!r}"
            )
        if max_workers is None:
            max_workers = self.serving_workers
        if timeout_seconds is None:
            timeout_seconds = self.query_timeout_seconds

        def one(query: Union[str, CQ]) -> AnswerReport:
            # Parsing happens inside the guard: a malformed query string is
            # just another failure this query's report should carry.
            try:
                parsed = parse_query(query) if isinstance(query, str) else query
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

        if max_workers is not None and max_workers > 1 and len(queries) > 1:
            return self._answer_many_concurrent(
                queries, one, max_workers, on_error, max_in_flight, timeout_seconds
            )
        return [one(query) for query in queries]

    def _answer_many_concurrent(
        self,
        queries: Sequence[Union[str, CQ]],
        one,
        max_workers: int,
        on_error: str,
        max_in_flight: Optional[int],
        timeout_seconds: Optional[float],
    ) -> List[AnswerReport]:
        """Dispatch a batch over the shared executor with admission
        control and per-query deadlines.

        The deadline for each query runs from its *dispatch* (slot
        admitted, task submitted), not from when the in-order collection
        loop happens to reach its future — so a query cannot silently
        overrun its deadline just because an earlier future was waited
        on first. A query that cannot even be *admitted* within the
        deadline (every slot held by hung queries) times out at the
        gate instead of hanging the whole batch.
        """
        started = time.perf_counter()
        if max_in_flight is None:
            max_in_flight = self.max_in_flight or 2 * max_workers
        admission = AdmissionController(max_in_flight)
        telemetry = getattr(self.backend, "shard_telemetry", None)
        shards_before = telemetry() if telemetry is not None else None

        def admitted(query: Union[str, CQ]) -> AnswerReport:
            # Mark the deadline *inside* the pool task (contextvars do
            # not flow into pool threads), so storage-layer RPC waits
            # under this query cap themselves at min(rpc_timeout,
            # remaining) instead of running on after the serving layer
            # abandoned the future.
            try:
                with deadline_scope(timeout_seconds):
                    return one(query)
            finally:
                admission.release()

        def timed_out(query: Union[str, CQ]) -> AnswerReport:
            error = QueryTimeoutError(timeout_seconds)
            if on_error == "raise":
                raise error from None
            return AnswerReport(
                query=query,
                choice=None,
                answers=set(),
                cache_stats=self.cache_stats(),
                error=error,
            )

        #: (query, future | None, dispatch time); None = never admitted.
        dispatched: List[Tuple[Union[str, CQ], Optional[Future], float]] = []
        timed_out_reports: Dict[int, AnswerReport] = {}
        #: ``admission.released`` sampled before the admit that last
        #: proved the gate full for a whole timeout; ``None`` = gate not
        #: currently proven stuck. While no release has happened since,
        #: re-waiting the full timeout for the next query is pure wasted
        #: wall-clock — the outcome is already known — so those queries
        #: fail fast at the gate instead of timing out serially.
        gate_stuck_since: Optional[int] = None
        for position, query in enumerate(queries):
            released_before = admission.released
            if (
                gate_stuck_since is not None
                and released_before == gate_stuck_since
            ):
                timed_out_reports[position] = timed_out(query)
                dispatched.append((query, None, 0.0))
                continue
            gate_stuck_since = None
            if not admission.admit(timeout_seconds):
                gate_stuck_since = released_before
                timed_out_reports[position] = timed_out(query)
                dispatched.append((query, None, 0.0))
                continue
            # The shared pool may be swapped out by a concurrent batch
            # regrowing it (its shutdown refuses new work); retry on the
            # replacement — the admission slot stays held throughout.
            while True:
                pool = self._ensure_serving_pool(max_workers)
                try:
                    future = pool.submit(admitted, query)
                    break
                except RuntimeError:
                    continue
            dispatched.append((query, future, time.perf_counter()))
        reports: List[AnswerReport] = []
        for position, (query, future, dispatch_time) in enumerate(dispatched):
            if future is None:
                reports.append(timed_out_reports[position])
                continue
            if timeout_seconds is None:
                remaining = None
            else:
                remaining = max(
                    0.0, dispatch_time + timeout_seconds - time.perf_counter()
                )
            try:
                reports.append(future.result(timeout=remaining))
            except FutureTimeoutError:
                # Deadline accounting: a timed-out query must not burn
                # wall-clock or capacity from the rest of the batch. If
                # the task never started, cancel() reclaims its pool
                # slot — and its admission slot, which the task's own
                # finally-release will now never run for. (A task
                # already running is abandoned, not killed; its
                # deadline_scope caps its storage-layer waits.)
                if future.cancel():
                    admission.release()
                reports.append(timed_out(query))
        wall_seconds = time.perf_counter() - started
        self.last_batch_stats = {
            # Metric names of the docs/OBSERVABILITY.md catalog.
            "serving.workers": max_workers,
            "serving.queries": len(queries),
            "serving.wall.seconds": wall_seconds,
            "admission": admission.stats(),
            #: The storage-side execution substrate this batch ran on
            #: ("inproc" for plain unsharded backends).
            "serving.substrate": getattr(self.backend, "substrate", "inproc"),
        }
        registry = get_registry()
        registry.inc("repro.serving.batches")
        registry.inc("repro.serving.queries", len(queries))
        registry.observe("repro.serving.batch.seconds", wall_seconds)
        if shards_before is not None:
            # Route counters this batch moved (approximate under racing
            # batches — counters are system-global).
            shards_after = telemetry()
            self.last_batch_stats["shards"] = {
                "shards.count": shards_after["shards.count"],
                **{
                    key: shards_after[key] - shards_before.get(key, 0)
                    for key in (
                        "shards.executions",
                        "shards.route.pruned",
                        "shards.route.scatter",
                        "shards.route.gather",
                        "shards.shm.results",
                        "shards.shm.bytes",
                        "shards.inline.results",
                    )
                    if key in shards_after
                },
            }
        return reports

    def _ensure_serving_pool(self, workers: int) -> ThreadPoolExecutor:
        """The shared serving executor, regrown when a batch asks for
        more workers than any batch before it."""
        with self._serving_guard:
            if self._serving_pool is None or workers > self._serving_pool_size:
                old = self._serving_pool
                self._serving_pool = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="repro-serving"
                )
                self._serving_pool_size = workers
                if old is not None:
                    # Let queued work drain on its own threads; new
                    # batches land on the resized pool.
                    old.shutdown(wait=False)
            return self._serving_pool

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
        """Evaluate an already-made reformulation choice (bench harness)."""
        self._check_saturation_complete(choice)
        with paused():
            with self._barrier.shared():
                rows = self._execute_sql(choice)
                self._check_saturation_complete(choice)  # see answer()
            return self._decode(query, rows)

    def _execute_sql(self, choice: ReformulationChoice) -> List[Tuple]:
        """Run a choice's SQL, passing the plan-time shard route through
        to a sharded backend (other backends take the plain path)."""
        if choice.shard_route is not None and isinstance(
            self.backend, ShardedBackend
        ):
            return self.backend.execute(choice.sql, route=choice.shard_route)
        return self.backend.execute(choice.sql)

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
        """Current plan-, fragment- and cost-cache counters."""
        return {
            "plan": self.plan_cache.stats(),
            "fragments": self.reformulation_cache.stats(),
            "costs": self.cost_cache.stats(),
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
        if self._replicas is not None:
            replica_snapshot = self._replicas.metrics_snapshot()
            if replica_snapshot is not None:
                merged.merge_snapshot(replica_snapshot)
            merged.set_gauge("repro.replica.lag.max", self._replicas.max_lag())
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
        with self._serving_guard:
            pool, self._serving_pool = self._serving_pool, None
            self._serving_pool_size = 0
        if pool is not None:
            pool.shutdown(wait=True)
        if self._replicas is not None:
            self._replicas.close()
        self.backend.close()
        self.plan_cache.clear()
        self.reformulation_cache.clear()
        self.cost_cache.clear()

    def __enter__(self) -> "OBDASystem":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

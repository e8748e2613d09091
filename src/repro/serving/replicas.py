"""Read replicas: asynchronous followers of the primary's write path.

The scaling story of the ROADMAP's serving item: all reads used to
funnel through one backend behind one
:class:`~repro.serving.concurrency.ReadWriteBarrier`. This module lets
an :class:`~repro.obda.system.OBDASystem` host **N read-only replica
backends** that follow the primary asynchronously and serve the read
traffic between them:

* each :class:`Replica` is a full backend of the primary's kind
  (memory, sqlite, or sharded over any substrate), bootstrapped from
  the primary's :class:`~repro.storage.epoch_log.EpochLog` (one folded
  snapshot at an epoch) and caught up delta-by-delta by its own
  **applier thread** — writes on the primary return without waiting
  for any replica;
* the :class:`ReplicaSet` routes each read to a live replica with
  **least-loaded selection** (fewest in-flight queries wins, among
  replicas already at the required epoch) under **per-replica admission
  control** (a saturated replica sheds to its siblings; a fully
  saturated set fails fast with :class:`ReplicaSaturatedError` instead
  of queueing unboundedly);
* **session consistency** rides epoch tokens: a read carrying
  ``min_epoch=t`` blocks until its chosen replica has applied epoch
  ``t`` (deadline-bounded — a lagging set raises
  :class:`ReplicaLagTimeoutError`), so a client that writes at epoch
  ``t`` and reads with token ``t`` can never observe pre-write state;
* every answer reports the **exact epoch it observed**: the replica's
  applied epoch is frozen for the duration of the read by the replica's
  own read/write barrier (the applier takes the exclusive side per
  delta), which is what makes the session-consistency oracle in
  ``tests/backend_conformance.py`` sharp — an answer with token ``t``
  must equal the sequential oracle at precisely its reported epoch
  ``≥ t``.

Failure handling mirrors the shard supervisor: a replica whose applier
(or read) fails is marked dead, routed around, and **healed** — rebuilt
by :meth:`~repro.storage.epoch_log.EpochLog.restore`, the same routine
that rebuilds a crashed supervised worker — by a background healer
thread (or synchronously when no live replica
remains). The deterministic chaos knobs (``replica_kill_p``,
``replica_lag_p`` / ``replica_lag_ms`` in :mod:`repro.faults`) drive
these paths in the chaos suite.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

import random

from repro.faults import FaultPlan
from repro.lifecycle import close_at_exit, interpreter_exiting
from repro.obs.metrics import get_registry
from repro.obs.trace import current_span
from repro.serving.concurrency import (
    AdmissionController,
    QueryTimeoutError,
    ReadWriteBarrier,
    remaining_deadline,
)
from repro.storage.epoch_log import EpochDelta, EpochLog

logger = logging.getLogger("repro.replicas")

#: How long ``execute`` waits at one replica's admission gate before
#: shedding to the next replica (seconds). Small on purpose: the point
#: of having siblings is not to queue behind a busy one.
ADMISSION_SHED_SECONDS = 0.05


class ReplicaLagTimeoutError(QueryTimeoutError):
    """No replica reached the read's ``min_epoch`` token in time."""

    def __init__(self, min_epoch: int, seconds: float) -> None:
        QueryTimeoutError.__init__(self, seconds)
        self.args = (
            f"no replica reached epoch {min_epoch} within {seconds:g}s",
        )
        self.min_epoch = min_epoch


class ReplicaSaturatedError(QueryTimeoutError):
    """Every replica's admission gate stayed full for the whole wait."""

    def __init__(self, replicas: int, seconds: float) -> None:
        QueryTimeoutError.__init__(self, seconds)
        self.args = (
            f"all {replicas} replicas saturated for {seconds:g}s",
        )
        self.replicas = replicas


class _ReplicaDead(RuntimeError):
    """Internal: the chosen replica died mid-read; route elsewhere."""


class Replica:
    """One read-only follower: a backend plus its delta applier thread.

    Lifecycle: constructed in *catching-up* state and registered with
    the set **before** its bootstrap load runs, so no delta published
    in between is ever missed (deltas at or below the bootstrap epoch
    are skipped by the applier's idempotence guard). Reads are admitted
    only once :attr:`ready`.
    """

    def __init__(
        self,
        index: int,
        generation: int,
        backend_factory: Callable,
        log: EpochLog,
        max_in_flight: int = 8,
        fault_plan: Optional[FaultPlan] = None,
        kill_armed: bool = True,
    ) -> None:
        self.index = index
        self.generation = generation
        self._factory = backend_factory
        self._log = log
        self._cond = threading.Condition()
        self._pending: Deque[EpochDelta] = deque()
        self._barrier = ReadWriteBarrier()
        self.admission = AdmissionController(max_in_flight)
        self.backend = None
        self.applied_epoch = -1
        self.alive = True
        self.ready = False
        self.executions = 0
        self._closed = False
        plan = fault_plan if fault_plan is not None and fault_plan.replica_faults else None
        self._faults = plan
        self._kill_armed = kill_armed
        self._rng = (
            random.Random(f"{plan.seed}:replica:{index}:{generation}")
            if plan is not None
            else None
        )
        self._applier = threading.Thread(
            target=self._apply_loop,
            name=f"repro-replica-{index}.{generation}",
            daemon=True,
        )
        self._applier.start()

    # -- bootstrap -----------------------------------------------------
    def bootstrap(self) -> None:
        """Restore the log's folded snapshot and open for reads.

        Runs outside the set's registration lock (a snapshot load can
        be slow); concurrent publishes land in :attr:`_pending` and the
        applier's epoch guard drops the already-folded ones.
        """
        backend = self._factory()
        epoch = self._log.restore(backend)
        with self._cond:
            if not self._closed:
                self.backend = backend
                self.applied_epoch = epoch
                self.ready = True
                self._cond.notify_all()
                backend = None
        if backend is not None:
            # Closed while the load ran (set teardown racing a heal):
            # the fresh backend was never published, so nobody else
            # will ever close it — release its resources here.
            backend.close()
            return
        self._set_lag_gauge()

    # -- write side ----------------------------------------------------
    def publish(self, delta: EpochDelta) -> None:
        """Enqueue one delta for asynchronous application (never blocks
        on the apply itself — the primary's write path calls this)."""
        with self._cond:
            if not self.alive or self._closed:
                return
            self._pending.append(delta)
            self._cond.notify_all()

    def _apply_loop(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if self._closed:
                    return
                delta = self._pending.popleft()
            if not self.ready or delta.epoch <= self.applied_epoch:
                continue  # folded into this generation's bootstrap
            try:
                self._apply_one(delta)
            except Exception:
                logger.warning(
                    "replica %d.%d applier failed at epoch %d; marking dead",
                    self.index,
                    self.generation,
                    delta.epoch,
                    exc_info=True,
                )
                self.die()
                return

    def _apply_one(self, delta: EpochDelta) -> None:
        faults = self._faults
        if (
            faults is not None
            and faults.replica_lag_p
            and faults.replica_lag_ms
            and self._rng.random() < faults.replica_lag_p
        ):
            time.sleep(faults.replica_lag_ms / 1000.0)
        # Exclusive vs in-flight reads: a read observes the whole delta
        # or none of it, and the epoch it reports matches its rows.
        with self._barrier.exclusive():
            delta.apply_to(self.backend)
            with self._cond:
                self.applied_epoch = delta.epoch
                self._cond.notify_all()
        self._set_lag_gauge()
        if (
            faults is not None
            and self._kill_armed
            and faults.replica_kill_p
            and self._rng.random() < faults.replica_kill_p
        ):
            get_registry().inc("repro.replica.injected_kills")
            self.die()

    def _set_lag_gauge(self) -> None:
        get_registry().set_gauge(
            f"repro.replica.lag.r{self.index}",
            max(0, self._log.epoch - self.applied_epoch),
        )

    # -- read side -----------------------------------------------------
    def wait_for_epoch(self, epoch: int, timeout: float) -> bool:
        """Block until this replica has applied *epoch* (``True``) or
        the timeout passed / the replica died (``False``)."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while self.applied_epoch < epoch:
                if not self.alive or self._closed:
                    return False
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True

    def execute(self, sql: str, route=None) -> Tuple[List[Tuple], int]:
        """Evaluate *sql* under the replica's shared barrier; returns
        ``(rows, epoch observed)`` — the epoch cannot move mid-read."""
        with self._barrier.shared():
            if not self.alive or not self.ready:
                raise _ReplicaDead(f"replica {self.index} is not serving")
            try:
                if route is not None and hasattr(self.backend, "plan_route"):
                    rows = self.backend.execute(sql, route=route)
                else:
                    rows = self.backend.execute(sql)
            except _ReplicaDead:
                raise
            except Exception:
                self.die()
                raise
            epoch = self.applied_epoch
        self.executions += 1
        return rows, epoch

    @property
    def in_flight(self) -> int:
        """Queries currently admitted to this replica."""
        return self.admission.in_flight

    # -- failure and teardown ------------------------------------------
    def die(self) -> None:
        """Mark the replica dead: stop serving, drop queued deltas."""
        with self._cond:
            if not self.alive:
                return
            self.alive = False
            self.ready = False
            self._pending.clear()
            self._cond.notify_all()
        get_registry().inc("repro.replica.deaths")

    def close(self) -> None:
        """Stop the applier and release the backend. Idempotent."""
        with self._cond:
            self._closed = True
            self.alive = False
            self.ready = False
            self._pending.clear()
            self._cond.notify_all()
        if self._applier is not threading.current_thread():
            self._applier.join(timeout=5.0)
        backend, self.backend = self.backend, None
        if backend is not None:
            backend.close()


class ReplicaSet:
    """N replicas, a router, and a healer.

    The router's contract (``execute``): pick the **least-loaded live
    replica already at the read's epoch** (falling back to the least
    lagged one and waiting), admit under that replica's gate, run the
    read, and return ``(rows, epoch observed, replica index)``. Dead
    replicas are routed around and healed off the read path; when no
    live replica remains, the read heals one synchronously — degraded
    service, never an outage (the epoch log can always rebuild).
    """

    def __init__(
        self,
        count: int,
        backend_factory: Callable,
        log: EpochLog,
        max_in_flight: int = 8,
        lag_timeout_seconds: float = 5.0,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if count < 1:
            raise ValueError("a replica set needs at least one replica")
        self._factory = backend_factory
        self._log = log
        self._max_in_flight = max_in_flight
        self.lag_timeout_seconds = lag_timeout_seconds
        self._plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
        self._lock = threading.Lock()
        self._closed = False
        self._generations = [0] * count
        self._kills_remaining: List[Optional[int]] = [
            self._plan.replica_kill_limit if self._plan is not None else None
        ] * count
        self.heals = 0
        self._replicas: List[Replica] = []
        for index in range(count):
            replica = self._new_replica(index)
            self._replicas.append(replica)
            replica.bootstrap()
        self._heal_needed = threading.Event()
        self._healer = threading.Thread(
            target=self._heal_loop, name="repro-replica-healer", daemon=True
        )
        self._healer.start()
        close_at_exit(self)
        get_registry().set_gauge("repro.replica.count", count)

    def _new_replica(self, index: int) -> Replica:
        """Construct (not bootstrap) the next generation of *index*,
        charging the per-replica kill budget at arming time — the same
        deterministic budgeting the worker fault injector uses."""
        generation = self._generations[index]
        self._generations[index] += 1
        kill_armed = True
        remaining = self._kills_remaining[index]
        if remaining is not None:
            kill_armed = remaining > 0
            if kill_armed:
                self._kills_remaining[index] = remaining - 1
        return Replica(
            index,
            generation,
            self._factory,
            self._log,
            max_in_flight=self._max_in_flight,
            fault_plan=self._plan,
            kill_armed=kill_armed,
        )

    # -- write side ----------------------------------------------------
    def publish(self, delta: EpochDelta) -> None:
        """Fan one recorded delta out to every replica's queue; wake the
        healer for any dead one. Never blocks on an apply."""
        wake = False
        with self._lock:
            for replica in self._replicas:
                if replica.alive:
                    replica.publish(delta)
                else:
                    wake = True
        if wake:
            self._heal_needed.set()

    # -- healing -------------------------------------------------------
    def _heal_loop(self) -> None:
        while True:
            self._heal_needed.wait()
            if self._closed or interpreter_exiting():
                return
            self._heal_needed.clear()
            try:
                while self._heal_one() and not self._closed:
                    pass
            except Exception:  # pragma: no cover - heal must never die
                logger.warning("replica heal failed", exc_info=True)

    def _heal_one(self) -> bool:
        """Rebuild one dead replica from the log's folded snapshot;
        ``True`` when one was healed (call again — more may be dead)."""
        with self._lock:
            if self._closed or interpreter_exiting():
                return False
            dead = next(
                (
                    i
                    for i, replica in enumerate(self._replicas)
                    if not replica.alive
                ),
                None,
            )
            if dead is None:
                return False
            old = self._replicas[dead]
            # Registered before bootstrap: no published delta is missed.
            replacement = self._new_replica(dead)
            self._replicas[dead] = replacement
        old.close()
        try:
            replacement.bootstrap()
        except Exception:
            replacement.die()
            raise
        self.heals += 1
        get_registry().inc("repro.replica.heals")
        logger.warning(
            "replica %d healed (generation %d, epoch %d)",
            dead,
            replacement.generation,
            replacement.applied_epoch,
        )
        return True

    # -- read side -----------------------------------------------------
    def _candidates(self, min_epoch: int) -> List[Replica]:
        """Live, serving replicas — those already at *min_epoch* first,
        least-loaded within each group (ties broken by index for
        determinism)."""
        with self._lock:
            live = [
                replica
                for replica in self._replicas
                if replica.alive and replica.ready
            ]
        return sorted(
            live,
            key=lambda replica: (
                replica.applied_epoch < min_epoch,
                replica.in_flight,
                replica.index,
            ),
        )

    def execute(
        self,
        sql: str,
        min_epoch: int = 0,
        route=None,
        timeout_seconds: Optional[float] = None,
    ) -> Tuple[List[Tuple], int, int]:
        """Route one read: returns ``(rows, epoch observed, replica)``.

        The deadline is the smaller of *timeout_seconds* (default: the
        set's lag timeout) and the serving layer's remaining per-query
        deadline. Within it the router sheds across saturated replicas,
        waits out replica lag, and survives any number of replica
        deaths (healing synchronously if it runs out of live ones); a
        blown deadline raises :class:`ReplicaLagTimeoutError` /
        :class:`ReplicaSaturatedError`, both
        :class:`~repro.serving.concurrency.QueryTimeoutError`.
        """
        budget = (
            timeout_seconds
            if timeout_seconds is not None
            else self.lag_timeout_seconds
        )
        remaining = remaining_deadline()
        if remaining is not None:
            budget = min(budget, max(0.0, remaining))
        deadline = time.monotonic() + budget
        registry = get_registry()
        saw_lag = False
        with current_span().child(
            "replica.execute", min_epoch=min_epoch
        ) as span:
            while True:
                candidates = self._candidates(min_epoch)
                if not candidates:
                    # Degraded: no live replica at all. Heal one on the
                    # read path — slower than routing, never an outage.
                    self._heal_one()
                    candidates = self._candidates(min_epoch)
                    if not candidates:
                        raise ReplicaLagTimeoutError(min_epoch, budget)
                admitted = None
                for replica in candidates:
                    shed = min(
                        ADMISSION_SHED_SECONDS,
                        max(0.0, deadline - time.monotonic()),
                    )
                    if replica.admission.admit(timeout=shed):
                        admitted = replica
                        break
                    registry.inc("repro.replica.sheds")
                if admitted is None:
                    if time.monotonic() >= deadline:
                        raise ReplicaSaturatedError(len(candidates), budget)
                    continue
                try:
                    if admitted.applied_epoch < min_epoch:
                        saw_lag = True
                        waited = time.perf_counter()
                        caught_up = admitted.wait_for_epoch(
                            min_epoch,
                            max(0.0, deadline - time.monotonic()),
                        )
                        registry.observe(
                            "repro.replica.wait.seconds",
                            time.perf_counter() - waited,
                        )
                        if not caught_up:
                            if not admitted.alive:
                                self._heal_needed.set()
                                continue  # died mid-wait: route around
                            raise ReplicaLagTimeoutError(min_epoch, budget)
                    rows, epoch = admitted.execute(sql, route=route)
                except _ReplicaDead:
                    self._heal_needed.set()
                    if time.monotonic() >= deadline:
                        raise ReplicaLagTimeoutError(min_epoch, budget)
                    continue
                except Exception:
                    if not admitted.alive:
                        self._heal_needed.set()
                    raise
                finally:
                    admitted.admission.release()
                registry.inc("repro.replica.executions")
                if saw_lag:
                    registry.inc("repro.replica.lagged_reads")
                if span.enabled:
                    span.set(replica=admitted.index, epoch=epoch)
                return rows, epoch, admitted.index

    # -- introspection -------------------------------------------------
    @property
    def count(self) -> int:
        """How many replica slots the set maintains."""
        with self._lock:
            return len(self._replicas)

    def replica(self, index: int) -> Replica:
        """The current generation serving slot *index* (tests/chaos)."""
        with self._lock:
            return self._replicas[index]

    def kill(self, index: int) -> None:
        """Crash one replica (chaos/testing): it stops serving and the
        healer rebuilds it from the epoch log."""
        self.replica(index).die()
        self._heal_needed.set()

    def telemetry(self) -> Dict:
        """Router counters plus one status dict per replica."""
        with self._lock:
            replicas = list(self._replicas)
        log_epoch = self._log.epoch
        return {
            "replicas": len(replicas),
            "heals": self.heals,
            "per_replica": [
                {
                    "replica": replica.index,
                    "generation": replica.generation,
                    "alive": replica.alive,
                    "applied_epoch": replica.applied_epoch,
                    "lag": max(0, log_epoch - replica.applied_epoch),
                    "in_flight": replica.in_flight,
                    "executions": replica.executions,
                }
                for replica in replicas
            ],
        }

    def max_lag(self) -> int:
        """Epochs the most-lagged live replica is behind the log."""
        log_epoch = self._log.epoch
        with self._lock:
            lags = [
                log_epoch - replica.applied_epoch
                for replica in self._replicas
                if replica.alive and replica.ready
            ]
        return max(lags, default=0)

    def metrics_snapshot(self) -> Optional[Dict]:
        """Replica-backend registries the coordinator cannot see (only
        sharded-process replicas hold any), merged into one snapshot."""
        merged = None
        with self._lock:
            replicas = list(self._replicas)
        for replica in replicas:
            fetch = getattr(replica.backend, "metrics_snapshot", None)
            snapshot = fetch() if fetch is not None else None
            if snapshot:
                if merged is None:
                    from repro.obs.metrics import MetricsRegistry

                    merged = MetricsRegistry()
                merged.merge_snapshot(snapshot)
        return merged.snapshot() if merged is not None else None

    def close(self) -> None:
        """Tear down the healer, the appliers and every backend."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            replicas = list(self._replicas)
        self._heal_needed.set()
        self._healer.join(timeout=5.0)
        for replica in replicas:
            replica.close()

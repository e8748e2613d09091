"""Deterministic, seeded fault injection for the process substrate.

The supervision layer (:mod:`repro.storage.supervisor`) exists to keep
sharded query answering correct while worker processes die, hang, or
misbehave — and a fault-tolerance layer that is only ever exercised by
real outages is untested code. This module makes failures a *first-
class, reproducible input*: a :class:`FaultPlan` (parsed from the
``REPRO_FAULTS`` environment knob or built directly in tests) describes
which faults fire, where, and with what probability, all driven by a
seeded RNG so a failing chaos run replays exactly.

Fault sites
-----------
* **kill** — the worker calls ``os._exit(137)`` (indistinguishable from
  an OOM-kill / ``SIGKILL`` to the coordinator) either on the Nth RPC it
  serves (``kill_at``), whenever it serves a specific command
  (``kill_cmd``), or per-RPC with probability ``kill_p``.
* **delay** — the worker sleeps ``delay_ms`` before serving an RPC with
  probability ``delay_p`` (drives RPC-deadline paths).
* **drop** — the worker swallows an RPC without replying with
  probability ``drop_p`` (the coordinator's ``conn.poll`` deadline is
  the only thing standing between this and a hang).
* **spawn** — the coordinator-side supervisor fails a *respawn* attempt
  (``spawn_fails`` per shard; never the initial spawn), driving the
  circuit-breaker path.

Determinism
-----------
Worker-side decisions draw from ``random.Random(f"{seed}:{shard}:
{generation}")`` — per shard and per worker generation, so a respawned
worker's fault schedule is independent of how many RPCs its predecessor
served, and a run with the same plan, workload and shard count replays
the same faults. Kill budgets (``kill_limit``) live coordinator-side in
the :class:`FaultInjector` because worker-side counters die with the
worker; a budget is charged when a worker generation is *armed* with a
kill trigger, so exactly ``kill_limit`` generations carry one.

Grammar
-------
``REPRO_FAULTS`` is a comma-separated ``key=value`` list::

    REPRO_FAULTS="seed=42,kill_at=5,delay_p=0.05,delay_ms=10,shards=0|2"

Recognised keys: ``seed``, ``kill_at``, ``kill_cmd``, ``kill_p``,
``kill_limit``, ``delay_p``, ``delay_ms``, ``drop_p``,
``spawn_fails``, ``shards``
(``|``-separated shard ids the plan applies to; default all). See
``docs/ROBUSTNESS.md`` for a cookbook.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional

#: Environment knob: the fault plan (empty/unset = no faults).
FAULTS_ENV = "REPRO_FAULTS"

#: The exit status an injected kill dies with (mirrors ``128 + SIGKILL``
#: so coordinator-side handling cannot tell it from the real thing).
KILL_EXIT_CODE = 137


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"REPRO_FAULTS: {key} expects an integer, got {value!r}")


def _parse_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"REPRO_FAULTS: {key} expects a number, got {value!r}")


@dataclass(frozen=True)
class FaultPlan:
    """One immutable description of which faults fire (see the module
    docstring for the grammar and each field's semantics)."""

    seed: int = 0
    kill_at: Optional[int] = None
    kill_cmd: Optional[str] = None
    kill_p: float = 0.0
    kill_limit: Optional[int] = None
    delay_p: float = 0.0
    delay_ms: float = 0.0
    drop_p: float = 0.0
    spawn_fails: int = 0
    shards: Optional[FrozenSet[int]] = None

    @property
    def enabled(self) -> bool:
        """Whether any fault can ever fire under this plan."""
        return bool(
            self.kill_at is not None
            or self.kill_cmd is not None
            or self.kill_p
            or (self.delay_p and self.delay_ms)
            or self.drop_p
            or self.spawn_fails
        )

    def applies_to(self, shard: int) -> bool:
        """Whether this plan targets *shard* (no filter = all shards)."""
        return self.shards is None or shard in self.shards

    @property
    def kill_budget(self) -> Optional[int]:
        """Worker generations armed with a kill trigger, per shard.

        Explicit ``kill_limit`` wins; deterministic triggers
        (``kill_at`` / ``kill_cmd``) default to one kill per shard,
        probabilistic ``kill_p`` to unlimited (``None``).
        """
        if self.kill_limit is not None:
            return self.kill_limit
        if self.kill_at is not None or self.kill_cmd is not None:
            return 1
        return None

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` grammar; raises ``ValueError`` on
        unknown keys or malformed values (a silently ignored fault plan
        would be worse than a crash)."""
        fields: Dict[str, object] = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(f"REPRO_FAULTS: expected key=value, got {part!r}")
            key, _, value = part.partition("=")
            key = key.strip()
            value = value.strip()
            if key == "seed":
                fields["seed"] = _parse_int(key, value)
            elif key in ("kill_at", "kill_limit", "spawn_fails"):
                fields[key] = _parse_int(key, value)
            elif key == "kill_cmd":
                fields["kill_cmd"] = value
            elif key in ("kill_p", "delay_p", "delay_ms", "drop_p"):
                fields[key] = _parse_float(key, value)
            elif key == "shards":
                fields["shards"] = frozenset(
                    _parse_int("shards", item) for item in value.split("|") if item
                )
            else:
                raise ValueError(f"REPRO_FAULTS: unknown key {key!r}")
        return cls(**fields)  # type: ignore[arg-type]

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """The plan configured in ``REPRO_FAULTS``, or ``None``."""
        raw = os.environ.get(FAULTS_ENV, "").strip()
        if not raw:
            return None
        plan = cls.parse(raw)
        return plan if plan.enabled else None


@dataclass(frozen=True)
class WorkerFaultConfig:
    """The frozen slice of a plan one worker *generation* enforces.

    Built coordinator-side by :meth:`FaultInjector.worker_config` and
    handed to the worker at fork; the worker derives its RNG from
    *token*, so its fault schedule is a pure function of (plan seed,
    shard, generation).
    """

    token: str
    kill_at: Optional[int] = None
    kill_cmd: Optional[str] = None
    kill_p: float = 0.0
    delay_p: float = 0.0
    delay_ms: float = 0.0
    drop_p: float = 0.0


class FaultInjector:
    """Coordinator-side fault bookkeeping: per-shard kill and spawn-fail
    budgets, and per-generation worker configs.

    Thread-safe; one injector serves every shard of one
    :class:`~repro.storage.sharded_backend.ShardedBackend`.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._kills_remaining: Dict[int, Optional[int]] = {}
        self._spawn_fails_remaining: Dict[int, int] = {}
        self._spawn_fails_disabled = False

    @classmethod
    def from_env(cls) -> Optional["FaultInjector"]:
        """An injector for the ``REPRO_FAULTS`` plan, or ``None``."""
        plan = FaultPlan.from_env()
        return None if plan is None else cls(plan)

    def worker_config(
        self, shard: int, generation: int
    ) -> Optional[WorkerFaultConfig]:
        """The fault config arming worker *generation* of *shard*
        (``None`` when the plan has no worker-side faults for it).

        Kill triggers are budgeted per shard (:attr:`FaultPlan.
        kill_budget`): the budget is charged here, at arming time, so
        the schedule of which generations die is deterministic.
        """
        plan = self.plan
        if not plan.applies_to(shard):
            return None
        with self._lock:
            if shard not in self._kills_remaining:
                self._kills_remaining[shard] = plan.kill_budget
            remaining = self._kills_remaining[shard]
            arm_kill = remaining is None or remaining > 0
            if arm_kill and remaining is not None:
                self._kills_remaining[shard] = remaining - 1
        has_kill = plan.kill_at is not None or plan.kill_cmd is not None or plan.kill_p
        config = WorkerFaultConfig(
            token=f"{plan.seed}:{shard}:{generation}",
            kill_at=plan.kill_at if arm_kill else None,
            kill_cmd=plan.kill_cmd if arm_kill else None,
            kill_p=plan.kill_p if arm_kill else 0.0,
            delay_p=plan.delay_p,
            delay_ms=plan.delay_ms,
            drop_p=plan.drop_p,
        )
        if (
            (arm_kill and has_kill)
            or (plan.delay_p and plan.delay_ms)
            or plan.drop_p
        ):
            return config
        return None

    def take_spawn_fail(self, shard: int) -> bool:
        """Consume one injected respawn failure for *shard* (``False``
        once the ``spawn_fails`` budget is exhausted or the shard is not
        targeted)."""
        if not self.plan.applies_to(shard) or not self.plan.spawn_fails:
            return False
        with self._lock:
            if self._spawn_fails_disabled:
                return False
            remaining = self._spawn_fails_remaining.setdefault(
                shard, self.plan.spawn_fails
            )
            if remaining <= 0:
                return False
            self._spawn_fails_remaining[shard] = remaining - 1
            return True

    def reset_spawn_fails(self) -> None:
        """Exhaust every remaining spawn-fail budget (tests flip this to
        let a tripped circuit's half-open probe succeed)."""
        with self._lock:
            self._spawn_fails_disabled = True


class FaultRuntime:
    """Worker-side enforcement of one :class:`WorkerFaultConfig`.

    Lives inside the forked worker's request loop; every decision draws
    from the config's seeded RNG (see the module docstring).
    """

    def __init__(self, config: WorkerFaultConfig) -> None:
        self.config = config
        self._rng = random.Random(config.token)
        self._rpcs_served = 0

    def before_command(self, cmd: str) -> Optional[str]:
        """Apply pre-dispatch faults for one received *cmd*.

        May never return (kill), may sleep (delay); returns ``"drop"``
        when the reply must be swallowed, else ``None``.
        """
        config = self.config
        self._rpcs_served += 1
        if config.kill_at is not None and self._rpcs_served >= config.kill_at:
            os._exit(KILL_EXIT_CODE)
        if config.kill_cmd is not None and cmd == config.kill_cmd:
            os._exit(KILL_EXIT_CODE)
        if config.kill_p and self._rng.random() < config.kill_p:
            os._exit(KILL_EXIT_CODE)
        if (
            config.delay_p
            and config.delay_ms
            and self._rng.random() < config.delay_p
        ):
            time.sleep(config.delay_ms / 1000.0)
        if config.drop_p and self._rng.random() < config.drop_p:
            return "drop"
        return None

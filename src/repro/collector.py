"""Hold CPython's cyclic collector off the acyclic data phases.

Row tuples, index bucket lists and seen-sets die by reference count, yet
every container allocated still counts toward the collector's thresholds
— so on loaded data a query pays for full collections that walk
millions of live objects and reclaim nothing. ``with paused():`` holds
*automatic* collection off while any thread is inside a scope; whatever
real garbage a phase deferred is reclaimed by the ordinary thresholds as
soon as the last scope exits. There is deliberately no knob (see
``docs/TUNING.md``, "Memory and the collector").

The scope is a guest in a process it does not own: it never enables a
collector its host disabled, it resets itself in a forked child, and
when serving threads overlap so that the depth never reaches zero, an
exiting thread that finds more than :data:`YOUNG_DEBT_LIMIT` young
objects runs one bounded ``gc.collect(1)`` itself.
"""

from __future__ import annotations

import gc
import os
import threading
from collections import deque
from time import perf_counter
from typing import Deque, Dict, Optional, Tuple

from repro.obs.metrics import get_registry

#: Young (generation-0) objects an exiting thread tolerates while other
#: threads keep the collector paused, before it collects them itself.
YOUNG_DEBT_LIMIT = 50_000

_lock = threading.Lock()
_local = threading.local()  # .nesting: this thread's scopes; .gc_seconds
_depth = 0  # threads currently inside a scope
_resume = False  # the collector was enabled when the depth left zero
_paused_at = 0.0
_generation = 0  # bumped in a forked child: scopes entered before it are void
_gc_started: Optional[float] = None
#: Finished collections not yet in the registry. The hook runs inside
#: the collector — possibly under the registry's own lock — so it only
#: appends here; scope exits publish. Bounded for a process that idles.
_collections: Deque[Tuple[int, float]] = deque(maxlen=4096)


class paused:
    """Re-entrant, thread-safe scope holding automatic collection off.

    Enter and exit on the same thread; nested scopes cost two attribute
    accesses. A scope entered before a ``fork`` is void in the child.
    """

    __slots__ = ("_generation",)

    def __enter__(self) -> "paused":
        global _depth, _resume, _paused_at
        self._generation = _generation
        nesting = getattr(_local, "nesting", 0)
        _local.nesting = nesting + 1
        if nesting:
            return self
        with _lock:
            if _depth == 0:
                if _on_gc not in gc.callbacks:
                    gc.callbacks.append(_on_gc)
                _resume = gc.isenabled()
                gc.disable()
                _paused_at = perf_counter()
            _depth += 1
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        global _depth
        if self._generation != _generation:
            return
        _local.nesting -= 1
        if _local.nesting:
            return
        with _lock:
            _depth -= 1
            last = _depth == 0
            if last:
                held = perf_counter() - _paused_at
                if _resume:
                    gc.enable()
        registry = get_registry()
        if last:
            registry.observe("repro.gc.paused.seconds", held)
        elif _resume and gc.get_count()[0] > YOUNG_DEBT_LIMIT:
            registry.inc("repro.gc.paused.forced_collections")
            gc.collect(1)
        while _collections:
            try:
                generation, seconds = _collections.popleft()
            except IndexError:  # another thread published it
                break
            registry.inc(f"repro.gc.collections.gen{generation}")
            registry.observe("repro.gc.seconds", seconds)


def depth() -> int:
    """How many threads are inside a :class:`paused` scope right now."""
    return _depth


def thread_gc_seconds() -> float:
    """Seconds the collector has run on the calling thread since the
    hook was installed (the first scope); a trace reads it twice."""
    return getattr(_local, "gc_seconds", 0.0)


def _on_gc(phase: str, info: Dict) -> None:
    """The one ``gc.callbacks`` hook: time every collection."""
    global _gc_started
    if phase == "start":
        _gc_started = perf_counter()
    elif _gc_started is not None:  # None: hooked between start and stop
        seconds = perf_counter() - _gc_started
        _gc_started = None
        _local.gc_seconds = thread_gc_seconds() + seconds
        _collections.append((info["generation"], seconds))


def _reset_in_child() -> None:
    """A forked child holds none of the parent's scopes: collector back
    on (if a scope turned it off), depth zero, nothing to publish."""
    global _local, _depth, _generation
    if _depth and _resume:
        gc.enable()
    _local = threading.local()
    _depth = 0
    _generation += 1
    _collections.clear()
    _lock.release()


# The lock is held across the fork so the child never sees a half-made
# transition (collector off, depth not yet counted).
os.register_at_fork(
    before=_lock.acquire,
    after_in_parent=_lock.release,
    after_in_child=_reset_in_child,
)

"""Interpreter-shutdown detection and the exit backstop for fork-happy
subsystems.

The process substrate forks shard workers, and its supervisors respawn
them from daemon threads. That is safe while the program runs, but
lethal during interpreter exit: a worker forked from
a daemon thread while atexit callbacks drain inherits a dying runtime
and exits immediately, its supervisor respawns it, and
``multiprocessing.util._exit_function`` — which joins live children
with **no timeout** — never sees the process table drain. The result is
an interpreter that prints its final line and then hangs forever in
``waitpid`` while daemon threads churn fresh processes underneath it.

The cure is a single process-wide latch. The exit backstop
(:func:`close_at_exit`, registered lazily at first use and after
``multiprocessing``'s own hook, so LIFO ordering runs it *first*) flips
it as its first action, then closes every object a caller forgot to;
every code path that would fork a new process checks it and refuses
instead of forking. Supervisors then fail their respawn attempts fast,
circuit breakers trip, and exit completes.
"""

from __future__ import annotations

import atexit
import itertools
import sys
import threading
import weakref

_exiting = False

#: Objects to close at exit, keyed by registration order (weak: a
#: collected object has already closed or leaked, and daemon flags
#: cover a leak).
_LIVE: "weakref.WeakValueDictionary[int, object]" = weakref.WeakValueDictionary()
_ORDER = itertools.count()
_REGISTER_LOCK = threading.Lock()
_registered = False


def mark_interpreter_exiting() -> None:
    """Latch shutdown: called by the exit backstop before teardown."""
    global _exiting
    _exiting = True


def interpreter_exiting() -> bool:
    """Whether forking a new process now would outlive the interpreter.

    True once the exit backstop has run, once CPython finalization has
    begun, or once the main thread has finished — from that point a
    daemon thread must shut down rather than spawn replacement work.
    """
    return (
        _exiting
        or sys.is_finalizing()
        or not threading.main_thread().is_alive()
    )


def close_at_exit(obj) -> None:
    """Have *obj* closed at interpreter exit unless it is collected
    first. ``close()`` must be idempotent: it may already have run."""
    global _registered
    with _REGISTER_LOCK:
        if not _registered:
            # Imported for its side effect: multiprocessing registers its
            # exit hook (which joins children untimed) on import, so ours,
            # registered after it, runs before it.
            import multiprocessing.util  # noqa: F401

            atexit.register(_close_live)
            _registered = True
        _LIVE[next(_ORDER)] = obj


def _close_live() -> None:
    """The exit backstop: latch shutdown, then close every live object
    newest-first."""
    mark_interpreter_exiting()
    for key in sorted(_LIVE.keys(), reverse=True):
        obj = _LIVE.get(key)
        if obj is None:
            continue
        try:
            obj.close()
        except Exception:  # pragma: no cover - best-effort teardown
            pass

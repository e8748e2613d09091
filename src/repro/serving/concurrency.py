"""Concurrency primitives for the serving layer.

Small, self-contained pieces used by
:meth:`repro.obda.system.OBDASystem.answer` and the write path; the
concurrency itself is the callers' threads (the HTTP edge runs each
request on its own):

* :class:`ReadWriteBarrier` — the reader/writer discipline between
  in-flight queries and the epoch-based write path: queries hold the
  shared side around their backend read, writes take the exclusive side,
  which **drains** every in-flight query before the backend, statistics
  and data epoch mutate (and admits no new query until done). Writer
  preference keeps a steady query stream from starving writes.
* :class:`QueryTimeoutError` — raised (or collected onto the query's
  report) when one query exceeds its deadline.
* :func:`deadline_scope` / :func:`current_deadline` — a contextvar
  carrying the query's **absolute** deadline down the call stack, so
  every wait below (a shard worker RPC) is capped at what is left of
  it, and :func:`check_deadline` — the
  check ``answer()`` makes between its stages.
"""

from __future__ import annotations

import contextvars
import threading
import time
from typing import Optional, Tuple


class QueryTimeoutError(RuntimeError):
    """A query missed its deadline: a bounded wait ran out, or a stage
    finished after it (see :func:`check_deadline`)."""

    def __init__(self, seconds: float) -> None:
        super().__init__(f"query exceeded its {seconds:g}s deadline")
        self.seconds = seconds


#: The active query deadline: ``(absolute monotonic expiry, budget
#: seconds)`` or ``None``. Contextvars do not flow into pool threads
#: automatically — the sharded backend reads it at ``execute`` entry
#: (the caller's thread) and runs each shard leg in a copy of the
#: caller's context.
_DEADLINE: "contextvars.ContextVar[Optional[Tuple[float, float]]]" = (
    contextvars.ContextVar("repro_query_deadline", default=None)
)


class deadline_scope:
    """Context manager marking the current context's query deadline.

    ``deadline_scope(None)`` is a no-op, so callers need not branch on
    whether a per-query timeout is configured. Scopes nest; the inner
    one wins for its duration (restored on exit).
    """

    __slots__ = ("_seconds", "_token")

    def __init__(self, seconds: Optional[float]) -> None:
        self._seconds = seconds
        self._token = None

    def __enter__(self) -> "deadline_scope":
        if self._seconds is not None:
            self._token = _DEADLINE.set(
                (time.monotonic() + self._seconds, self._seconds)
            )
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if self._token is not None:
            _DEADLINE.reset(self._token)


def current_deadline() -> Optional[Tuple[float, float]]:
    """The active ``(absolute monotonic expiry, budget seconds)``
    deadline, or ``None`` when the context has none."""
    return _DEADLINE.get()


def remaining_deadline() -> Optional[float]:
    """Seconds left on the active deadline (negative once blown);
    ``None`` when the context has none."""
    deadline = _DEADLINE.get()
    return None if deadline is None else deadline[0] - time.monotonic()


def check_deadline() -> None:
    """Raise :class:`QueryTimeoutError` when the active deadline has
    passed; a no-op without one. ``answer()`` calls it between stages,
    so a query whose stage ran past its deadline fails instead of
    answering late."""
    deadline = _DEADLINE.get()
    if deadline is not None and deadline[0] < time.monotonic():
        raise QueryTimeoutError(deadline[1])


class ReadWriteBarrier:
    """A writer-preference readers/writer lock.

    Any number of readers share the barrier; a writer is exclusive.
    A waiting writer blocks *new* readers (preference), then drains the
    in-flight ones — exactly the "writes take an exclusive barrier that
    drains in-flight queries" contract the write path needs so a query
    never observes a half-applied (backend ahead of statistics, epoch
    behind backend) write.
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._active_readers = 0
        self._active_writer = False
        self._waiting_writers = 0
        # Sections are stateless; preallocating spares the query hot
        # path one object construction per backend read.
        self._shared_section = self._Section(
            self.acquire_read, self.release_read
        )
        self._exclusive_section = self._Section(
            self.acquire_write, self.release_write
        )

    # -- reader side ---------------------------------------------------
    def acquire_read(self) -> None:
        """Enter the shared section (blocks while a writer is active or
        waiting)."""
        with self._condition:
            while self._active_writer or self._waiting_writers:
                self._condition.wait()
            self._active_readers += 1

    def release_read(self) -> None:
        """Leave the shared section."""
        with self._condition:
            self._active_readers -= 1
            if self._active_readers == 0:
                self._condition.notify_all()

    # -- writer side ---------------------------------------------------
    def acquire_write(self) -> None:
        """Enter the exclusive section: block new readers, drain current
        ones."""
        with self._condition:
            self._waiting_writers += 1
            try:
                while self._active_writer or self._active_readers:
                    self._condition.wait()
            finally:
                self._waiting_writers -= 1
            self._active_writer = True

    def release_write(self) -> None:
        """Leave the exclusive section."""
        with self._condition:
            self._active_writer = False
            self._condition.notify_all()

    # -- context-manager views ----------------------------------------
    class _Section:
        def __init__(self, acquire, release) -> None:
            self._acquire = acquire
            self._release = release

        def __enter__(self) -> None:
            self._acquire()

        def __exit__(self, exc_type, exc_value, traceback) -> None:
            self._release()

    def shared(self) -> "ReadWriteBarrier._Section":
        """``with barrier.shared():`` — a query's backend-read section."""
        return self._shared_section

    def exclusive(self) -> "ReadWriteBarrier._Section":
        """``with barrier.exclusive():`` — a write's mutation section."""
        return self._exclusive_section

"""A lightweight, thread- and fork-safe span API for per-query traces.

Design constraints, in order:

1. **Disabled tracing must be near-free.** The stack is instrumented
   unconditionally, so the off path has to cost next to nothing: every
   instrumentation point is either guarded by ``span.enabled`` (a plain
   attribute read on a singleton) or funnels through :data:`NO_SPAN`,
   whose methods are no-ops returning itself. No timestamps are taken,
   no dicts built, no context variables written when tracing is off —
   the contextvar simply keeps its :data:`NO_SPAN` default.
2. **One coherent tree per query.** A :class:`Tracer` is created per
   answered query; its root :class:`Span` owns the whole tree. Span ids
   are tracer-local integers, parents link children, and every span
   records start/end offsets on one monotonic clock (the tracer's
   ``perf_counter`` origin), so parent-child containment is checkable.
3. **Cross-thread and cross-process composition.** Context variables
   do not flow into pool threads by themselves: serving workers attach
   to the trace by *explicit parent hand-off* (the dispatching thread
   captures its span and workers call ``parent.child(...)``), and the
   sharded backend runs each fan-out leg in a copy of the caller's
   context. Spans are append-locked, so concurrent children are safe.
   Work done in a forked shard worker is traced by a worker-local
   tracer and shipped home as a plain dict (:meth:`Span.graft`) under
   the span active where the RPC was issued, marked
   ``clock: "worker"`` since a child process's monotonic clock is not
   comparable to the coordinator's.

The contextvar (:func:`current_span` / :func:`activate`) exists so
deep layers — the sharded backend, notably — can attach child spans
without every intermediate signature growing a ``span`` parameter.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
import time
from typing import Dict, Iterator, List, Optional

#: Environment knob: ``REPRO_TRACE=1`` turns tracing on for every
#: :class:`~repro.obda.system.OBDASystem` not given an explicit
#: ``trace=`` argument. Off by default.
TRACE_ENV = "REPRO_TRACE"

_TRUTHY = {"1", "true", "yes", "on"}


def trace_enabled_default() -> bool:
    """Whether ``REPRO_TRACE`` asks for tracing (unset/garbage = off)."""
    return os.environ.get(TRACE_ENV, "").strip().lower() in _TRUTHY


class _NoopSpan:
    """The disabled-path singleton: every operation is a no-op.

    ``enabled`` is ``False`` so instrumentation points that need more
    than a method call (timestamps, attribute dicts) can skip the work
    entirely with one attribute read.
    """

    __slots__ = ()

    enabled = False
    name = "noop"

    def child(self, name: str, **attributes) -> "_NoopSpan":
        """Return the no-op span itself (children of nothing are nothing)."""
        return self

    def set(self, **attributes) -> None:
        """Discard attributes."""

    def graft(self, subtree: Optional[Dict]) -> None:
        """Discard a shipped subtree."""

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        return None

    def to_dict(self) -> Dict:
        """An empty dict (the no-op span has nothing to report)."""
        return {}


#: The singleton every disabled instrumentation point sees.
NO_SPAN = _NoopSpan()

#: The active span of the current logical context. Defaults to
#: :data:`NO_SPAN`, so un-instrumented entry points cost readers one
#: contextvar get returning the no-op singleton.
_CURRENT: "contextvars.ContextVar[object]" = contextvars.ContextVar(
    "repro_obs_span", default=NO_SPAN
)


def current_span():
    """The span active in this context (:data:`NO_SPAN` when tracing is
    off or nothing activated one)."""
    return _CURRENT.get()


class activate:
    """Context manager making *span* the :func:`current_span`.

    With a disabled span this is a no-op that never touches the
    contextvar — the cheap off path.
    """

    __slots__ = ("_span", "_token")

    def __init__(self, span) -> None:
        self._span = span
        self._token = None

    def __enter__(self):
        if self._span.enabled:
            self._token = _CURRENT.set(self._span)
        return self._span

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None


class Span:
    """One timed section of a query trace.

    Use as a context manager (``with parent.child("translate") as s:``)
    or start/stop explicitly via :meth:`finish`. ``set`` attaches
    attributes; ``graft`` attaches a pre-built child subtree shipped
    from a worker process. All mutation is tracer-locked, so spans may
    gain children from several threads concurrently.
    """

    __slots__ = (
        "tracer",
        "name",
        "span_id",
        "parent_id",
        "start",
        "end",
        "attributes",
        "children",
        "error",
    )

    enabled = True

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: Optional[int],
        attributes: Optional[Dict] = None,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        #: Offsets in seconds relative to the tracer's clock origin.
        self.start = tracer.clock() - tracer.origin
        self.end: Optional[float] = None
        self.attributes: Dict = dict(attributes) if attributes else {}
        self.children: List[object] = []
        self.error: Optional[str] = None

    # ------------------------------------------------------------------
    def child(self, name: str, **attributes) -> "Span":
        """Open a child span (started now; close it to record its end)."""
        return self.tracer._span(name, parent=self, attributes=attributes)

    def set(self, **attributes) -> None:
        """Attach (or overwrite) attributes on this span."""
        self.attributes.update(attributes)

    def graft(self, subtree: Optional[Dict]) -> None:
        """Attach a span dict shipped from a forked worker as a child.

        The dict is **rehydrated** into real :class:`Span` objects with
        fresh tracer-local ids, so ``walk``/``spans``/``find`` stay
        uniform for consumers. Time offsets are kept as shipped — they
        are on the worker's clock (the worker marks its root
        ``clock: "worker"``), so durations are meaningful but start
        offsets are not comparable with coordinator spans. ``None`` /
        empty subtrees are ignored.
        """
        if subtree:
            with self.tracer._lock:
                self.children.append(self._rehydrate_locked(subtree, self))

    def _rehydrate_locked(self, node: Dict, parent: "Span") -> "Span":
        """Rebuild one shipped span dict (tracer lock held by caller)."""
        span = Span.__new__(Span)
        span.tracer = self.tracer
        span.name = node.get("name", "?")
        span.span_id = next(self.tracer._ids)
        span.parent_id = parent.span_id
        span.start = node.get("start_s", 0.0)
        span.end = span.start + node.get("duration_s", 0.0)
        span.attributes = dict(node.get("attributes") or {})
        span.error = node.get("error")
        span.children = [
            self._rehydrate_locked(child, span)
            for child in node.get("children") or []
        ]
        return span

    def finish(self) -> None:
        """Record the span's end time (idempotent)."""
        if self.end is None:
            self.end = self.tracer.clock() - self.tracer.origin

    @property
    def duration_seconds(self) -> float:
        """Elapsed seconds (to now, for a still-open span)."""
        end = self.end
        if end is None:
            end = self.tracer.clock() - self.tracer.origin
        return end - self.start

    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if exc_type is not None:
            self.error = f"{exc_type.__name__}: {exc_value}"
        self.finish()

    def to_dict(self) -> Dict:
        """This span and its subtree as plain JSON-able dicts."""
        out: Dict = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": round(self.start, 6),
            "duration_s": round(self.duration_seconds, 6),
        }
        if self.attributes:
            out["attributes"] = dict(self.attributes)
        if self.error is not None:
            out["error"] = self.error
        if self.children:
            out["children"] = [
                child if isinstance(child, dict) else child.to_dict()
                for child in self.children
            ]
        return out

    def walk(self) -> Iterator[object]:
        """Yield this span and every descendant (grafted dicts included)."""
        yield self
        for child in list(self.children):
            if isinstance(child, dict):
                yield child
            else:
                yield from child.walk()


class Tracer:
    """Builds one query's span tree on a single monotonic clock.

    A tracer is cheap (one lock, one counter) and single-use: create one
    per traced query, open the root with :meth:`root`, and read the
    finished tree through :class:`QueryTrace`. Thread-safe; fork-safe by
    construction (a forked worker builds its *own* tracer and ships the
    dict — tracers never cross process boundaries).
    """

    clock = staticmethod(time.perf_counter)

    def __init__(self) -> None:
        self.origin = self.clock()
        #: Wall-clock epoch seconds at the origin (for log correlation).
        self.started_at = time.time()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.root_span: Optional[Span] = None

    def _span(
        self, name: str, parent: Optional[Span], attributes: Optional[Dict]
    ) -> Span:
        with self._lock:
            span = Span(
                self,
                name,
                span_id=next(self._ids),
                parent_id=parent.span_id if parent is not None else None,
                attributes=attributes,
            )
            if parent is not None:
                parent.children.append(span)
        return span

    def root(self, name: str, **attributes) -> Span:
        """Open the trace's root span."""
        span = self._span(name, parent=None, attributes=attributes)
        self.root_span = span
        return span

    def trace(self) -> "QueryTrace":
        """The finished trace (call after the root span closed)."""
        return QueryTrace(self)


class QueryTrace:
    """One query's finished span tree, ready for reports and logs."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        #: Wall-clock epoch seconds when the trace began.
        self.started_at = tracer.started_at

    @property
    def root(self) -> Optional[Span]:
        """The root span (``None`` for a tracer that never opened one)."""
        return self._tracer.root_span

    @property
    def duration_seconds(self) -> float:
        """The root span's elapsed seconds (0.0 with no root)."""
        root = self.root
        return root.duration_seconds if root is not None else 0.0

    def spans(self) -> List[object]:
        """Every span in the tree, depth-first (grafted dicts included)."""
        root = self.root
        return list(root.walk()) if root is not None else []

    def find(self, name: str) -> List[object]:
        """All spans named *name* (live spans and grafted dicts alike)."""
        out = []
        for span in self.spans():
            span_name = span["name"] if isinstance(span, dict) else span.name
            if span_name == name:
                out.append(span)
        return out

    def to_dict(self) -> Dict:
        """The whole trace as one JSON-able dict."""
        root = self.root
        return {
            "started_at": self.started_at,
            "duration_s": round(self.duration_seconds, 6),
            "root": root.to_dict() if root is not None else None,
        }

    def render(self, indent: int = 2) -> str:
        """A human-readable indented rendering of the span tree."""
        lines: List[str] = []

        def visit(node, depth: int) -> None:
            if isinstance(node, dict):
                name = node.get("name", "?")
                duration = node.get("duration_s", 0.0)
                attributes = node.get("attributes", {})
                children = node.get("children", [])
            else:
                name = node.name
                duration = node.duration_seconds
                attributes = node.attributes
                children = node.children
            detail = ""
            if attributes:
                parts = ", ".join(
                    f"{key}={value}" for key, value in sorted(attributes.items())
                )
                detail = f"  [{parts}]"
            lines.append(
                f"{' ' * (indent * depth)}{name}  "
                f"({duration * 1000:.3f} ms){detail}"
            )
            for child in children:
                visit(child, depth + 1)

        root = self.root
        if root is not None:
            visit(root, 0)
        return "\n".join(lines)

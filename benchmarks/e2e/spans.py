"""Benchmark-side spans: what the traced pass records around each call
into a layer's public functions.

A span is ``{id, op, parent, name, start, end}``; ``op`` is the id of
the operation's root span, so spans of one operation share it. Spans
stay in memory until :meth:`Recorder.dump`. Names reuse the taxonomy of
``docs/OBSERVABILITY.md`` (``parse``, ``reformulate``, ``translate``,
``execute``, ``decode``) plus the write path's ``apply_changes``,
``stats_refresh``, ``sat_insert`` and ``sat_delete``.

The traced pass drives one operation at a time from one thread, so the
open-span stack is a plain list.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional


class Recorder:
    """In-memory span store with an open-span stack."""

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._open: List[Dict] = []
        self._gc_started: Optional[float] = None

    def watch_gc(self) -> None:
        """Charge every garbage collection that runs inside an open
        operation to that operation's root span: ``gc_ms`` (all
        generations) and ``gc_full`` (count of full collections). The
        time stays inside whichever layer span was open — the collector
        runs on that layer's allocations — so ``gc_ms`` overlaps the
        layer times, it does not add to them."""
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: Dict) -> None:
        if phase == "start":
            self._gc_started = perf_counter() if self._open else None
        elif self._gc_started is not None and self._open:
            root = self._open[0]
            root["gc_ms"] = root.get("gc_ms", 0.0) + (
                perf_counter() - self._gc_started
            ) * 1e3
            if info["generation"] == 2:
                root["gc_full"] = root.get("gc_full", 0) + 1

    @contextmanager
    def span(self, name: str, **attributes) -> Iterator[Dict]:
        """Record a span around the block, child of the innermost open one."""
        parent = self._open[-1] if self._open else None
        span = {
            "id": len(self.spans),
            "op": parent["op"] if parent else len(self.spans),
            "parent": parent["id"] if parent else None,
            "name": name,
            **attributes,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span["end"] = perf_counter()
            self._open.pop()

    def add(
        self, name: str, start: float, end: float, parent: Optional[Dict] = None
    ) -> Dict:
        """Record an already-measured interval, as a child of *parent*
        or as an operation of its own."""
        span = {
            "id": len(self.spans),
            "op": parent["op"] if parent else len(self.spans),
            "parent": parent["id"] if parent else None,
            "name": name,
            "start": start,
            "end": end,
        }
        self.spans.append(span)
        return span

    def wrap(
        self,
        owner: object,
        attribute: str,
        name: str,
        annotate: Optional[Callable[[Dict, object], None]] = None,
    ) -> None:
        """Shadow ``owner.attribute`` with an instance-level wrapper that
        records a span per call made inside an open operation (calls
        outside one pass straight through). *annotate* may copy counts
        from the call's result onto the span."""
        original = getattr(owner, attribute)

        def traced(*args, **kwargs):
            if not self._open:
                return original(*args, **kwargs)
            with self.span(name) as span:
                result = original(*args, **kwargs)
                if annotate is not None:
                    annotate(span, result)
                return result

        setattr(owner, attribute, traced)

    def last(self, name: str, op: int) -> Optional[Dict]:
        """The most recent span called *name* within operation *op*."""
        for span in reversed(self.spans):
            if span["op"] != op:
                return None
            if span["name"] == name:
                return span
        return None

    # -- analysis ------------------------------------------------------
    def self_ms(self) -> Dict[int, float]:
        """Self time per span id: its duration minus the part of that
        interval its children cover."""
        children: Dict[int, List[Dict]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)
        result = {}
        for span in self.spans:
            covered, edge = 0.0, span["start"]
            for child in sorted(
                children.get(span["id"], ()), key=lambda c: c["start"]
            ):
                start = max(child["start"], edge)
                end = min(child["end"], span["end"])
                if end > start:
                    covered += end - start
                    edge = end
            result[span["id"]] = (span["end"] - span["start"] - covered) * 1e3
        return result

    def per_operation(self) -> Dict[int, Dict[str, float]]:
        """``{op id: {span name: summed self ms}}``; the root's own self
        time is reported under ``"self"``."""
        self_ms = self.self_ms()
        operations: Dict[int, Dict[str, float]] = {}
        for span in self.spans:
            name = "self" if span["parent"] is None else span["name"]
            layers = operations.setdefault(span["op"], {})
            layers[name] = layers.get(name, 0.0) + self_ms[span["id"]]
        return operations

    def dump(self, path: Path, **header) -> None:
        """Write every span, times in ms relative to the first start."""
        origin = self.spans[0]["start"] if self.spans else 0.0
        self_ms = self.self_ms()
        spans = [
            {
                **span,
                "start": round((span["start"] - origin) * 1e3, 4),
                "end": round((span["end"] - origin) * 1e3, 4),
                "self_ms": round(self_ms[span["id"]], 4),
            }
            for span in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "spans": spans}) + "\n")

"""A process-wide registry of counters, gauges and bounded histograms.

The registry is the single home for the telemetry counters historically
scattered across ``ExecutionStats`` and ``shard_telemetry()`` — each
recorded under one **stable metric name** (the catalog lives in
``docs/OBSERVABILITY.md``). Names are dotted
(``repro.query.seconds``); the Prometheus dump rewrites dots to
underscores per the exposition format.

Three instrument kinds:

* **Counter** — a monotone float/int (``inc``).
* **Gauge** — a last-value-wins float (``set``).
* **Histogram** — a *bounded* histogram: observations land in a fixed
  set of cumulative-style buckets (so memory per histogram is constant
  regardless of traffic) while count/sum/min/max are exact;
  p50/p95/p99 are estimated from the bucket counts by linear
  interpolation. Default bucket bounds suit second-valued latencies and
  can be overridden per process with ``REPRO_HIST_BOUNDS`` (a
  comma-separated ascending list of upper bounds).

Aggregation: :meth:`MetricsRegistry.merge_snapshot` folds another
registry's :meth:`~MetricsRegistry.snapshot` in — counters and
histogram buckets add, gauges take the incoming value — which is how
the coordinator absorbs forked shard workers' registries (fetched over
the same one-RPC-per-child batching as ``statistics_many``).

Everything is thread-safe behind one lock; recording is a few dict
operations, cheap enough to stay **always on** (per query/statement,
never per row).
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

#: Environment knob: comma-separated ascending histogram bucket upper
#: bounds (seconds), overriding :data:`DEFAULT_BUCKET_BOUNDS` for every
#: histogram created afterwards in this process.
HIST_BOUNDS_ENV = "REPRO_HIST_BOUNDS"

#: Default histogram bucket upper bounds (seconds): microseconds to a
#: minute, roughly logarithmic. Observations above the last bound land
#: in the implicit +Inf bucket.
DEFAULT_BUCKET_BOUNDS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)


def histogram_bounds() -> Tuple[float, ...]:
    """The configured bucket bounds (``REPRO_HIST_BOUNDS`` or default)."""
    raw = os.environ.get(HIST_BOUNDS_ENV)
    if not raw:
        return DEFAULT_BUCKET_BOUNDS
    try:
        bounds = tuple(float(part) for part in raw.split(",") if part.strip())
    except ValueError:
        return DEFAULT_BUCKET_BOUNDS
    if not bounds or list(bounds) != sorted(bounds):
        return DEFAULT_BUCKET_BOUNDS
    return bounds


class Histogram:
    """A bounded histogram: fixed buckets, exact count/sum/min/max.

    Not thread-safe on its own — the owning registry's lock serializes
    access (one lock for the whole registry keeps the hot path at a
    single acquire).
    """

    __slots__ = ("bounds", "buckets", "count", "total", "min", "max")

    def __init__(self, bounds: Optional[Sequence[float]] = None) -> None:
        self.bounds: Tuple[float, ...] = tuple(
            bounds if bounds is not None else histogram_bounds()
        )
        #: ``buckets[i]`` counts observations ``<= bounds[i]``-exclusive
        #: of earlier buckets; ``buckets[-1]`` is the +Inf bucket.
        self.buckets: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the *q*-quantile (0..1) from the bucket counts.

        Linear interpolation within the target bucket, clamped by the
        exact min/max; ``None`` with no observations. The +Inf bucket
        reports the exact max (the best bounded information available).
        """
        if not self.count:
            return None
        target = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.buckets):
            if not bucket_count:
                continue
            if seen + bucket_count >= target:
                if index >= len(self.bounds):
                    return self.max
                hi = self.bounds[index]
                lo = self.bounds[index - 1] if index else 0.0
                fraction = (target - seen) / bucket_count
                estimate = lo + (hi - lo) * fraction
                if self.min is not None:
                    estimate = max(estimate, self.min)
                if self.max is not None:
                    estimate = min(estimate, self.max)
                return estimate
            seen += bucket_count
        return self.max  # pragma: no cover - arithmetic guard

    def to_dict(self) -> Dict:
        """JSON-able snapshot with estimated p50/p95/p99."""
        out: Dict = {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
        }
        for name, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
            estimate = self.quantile(q)
            out[name] = None if estimate is None else round(estimate, 6)
        return out

    def merge_dict(self, other: Dict) -> None:
        """Fold a snapshot produced by :meth:`to_dict` into this one.

        Bucket-compatible snapshots add bucket-wise; snapshots with
        different bounds degrade gracefully — their observations are
        re-observed at their estimated p50 (count-weighted), keeping
        count/sum exact and quantiles approximate.
        """
        if not other.get("count"):
            return
        if list(other.get("bounds", [])) == list(self.bounds):
            for index, bucket_count in enumerate(other["buckets"]):
                self.buckets[index] += bucket_count
        else:  # incompatible bounds: approximate placement
            midpoint = other.get("p50") or 0.0
            self.buckets[bisect_left(self.bounds, midpoint)] += other["count"]
        self.count += other["count"]
        self.total += other.get("sum", 0.0)
        for value in (other.get("min"), other.get("max")):
            if value is None:
                continue
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value


class MetricsRegistry:
    """Thread-safe named counters, gauges and histograms.

    One process-wide instance (:func:`get_registry`) backs the whole
    stack; forked shard workers each get their own (created post-fork,
    so nothing is double-counted) and ship snapshots home for
    :meth:`merge_snapshot`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1.0) -> None:
        """Add *amount* to counter *name* (created at zero on first use)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge *name* to *value* (last write wins)."""
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record *value* into histogram *name* (created on first use)."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
            histogram.observe(value)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def counter_value(self, name: str) -> float:
        """Current value of counter *name* (0.0 when never incremented)."""
        with self._lock:
            return self._counters.get(name, 0.0)

    def snapshot(self) -> Dict:
        """A JSON-able snapshot: counters, gauges, histogram summaries."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: histogram.to_dict()
                    for name, histogram in self._histograms.items()
                },
            }

    def merge_snapshot(self, snapshot: Optional[Dict]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and histograms add; gauges take the incoming value.
        ``None`` / empty snapshots are ignored (backends without a
        registry opt out by returning ``None``).
        """
        if not snapshot:
            return
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0.0) + value
            for name, value in snapshot.get("gauges", {}).items():
                self._gauges[name] = value
            for name, data in snapshot.get("histograms", {}).items():
                histogram = self._histograms.get(name)
                if histogram is None:
                    histogram = self._histograms[name] = Histogram(
                        bounds=data.get("bounds")
                    )
                histogram.merge_dict(data)

    def render_prometheus(self) -> str:
        """The registry as Prometheus text exposition format.

        Dots in metric names become underscores; histograms render as
        the conventional ``_bucket``/``_sum``/``_count`` series with
        cumulative ``le`` labels.
        """
        lines: List[str] = []
        snapshot = self.snapshot()
        for name in sorted(snapshot["counters"]):
            flat = _prometheus_name(name)
            lines.append(f"# TYPE {flat} counter")
            lines.append(f"{flat} {_format_value(snapshot['counters'][name])}")
        for name in sorted(snapshot["gauges"]):
            flat = _prometheus_name(name)
            lines.append(f"# TYPE {flat} gauge")
            lines.append(f"{flat} {_format_value(snapshot['gauges'][name])}")
        for name in sorted(snapshot["histograms"]):
            data = snapshot["histograms"][name]
            flat = _prometheus_name(name)
            lines.append(f"# TYPE {flat} histogram")
            cumulative = 0
            for bound, bucket_count in zip(data["bounds"], data["buckets"]):
                cumulative += bucket_count
                lines.append(
                    f'{flat}_bucket{{le="{_format_value(bound)}"}} {cumulative}'
                )
            lines.append(f'{flat}_bucket{{le="+Inf"}} {data["count"]}')
            lines.append(f"{flat}_sum {_format_value(data['sum'])}")
            lines.append(f"{flat}_count {data['count']}")
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Drop every instrument (tests and benchmark isolation)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


def _prometheus_name(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


#: The process-wide registry every component records into by default.
_REGISTRY = MetricsRegistry()
_REGISTRY_LOCK = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide :class:`MetricsRegistry`."""
    return _REGISTRY


def reset_registry() -> MetricsRegistry:
    """Replace the process-wide registry with a fresh one (tests).

    Components hold no reference to the old instance — they call
    :func:`get_registry` at each recording site — so a reset takes
    effect everywhere immediately.
    """
    global _REGISTRY
    with _REGISTRY_LOCK:
        _REGISTRY = MetricsRegistry()
    return _REGISTRY

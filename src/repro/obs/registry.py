"""Process-wide metrics registry: named counters, gauges and histograms.

The paper's experimental argument is carried entirely by *measured*
quantities — page I/Os, index sizes, modeled execution time — yet the seed
code-base accounted for them ad hoc: each :class:`~repro.storage.stats.IOCounter`
lived inside its own ``BufferPool`` and nothing aggregated across
structures, queries or processes.  This module centralizes that accounting:

* :class:`MetricsRegistry` holds named instruments (:class:`Counter`,
  :class:`Gauge`, :class:`Histogram`), each supporting label sets
  (``counter.inc(1, method="ba")``);
* a *pull* collector protocol adapts existing mutable stat holders without
  touching their hot increment paths — :class:`IOCounterCollector` wraps an
  ``IOCounter`` so ``BufferPool`` keeps doing plain ``counter.reads += 1``
  and the registry reads the totals at snapshot time (this is the adapter
  that replaces bespoke plumbing while keeping every existing caller
  working);
* a **no-op mode**: a disabled registry (``enabled=False`` or
  :func:`null_registry`) accepts the full API but records nothing, so
  instrumented library code pays one attribute check — or, for the shared
  null singleton, literally nothing — when observability is off.

The process-wide registry is obtained with :func:`get_registry`; it is
enabled by default because nothing hot pushes into it (hot-path accounting
stays in ``IOCounter`` and is only pulled).
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: A single collected measurement: (metric name, labels, value).
Sample = Tuple[str, Dict[str, str], float]

#: Callback returning samples at collection time (the pull protocol).
Collector = Callable[[], Iterable[Sample]]

#: Default histogram bucket upper bounds (unit-agnostic; callers pick units).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0
)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> _LabelKey:
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _format_labels(key: _LabelKey) -> str:
    if not key:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in key) + "}"


class Instrument:
    """Base class: a named metric owning one value cell per label set."""

    kind = "untyped"

    __slots__ = ("name", "help", "_registry", "_values")

    def __init__(self, name: str, help: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self.help = help
        self._registry = registry
        self._values: Dict[_LabelKey, float] = {}

    def value(self, **labels: str) -> float:
        """Current value for one label set (0 when never touched)."""
        return self._values.get(_label_key(labels), 0.0)

    def clear(self) -> None:
        """Drop every recorded value (the registry's :meth:`MetricsRegistry.reset`)."""
        self._values.clear()

    def samples(self) -> List[Sample]:
        """All (name, labels, value) cells of this instrument."""
        return [(self.name, dict(key), value) for key, value in sorted(self._values.items())]


class Counter(Instrument):
    """Monotonically increasing count (resettable only via the registry)."""

    kind = "counter"
    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (default 1) to the cell selected by ``labels``."""
        if not self._registry.enabled:
            return
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (got {amount})")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount


class Gauge(Instrument):
    """A value that can go up and down (buffer residency, tree height...)."""

    kind = "gauge"
    __slots__ = ()

    def set(self, value: float, **labels: str) -> None:
        """Overwrite the cell selected by ``labels``."""
        if not self._registry.enabled:
            return
        self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Adjust the cell by ``amount`` (may be negative)."""
        if not self._registry.enabled:
            return
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount


def estimate_percentile(
    bounds: Sequence[float],
    counts: Sequence[int],
    q: float,
    *,
    observed_min: Optional[float] = None,
    observed_max: Optional[float] = None,
) -> float:
    """Estimate the ``q``-th percentile from fixed-bucket histogram state.

    ``bounds`` are the sorted bucket upper bounds and ``counts`` the
    per-bucket observation counts with the ``+inf`` overflow as the final
    slot (``len(counts) == len(bounds) + 1``) — exactly the shape
    :meth:`Histogram.bucket_counts` returns.  The estimate interpolates
    linearly inside the bucket containing the target rank (the classic
    ``histogram_quantile`` scheme): the first bucket interpolates from 0,
    and ranks landing in the overflow bucket clamp to the largest finite
    bound (the histogram records nothing finer out there).

    The estimate is exact whenever the true value sits on a bucket
    boundary and is otherwise off by at most the containing bucket's
    width — which is why latency buckets should be chosen to taper with
    the SLO of interest.  Interpolation alone can land outside the data
    (a p99 above the largest observation); pass the series'
    ``observed_min``/``observed_max`` and the estimate is clamped to them,
    so a reported percentile never exceeds what was observed.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile q must be in [0, 1], got {q}")
    if len(counts) != len(bounds) + 1:
        raise ValueError(
            f"counts must have one overflow slot beyond bounds "
            f"({len(bounds) + 1} expected, got {len(counts)})"
        )
    total = sum(counts)
    if total <= 0:
        return 0.0
    estimate = _interpolate(bounds, counts, q * total)
    if observed_max is not None:
        estimate = min(estimate, float(observed_max))
    if observed_min is not None:
        estimate = max(estimate, float(observed_min))
    return estimate


def _interpolate(bounds: Sequence[float], counts: Sequence[int], rank: float) -> float:
    """Linear interpolation of ``rank`` inside its bucket (see above)."""
    cumulative = 0.0
    for i, count in enumerate(counts):
        if count <= 0:
            continue
        previous = cumulative
        cumulative += count
        if cumulative < rank:
            continue
        if i >= len(bounds):
            return float(bounds[-1]) if bounds else 0.0
        upper = float(bounds[i])
        lower = float(bounds[i - 1]) if i > 0 else 0.0
        if rank <= previous:
            return lower
        return lower + (upper - lower) * (rank - previous) / count
    return float(bounds[-1]) if bounds else 0.0


class Histogram(Instrument):
    """Bucketed distribution with sum and count, one series per label set."""

    kind = "histogram"
    __slots__ = ("buckets", "_series", "_extrema")

    def __init__(
        self,
        name: str,
        help: str,
        registry: "MetricsRegistry",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, registry)
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"histogram {name} buckets must be sorted and non-empty")
        self.buckets: Tuple[float, ...] = tuple(float(b) for b in buckets)
        #: label key -> [per-bucket counts..., +inf count]
        self._series: Dict[_LabelKey, List[int]] = {}
        #: label key -> [smallest, largest] observation (percentile clamp)
        self._extrema: Dict[_LabelKey, List[float]] = {}

    def observe(self, value: float, **labels: str) -> None:
        """Record one observation into the matching bucket."""
        if not self._registry.enabled:
            return
        key = _label_key(labels)
        value = float(value)
        series = self._series.get(key)
        if series is None:
            series = [0] * (len(self.buckets) + 1)
            self._series[key] = series
            self._extrema[key] = [value, value]
        else:
            extrema = self._extrema[key]
            if value < extrema[0]:
                extrema[0] = value
            elif value > extrema[1]:
                extrema[1] = value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                series[i] += 1
                break
        else:
            series[-1] += 1
        # _values doubles as the running sum; count is derived from buckets.
        self._values[key] = self._values.get(key, 0.0) + value

    def count(self, **labels: str) -> int:
        """Number of observations for one label set."""
        return sum(self._series.get(_label_key(labels), ()))

    def sum(self, **labels: str) -> float:
        """Sum of observations for one label set."""
        return self.value(**labels)

    def bucket_counts(self, **labels: str) -> List[int]:
        """Cumulative-free per-bucket counts (last slot is the +inf overflow)."""
        return list(self._series.get(_label_key(labels), [0] * (len(self.buckets) + 1)))

    def percentile(self, q: float, **labels: str) -> float:
        """Bucket-boundary estimate of the ``q``-th percentile (0 when empty).

        See :func:`estimate_percentile` for the interpolation contract; the
        error is bounded by the width of the bucket containing the rank,
        and the estimate is clamped to the series' observed min and max.
        """
        key = _label_key(labels)
        low, high = self._extrema.get(key, (None, None))
        return estimate_percentile(
            self.buckets,
            self.bucket_counts(**labels),
            q,
            observed_min=low,
            observed_max=high,
        )

    def clear(self) -> None:
        super().clear()
        self._series.clear()
        self._extrema.clear()

    def samples(self) -> List[Sample]:
        out: List[Sample] = []
        for key, series in sorted(self._series.items()):
            labels = dict(key)
            out.append((f"{self.name}_count", labels, float(sum(series))))
            out.append((f"{self.name}_sum", labels, self._values.get(key, 0.0)))
        return out


class MetricsRegistry:
    """A namespace of instruments plus pull-collectors.

    ``enabled=False`` builds a registry in no-op mode: instruments exist and
    accept the full API but record nothing.  The flag is dynamic —
    :meth:`enable`/:meth:`disable` flip recording for every instrument
    already handed out (each ``inc``/``set``/``observe`` checks it once).
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._instruments: Dict[str, Instrument] = {}
        self._collectors: List[Collector] = []

    # -- instrument construction ---------------------------------------------------

    def _register(self, cls, name: str, help: str, **kwargs) -> Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ValueError(f"metric {name!r} already registered as {existing.kind}")
                return existing
            instrument = cls(name, help, self, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the named counter (idempotent)."""
        return self._register(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the named gauge (idempotent)."""
        return self._register(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        """Get or create the named histogram (idempotent)."""
        return self._register(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> Optional[Instrument]:
        """The instrument registered under ``name``, or None."""
        return self._instruments.get(name)

    def names(self) -> List[str]:
        """Sorted names of every registered instrument."""
        return sorted(self._instruments)

    # -- pull protocol ----------------------------------------------------------------

    def register_collector(self, collector: Collector) -> Collector:
        """Add a pull callback contributing samples at collection time."""
        self._collectors.append(collector)
        return collector

    def unregister_collector(self, collector: Collector) -> None:
        """Remove a previously registered collector (no-op if absent)."""
        try:
            self._collectors.remove(collector)
        except ValueError:
            pass

    # -- output ------------------------------------------------------------------------

    def collect(self) -> List[Sample]:
        """Every sample: instrument cells plus collector pulls."""
        out: List[Sample] = []
        for name in sorted(self._instruments):
            out.extend(self._instruments[name].samples())
        for collector in self._collectors:
            out.extend(collector())
        return out

    def snapshot(self) -> Dict[str, float]:
        """Flat ``"name{labels}" -> value`` view (stable keys for JSON dumps)."""
        return {
            name + _format_labels(_label_key(labels)): value
            for name, labels, value in self.collect()
        }

    def render(self) -> str:
        """Text exposition: ``# HELP``/``# TYPE`` headers plus one line per cell."""
        lines: List[str] = []
        seen_instruments = set()
        for name, labels, value in self.collect():
            base = name
            for suffix in ("_count", "_sum"):
                if base.endswith(suffix) and base[: -len(suffix)] in self._instruments:
                    base = base[: -len(suffix)]
            instrument = self._instruments.get(base)
            if instrument is not None and base not in seen_instruments:
                seen_instruments.add(base)
                if instrument.help:
                    lines.append(f"# HELP {base} {instrument.help}")
                lines.append(f"# TYPE {base} {instrument.kind}")
            lines.append(f"{name}{_format_labels(_label_key(labels))} {value:g}")
        return "\n".join(lines)

    # -- lifecycle ----------------------------------------------------------------------

    def reset(self) -> None:
        """Zero every instrument (collectors pull live state and are untouched)."""
        for instrument in self._instruments.values():
            instrument.clear()

    def enable(self) -> None:
        """Turn recording on for every instrument of this registry."""
        self.enabled = True

    def disable(self) -> None:
        """No-op mode: instruments stay usable but record nothing."""
        self.enabled = False


class IOCounterCollector:
    """Adapter publishing a live :class:`~repro.storage.stats.IOCounter`.

    The counter's owners (``BufferPool``, ``PathBuffer``) keep incrementing
    plain attributes — zero new cost on the page-access hot path — and the
    registry pulls ``reads``/``writes``/``hits`` whenever it collects.
    """

    METRIC = "repro_io"

    def __init__(self, counter, **labels: str) -> None:
        self.counter = counter
        self.labels = {k: str(v) for k, v in labels.items()}

    def __call__(self) -> List[Sample]:
        c = self.counter
        return [
            (f"{self.METRIC}_reads", dict(self.labels), float(c.reads)),
            (f"{self.METRIC}_writes", dict(self.labels), float(c.writes)),
            (f"{self.METRIC}_hits", dict(self.labels), float(c.hits)),
            (f"{self.METRIC}_total", dict(self.labels), float(c.reads + c.writes)),
        ]


def watch_storage(storage, registry: Optional["MetricsRegistry"] = None, **labels: str):
    """Register pull-collectors for one ``StorageContext``.

    Publishes the context's I/O counter (via :class:`IOCounterCollector`)
    plus page-count and footprint gauges.  Returns the collectors so callers
    can :meth:`~MetricsRegistry.unregister_collector` them later.
    """
    registry = registry if registry is not None else get_registry()
    io_collector = registry.register_collector(IOCounterCollector(storage.counter, **labels))

    def pages() -> List[Sample]:
        return [
            ("repro_storage_pages", dict(io_collector.labels), float(storage.num_pages)),
            ("repro_storage_bytes", dict(io_collector.labels), float(storage.size_bytes)),
            (
                "repro_buffer_resident_pages",
                dict(io_collector.labels),
                float(storage.buffer.resident_pages),
            ),
        ]

    registry.register_collector(pages)
    return [io_collector, pages]


# -- process-wide registry ---------------------------------------------------------

_GLOBAL = MetricsRegistry(enabled=True)
_NULL = MetricsRegistry(enabled=False)


def get_registry() -> MetricsRegistry:
    """The process-wide registry (instrumented library code reports here)."""
    return _GLOBAL


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one (test support)."""
    global _GLOBAL
    previous = _GLOBAL
    _GLOBAL = registry
    return previous


def null_registry() -> MetricsRegistry:
    """The shared always-disabled registry (hand it to code you want silent)."""
    return _NULL

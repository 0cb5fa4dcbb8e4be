"""Latency collection and SLO reporting for the traffic driver.

Per-request latencies are recorded into **fixed-bucket histograms** keyed
by ``(phase, operation class)`` — constant memory no matter how long the
run, and percentile extraction with error bounded by the containing
bucket's width (the shared estimator in :mod:`repro.obs.registry`).  The
collector also mirrors every observation into a ``repro_loadgen_*``
histogram/counter family on a metrics registry, so a traffic run shows up
in the same exposition as the service's own instruments.

:class:`SLOReport` is the run's scorecard: per phase and op class the
count/shed/error tallies and p50/p95/p99/p999, per phase the offered load,
achieved throughput and shed rate, plus the cross-check and failover
tallies.  It serializes to a stable dict (the CI artifact) and renders as
a text table (the human half of the same artifact).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..obs.registry import MetricsRegistry, estimate_percentile, null_registry
from .profile import OP_CLASSES, TrafficProfile

#: Latency bucket upper bounds in milliseconds — tapered so the p99/p999
#: of a sub-millisecond service and a multi-second outage blip both land
#: in buckets narrow relative to their magnitude.
LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    0.05,
    0.1,
    0.2,
    0.5,
    1.0,
    2.0,
    5.0,
    10.0,
    20.0,
    50.0,
    100.0,
    200.0,
    500.0,
    1000.0,
    2000.0,
    5000.0,
)

#: Version of the serialized SLO report format.
SLO_REPORT_SCHEMA_VERSION = 1

#: The percentiles every SLO summary carries, as (label, q) pairs.
PERCENTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p95", 0.95),
    ("p99", 0.99),
    ("p999", 0.999),
)


class _Series:
    """One (phase, op) cell: fixed buckets plus count/sum/min/max and outcomes."""

    __slots__ = (
        "buckets",
        "count",
        "sheds",
        "errors",
        "partials",
        "bounded",
        "sum_ms",
        "min_ms",
        "max_ms",
    )

    def __init__(self) -> None:
        self.buckets = [0] * (len(LATENCY_BUCKETS_MS) + 1)
        self.count = 0
        self.sheds = 0
        self.errors = 0
        self.partials = 0
        self.bounded = 0
        self.sum_ms = 0.0
        self.min_ms = math.inf
        self.max_ms = 0.0

    def observe(self, latency_ms: float) -> None:
        self.count += 1
        self.sum_ms += latency_ms
        self.min_ms = min(self.min_ms, latency_ms)
        self.max_ms = max(self.max_ms, latency_ms)
        for i, bound in enumerate(LATENCY_BUCKETS_MS):
            if latency_ms <= bound:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    def percentile(self, q: float) -> float:
        return estimate_percentile(
            LATENCY_BUCKETS_MS,
            self.buckets,
            q,
            observed_min=self.min_ms,
            observed_max=self.max_ms,
        )

    def summary(self) -> Dict[str, float]:
        out: Dict[str, float] = {
            "count": float(self.count),
            "sheds": float(self.sheds),
            "errors": float(self.errors),
        }
        if self.partials:
            out["partials"] = float(self.partials)
        if self.bounded:
            out["bounded"] = float(self.bounded)
        if self.count:
            for label, q in PERCENTILES:
                out[f"{label}_ms"] = round(self.percentile(q), 4)
            out["mean_ms"] = round(self.sum_ms / self.count, 4)
            out["max_ms"] = round(self.max_ms, 4)
        return out


@dataclass
class SLOReport:
    """The scorecard of one traffic run (see module docstring)."""

    clock: str
    duration_s: float
    profile: Dict[str, Any]
    phases: Dict[str, Dict[str, Any]]
    totals: Dict[str, float]
    checks: Dict[str, float]
    resilience: Dict[str, float]
    extra: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": SLO_REPORT_SCHEMA_VERSION,
            "kind": "traffic-slo",
            "clock": self.clock,
            "duration_s": round(self.duration_s, 4),
            "profile": self.profile,
            "phases": self.phases,
            "totals": self.totals,
            "checks": self.checks,
            "resilience": self.resilience,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "SLOReport":
        """Rehydrate a report from its :meth:`to_dict` form (e.g. a CI artifact)."""
        return cls(
            clock=str(doc["clock"]),
            duration_s=float(doc["duration_s"]),
            profile=dict(doc["profile"]),
            phases=dict(doc["phases"]),
            totals=dict(doc["totals"]),
            checks=dict(doc["checks"]),
            resilience=dict(doc["resilience"]),
            extra=dict(doc.get("extra", {})),
        )

    def phase_op(self, phase: str, op: str) -> Dict[str, float]:
        """One (phase, op) summary cell ({} when that cell saw no traffic)."""
        return self.phases.get(phase, {}).get("ops", {}).get(op, {})

    def render(self) -> str:
        """Text render: one table per phase plus the run-level footer."""
        lines: List[str] = []
        lines.append(
            f"traffic SLO report [{self.clock} clock, "
            f"{self.totals['completed']:g} ops in {self.duration_s:.2f}s]"
        )
        header = (
            f"{'phase':<8} {'op':<7} {'count':>6} {'shed':>5} {'err':>4}"
            f" {'p50':>8} {'p95':>8} {'p99':>8} {'p999':>8} {'max':>8}  (ms)"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for phase_name, phase in self.phases.items():
            for op in OP_CLASSES:
                cell = phase.get("ops", {}).get(op)
                if not cell or not (cell.get("count") or cell.get("sheds")):
                    continue
                lines.append(
                    f"{phase_name:<8} {op:<7} {cell['count']:>6g} {cell['sheds']:>5g}"
                    f" {cell['errors']:>4g}"
                    f" {cell.get('p50_ms', 0.0):>8.3f} {cell.get('p95_ms', 0.0):>8.3f}"
                    f" {cell.get('p99_ms', 0.0):>8.3f} {cell.get('p999_ms', 0.0):>8.3f}"
                    f" {cell.get('max_ms', 0.0):>8.3f}"
                )
            lines.append(
                f"{phase_name:<8} [offered {phase['offered']:g}, "
                f"throughput {phase['throughput_ops_s']:.1f} ops/s, "
                f"shed rate {100.0 * phase['shed_rate']:.2f}%]"
            )
        lines.append(
            f"totals: offered {self.totals['offered']:g}, "
            f"completed {self.totals['completed']:g}, "
            f"shed {self.totals['sheds']:g}, errors {self.totals['errors']:g}, "
            f"throughput {self.totals['throughput_ops_s']:.1f} ops/s"
        )
        lines.append(
            f"checks: {self.checks['passed']:g}/{self.checks['sampled']:g} sampled "
            f"answers exact, {self.checks['failed']:g} failed"
        )
        lines.append(
            f"resilience: {self.resilience['failover_blips']:g} failover blip(s), "
            f"{self.resilience['unavailable']:g} unavailable, "
            f"{self.resilience['partial_answers']:g} partial answer(s), "
            f"{self.resilience.get('bounded_answers', 0.0):g} bounded answer(s)"
        )
        return "\n".join(lines)


class TrafficCollector:
    """Accumulates one run's outcomes; :meth:`report` freezes the scorecard."""

    def __init__(
        self,
        profile: TrafficProfile,
        clock: str,
        registry: Optional[MetricsRegistry] = None,
        label: str = "loadgen",
    ) -> None:
        self.profile = profile
        self.clock = clock
        self.label = label
        self._series: Dict[Tuple[str, str], _Series] = {}
        self._checks_sampled = 0
        self._checks_failed = 0
        registry = registry if registry is not None else null_registry()
        self._m_latency = registry.histogram(
            "repro_loadgen_latency_seconds",
            "per-request latency from scheduled arrival to completion",
            buckets=tuple(b / 1000.0 for b in LATENCY_BUCKETS_MS),
        )
        self._m_ops = registry.counter(
            "repro_loadgen_ops", "driver operations, by phase/op/outcome"
        )

    def _cell(self, phase: str, op: str) -> _Series:
        series = self._series.get((phase, op))
        if series is None:
            series = self._series[(phase, op)] = _Series()
        return series

    # -- recording -----------------------------------------------------------------

    def record_ok(
        self,
        phase: str,
        op: str,
        latency_ms: float,
        partial: bool = False,
        bounded: bool = False,
    ) -> None:
        cell = self._cell(phase, op)
        cell.observe(latency_ms)
        if partial:
            cell.partials += 1
        if bounded:
            cell.bounded += 1
        self._m_latency.observe(latency_ms / 1000.0, phase=phase, op=op, label=self.label)
        self._m_ops.inc(phase=phase, op=op, outcome="ok", label=self.label)

    def record_shed(self, phase: str, op: str) -> None:
        self._cell(phase, op).sheds += 1
        self._m_ops.inc(phase=phase, op=op, outcome="shed", label=self.label)

    def record_error(self, phase: str, op: str) -> None:
        self._cell(phase, op).errors += 1
        self._m_ops.inc(phase=phase, op=op, outcome="error", label=self.label)

    def record_check(self, ok: bool) -> None:
        self._checks_sampled += 1
        if not ok:
            self._checks_failed += 1

    # -- reporting -----------------------------------------------------------------

    def report(
        self,
        duration_s: float,
        failover_blips: float = 0.0,
        unavailable: float = 0.0,
        extra: Optional[Dict[str, Any]] = None,
    ) -> SLOReport:
        """Freeze the scorecard; ``duration_s`` is in the collector's clock."""
        phases: Dict[str, Dict[str, Any]] = {}
        totals = {"offered": 0.0, "completed": 0.0, "sheds": 0.0, "errors": 0.0}
        partials = 0.0
        bounded = 0.0
        for phase in self.profile.phases:
            ops: Dict[str, Dict[str, float]] = {}
            offered = completed = sheds = errors = 0.0
            for op in OP_CLASSES:
                series = self._series.get((phase.name, op))
                if series is None:
                    continue
                ops[op] = series.summary()
                offered += series.count + series.sheds + series.errors
                completed += series.count
                sheds += series.sheds
                errors += series.errors
                partials += series.partials
                bounded += series.bounded
            phases[phase.name] = {
                "duration_s": phase.duration_s,
                "ops": ops,
                "offered": offered,
                "completed": completed,
                "sheds": sheds,
                "throughput_ops_s": completed / phase.duration_s if phase.duration_s else 0.0,
                "shed_rate": sheds / offered if offered else 0.0,
            }
            totals["offered"] += offered
            totals["completed"] += completed
            totals["sheds"] += sheds
            totals["errors"] += errors
        totals["throughput_ops_s"] = (totals["completed"] / duration_s if duration_s > 0 else 0.0)
        return SLOReport(
            clock=self.clock,
            duration_s=duration_s,
            profile=self.profile.to_dict(),
            phases=phases,
            totals=totals,
            checks={
                "sampled": float(self._checks_sampled),
                "failed": float(self._checks_failed),
                "passed": float(self._checks_sampled - self._checks_failed),
            },
            resilience={
                "failover_blips": float(failover_blips),
                "unavailable": float(unavailable),
                "partial_answers": float(partials),
                "bounded_answers": float(bounded),
            },
            extra=dict(extra or {}),
        )


__all__ = [
    "LATENCY_BUCKETS_MS",
    "PERCENTILES",
    "SLO_REPORT_SCHEMA_VERSION",
    "SLOReport",
    "TrafficCollector",
]

"""Resilience experiment: what fault tolerance costs, measured.

Four deterministic costs (seeded chaos, sequential fan-out, simulated
disk — bit-stable across runs, so they gate in the smoke baseline):

* **replication write amplification** — page writes across every replica
  group member as a percentage of primary-only writes; synchronous
  K-replication costs ``~(1+K)×`` on the mutation path, and this measures
  the real multiplier through the page layer (bulk load + online inserts);
* **failover attempt overhead** — serve attempts as a percentage of
  successful serves under seeded primary chaos: how much extra work
  failover does to hide a flaky member (100 = no faults, 130 ≈ every
  third serve needed one retry);
* **breaker containment** — how many attempts a *dead* primary absorbs
  across a fixed workload before its circuit breaker stops routing to it;
  without a breaker this equals the workload size, with one it flattens to
  roughly ``min_requests`` plus the half-open probes;
* **degraded coverage** — with one shard of a kd-partitioned cluster down
  and ``partial_results`` opted in, the percentage of hotspot queries
  whose :class:`~repro.resilience.partial.PartialResult` answer is *not*
  provably exact (tainted by the dead shard's extent) — the observable
  blast radius of a single-shard outage.

One wall-clock experiment rides along for the CLI table only (never
gated): **hedged-read tail latency** — p50/p95 of a replicated group
serving with a delay-chaotic primary, with and without hedging.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from ..core.aggregator import BoxSumIndex
from ..obs import MetricsRegistry
from ..resilience import (
    BreakerConfig,
    ChaosPlan,
    FaultyQueryService,
    PartialResult,
    ReplicaGroup,
    ResilienceConfig,
    chaos_member_wrapper,
)
from ..service import QueryService
from ..shard import ShardedService
from ..workloads import clustered_boxes, hotspot_boxes
from .config import BenchConfig
from .report import banner, format_table

#: (metric, value, unit, note)
Row = Tuple[str, float, str, str]


def _storage_factory(cfg: BenchConfig):
    def factory(sid: int, member: int) -> BoxSumIndex:
        return BoxSumIndex(
            cfg.dims,
            backend="ba",
            page_size=cfg.page_size,
            buffer_pages=cfg.buffer_pages,
        )

    return factory


def _write_amplification(cfg: BenchConfig, objects, replicas: int = 1) -> float:
    """Member page writes as a percentage of primary-only page writes."""
    with ShardedService(
        cfg.dims,
        2,
        partitioner="kd",
        index_factory=_storage_factory(cfg),
        replicas=replicas,
        registry=MetricsRegistry(),
        label="bench-resilience-wamp",
    ) as cluster:
        cluster.bulk_load(objects)
        extra = clustered_boxes(
            max(16, cfg.queries), dims=cfg.dims, avg_side_fraction=0.02, seed=cfg.seed + 1
        )
        for box, value in extra:
            cluster.insert(box, value)
        primary_writes = 0
        total_writes = 0
        for group in cluster.groups:
            for mid, member in enumerate(group.members):
                writes = member.index.storage.counter.writes
                total_writes += writes
                if mid == 0:
                    primary_writes += writes
    return 100.0 * total_writes / primary_writes if primary_writes else 0.0


def _failover_overhead(cfg: BenchConfig, objects, queries) -> float:
    """Attempts per successful serve (as a pct) under seeded primary chaos."""
    with ShardedService(
        cfg.dims,
        2,
        partitioner="kd",
        replicas=1,
        registry=MetricsRegistry(),
        service_wrapper=chaos_member_wrapper(ChaosPlan(seed=cfg.seed, raise_rate=0.3)),
        resilience=ResilienceConfig(max_attempts=4, backoff_base_s=0.0, seed=cfg.seed),
        label="bench-resilience-failover",
    ) as cluster:
        cluster.bulk_load(objects)
        for query in queries:
            cluster.box_sum(query)
        attempts = sum(g["attempts"] for g in cluster.resilience_stats())
        failed = sum(g["failures"] + g["timeouts"] for g in cluster.resilience_stats())
    successes = attempts - failed
    return 100.0 * attempts / successes if successes else 0.0


def _breaker_containment(cfg: BenchConfig, objects, queries) -> float:
    """Attempts a dead primary absorbs across the workload, breaker on."""
    primaries: List[FaultyQueryService] = []

    def wrapper(service, sid: int, member: int):
        if member != 0:
            return service
        faulty = FaultyQueryService(service, ChaosPlan(raise_rate=1.0).with_seed(cfg.seed + sid))
        primaries.append(faulty)
        return faulty

    with ShardedService(
        cfg.dims,
        2,
        partitioner="kd",
        replicas=1,
        registry=MetricsRegistry(),
        service_wrapper=wrapper,
        resilience=ResilienceConfig(
            max_attempts=3,
            backoff_base_s=0.0,
            breaker=BreakerConfig(window=8, min_requests=4, cooldown_s=3600.0),
            seed=cfg.seed,
        ),
        label="bench-resilience-breaker",
    ) as cluster:
        cluster.bulk_load(objects)
        for query in queries:
            cluster.box_sum(query)
        # bulk_load counts once per primary; only serve-path calls matter.
        calls = sum(p.faults["raise"] for p in primaries)
    return float(calls)


def _degraded_coverage(cfg: BenchConfig, objects, queries) -> float:
    """Pct of hotspot queries a one-shard outage taints (not provably exact)."""

    def dead_wrapper(service, sid: int, member: int):
        if sid != 0:
            return service
        return FaultyQueryService(service, ChaosPlan(raise_rate=1.0).with_seed(cfg.seed + member))

    with ShardedService(
        cfg.dims,
        4,
        partitioner="kd",
        registry=MetricsRegistry(),
        service_wrapper=dead_wrapper,
        resilience=ResilienceConfig(
            max_attempts=2, backoff_base_s=0.0, partial_results=True, seed=cfg.seed
        ),
        label="bench-resilience-partial",
    ) as cluster:
        cluster.bulk_load(objects)
        outcome = cluster.batch(queries)
        if not isinstance(outcome, PartialResult):
            return 0.0  # the dead shard pruned everywhere: outage invisible
        tainted = len(queries) - len(outcome.exact_indices())
    return 100.0 * tainted / len(queries) if queries else 0.0


def _hedged_tail(cfg: BenchConfig, objects, queries) -> Tuple[float, float, float, float]:
    """(p50, p95) serve latency in ms without and with hedging (wall clock)."""

    def build_group(hedge: bool) -> ReplicaGroup:
        members = []
        for member in range(2):
            index = BoxSumIndex(cfg.dims, backend="ba")
            index.bulk_load(objects)
            service = QueryService(index, registry=MetricsRegistry())
            if member == 0:
                service = FaultyQueryService(
                    service,
                    ChaosPlan(seed=cfg.seed, delay_rate=0.3, delay_s=0.01),
                )
            members.append(service)
        return ReplicaGroup(
            0,
            members,
            config=ResilienceConfig(
                backoff_base_s=0.0,
                hedge_delay_s=0.002 if hedge else None,
                seed=cfg.seed,
            ),
            registry=MetricsRegistry(),
        )

    def percentile(samples: List[float], q: float) -> float:
        ordered = sorted(samples)
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]

    out: List[float] = []
    for hedge in (False, True):
        group = build_group(hedge)
        try:
            latencies = []
            for query in queries:
                start = time.perf_counter()
                group.box_sum(query)
                latencies.append(1000.0 * (time.perf_counter() - start))
        finally:
            group.close()
        out.append(percentile(latencies, 0.50))
        out.append(percentile(latencies, 0.95))
    return out[0], out[1], out[2], out[3]


def resilience_experiment(cfg: BenchConfig, verbose: bool = True) -> List[Row]:
    """Measure the four deterministic resilience costs plus the hedging tail."""
    objects = clustered_boxes(
        cfg.n, dims=cfg.dims, avg_side_fraction=cfg.avg_side_fraction, seed=cfg.seed
    )
    queries = hotspot_boxes(
        cfg.queries, qbs_fraction=0.01, dims=cfg.dims, hotspot=0.3, seed=cfg.seed
    )

    rows: List[Row] = [
        (
            "write_amplification_pct",
            round(_write_amplification(cfg, objects), 1),
            "%",
            "member page writes / primary-only (1 replica, sync fan-out)",
        ),
        (
            "failover_attempt_overhead_pct",
            round(_failover_overhead(cfg, objects, queries), 1),
            "%",
            "serve attempts / successes at 30% primary fault rate",
        ),
        (
            "breaker_dead_primary_attempts",
            _breaker_containment(cfg, objects, queries),
            "attempts",
            f"dead-primary probes over {len(queries)} queries (breaker on)",
        ),
        (
            "degraded_tainted_query_pct",
            round(_degraded_coverage(cfg, objects, queries), 1),
            "%",
            "hotspot queries not provably exact with 1/4 shards down",
        ),
    ]
    p50, p95, hp50, hp95 = _hedged_tail(cfg, objects, queries)
    rows.append(
        (
            "hedged_tail_p95_ms",
            round(hp95, 3),
            "ms",
            f"p50 {p50:.3f}->{hp50:.3f}, p95 {p95:.3f}->{hp95:.3f} (wall clock, not gated)",
        )
    )

    if verbose:
        print(banner(f"resilience: failure-handling costs (n={cfg.n}, d={cfg.dims})"))
        print(
            format_table(
                ["metric", "value", "unit", "note"],
                [(name, value, unit, note) for name, value, unit, note in rows],
            )
        )
    return rows


def resilience_smoke_metrics(cfg: BenchConfig, verbose: bool = False) -> Dict[str, float]:
    """Lower-is-better gate metrics for the smoke slice.

    Only the deterministic rows are exported — the wall-clock hedging tail
    stays out of the gate (timing noise would flake CI).
    """
    rows = resilience_experiment(cfg, verbose=verbose)
    deterministic = {
        "write_amplification_pct",
        "failover_attempt_overhead_pct",
        "breaker_dead_primary_attempts",
        "degraded_tainted_query_pct",
    }
    return {
        f"resilience.{name}": float(value)
        for name, value, _unit, _note in rows
        if name in deterministic
    }

"""Crash-loop detection: exhausted repairs quarantine, never thrash."""

from __future__ import annotations

from repro.bench.heal import VirtualClock
from repro.core.aggregator import BoxSumIndex
from repro.heal import HealPolicy, HealSupervisor
from repro.heal.model import QUARANTINED
from repro.obs import MetricsRegistry
from repro.resilience import BreakerConfig, CrashableService, ResilienceConfig
from repro.resilience.breaker import FORCED_OPEN
from repro.service import QueryService
from repro.shard import ShardedService


class _Unrevivable(CrashableService):
    """A worker whose respawn always fails — the crash-loop case."""

    def restart(self) -> int:
        raise RuntimeError("respawn denied by the scheduler")


def _cluster(tmp_path, wrapper, *, replog=True, registry=None):
    kwargs = {}
    if replog:
        kwargs["replog_dir"] = str(tmp_path / "logs")
    return ShardedService(
        2,
        1,
        partitioner="hash",
        replicas=2,
        registry=registry if registry is not None else MetricsRegistry(),
        resilience=ResilienceConfig(
            max_attempts=4,
            backoff_base_s=0.0,
            breaker=BreakerConfig(window=8, min_requests=4, cooldown_s=0.0),
            seed=0,
        ),
        service_wrapper=wrapper,
        **kwargs,
    )


def _supervisor(cluster, registry, **overrides):
    clock = VirtualClock()
    kwargs = dict(
        tick_interval_s=0.01,
        audit_every_ticks=1,
        audit_probes=4,
        backoff_base_s=0.0,
        max_repair_attempts=3,
        failure_window_s=1000.0,
        auto_start=False,
    )
    kwargs.update(overrides)
    supervisor = HealSupervisor(
        cluster, HealPolicy(**kwargs), registry=registry, clock=clock, sleep=clock.sleep
    )
    return supervisor, clock


def _unrevivable_wrapper(registry, broken):
    def make_fresh():
        return QueryService(BoxSumIndex(2, backend="ba"), registry=registry)

    def wrapper(service, sid, member):
        if member == 1:
            crashable = _Unrevivable(make_fresh, initial=service)
            broken.append(crashable)
            return crashable
        return service

    return wrapper


class TestCrashLoop:
    def test_exhausted_repairs_quarantine_not_thrash(self, tmp_path):
        registry = MetricsRegistry()
        broken = []
        wrapper = _unrevivable_wrapper(registry, broken)
        with _cluster(tmp_path, wrapper, registry=registry) as cluster:
            supervisor, clock = _supervisor(cluster, registry)
            broken[0].kill()
            for _ in range(3):
                supervisor.tick()
                clock.sleep(0.01)
            stats = supervisor.stats()
            assert stats["repairs_failed"] == 3
            assert stats["quarantines"] == 1
            assert supervisor.quarantined() == ((0, 1),)
            health = {(c.shard, c.member): c for c in supervisor.health()}
            component = health[(0, 1)]
            assert component.state == QUARANTINED
            assert "crash loop" in component.reason
            assert cluster.groups[0].breakers[1].state == FORCED_OPEN
            # Quarantine tolerates convergence but not full health.
            assert supervisor.converged
            assert not supervisor.fully_healthy
            # Further ticks never touch the quarantined member again.
            for _ in range(5):
                supervisor.tick()
                clock.sleep(0.01)
            after = supervisor.stats()
            assert after["repairs_failed"] == 3
            assert after["quarantines"] == 1

    def test_backoff_spaces_repair_attempts(self, tmp_path):
        registry = MetricsRegistry()
        broken = []
        wrapper = _unrevivable_wrapper(registry, broken)
        with _cluster(tmp_path, wrapper, registry=registry) as cluster:
            supervisor, clock = _supervisor(
                cluster,
                registry,
                backoff_base_s=10.0,
                backoff_max_s=60.0,
                backoff_jitter=0.0,
                max_repair_attempts=5,
            )
            broken[0].kill()
            supervisor.tick()
            # Within the backoff horizon: detection fires, repair waits.
            supervisor.tick()
            supervisor.tick()
            assert supervisor.stats()["repairs_failed"] == 1
            clock.sleep(10.0)
            supervisor.tick()
            assert supervisor.stats()["repairs_failed"] == 2

    def test_unrepairable_member_quarantines_immediately(self, tmp_path):
        # No replication log: there is nothing to restore a crashed member
        # from, so the repair raises NotSupportedError and retrying is
        # pointless — one tick, straight to quarantine.
        registry = MetricsRegistry()
        broken = []
        wrapper = _unrevivable_wrapper(registry, broken)
        with _cluster(tmp_path, wrapper, replog=False, registry=registry) as cluster:
            supervisor, _ = _supervisor(cluster, registry)
            broken[0].kill()
            events = supervisor.tick()
            assert any(e.kind == "quarantined" for e in events)
            stats = supervisor.stats()
            assert stats["quarantines"] == 1
            assert stats["repairs_failed"] == 0
            component = {(c.shard, c.member): c for c in supervisor.health()}[(0, 1)]
            assert component.state == QUARANTINED
            assert "repair impossible" in component.reason

    def test_replace_quarantined_bootstraps_a_new_member(self, tmp_path):
        registry = MetricsRegistry()
        broken = []
        wrapper = _unrevivable_wrapper(registry, broken)
        with _cluster(tmp_path, wrapper, registry=registry) as cluster:
            supervisor, clock = _supervisor(cluster, registry, replace_quarantined=True)
            group = cluster.groups[0]
            members_before = len(group.members)
            broken[0].kill()
            for _ in range(4):
                supervisor.tick()
                clock.sleep(0.01)
            assert supervisor.stats()["quarantines"] == 1
            assert supervisor.stats()["members_added"] == 1
            assert len(group.members) == members_before + 1
            assert any(e.kind == "member_added" for e in supervisor.events())

"""Tests for the load generator: determinism, shedding, SLO reports, chaos."""

from __future__ import annotations

import json

import pytest

from repro.loadgen import (
    LoadGenerator,
    OpMix,
    Phase,
    SLOReport,
    TrafficProfile,
    smoke_profile,
)
from repro.obs import MetricsRegistry
from repro.resilience import ChaosPlan, ResilienceConfig, chaos_member_wrapper
from repro.shard import ShardedService
from repro.workloads import uniform_boxes


def _mini_profile(seed=7, **overrides):
    """A sub-second profile: every phase shape, deliberately tiny."""
    defaults = dict(
        seed=seed,
        phases=(
            Phase("warmup", duration_s=0.2, rate=60.0),
            Phase("steady", duration_s=0.5, rate=200.0),
            Phase("burst", duration_s=0.2, rate=2500.0),
            Phase("ramp", duration_s=0.3, rate=100.0, rate_end=400.0),
        ),
        tenants=4,
        pool_size=6,
        batch_size=4,
        check_fraction=0.25,
    )
    defaults.update(overrides)
    return TrafficProfile(**defaults)


def _cluster(**kwargs):
    kwargs.setdefault("max_inflight", 1)
    kwargs.setdefault("max_queue", 2)
    return ShardedService(
        2,
        4,
        partitioner="kd",
        registry=MetricsRegistry(),
        label="test-loadgen",
        **kwargs,
    )


def _run_virtual(profile, n_objects=300, seed=3, **cluster_kwargs):
    objects = uniform_boxes(n_objects, dims=2, seed=seed)
    with _cluster(**cluster_kwargs) as cluster:
        cluster.bulk_load(objects)
        generator = LoadGenerator(cluster, profile, initial_objects=objects)
        return generator.run(mode="virtual")


class TestVirtualDeterminism:
    def test_two_runs_on_fresh_clusters_are_bit_identical(self):
        docs = []
        for _ in range(2):
            report = _run_virtual(_mini_profile())
            docs.append(json.dumps(report.to_dict(), sort_keys=True))
        assert docs[0] == docs[1]

    def test_seed_changes_the_stream(self):
        a = _run_virtual(_mini_profile(seed=1))
        b = _run_virtual(_mini_profile(seed=2))
        assert a.extra["scheduled"] != b.extra["scheduled"]


class TestShedding:
    def test_overload_sheds_without_wrong_answers(self):
        # The burst phase offers ~2500 ops/s against a gate whose virtual
        # capacity (1 server, 2-deep queue, >=1ms per op) is far lower:
        # sheds must happen, answers must all stay exact, no errors.
        report = _run_virtual(_mini_profile())
        assert report.totals["sheds"] > 0
        assert report.totals["errors"] == 0
        assert report.checks["sampled"] > 0
        assert report.checks["failed"] == 0

    def test_sheds_concentrate_in_the_burst_phase(self):
        report = _run_virtual(_mini_profile())
        burst = report.phases["burst"]
        assert burst["sheds"] > 0
        assert burst["shed_rate"] > report.phases["warmup"]["shed_rate"]

    def test_only_query_classes_shed(self):
        report = _run_virtual(_mini_profile())
        for phase in report.phases.values():
            for op in ("insert", "delete"):
                cell = phase["ops"].get(op)
                if cell:
                    assert cell["sheds"] == 0

    def test_ample_capacity_sheds_nothing(self):
        calm = _mini_profile(phases=(Phase("steady", duration_s=0.5, rate=50.0),))
        report = _run_virtual(calm, max_inflight=8, max_queue=64)
        assert report.totals["sheds"] == 0
        assert report.checks["failed"] == 0


class TestSLOReportShape:
    def test_report_distinguishes_phases_and_op_classes(self):
        profile = _mini_profile()
        report = _run_virtual(profile)
        assert set(report.phases) == {p.name for p in profile.phases}
        steady_ops = report.phases["steady"]["ops"]
        assert {"point", "batch", "insert", "delete"} <= set(steady_ops)
        cell = report.phase_op("steady", "point")
        for key in ("p50_ms", "p95_ms", "p99_ms", "p999_ms", "mean_ms", "max_ms"):
            assert key in cell
        assert cell["p50_ms"] <= cell["p95_ms"] <= cell["p99_ms"] <= cell["p999_ms"]

    def test_totals_and_throughput_are_consistent(self):
        report = _run_virtual(_mini_profile())
        totals = report.totals
        assert totals["offered"] == pytest.approx(
            totals["completed"] + totals["sheds"] + totals["errors"]
        )
        assert totals["throughput_ops_s"] == pytest.approx(totals["completed"] / report.duration_s)

    def test_render_mentions_every_phase_and_checks(self):
        report = _run_virtual(_mini_profile())
        text = report.render()
        for name in ("warmup", "steady", "burst", "ramp"):
            assert name in text
        assert "sampled" in text and "failover" in text

    def test_to_dict_round_trips_through_from_dict(self):
        report = _run_virtual(_mini_profile())
        clone = SLOReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert clone.to_dict() == report.to_dict()

    def test_probe_totals_are_exported(self):
        report = _run_virtual(_mini_profile())
        probes = report.extra["probes"]
        assert probes["unique"] > 0
        assert probes["executed"] > 0


class TestChaosTraffic:
    def test_chaos_reports_blips_and_zero_wrong_answers(self):
        profile = _mini_profile()
        objects = uniform_boxes(200, dims=2, seed=5)
        with _cluster(
            replicas=1,
            service_wrapper=chaos_member_wrapper(ChaosPlan(seed=11, raise_rate=0.3)),
            resilience=ResilienceConfig(max_attempts=4, backoff_base_s=0.0, seed=11),
        ) as cluster:
            cluster.bulk_load(objects)
            generator = LoadGenerator(cluster, profile, initial_objects=objects)
            report = generator.run(mode="virtual")
        assert report.resilience["failover_blips"] > 0
        assert report.checks["sampled"] > 0
        assert report.checks["failed"] == 0
        assert report.totals["errors"] == 0


class TestWallClock:
    def test_wall_run_completes_and_verifies(self):
        # Keep it short: a 0.3s wall-clock run still exercises the open-loop
        # dispatcher, the real admission gate and the post-drain verifier.
        profile = TrafficProfile(
            seed=7,
            phases=(
                Phase("steady", duration_s=0.2, rate=150.0),
                Phase("burst", duration_s=0.1, rate=800.0),
            ),
            tenants=3,
            pool_size=4,
            batch_size=3,
            check_fraction=0.5,
        )
        objects = uniform_boxes(150, dims=2, seed=9)
        with _cluster(max_inflight=2, max_queue=8) as cluster:
            cluster.bulk_load(objects)
            generator = LoadGenerator(cluster, profile, initial_objects=objects)
            report = generator.run(mode="wall", max_workers=8)
        assert report.clock == "wall"
        assert report.totals["completed"] > 0
        assert report.checks["failed"] == 0

    def test_unknown_mode_is_rejected(self):
        objects = uniform_boxes(20, dims=2, seed=1)
        with _cluster() as cluster:
            cluster.bulk_load(objects)
            generator = LoadGenerator(cluster, _mini_profile(), initial_objects=objects)
            with pytest.raises(ValueError):
                generator.run(mode="simulated")

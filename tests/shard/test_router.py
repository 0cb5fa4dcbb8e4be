"""Tests for the scatter-gather router and its extent shortcuts."""

from __future__ import annotations

import threading

import pytest

from repro.core.geometry import Box
from repro.shard import ShardedService
from repro.shard.router import _NEEDED, _COVERED, _PRUNED, _classify, _probe_bounds

from ..conftest import random_box


def _cluster(dims=2, shards=2, **kwargs):
    from repro.obs import MetricsRegistry

    kwargs.setdefault("partitioner", "roundrobin")
    kwargs.setdefault("registry", MetricsRegistry())
    return ShardedService(dims, shards, **kwargs)


class TestProbeClassification:
    EXTENT = Box((10.0, 20.0), (30.0, 40.0))

    def test_corner_key_uses_extent_verbatim(self):
        low, high = _probe_bounds((0, 1), self.EXTENT)
        assert low == (10.0, 20.0)
        assert high == (30.0, 40.0)

    def test_eo82_key_negates_high_side(self):
        # EO82 stores -coordinate for HIGH-side dimensions, so the stored
        # range of dim 1 (HIGH) is [-high, -low].
        key = ((0, 1), (0, 1))  # dims subset (0,1); sides LOW, HIGH
        low, high = _probe_bounds(key, self.EXTENT)
        assert low == (10.0, -40.0)
        assert high == (30.0, -20.0)

    def test_probe_below_extent_is_pruned(self):
        probe = ((0, 0), (5.0, 5.0))
        assert _classify(probe, self.EXTENT) == _PRUNED

    def test_probe_above_extent_is_covered(self):
        probe = ((0, 0), (50.0, 50.0))
        assert _classify(probe, self.EXTENT) == _COVERED

    def test_probe_inside_extent_is_needed(self):
        probe = ((0, 0), (20.0, 30.0))
        assert _classify(probe, self.EXTENT) == _NEEDED

    def test_partial_dominance_is_needed_not_covered(self):
        # Above in one dim, inside in the other: must be executed.
        probe = ((0, 0), (50.0, 30.0))
        assert _classify(probe, self.EXTENT) == _NEEDED

    def test_missing_extent_is_conservatively_needed(self):
        # No extent means no pruning evidence: the probe must be executed.
        assert _classify(((0, 0), (5.0, 5.0)), None) == _NEEDED


class TestScatterShortcuts:
    def _loaded_cluster(self):
        cluster = _cluster()
        objects = [
            (Box((float(i), float(i)), (float(i) + 1.0, float(i) + 1.0)), 2.0)
            for i in range(10, 20)
        ]
        cluster.bulk_load(objects)
        return cluster

    def test_disjoint_query_contacts_no_corner_shard(self):
        with self._loaded_cluster() as cluster:
            result = cluster.batch([Box((-10.0, -10.0), (-5.0, -5.0))])
            assert result.results == [0.0]
            assert result.shards_contacted == 0
            assert result.probes_pruned > 0
            assert result.probes_executed == 0

    def test_covering_query_answers_from_totals(self):
        with self._loaded_cluster() as cluster:
            result = cluster.batch([Box((0.0, 0.0), (100.0, 100.0))])
            assert result.results == [20.0]

    def test_fanout_between_zero_and_one(self):
        with self._loaded_cluster() as cluster:
            result = cluster.batch(
                [Box((12.0, 12.0), (14.0, 14.0)), Box((-9.0, -9.0), (-8.0, -8.0))]
            )
            assert 0.0 <= result.fanout <= 1.0
            assert result.shards_total == 2

    def test_duplicate_queries_share_probes(self):
        with self._loaded_cluster() as cluster:
            query = Box((12.0, 12.0), (16.0, 16.0))
            single = cluster.batch([query])
            double = cluster.batch([query, query])
            assert double.probes_unique == single.probes_unique
            assert double.results[0] == double.results[1] == single.results[0]

    def test_eo82_contacts_every_shard_for_totals(self):
        with _cluster(reduction="eo82") as cluster:
            objects = [
                (Box((float(i), float(i)), (float(i) + 1.0, float(i) + 1.0)), 1.0)
                for i in range(10, 18)
            ]
            cluster.bulk_load(objects)
            # Even a fully disjoint query needs each shard's grand total to
            # seed the EO82 complement, so no shard can be skipped.
            result = cluster.batch([Box((-10.0, -10.0), (-5.0, -5.0))])
            assert result.results == [0.0]
            assert result.shards_contacted == cluster.num_shards

    def test_epochs_reported_per_shard(self):
        with self._loaded_cluster() as cluster:
            cluster.insert(Box((11.0, 11.0), (12.0, 12.0)), 1.0)
            result = cluster.batch([Box((10.0, 10.0), (20.0, 20.0))])
            epochs = cluster.epochs()
            assert set(result.shard_epochs) == set(range(cluster.num_shards))
            for sid, epoch in result.shard_epochs.items():
                assert epoch == epochs[sid]


class TestThreadedScatter:
    @pytest.mark.parametrize("workers", [None, "process"])
    def test_workers_do_not_change_answers(self, rng, workers):
        objects = [(random_box(rng, 2), float(rng.randint(1, 9))) for _ in range(80)]
        queries = [random_box(rng, 2, max_side=50.0) for _ in range(12)]
        with _cluster(partitioner="kd") as reference:
            reference.bulk_load(objects)
            expect = reference.box_sum_batch(queries)
        with _cluster(partitioner="kd", workers=workers) as cluster:
            cluster.bulk_load(objects)
            assert cluster.box_sum_batch(queries) == expect

    def test_in_process_scatter_starts_no_threads(self, rng):
        objects = [(random_box(rng, 2), float(rng.randint(1, 9))) for _ in range(80)]
        queries = [random_box(rng, 2, max_side=50.0) for _ in range(12)]
        before = set(threading.enumerate())
        with _cluster(shards=4, partitioner="kd") as cluster:
            cluster.bulk_load(objects)
            result = cluster.batch(queries)
            started = [t.name for t in threading.enumerate() if t not in before]
        assert result.shards_contacted > 1
        assert started == []

    @pytest.mark.parametrize("workers", [0, 2, "thread"])
    def test_other_worker_values_are_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            _cluster(workers=workers)


class TestMonolithicFallback:
    def test_object_backend_routes_through_batch(self, rng):
        objects = [(random_box(rng, 2), float(rng.randint(1, 9))) for _ in range(60)]
        queries = [random_box(rng, 2, max_side=60.0) for _ in range(8)]
        with _cluster(backend="ar") as cluster:
            cluster.bulk_load(objects)
            from repro.core.naive import NaiveBoxSum

            oracle = NaiveBoxSum(2)
            for box, value in objects:
                oracle.insert(box, value)
            got = cluster.box_sum_batch(queries)
            for answer, query in zip(got, queries):
                assert answer == pytest.approx(oracle.box_sum(query), abs=1e-6)

"""Tests for the sharded service: routing, ledger, rebalancing, lifecycle."""

from __future__ import annotations

import pytest

from repro.core.errors import ServiceClosedError
from repro.core.geometry import Box
from repro.core.naive import NaiveBoxSum
from repro.inspect import dump
from repro.obs import MetricsRegistry
from repro.shard import ShardedService

from ..conftest import random_box


def _cluster(dims=2, shards=3, **kwargs):
    kwargs.setdefault("partitioner", "hash")
    kwargs.setdefault("registry", MetricsRegistry())
    return ShardedService(dims, shards, **kwargs)


def _exact_objects(rng, n, dims=2):
    return [(random_box(rng, dims), float(rng.randint(1, 9))) for _ in range(n)]


class TestMutationRouting:
    def test_insert_returns_shard_and_counts(self, rng):
        with _cluster() as cluster:
            sids = [cluster.insert(random_box(rng, 2), 1.0) for _ in range(30)]
            assert all(0 <= sid < 3 for sid in sids)
            assert cluster.num_objects == 30
            assert sum(cluster.object_counts()) == 30

    def test_delete_routes_to_owning_shard(self, rng):
        with _cluster() as cluster:
            box = random_box(rng, 2)
            sid = cluster.insert(box, 4.0)
            assert cluster.delete(box, 4.0) == sid
            assert cluster.num_objects == 0
            assert cluster.box_sum(Box((-1000.0, -1000.0), (1000.0, 1000.0))) == 0.0

    def test_delete_after_rebalance_finds_migrated_owner(self, rng):
        with _cluster(partitioner="kd") as cluster:
            objects = _exact_objects(rng, 60)
            cluster.bulk_load(objects)
            cluster.rebalance()
            for box, value in objects:
                cluster.delete(box, value)
            assert cluster.num_objects == 0
            assert cluster.box_sum(Box((-1000.0, -1000.0), (1000.0, 1000.0))) == 0.0

    def test_bulk_load_fits_partitioner_and_balances(self, rng):
        with _cluster(partitioner="kd", shards=4) as cluster:
            per_shard = cluster.bulk_load(_exact_objects(rng, 200))
            assert sum(per_shard) == 200
            assert cluster.imbalance < 1.5

    def test_extents_cover_inserted_objects(self, rng):
        with _cluster() as cluster:
            boxes = [random_box(rng, 2) for _ in range(40)]
            sids = [cluster.insert(box) for box in boxes]
            extents = cluster.extents()
            for box, sid in zip(boxes, sids):
                extent = extents[sid]
                assert all(extent.low[d] <= box.low[d] for d in range(2))
                assert all(extent.high[d] >= box.high[d] for d in range(2))


class TestRebalance:
    def _skewed_cluster(self, rng):
        # Everything hashes wherever it wants, then one shard gets a pile
        # of extra objects through direct inserts in a tight region.
        cluster = _cluster(partitioner="kd", shards=2)
        cluster.bulk_load(_exact_objects(rng, 40))
        return cluster

    def test_rebalance_reduces_imbalance(self, rng):
        with self._skewed_cluster(rng) as cluster:
            counts = cluster.object_counts()
            if max(counts) - min(counts) <= 1:
                # kd fit already balanced: force skew through inserts.
                for _ in range(30):
                    cluster.insert(Box((0.0, 0.0), (1.0, 1.0)), 1.0)
            before = max(cluster.object_counts()) - min(cluster.object_counts())
            report = cluster.rebalance()
            after = max(cluster.object_counts()) - min(cluster.object_counts())
            assert report.strategy in ("split", "ledger", "noop")
            if report.strategy != "noop":
                assert report.moved > 0
                assert after < before
            assert sum(cluster.object_counts()) == cluster.num_objects

    def test_rebalance_preserves_answers(self, rng):
        oracle = NaiveBoxSum(2)
        with self._skewed_cluster(rng) as cluster:
            for _ in range(25):
                box = random_box(rng, 2, max_side=5.0)
                cluster.insert(box, 2.0)
            # Rebuild the oracle from scratch via a fresh query of record.
            queries = [random_box(rng, 2, max_side=60.0) for _ in range(10)]
            before = cluster.box_sum_batch(queries)
            cluster.rebalance()
            assert cluster.box_sum_batch(queries) == before

    def test_noop_when_already_balanced(self):
        with _cluster(shards=2) as cluster:
            cluster.insert(Box((0.0, 0.0), (1.0, 1.0)))
            report = cluster.rebalance()
            assert report.strategy == "noop"
            assert report.moved == 0
            assert report.imbalance >= 1.0

    def test_rebalance_counted_in_stats(self, rng):
        with self._skewed_cluster(rng) as cluster:
            cluster.rebalance()
            stats = cluster.stats()
            assert stats["rebalances"] == 1
            assert stats["migrated"] >= 0


class TestStatsAndInspect:
    def test_stats_shape(self, rng):
        with _cluster() as cluster:
            cluster.bulk_load(_exact_objects(rng, 20))
            cluster.box_sum_batch([random_box(rng, 2) for _ in range(3)])
            stats = cluster.stats()
            assert stats["shards"] == 3
            assert stats["objects_total"] == 20
            assert stats["batches"] == 1
            assert stats["queries"] == 3
            assert stats["partitioner"] == "hash"
            assert len(stats["epochs"]) == 3
            assert stats["inflight"] == 0

    def test_shard_stats_one_entry_per_shard(self, rng):
        with _cluster() as cluster:
            cluster.bulk_load(_exact_objects(rng, 20))
            per_shard = cluster.shard_stats()
            assert len(per_shard) == 3
            assert all("epoch" in entry for entry in per_shard)

    def test_dump_renders_cluster(self, rng):
        with _cluster(partitioner="kd") as cluster:
            cluster.bulk_load(_exact_objects(rng, 30))
            text = dump(cluster)
            assert "shards=3" in text
            assert "partitioner=kd" in text
            assert "imbalance" in text
            for sid in range(3):
                assert f"shard {sid}" in text

    def test_shard_map_exposed_and_serializable(self, rng):
        with _cluster(partitioner="kd") as cluster:
            cluster.bulk_load(_exact_objects(rng, 50))
            payload = cluster.shard_map.to_dict()
            assert payload["partitioner"] == "kd"
            assert payload["num_shards"] == 3


class TestLifecycle:
    def test_close_is_idempotent_and_rejects_work(self, rng):
        cluster = _cluster()
        cluster.insert(random_box(rng, 2))
        cluster.close()
        cluster.close()
        assert cluster.closed
        with pytest.raises(ServiceClosedError):
            cluster.batch([random_box(rng, 2)])
        with pytest.raises(ServiceClosedError):
            cluster.insert(random_box(rng, 2))
        with pytest.raises(ServiceClosedError):
            cluster.rebalance()

    def test_context_manager_closes(self, rng):
        with _cluster() as cluster:
            cluster.insert(random_box(rng, 2))
        assert cluster.closed
        assert all(service.closed for service in cluster.services)

    def test_shard_count_validation(self):
        from repro.core.errors import ShardError

        with pytest.raises((ValueError, ShardError)):
            _cluster(shards=0)

"""Tests for partitioners and the serializable shard map."""

from __future__ import annotations

import json

import pytest

from repro.core.errors import ShardMapError
from repro.core.geometry import Box
from repro.shard import (
    HashPartitioner,
    KdMedianPartitioner,
    RoundRobinPartitioner,
    ShardMap,
    make_shard_map,
)

from ..conftest import random_box


class TestRoundRobin:
    def test_cycles_through_all_shards(self):
        part = RoundRobinPartitioner(3)
        box = Box((0, 0), (1, 1))
        assert [part.assign(box) for _ in range(7)] == [0, 1, 2, 0, 1, 2, 0]

    def test_cursor_survives_serialization(self):
        part = RoundRobinPartitioner(3)
        box = Box((0, 0), (1, 1))
        part.assign(box)
        restored = ShardMap.from_dict(ShardMap(part).to_dict())
        assert restored.assign(box) == 1  # continues where the cursor stopped


class TestHash:
    def test_deterministic_and_in_range(self, rng):
        part = HashPartitioner(4)
        for _ in range(100):
            box = random_box(rng, 2)
            sid = part.assign(box)
            assert 0 <= sid < 4
            assert part.assign(box) == sid

    def test_spreads_over_all_shards(self, rng):
        part = HashPartitioner(4)
        hit = {part.assign(random_box(rng, 2)) for _ in range(200)}
        assert hit == {0, 1, 2, 3}


class TestKdMedian:
    def test_unfitted_routes_everything_to_shard_zero(self, rng):
        part = KdMedianPartitioner(4)
        assert all(part.assign(random_box(rng, 2)) == 0 for _ in range(20))

    def test_fit_balances_counts(self, rng):
        part = KdMedianPartitioner(4)
        boxes = [random_box(rng, 2) for _ in range(400)]
        part.fit(boxes)
        counts = [0] * 4
        for box in boxes:
            counts[part.assign(box)] += 1
        assert sum(counts) == 400
        assert max(counts) / (sum(counts) / 4) < 1.5

    def test_fit_uses_every_shard(self, rng):
        part = KdMedianPartitioner(8)
        boxes = [random_box(rng, 3) for _ in range(256)]
        part.fit(boxes)
        assert {part.assign(box) for box in boxes} == set(range(8))

    def test_degenerate_sample_stays_single_leaf(self):
        part = KdMedianPartitioner(4)
        same = Box((5, 5), (6, 6))
        part.fit([same] * 50)
        assert part.assign(same) == 0

    def test_rebalance_splits_hot_region(self, rng):
        part = KdMedianPartitioner(2)
        boxes = [random_box(rng, 2) for _ in range(100)]
        part.fit(boxes)
        hot = [box for box in boxes if part.assign(box) == 0]
        assert part.rebalance(0, 1, [box.center() for box in hot])
        moved = [box for box in hot if part.assign(box) == 1]
        assert moved  # part of the old region now routes to the cold shard
        assert len(moved) < len(hot)

    def test_rebalance_declines_degenerate_centers(self):
        part = KdMedianPartitioner(2)
        assert not part.rebalance(0, 1, [(1.0, 1.0)] * 10)
        assert not part.rebalance(0, 1, [])

    def test_serialization_round_trip_preserves_assignment(self, rng):
        part = KdMedianPartitioner(4)
        boxes = [random_box(rng, 2) for _ in range(200)]
        part.fit(boxes)
        payload = json.loads(json.dumps(ShardMap(part).to_dict()))
        restored = ShardMap.from_dict(payload)
        for box in boxes:
            assert restored.assign(box) == part.assign(box)


class TestShardMap:
    def test_rejects_unknown_version(self):
        with pytest.raises(ShardMapError):
            ShardMap.from_dict({"version": 99, "partitioner": "hash", "num_shards": 2})

    def test_rejects_unknown_partitioner(self):
        with pytest.raises(ShardMapError):
            ShardMap.from_dict({"version": 1, "partitioner": "nope", "num_shards": 2, "state": {}})

    def test_rejects_kd_leaf_out_of_range(self):
        with pytest.raises(ShardMapError):
            ShardMap.from_dict(
                {
                    "version": 1,
                    "partitioner": "kd",
                    "num_shards": 2,
                    "state": {"tree": {"shard": 5}},
                }
            )

    def test_make_shard_map_rejects_shard_count_mismatch(self):
        with pytest.raises(ShardMapError):
            make_shard_map(HashPartitioner(2), 4)


class TestReplicatedShardMap:
    """Schema v2: the map carries the replication factor (one integer is the
    whole topology — every member of a group holds the same objects)."""

    def test_replicas_round_trip(self):
        payload = json.loads(json.dumps(ShardMap(HashPartitioner(3), replicas=2).to_dict()))
        assert payload["version"] == 2
        assert payload["replicas"] == 2
        restored = ShardMap.from_dict(payload)
        assert restored.replicas == 2
        assert restored.num_shards == 3

    def test_v1_payloads_still_load_as_unreplicated(self):
        payload = ShardMap(HashPartitioner(3)).to_dict()
        payload["version"] = 1
        payload.pop("replicas")
        restored = ShardMap.from_dict(payload)
        assert restored.replicas == 0

    def test_negative_replicas_rejected(self):
        with pytest.raises(ShardMapError):
            ShardMap(HashPartitioner(2), replicas=-1)
        payload = ShardMap(HashPartitioner(2)).to_dict()
        payload["replicas"] = -3
        with pytest.raises(ShardMapError):
            ShardMap.from_dict(payload)

    def test_make_shard_map_conflicting_replicas_rejected(self):
        existing = ShardMap(HashPartitioner(2), replicas=1)
        with pytest.raises(ShardMapError):
            make_shard_map(existing, 2, replicas=2)
        # A zero-replica map accepts the caller's factor; matching is a no-op.
        assert make_shard_map(ShardMap(HashPartitioner(2)), 2, replicas=2).replicas == 2
        assert make_shard_map(existing, 2, replicas=1).replicas == 1

    def test_restored_map_drives_a_replicated_cluster(self):
        from repro.obs import MetricsRegistry
        from repro.shard import ShardedService

        payload = ShardMap(HashPartitioner(2), replicas=1).to_dict()
        with ShardedService(
            2,
            2,
            partitioner=ShardMap.from_dict(payload),
            registry=MetricsRegistry(),
        ) as cluster:
            assert cluster.replicas == 1
            assert len(cluster.groups) == 2
            assert all(g.num_members == 2 for g in cluster.groups)

    def test_make_shard_map_accepts_name_instance_and_map(self):
        assert make_shard_map("hash", 3).num_shards == 3
        assert make_shard_map(HashPartitioner(3), 3).name == "hash"
        existing = ShardMap(KdMedianPartitioner(3))
        assert make_shard_map(existing, 3) is existing

    def test_zero_shards_rejected(self):
        with pytest.raises(ShardMapError):
            RoundRobinPartitioner(0)

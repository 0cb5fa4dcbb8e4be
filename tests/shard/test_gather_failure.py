"""Regression: a shard exception mid-gather must leak nothing.

A shard blowing up inside the scatter (inline on the caller's thread, or on
the fan-out pool that process workers get) has to propagate out of
``ShardedService.box_sum`` as-is — and the cluster must remain fully usable
afterwards: no stuck admission slot, no leaked cluster read lock (a
rebalance, which needs the write lock, is the canary), no wedged executor.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.core.aggregator import BoxSumIndex
from repro.core.geometry import Box
from repro.obs import MetricsRegistry
from repro.shard import ShardedService

from ..conftest import random_box

#: Covers the whole workload span: every shard extent intersects it, so the
#: router must contact every shard (no extent pruning saves the victim).
WIDE = Box((0.0, 0.0), (120.0, 120.0))


def _exact_objects(rng, n, dims=2):
    return [(random_box(rng, dims), float(rng.randint(1, 9))) for _ in range(n)]


def _assert_cluster_recovers(cluster, reference, rng, dims=2):
    """Post-failure invariants: slots free, locks free, answers exact."""
    assert cluster.stats()["inflight"] == 0
    # Mutations need the cluster read lock.
    box, value = random_box(rng, dims), float(rng.randint(1, 9))
    reference.insert(box, value)
    cluster.insert(box, value)
    # Rebalance needs the cluster *write* lock: it deadlocks if any reader
    # leaked.  Run it on a side thread so a regression fails, not hangs.
    done = threading.Event()
    worker = threading.Thread(target=lambda: (cluster.rebalance(), done.set()))
    worker.start()
    worker.join(timeout=20.0)
    assert done.is_set(), "rebalance deadlocked: a cluster lock leaked"
    queries = [random_box(rng, dims, max_side=60.0) for _ in range(8)]
    assert cluster.box_sum_batch(queries) == [reference.box_sum(q) for q in queries]


@pytest.mark.parametrize("workers", [None, "process"])
def test_probe_path_exception_propagates_cleanly(workers):
    rng = random.Random(0xFA11)
    reference = BoxSumIndex(2, backend="ba")
    with ShardedService(
        2, 3, partitioner="kd", workers=workers, registry=MetricsRegistry()
    ) as cluster:
        objects = _exact_objects(rng, 60)
        reference.bulk_load(objects)
        cluster.bulk_load(objects)

        victim = cluster.services[1]
        original = victim.resolve_probe_values

        def boom(identities):
            raise RuntimeError("shard 1 exploded mid-gather")

        victim.resolve_probe_values = boom
        try:
            for _ in range(3):  # repeated failures must not accumulate leaks
                with pytest.raises(RuntimeError, match="exploded mid-gather"):
                    cluster.box_sum(WIDE)
        finally:
            victim.resolve_probe_values = original
        _assert_cluster_recovers(cluster, reference, rng)


@pytest.mark.parametrize("workers", [None, "process"])
def test_monolithic_path_exception_propagates_cleanly(workers):
    """Same contract on the object-backend (no probe seam) gather."""
    rng = random.Random(0xFA12)
    reference = BoxSumIndex(2, backend="ar")
    with ShardedService(
        2, 3, backend="ar", partitioner="kd", workers=workers, registry=MetricsRegistry()
    ) as cluster:
        objects = _exact_objects(rng, 60)
        reference.bulk_load(objects)
        cluster.bulk_load(objects)

        victim = cluster.services[1]
        original = victim.batch

        def boom(queries):
            raise RuntimeError("shard 1 exploded mid-gather")

        victim.batch = boom
        try:
            with pytest.raises(RuntimeError, match="exploded mid-gather"):
                cluster.box_sum(WIDE)
        finally:
            victim.batch = original
        _assert_cluster_recovers(cluster, reference, rng)


def test_shard_admission_slot_is_released_on_gather_failure():
    """The *victim shard's* own gate must not leak either: the exception is
    raised before admission (here), or its finally releases the slot."""
    rng = random.Random(0xFA13)
    with ShardedService(2, 2, partitioner="kd", registry=MetricsRegistry()) as cluster:
        cluster.bulk_load(_exact_objects(rng, 40))
        victim = cluster.services[0]
        original = victim.index.probe_value

        def corrupt(key, point):
            raise RuntimeError("probe blew up under the shard read lock")

        # Corners strictly inside the extents: the victim gets *needed*
        # probes (a full-space query would classify as covered/pruned and
        # never reach probe_value).
        mid = Box((20.0, 20.0), (70.0, 70.0))
        victim.index.probe_value = corrupt
        try:
            for _ in range(3):
                with pytest.raises(RuntimeError, match="probe blew up"):
                    cluster.box_sum(mid)
        finally:
            victim.index.probe_value = original
        assert victim.stats()["inflight"] == 0.0
        assert cluster.stats()["inflight"] == 0
        # The shard still serves and mutates: nothing under its RW lock leaked.
        victim.insert(random_box(rng, 2), 1.0)
        cluster.box_sum(random_box(rng, 2))

"""Sharded-vs-unsharded equivalence across every index family.

The routed scatter-gather is bit-identical to one unsharded index because
dominance sums are additive over any disjoint partition of the objects and
the router reassembles positive and negative terms in the same order as a
direct evaluation.  Weights are exact small integers so float addition
cannot smuggle in rounding differences — the assertions below use ``==``,
not ``approx``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.aggregator import BoxSumIndex
from repro.obs import MetricsRegistry
from repro.shard import ShardedService

from ..conftest import random_box

FAMILIES = ["ba", "ecdf-bu", "ecdf-bq", "bptree", "ar"]
PARTITIONERS = ["roundrobin", "hash", "kd"]


def _dims(backend: str) -> int:
    return 1 if backend == "bptree" else 2


def _exact_objects(rng, n, dims):
    return [(random_box(rng, dims), float(rng.randint(1, 9))) for _ in range(n)]


def _pair(backend: str, reduction: str, partitioner: str, shards: int = 3):
    dims = _dims(backend)
    reference = BoxSumIndex(dims, backend=backend, reduction=reduction)
    cluster = ShardedService(
        dims,
        shards,
        backend=backend,
        reduction=reduction,
        partitioner=partitioner,
        registry=MetricsRegistry(),
    )
    return reference, cluster, dims


@pytest.mark.parametrize("partitioner", PARTITIONERS)
@pytest.mark.parametrize("backend", FAMILIES)
def test_bulk_loaded_batch_is_bit_identical(backend, partitioner):
    rng = random.Random(f"{backend}-{partitioner}")
    reference, cluster, dims = _pair(backend, "corner", partitioner)
    with cluster:
        objects = _exact_objects(rng, 90, dims)
        reference.bulk_load(objects)
        cluster.bulk_load(objects)
        queries = [random_box(rng, dims, max_side=60.0) for _ in range(25)]
        assert cluster.box_sum_batch(queries) == [reference.box_sum(q) for q in queries]


@pytest.mark.parametrize("partitioner", PARTITIONERS)
@pytest.mark.parametrize("backend", FAMILIES)
def test_interleaved_mutations_and_rebalance_stay_bit_identical(backend, partitioner):
    """Satellite acceptance: inserts, deletes and rebalances interleaved
    with query batches, every answer equal to the unsharded index's."""
    rng = random.Random(f"{backend}-{partitioner}-mut")
    reference, cluster, dims = _pair(backend, "corner", partitioner)

    def check(n_queries=8):
        queries = [random_box(rng, dims, max_side=60.0) for _ in range(n_queries)]
        assert cluster.box_sum_batch(queries) == [reference.box_sum(q) for q in queries]

    with cluster:
        seed = _exact_objects(rng, 60, dims)
        reference.bulk_load(seed)
        cluster.bulk_load(seed)
        live = list(seed)
        check()
        for round_no in range(3):
            for _ in range(10):
                box, value = random_box(rng, dims), float(rng.randint(1, 9))
                reference.insert(box, value)
                cluster.insert(box, value)
                live.append((box, value))
            check()
            for _ in range(6):
                box, value = live.pop(rng.randrange(len(live)))
                reference.delete(box, value)
                cluster.delete(box, value)
            check()
            cluster.rebalance()
            check()
        assert cluster.num_objects == len(live)


@pytest.mark.parametrize("partitioner", PARTITIONERS)
def test_eo82_reduction_is_bit_identical(partitioner):
    rng = random.Random(f"eo82-{partitioner}")
    reference, cluster, dims = _pair("ba", "eo82", partitioner)
    with cluster:
        objects = _exact_objects(rng, 80, dims)
        reference.bulk_load(objects)
        cluster.bulk_load(objects)
        for _ in range(10):
            box, value = random_box(rng, dims), float(rng.randint(1, 9))
            reference.insert(box, value)
            cluster.insert(box, value)
        cluster.rebalance()
        queries = [random_box(rng, dims, max_side=60.0) for _ in range(20)]
        assert cluster.box_sum_batch(queries) == [reference.box_sum(q) for q in queries]


def test_single_shard_degenerates_to_unsharded():
    rng = random.Random(0x51)
    reference, cluster, dims = _pair("ba", "corner", "roundrobin", shards=1)
    with cluster:
        objects = _exact_objects(rng, 50, dims)
        reference.bulk_load(objects)
        cluster.bulk_load(objects)
        queries = [random_box(rng, dims, max_side=60.0) for _ in range(15)]
        assert cluster.box_sum_batch(queries) == [reference.box_sum(q) for q in queries]

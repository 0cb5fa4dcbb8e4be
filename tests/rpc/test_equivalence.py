"""Process-transport equivalence: bit-identical across every index family.

The satellite acceptance: ``ShardedService(workers="process")`` is a
config flip — same partitioner, same scatter-gather, same computation
order — so its answers must equal an unsharded index's with ``==``, not
``approx``, across all five index families and under interleaved inserts,
deletes and rebalances.  Weights are exact small integers so float
addition cannot smuggle in rounding differences.
"""

from __future__ import annotations

import random

import pytest

from repro.core.aggregator import BoxSumIndex
from repro.obs import MetricsRegistry
from repro.shard import ShardedService

from ..conftest import random_box

FAMILIES = ["ba", "ecdf-bu", "ecdf-bq", "bptree", "ar"]


def _dims(backend: str) -> int:
    return 1 if backend == "bptree" else 2


def _exact_objects(rng, n, dims):
    return [(random_box(rng, dims), float(rng.randint(1, 9))) for _ in range(n)]


def _pair(backend: str, reduction: str = "corner", shards: int = 3):
    dims = _dims(backend)
    reference = BoxSumIndex(dims, backend=backend, reduction=reduction)
    cluster = ShardedService(
        dims,
        shards,
        backend=backend,
        reduction=reduction,
        partitioner="kd",
        workers="process",
        registry=MetricsRegistry(),
    )
    return reference, cluster, dims


@pytest.mark.parametrize("backend", FAMILIES)
def test_bulk_loaded_batch_is_bit_identical(backend):
    rng = random.Random(f"rpc-{backend}")
    reference, cluster, dims = _pair(backend)
    with cluster:
        objects = _exact_objects(rng, 70, dims)
        reference.bulk_load(objects)
        cluster.bulk_load(objects)
        queries = [random_box(rng, dims, max_side=60.0) for _ in range(20)]
        assert cluster.box_sum_batch(queries) == [reference.box_sum(q) for q in queries]


@pytest.mark.parametrize("backend", FAMILIES)
def test_interleaved_mutations_and_rebalance_stay_bit_identical(backend):
    rng = random.Random(f"rpc-{backend}-mut")
    reference, cluster, dims = _pair(backend)

    def check(n_queries=6):
        queries = [random_box(rng, dims, max_side=60.0) for _ in range(n_queries)]
        assert cluster.box_sum_batch(queries) == [reference.box_sum(q) for q in queries]

    with cluster:
        seed = _exact_objects(rng, 50, dims)
        reference.bulk_load(seed)
        cluster.bulk_load(seed)
        live = list(seed)
        check()
        for _round in range(2):
            for _ in range(8):
                box, value = random_box(rng, dims), float(rng.randint(1, 9))
                reference.insert(box, value)
                cluster.insert(box, value)
                live.append((box, value))
            check()
            for _ in range(5):
                box, value = live.pop(rng.randrange(len(live)))
                reference.delete(box, value)
                cluster.delete(box, value)
            check()
            cluster.rebalance()
            check()
        assert cluster.num_objects == len(live)


def test_eo82_reduction_is_bit_identical():
    rng = random.Random("rpc-eo82")
    reference, cluster, dims = _pair("ba", reduction="eo82")
    with cluster:
        objects = _exact_objects(rng, 60, dims)
        reference.bulk_load(objects)
        cluster.bulk_load(objects)
        for _ in range(8):
            box, value = random_box(rng, dims), float(rng.randint(1, 9))
            reference.insert(box, value)
            cluster.insert(box, value)
        cluster.rebalance()
        queries = [random_box(rng, dims, max_side=60.0) for _ in range(15)]
        assert cluster.box_sum_batch(queries) == [reference.box_sum(q) for q in queries]


def test_process_and_inprocess_transports_are_bit_identical():
    """The wire adds framing, never arithmetic: both transports at the same
    topology must agree exactly, probe counters included."""
    rng = random.Random("rpc-transport")
    dims = 2
    objects = _exact_objects(rng, 80, dims)
    queries = [random_box(rng, dims, max_side=60.0) for _ in range(25)]

    def run(workers):
        cluster = ShardedService(
            dims, 3, partitioner="kd", workers=workers, registry=MetricsRegistry()
        )
        with cluster:
            cluster.bulk_load(objects)
            result = cluster.batch(queries)
            return list(result.results), result.probes_executed

    process_answers, process_probes = run("process")
    inproc_answers, inproc_probes = run(None)
    assert process_answers == inproc_answers
    assert process_probes == inproc_probes

"""Satellite acceptance: the certified band always contains the exact answer.

Property test across every index family: a degrade-enabled cluster under
randomized seeded inserts and deletes, answered from the approximate tier
(direct, overloaded and stale paths), cross-checked against a naive scan
oracle.  ``lo <= exact <= hi`` must hold for every query — an escape is a
bug in the envelope derivation, never acceptable noise.
"""

from __future__ import annotations

import random

import pytest

from repro.approx import ApproxPolicy
from repro.core.naive import NaiveBoxSum
from repro.obs import MetricsRegistry
from repro.shard import ShardedService

from ..conftest import random_box

pytestmark = pytest.mark.approx

FAMILIES = ["ba", "ecdf-bu", "ecdf-bq", "bptree", "ar"]


def _dims(backend: str) -> int:
    return 1 if backend == "bptree" else 2


def _cluster(backend: str, dims: int, **kwargs) -> ShardedService:
    return ShardedService(
        dims,
        3,
        backend=backend,
        partitioner="hash",
        registry=MetricsRegistry(),
        degrade="bounded",
        **kwargs,
    )


@pytest.mark.parametrize("backend", FAMILIES)
def test_bands_contain_exact_under_churn(backend):
    rng = random.Random(f"approx-{backend}")
    dims = _dims(backend)
    oracle = NaiveBoxSum(dims)
    with _cluster(backend, dims) as cluster:
        seed = [(random_box(rng, dims), float(rng.randint(-4, 9))) for _ in range(120)]
        cluster.bulk_load(seed)
        for box, value in seed:
            oracle.insert(box, value)
        live = list(seed)
        for round_no in range(6):
            # Churn: a few inserts and deletes between every answer batch.
            for _ in range(8):
                box, value = random_box(rng, dims), float(rng.randint(-4, 9))
                cluster.insert(box, value)
                oracle.insert(box, value)
                live.append((box, value))
            for _ in range(3):
                box, value = live.pop(rng.randrange(len(live)))
                cluster.delete(box, value)
                oracle.insert(box, -value)
            queries = [random_box(rng, dims, max_side=60.0) for _ in range(10)]
            result = cluster.degraded_batch(queries)
            exact = [oracle.box_sum(q) for q in queries]
            assert result.contains(exact), (backend, round_no, result, exact)


@pytest.mark.parametrize("backend", ["ba", "ar"])
def test_overload_path_sound(backend):
    """The shed-conversion path serves the same sound bands as direct."""
    rng = random.Random(f"approx-overload-{backend}")
    dims = _dims(backend)
    oracle = NaiveBoxSum(dims)
    with _cluster(backend, dims, max_inflight=1, max_queue=0) as cluster:
        objects = [(random_box(rng, dims), float(rng.randint(1, 9))) for _ in range(100)]
        cluster.bulk_load(objects)
        for box, value in objects:
            oracle.insert(box, value)
        cluster.admission.admit()  # occupy the only slot: next batch would shed
        try:
            queries = [random_box(rng, dims, max_side=60.0) for _ in range(8)]
            result = cluster.batch(queries)
            assert result.reason == "overload"
            assert result.contains([oracle.box_sum(q) for q in queries])
        finally:
            cluster.admission.release()


def test_stale_bands_stay_sound():
    """Pending mutations widen the band instead of invalidating it."""
    rng = random.Random("approx-stale")
    oracle = NaiveBoxSum(2)
    policy = ApproxPolicy(max_staleness=10_000, auto_refresh=False)
    with _cluster("ba", 2, approx_policy=policy) as cluster:
        seed = [(random_box(rng, 2), float(rng.randint(1, 9))) for _ in range(80)]
        cluster.bulk_load(seed)
        for box, value in seed:
            oracle.insert(box, value)
        cluster.degraded_batch([random_box(rng, 2)])  # force the initial build
        # Every subsequent mutation is pending against that stale synopsis.
        for _ in range(40):
            box, value = random_box(rng, 2), float(rng.randint(-6, 9))
            cluster.insert(box, value)
            oracle.insert(box, value)
        queries = [random_box(rng, 2, max_side=60.0) for _ in range(15)]
        result = cluster.degraded_batch(queries)
        assert result.staleness == 40
        assert result.contains([oracle.box_sum(q) for q in queries])

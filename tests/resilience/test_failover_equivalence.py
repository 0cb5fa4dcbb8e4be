"""Acceptance property: chaos-injected failover stays bit-identical.

Every family answers exactly from any replica (additive dominance-sum
decomposition over disjoint partitions), so a cluster losing one member of
each group per query must still equal an unsharded reference index ``==``,
not ``approx``.  Weights are small integers so float summation order cannot
introduce rounding differences.
"""

from __future__ import annotations

import random

import pytest

from repro import ShardUnavailableError
from repro.core.aggregator import BoxSumIndex
from repro.obs import MetricsRegistry
from repro.resilience import ChaosPlan, FaultyQueryService, PartialResult, ResilienceConfig
from repro.resilience.chaos import chaos_member_wrapper
from repro.shard import ShardedService

from ..conftest import random_box

FAMILIES = ["ba", "ecdf-bu", "ecdf-bq", "bptree", "ar"]


def _dims(backend: str) -> int:
    return 1 if backend == "bptree" else 2


def _exact_objects(rng, n, dims):
    return [(random_box(rng, dims), float(rng.randint(1, 9))) for _ in range(n)]


def _chaotic_pair(backend: str, seed: int = 0, shards: int = 3):
    dims = _dims(backend)
    reference = BoxSumIndex(dims, backend=backend)
    cluster = ShardedService(
        dims,
        shards,
        backend=backend,
        partitioner="kd",
        replicas=1,
        registry=MetricsRegistry(),
        service_wrapper=chaos_member_wrapper(ChaosPlan(seed=seed, raise_rate=0.4)),
        resilience=ResilienceConfig(max_attempts=4, backoff_base_s=0.0, seed=seed),
    )
    return reference, cluster, dims


@pytest.mark.parametrize("backend", FAMILIES)
def test_single_member_chaos_stays_bit_identical(backend):
    """One chaotic member per group, every family: answers never drift."""
    rng = random.Random(f"failover-{backend}")
    reference, cluster, dims = _chaotic_pair(backend)
    with cluster:
        objects = _exact_objects(rng, 80, dims)
        reference.bulk_load(objects)
        cluster.bulk_load(objects)
        for i in range(15):
            if i % 4 == 2:
                box, value = random_box(rng, dims), float(rng.randint(1, 9))
                reference.insert(box, value)
                cluster.insert(box, value)
            queries = [random_box(rng, dims, max_side=60.0) for _ in range(4)]
            got = cluster.box_sum_batch(queries)
            assert not isinstance(got, PartialResult)  # single members, never a group
            assert list(got) == [reference.box_sum(q) for q in queries]
        # The chaos was real: some group actually failed over.
        assert sum(g["failures"] for g in cluster.resilience_stats()) > 0


def _dead_shard_cluster(partial: bool, seed: int = 0):
    def dead_wrapper(service, sid, member):
        if sid != 0:
            return service
        return FaultyQueryService(service, ChaosPlan(seed=seed + member, raise_rate=1.0))

    return ShardedService(
        2,
        3,
        partitioner="kd",
        replicas=1,
        registry=MetricsRegistry(),
        service_wrapper=dead_wrapper,
        resilience=ResilienceConfig(
            max_attempts=2, backoff_base_s=0.0, partial_results=partial, seed=seed
        ),
    )


class TestWholeGroupOutage:
    def test_default_raises_never_answers_wrong(self):
        rng = random.Random(0xDEAD)
        with _dead_shard_cluster(partial=False) as cluster:
            cluster.bulk_load(_exact_objects(rng, 60, 2))
            with pytest.raises(ShardUnavailableError) as excinfo:
                cluster.box_sum(random_box(rng, 2, max_side=90.0))
            assert excinfo.value.shard == 0

    def test_opt_in_degrades_to_an_explicit_partial(self):
        rng = random.Random(0xDEAD)
        objects = _exact_objects(rng, 60, 2)
        reference = BoxSumIndex(2, backend="ba")
        reference.bulk_load(objects)
        with _dead_shard_cluster(partial=True) as cluster:
            cluster.bulk_load(objects)
            # Sized so some queries provably clear the dead shard's extent
            # and some intersect it: both branches of the bound are exercised.
            queries = [random_box(rng, 2, max_side=20.0) for _ in range(20)]
            outcome = cluster.box_sum_batch(queries)
            assert isinstance(outcome, PartialResult)
            assert outcome.missing == (0,)
            assert outcome.answered == (1, 2)
            assert outcome.missing_extents[0] is not None
            full = [reference.box_sum(q) for q in queries]
            for i in range(len(queries)):
                if outcome.is_exact(i):
                    # Provably untouched by the outage: bit-identical.
                    assert outcome[i] == full[i]
                else:
                    # Non-negative weights: the partial sum is a lower bound.
                    assert outcome[i] <= full[i]
            # The bound is not vacuous on this workload: both kinds occur.
            exact = outcome.exact_indices()
            assert 0 < len(exact) < len(queries)
            assert cluster.stats()["partial_batches"] >= 1

    def test_single_query_partial_comes_back_typed(self):
        rng = random.Random(0xBEEF)
        with _dead_shard_cluster(partial=True) as cluster:
            cluster.bulk_load(_exact_objects(rng, 60, 2))
            outcome = cluster.box_sum(random_box(rng, 2, max_side=90.0))
            assert isinstance(outcome, PartialResult)
            assert len(outcome) == 1


class TestReplicatedClusterPlumbing:
    def test_replicated_cluster_is_bit_identical_when_healthy(self):
        rng = random.Random(0x9E)
        objects = _exact_objects(rng, 70, 2)
        reference = BoxSumIndex(2, backend="ba")
        reference.bulk_load(objects)
        with ShardedService(
            2, 3, partitioner="kd", replicas=2, registry=MetricsRegistry()
        ) as cluster:
            cluster.bulk_load(objects)
            assert cluster.replicas == 2
            assert len(cluster.groups) == 3
            assert all(g.num_members == 3 for g in cluster.groups)
            for _ in range(8):
                box, value = random_box(rng, 2), float(rng.randint(1, 9))
                reference.insert(box, value)
                cluster.insert(box, value)
            queries = [random_box(rng, 2, max_side=60.0) for _ in range(15)]
            assert cluster.box_sum_batch(queries) == [reference.box_sum(q) for q in queries]

    def test_failover_router_reads_policy_from_config(self):
        """The plain router scatters over replica groups; the failover
        policy it needs is ``ResilienceConfig.partial_results``."""
        from repro.shard import ShardRouter

        rng = random.Random(0xF0)
        objects = _exact_objects(rng, 40, 2)
        with ShardedService(
            2,
            2,
            partitioner="kd",
            replicas=1,
            registry=MetricsRegistry(),
            resilience=ResilienceConfig(partial_results=True),
        ) as cluster:
            cluster.bulk_load(objects)
            router = ShardRouter(
                cluster.groups,
                registry=MetricsRegistry(),
                allow_partial=cluster.resilience.partial_results,
            )
            assert router.allow_partial
            assert router.shards == list(cluster.groups)
            reference = BoxSumIndex(2, backend="ba")
            reference.bulk_load(objects)
            queries = [random_box(rng, 2, max_side=60.0) for _ in range(6)]
            got = router.scatter(queries, cluster.extents())
            assert got.results == [reference.box_sum(q) for q in queries]

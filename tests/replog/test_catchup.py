"""Acceptance property: log-shipped recovery is bit-exact, every family.

``check_log_shipping`` poisons a replica mid-stream, catches it up from
checkpoint + log tail, bootstraps a brand-new member, and recovers a
point-in-time service — all compared ``==`` against a scan oracle.  CI's
recovery-torture job repeats the ``recovery``-marked tests in a loop with
rotating seeds.
"""

from __future__ import annotations

import random

import pytest

from repro.core.aggregator import BoxSumIndex
from repro.core.errors import ReplicaDivergedError
from repro.obs import MetricsRegistry
from repro.replog import ReplicationLog
from repro.resilience import ChaosPlan, ReplicaGroup, ResilienceConfig
from repro.resilience.chaos import chaos_member_wrapper
from repro.service import QueryService
from repro.shard import ShardedService
from repro.testing import check_log_shipping

from ..conftest import random_box

FAMILIES = ["ba", "ecdf-bu", "ecdf-bq", "bptree", "ar"]


def _dims(backend: str) -> int:
    return 1 if backend == "bptree" else 2


@pytest.mark.recovery
@pytest.mark.parametrize("backend", FAMILIES)
def test_log_shipping_round_trip_every_family(backend, tmp_path):
    """Kill a member mid-stream, catch up, bootstrap, recover — bit-exact."""
    report = check_log_shipping(str(tmp_path / "replog"), dims=_dims(backend), backend=backend)
    assert report.ok, str(report)


@pytest.mark.recovery
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_log_shipping_survives_seed_rotation(seed, tmp_path):
    """The property is seed-independent, not a lucky workload."""
    report = check_log_shipping(str(tmp_path / "replog"), seed=seed)
    assert report.ok, str(report)


class TestGroupRecoveryVerbs:
    def _group(self, tmp_path, members=3, seed=0):
        registry = MetricsRegistry()
        replog = ReplicationLog(str(tmp_path / "replog"), registry=registry)

        def make_member():
            return QueryService(BoxSumIndex(2), registry=MetricsRegistry())

        group = ReplicaGroup(
            0,
            [make_member() for _ in range(members)],
            config=ResilienceConfig(max_attempts=3, backoff_base_s=0.0, seed=seed),
            registry=registry,
            replication_log=replog,
            member_factory=make_member,
        )
        return group, replog

    def test_audit_catches_a_tampered_member(self, tmp_path):
        """The catch-up audit is real: divergence keeps the member poisoned."""
        rng = random.Random(0xBAD)
        group, replog = self._group(tmp_path)
        try:
            for _ in range(20):
                group.insert(random_box(rng, 2), float(rng.randint(1, 9)))
            group.checkpoint()
            group._poison(2, "test", RuntimeError("simulated half-apply"))
            # Sabotage the restore target: an extra un-logged object makes
            # the restored member's answers drift from the live ones.
            victim = group.members[2]
            original_sync = victim.sync_epoch

            def tampered_sync(epoch):
                victim.index.insert(random_box(rng, 2), 5.0)
                original_sync(epoch)

            victim.sync_epoch = tampered_sync
            with pytest.raises(ReplicaDivergedError):
                group.catch_up(2)
            assert group.stats()["member_states"][2] == "poisoned"
            # Un-tamper; the next catch-up attempt succeeds.
            victim.sync_epoch = original_sync
            assert group.catch_up(2) is not None
            assert group.stats()["member_states"][2] != "poisoned"
        finally:
            group.close()
            replog.close()

    def test_catch_up_all_revives_every_poisoned_member(self, tmp_path):
        rng = random.Random(0xCA)
        group, replog = self._group(tmp_path, members=4)
        try:
            for _ in range(10):
                group.insert(random_box(rng, 2), float(rng.randint(1, 9)))
            group.checkpoint()
            group._poison(1, "test", RuntimeError())
            group._poison(3, "test", RuntimeError())
            for _ in range(5):
                group.insert(random_box(rng, 2), float(rng.randint(1, 9)))
            assert group.catch_up_all() == [1, 3]
            assert group.stats()["replica_lag"] == [0, 0, 0, 0]
        finally:
            group.close()
            replog.close()

    def test_add_member_bootstraps_before_serving(self, tmp_path):
        rng = random.Random(0xAD)
        group, replog = self._group(tmp_path)
        try:
            for _ in range(15):
                group.insert(random_box(rng, 2), float(rng.randint(1, 9)))
            group.checkpoint()
            mid = group.add_member()
            assert mid == 3
            queries = [random_box(rng, 2, max_side=60.0) for _ in range(10)]
            assert group.members[mid].box_sum_batch(queries) == group.members[
                0
            ].box_sum_batch(queries)
            assert group.members[mid].epoch == group.epoch
            assert group.stats()["replica_lag"][mid] == 0
        finally:
            group.close()
            replog.close()


@pytest.mark.recovery
class TestClusterRecovery:
    def _cluster(self, tmp_path, **kwargs):
        kwargs.setdefault("registry", MetricsRegistry())
        return ShardedService(
            2,
            3,
            partitioner="kd",
            replicas=1,
            replog_dir=str(tmp_path / "replogs"),
            resilience=ResilienceConfig(max_attempts=3, backoff_base_s=0.0),
            **kwargs,
        )

    def test_poisoned_members_catch_up_cluster_wide(self, tmp_path):
        rng = random.Random(0x5EED)
        reference = BoxSumIndex(2)
        # Member 1 of every group fails its first mutation, then behaves.
        plan = ChaosPlan(raise_rate=1.0, mutations=True)
        with self._cluster(
            tmp_path, service_wrapper=chaos_member_wrapper(plan, member=1)
        ) as cluster:
            objects = [(random_box(rng, 2), float(rng.randint(1, 9))) for _ in range(60)]
            cluster.bulk_load(objects)  # poisons member 1 of every group
            reference.bulk_load(objects)
            for group in cluster.groups:
                assert group.stats()["member_states"][1] == "poisoned"
                group.members[1].enabled = False  # chaos lifted
            for _ in range(10):
                box, value = random_box(rng, 2), float(rng.randint(1, 9))
                cluster.insert(box, value)
                reference.insert(box, value)
            cluster.checkpoint()
            revived = cluster.catch_up_all()
            assert revived == {0: [1], 1: [1], 2: [1]}
            queries = [random_box(rng, 2, max_side=70.0) for _ in range(20)]
            assert cluster.box_sum_batch(queries) == [reference.box_sum(q) for q in queries]
            # Every member of every group answers identically now.
            for group in cluster.groups:
                per_member = [m.box_sum_batch(queries) for m in group.members]
                assert all(ans == per_member[0] for ans in per_member)

    def test_add_replica_and_pitr_on_a_live_cluster(self, tmp_path):
        rng = random.Random(0xADD)
        with self._cluster(tmp_path) as cluster:
            objects = [(random_box(rng, 2), float(rng.randint(1, 9))) for _ in range(50)]
            cluster.bulk_load(objects)
            cluster.checkpoint()
            queries = [random_box(rng, 2, max_side=70.0) for _ in range(12)]
            group = cluster.groups[0]
            rl = cluster.replication_logs[0]
            pre_lsn = rl.head_lsn
            pre_answers = group.members[0].box_sum_batch(queries)
            # Mutations routed into shard 0 move its head past pre_lsn.
            while rl.head_lsn == pre_lsn:
                cluster.insert(random_box(rng, 2), float(rng.randint(1, 9)))
            # A new replica seeded from the log serves like its group.
            new_mid = cluster.add_replica(0)
            assert group.members[new_mid].box_sum_batch(queries) == group.members[
                0
            ].box_sum_batch(queries)
            # PITR: shard 0 as of the checkpoint answers its pre-fault bits.
            historical = cluster.recover_shard_to(0, pre_lsn)
            try:
                assert historical.epoch == rl.epoch_at(pre_lsn)
                assert historical.box_sum_batch(queries) == pre_answers
            finally:
                historical.close()
            assert "head_lsns" in cluster.stats()

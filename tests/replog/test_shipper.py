"""Tests for the ReplicationLog facade: fold, checkpoint, restore, PITR."""

from __future__ import annotations

import random

import pytest

from repro.core.aggregator import BoxSumIndex
from repro.core.errors import ReplicationLogError
from repro.core.geometry import Box
from repro.core.naive import NaiveBoxSum
from repro.obs import MetricsRegistry
from repro.replog import (
    DeleteOp,
    InsertOp,
    LogicalState,
    ReplicationLog,
    RestoreReport,
    SetMetaOp,
)
from repro.service import QueryService

from ..conftest import random_box


def make_replog(tmp_path, **kwargs):
    kwargs.setdefault("registry", MetricsRegistry())
    return ReplicationLog(str(tmp_path / "replog"), **kwargs)


def seeded_ops(n, seed=0, dims=2):
    rng = random.Random(seed)
    ops = []
    for i in range(n):
        box = random_box(rng, dims)
        value = float(rng.randint(1, 9))
        ops.append(DeleteOp(box, value) if i % 5 == 4 else InsertOp(box, value))
    return ops


class TestWriteAndFold:
    def test_record_assigns_contiguous_lsns(self, tmp_path):
        with make_replog(tmp_path) as rl:
            for i, op in enumerate(seeded_ops(10), start=1):
                assert rl.record(op) == i
            assert rl.head_lsn == 10
            assert rl.epoch_at(10) == 10

    def test_base_epoch_shifts_the_invariant(self, tmp_path):
        with make_replog(tmp_path, base_epoch=100) as rl:
            rl.record(InsertOp(Box([0, 0], [1, 1]), 2.0))
            assert rl.epoch_at(rl.head_lsn) == 101

    def test_reopen_recovers_folded_state(self, tmp_path):
        ops = seeded_ops(20)
        with make_replog(tmp_path) as rl:
            for op in ops:
                rl.record(op)
            before = rl.stats()
        with make_replog(tmp_path) as rl:
            after = rl.stats()
            assert after["head_lsn"] == before["head_lsn"] == 20.0
            assert after["state_identities"] == before["state_identities"]
            assert after["state_instances"] == before["state_instances"]

    def test_state_at_reconstructs_history(self, tmp_path):
        ops = seeded_ops(12)
        with make_replog(tmp_path) as rl:
            for op in ops:
                rl.record(op)
            oracle = LogicalState()
            for op in ops[:7]:
                oracle.apply(op)
            got = rl.state_at(7)
            # items() is already deterministically ordered — compare directly.
            assert list(got.items()) == list(oracle.items())
            with pytest.raises(ReplicationLogError):
                rl.state_at(99)


class TestCheckpointRetention:
    def test_checkpoint_prunes_log_history(self, tmp_path):
        with make_replog(tmp_path, segment_bytes=256, checkpoint_retain=1) as rl:
            for op in seeded_ops(15):
                rl.record(op)
            rl.checkpoint()
            for op in seeded_ops(15, seed=1):
                rl.record(op)
            rl.checkpoint()
            stats = rl.stats()
            assert stats["checkpoints"] == 1.0  # retain=1 dropped the first
            assert stats["newest_checkpoint_lsn"] == 30.0
            assert rl.oldest_lsn > 1  # stale segments were pruned
            # The retained checkpoint still restores without the old tail.
            assert rl.state_at(30).net_instances == rl.stats()["state_instances"]

    def test_restore_survives_pruned_history(self, tmp_path):
        with make_replog(tmp_path, segment_bytes=256, checkpoint_retain=1) as rl:
            for op in seeded_ops(25):
                rl.record(op)
            rl.checkpoint()
            for op in seeded_ops(5, seed=2):
                rl.record(op)
            service = QueryService(BoxSumIndex(2), registry=MetricsRegistry())
            report = rl.restore_into(service)
            assert isinstance(report, RestoreReport)
            assert report.checkpoint_lsn == 25
            assert report.tail_records == 5
            service.close()


class TestRestore:
    @pytest.mark.parametrize("backend", ["ba", "ecdf-bu"])
    def test_restored_member_is_bit_identical(self, tmp_path, backend):
        rng = random.Random(0x51)
        ops = seeded_ops(40)
        live = QueryService(BoxSumIndex(2, backend="ba"), registry=MetricsRegistry())
        with make_replog(tmp_path) as rl:
            for op in ops:
                if isinstance(op, InsertOp):
                    live.insert(op.box, op.value)
                else:
                    live.delete(op.box, op.value)
                rl.record(op)
            rl.checkpoint()
            # Restore onto a *different* backend: the logical multiset, not
            # the tree layout, is the contract.
            replica = QueryService(BoxSumIndex(2, backend=backend), registry=MetricsRegistry())
            report = rl.restore_into(replica)
            assert report.epoch == rl.epoch_at(rl.head_lsn)
            assert replica.epoch == live.epoch == report.epoch
            queries = [random_box(rng, 2, max_side=70.0) for _ in range(30)]
            assert replica.box_sum_batch(queries) == live.box_sum_batch(queries)
            live.close()
            replica.close()

    def test_negative_counts_replay_as_deletes(self, tmp_path):
        # A delete routed to a shard that never held the object: the
        # restored member must reproduce the negative contribution.
        box = Box([1.0, 1.0], [4.0, 4.0])
        oracle = NaiveBoxSum(2)
        oracle.insert(box, -3.0)
        with make_replog(tmp_path) as rl:
            rl.record(DeleteOp(box, 3.0))
            service = QueryService(BoxSumIndex(2), registry=MetricsRegistry())
            report = rl.restore_into(service)
            assert report.negatives_replayed == 1
            probe = Box([0.0, 0.0], [5.0, 5.0])
            assert service.box_sum(probe) == oracle.box_sum(probe)
            service.close()

    def test_meta_blobs_survive_checkpoint_and_restore(self, tmp_path):
        with make_replog(tmp_path) as rl:
            rl.record(SetMetaOp("app-header", b"\x07\x08"))
            rl.record(InsertOp(Box([0, 0], [1, 1]), 2.0))
            rl.checkpoint()
        with make_replog(tmp_path) as rl:
            assert rl.state_at(rl.head_lsn).meta == {"app-header": b"\x07\x08"}

    def test_restore_beyond_head_is_rejected(self, tmp_path):
        with make_replog(tmp_path) as rl:
            rl.record(InsertOp(Box([0, 0], [1, 1]), 1.0))
            service = QueryService(BoxSumIndex(2), registry=MetricsRegistry())
            with pytest.raises(ReplicationLogError):
                rl.restore_into(service, upto_lsn=5)
            service.close()


class TestPointInTimeRecovery:
    def test_recover_to_reproduces_the_past(self, tmp_path):
        rng = random.Random(0x717)
        ops = seeded_ops(30)
        with make_replog(tmp_path) as rl:
            for op in ops[:18]:
                rl.record(op)
            oracle = NaiveBoxSum(2)
            for op in ops[:18]:
                oracle.insert(op.box, op.value if isinstance(op, InsertOp) else -op.value)
            for op in ops[18:]:
                rl.record(op)
            # Without a factory: the logical state, enough for an audit diff.
            state = rl.recover_to(18)
            assert isinstance(state, LogicalState)
            # With one: a live service frozen at the historical epoch.
            service = rl.recover_to(18, index_factory=lambda: BoxSumIndex(2))
            assert service.epoch == rl.epoch_at(18)
            queries = [random_box(rng, 2, max_side=80.0) for _ in range(20)]
            assert service.box_sum_batch(queries) == [oracle.box_sum(q) for q in queries]
            # The head moved on: at least one answer differs.
            head_service = rl.recover_to(rl.head_lsn, index_factory=lambda: BoxSumIndex(2))
            assert service.box_sum_batch(queries) != head_service.box_sum_batch(queries)
            service.close()
            head_service.close()


class TestServiceAttachedLog:
    def test_service_mutations_ship_and_checkpoint(self, tmp_path):
        rng = random.Random(0xA11)
        with make_replog(tmp_path) as rl:
            service = QueryService(BoxSumIndex(2), registry=MetricsRegistry(), oplog=rl)
            for _ in range(12):
                service.insert(random_box(rng, 2), float(rng.randint(1, 9)))
            service.set_meta("k", b"v")
            assert rl.head_lsn == 13
            ckpt = service.checkpoint()
            assert ckpt.lsn == 13
            assert ckpt.epoch == service.epoch  # epoch = base + lsn held
            # A clone restored from the log answers identically.
            clone = QueryService(BoxSumIndex(2), registry=MetricsRegistry())
            rl.restore_into(clone)
            queries = [random_box(rng, 2, max_side=60.0) for _ in range(10)]
            assert clone.box_sum_batch(queries) == service.box_sum_batch(queries)
            assert clone.epoch == service.epoch
            service.close()
            clone.close()

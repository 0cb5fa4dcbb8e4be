"""``ReplicationLog``: the log + checkpoint facade the serving layers ship on.

One instance fronts one logical index's history — a segmented
:class:`~repro.replog.log.OperationLog` plus a
:class:`~repro.replog.checkpoint.CheckpointStore` in a ``checkpoints/``
subdirectory — and keeps the *current* :class:`~repro.replog.state.LogicalState`
folded in memory, so taking a checkpoint is a flat serialization rather
than a replay.  The three verbs the rest of the system uses:

``record(op)``
    Append one admitted mutation; returns its LSN.  Callers serialize
    (the service write lock or the group mutation mutex) — the order of
    records *is* the replication contract.

``checkpoint(epoch)``
    Snapshot the folded state at the head LSN, retain the newest few
    checkpoints, and prune log segments nothing retained still needs.

``restore_into(service, upto_lsn=...)``
    Rebuild any member bit-exactly: newest intact checkpoint at or below
    the target, tail replay to the target LSN, epoch re-sync.  With
    ``upto_lsn`` in the past this is point-in-time recovery
    (:meth:`ReplicationLog.recover_to`).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Callable, Optional

from ..core.errors import ReplicationLogError
from ..obs import trace as _trace
from ..obs.registry import MetricsRegistry, get_registry
from .checkpoint import Checkpoint, CheckpointStore
from .log import OperationLog
from .records import Operation, decode_op, encode_op
from .state import LogicalState


@dataclass(frozen=True)
class RestoreReport:
    """What one restore actually did (for logs, tests and the bench)."""

    upto_lsn: int
    epoch: int
    #: LSN of the checkpoint used, or 0 when the restore replayed from scratch
    checkpoint_lsn: int
    #: records replayed after the checkpoint
    tail_records: int
    #: object instances bulk-loaded from the checkpoint + tail state
    objects_loaded: int
    #: negative-count identities replayed as deletions
    negatives_replayed: int


class ReplicationLog:
    """Log-shipping facade over one directory: segments + checkpoints + state.

    Parameters
    ----------
    directory:
        Segment files live here, checkpoints under ``checkpoints/``.
        Opening an existing directory recovers the folded state from the
        newest intact checkpoint plus the log tail.
    base_epoch:
        The service epoch *before* the first logged record.  Every record
        corresponds to exactly one epoch bump, so the epoch at LSN ``L``
        is ``base_epoch + L`` — the invariant that lets a restored member
        re-sync its epoch without ever having seen the primary.
    checkpoint_retain:
        How many checkpoints to keep; older ones (and the log segments
        only they needed) are pruned by :meth:`checkpoint`.
    """

    def __init__(
        self,
        directory: str,
        *,
        segment_bytes: int = 1 << 20,
        fsync: bool = True,
        opener: Optional[Callable[[str, str], object]] = None,
        registry: Optional[MetricsRegistry] = None,
        base_epoch: int = 0,
        checkpoint_retain: int = 2,
        label: str = "replog",
    ) -> None:
        if checkpoint_retain < 1:
            raise ValueError(f"checkpoint_retain must be >= 1, got {checkpoint_retain}")
        registry = registry if registry is not None else get_registry()
        kwargs = {"segment_bytes": segment_bytes, "fsync": fsync, "registry": registry}
        if opener is not None:
            kwargs["opener"] = opener
        self.label = label
        self.base_epoch = base_epoch
        self.checkpoint_retain = checkpoint_retain
        self.log = OperationLog(directory, **kwargs)
        self.checkpoints = CheckpointStore(os.path.join(directory, "checkpoints"))
        self._m_checkpoints = registry.counter("repro_replog_checkpoints", "checkpoints taken")
        self._m_restores = registry.counter(
            "repro_replog_restores", "members restored from checkpoint + tail"
        )
        self._m_ckpt_bytes = registry.gauge(
            "repro_replog_checkpoint_bytes", "size of the newest checkpoint file"
        )
        self._lock = threading.RLock()
        self._state = self._recover_state()

    # -- recovery ----------------------------------------------------------------

    def _recover_state(self) -> LogicalState:
        """Fold the newest intact checkpoint + log tail into memory."""
        checkpoint = self.checkpoints.best_for(self.log.head_lsn)
        if checkpoint is not None:
            state = LogicalState.from_checkpoint(checkpoint)
            start = checkpoint.lsn + 1
        else:
            state = LogicalState()
            start = 1
        for _lsn, kind, payload in self.log.records(start_lsn=start):
            state.apply(decode_op(kind, payload))
        return state

    # -- the write path ----------------------------------------------------------

    def record(self, op: Operation) -> int:
        """Append one admitted mutation; returns its LSN."""
        kind, payload = encode_op(op)
        with self._lock:
            lsn = self.log.append(kind, payload)
            self._state.apply(op)
        return lsn

    @property
    def head_lsn(self) -> int:
        return self.log.head_lsn

    @property
    def oldest_lsn(self) -> int:
        return self.log.oldest_lsn

    def epoch_at(self, lsn: int) -> int:
        """The service epoch after applying record ``lsn`` (one bump each)."""
        return self.base_epoch + lsn

    def extent(self):
        """Bounding box of the current folded state (None when empty)."""
        with self._lock:
            return self._state.extent()

    @property
    def digest(self) -> int:
        """Order-insensitive 64-bit digest of the folded state.

        Maintained at append time (``record`` folds each op into the
        in-memory state, whose digest updates in O(1)) — this is the
        authority the divergence audit compares every group member
        against: ``digest(log) == digest(folded state)`` by construction,
        and a live member whose own stream digest disagrees has lost or
        misapplied a write.
        """
        with self._lock:
            return self._state.digest

    # -- checkpointing -----------------------------------------------------------

    def checkpoint(self, epoch: Optional[int] = None) -> Checkpoint:
        """Snapshot the folded state at the head LSN; retain + prune.

        ``epoch`` defaults to the LSN invariant (``base_epoch + head``);
        pass the service's actual epoch when taking the snapshot under its
        write lock, which also asserts the invariant held.
        """
        with self._lock:
            head = self.log.head_lsn
            if epoch is None:
                epoch = self.epoch_at(head)
            checkpoint = self._state.to_checkpoint(head, epoch)
            tracer = _trace._ACTIVE
            if tracer is None:
                path = self.checkpoints.save(checkpoint)
            else:
                with tracer.span("replog.checkpoint", label=self.label, lsn=head):
                    path = self.checkpoints.save(checkpoint)
            keep_from = self.checkpoints.retain(self.checkpoint_retain)
            if keep_from:
                self.log.prune(keep_from)
            self._m_checkpoints.inc(label=self.label)
            self._m_ckpt_bytes.set(float(self.checkpoints.sizes()[head]), label=self.label)
        return checkpoint

    # -- reads / restores --------------------------------------------------------

    def state_at(self, lsn: Optional[int] = None, *, use_checkpoint: bool = True) -> LogicalState:
        """The logical state after record ``lsn`` (None = head).

        Reconstructed from the newest intact checkpoint at or below the
        target plus a tail replay — or from LSN 1 when ``use_checkpoint``
        is False (raises if that history was pruned).
        """
        with self._lock:
            head = self.log.head_lsn
            target = head if lsn is None else lsn
            if target > head:
                raise ReplicationLogError(f"LSN {target} is beyond the head ({head})")
            if target == head and use_checkpoint:
                return self._state.copy()
            checkpoint = self.checkpoints.best_for(target) if use_checkpoint else None
            if checkpoint is not None:
                state = LogicalState.from_checkpoint(checkpoint)
                start = checkpoint.lsn + 1
            else:
                state = LogicalState()
                start = 1
            for _lsn, kind, payload in self.log.records(start_lsn=start, end_lsn=target):
                state.apply(decode_op(kind, payload))
            return state

    def restore_into(
        self,
        service,
        *,
        upto_lsn: Optional[int] = None,
        use_checkpoint: bool = True,
    ) -> RestoreReport:
        """Rebuild ``service``'s index to the state at ``upto_lsn`` (None = head).

        The member ends bit-exact with any other member at that LSN: same
        multiset, same deterministic apply order, same epoch
        (``base_epoch + lsn`` via :meth:`QueryService.sync_epoch`).
        """
        with self._lock:
            head = self.log.head_lsn
            target = head if upto_lsn is None else upto_lsn
            if target > head:
                raise ReplicationLogError(f"LSN {target} is beyond the head ({head})")
            checkpoint = self.checkpoints.best_for(target) if use_checkpoint else None
            if checkpoint is not None:
                state = LogicalState.from_checkpoint(checkpoint)
                start = checkpoint.lsn + 1
            else:
                state = LogicalState()
                start = 1
            tail = 0
            for _lsn, kind, payload in self.log.records(start_lsn=start, end_lsn=target):
                state.apply(decode_op(kind, payload))
                tail += 1
        epoch = self.epoch_at(target)
        tracer = _trace._ACTIVE
        if tracer is None:
            state.materialize(service)
        else:
            with tracer.span("replog.restore", label=self.label, lsn=target, tail=tail):
                state.materialize(service)
        service.sync_epoch(epoch)
        # Re-seed the member's stream digest from the restored state so the
        # divergence audit's invariant holds from the first post-restore
        # mutation (materialize applies un-logged record=None mutations,
        # which by design do not touch the member's digest).
        sync_digest = getattr(service, "sync_digest", None)
        if sync_digest is not None:
            sync_digest(state.digest_state())
        self._m_restores.inc(label=self.label)
        return RestoreReport(
            upto_lsn=target,
            epoch=epoch,
            checkpoint_lsn=checkpoint.lsn if checkpoint is not None else 0,
            tail_records=tail,
            objects_loaded=len(state.expanded()),
            negatives_replayed=sum(-c for _b, _v, c in state.negatives()),
        )

    def recover_to(self, lsn: int, index_factory: Optional[Callable[[], object]] = None):
        """Point-in-time recovery: the state (or a live service) at ``lsn``.

        Without a factory, returns the :class:`LogicalState` — enough for
        an audit diff.  With one, builds a fresh index, wraps it in a
        :class:`~repro.service.service.QueryService` and restores it to
        exactly the historical epoch, ready to answer queries as the
        group would have at that point.
        """
        if index_factory is None:
            return self.state_at(lsn)
        from ..service.service import QueryService

        service = QueryService(index_factory(), label=f"{self.label}@{lsn}")
        self.restore_into(service, upto_lsn=lsn)
        return service

    # -- introspection -----------------------------------------------------------

    def stats(self) -> dict:
        """Flat counters for inspect/bench: sizes, heads, retention."""
        with self._lock:
            segments = self.log.segment_files()
            ckpt_sizes = self.checkpoints.sizes()
            return {
                "head_lsn": float(self.log.head_lsn),
                "oldest_lsn": float(self.log.oldest_lsn),
                "segments": float(len(segments)),
                "log_bytes": float(sum(size for _b, _p, size in segments)),
                "checkpoints": float(len(ckpt_sizes)),
                "checkpoint_bytes": float(sum(ckpt_sizes.values())),
                "newest_checkpoint_lsn": float(max(ckpt_sizes) if ckpt_sizes else 0),
                "state_identities": float(len(self._state)),
                "state_instances": float(self._state.net_instances),
                "state_digest": self._state.digest,
            }

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        self.log.close()

    def __enter__(self) -> "ReplicationLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = ["ReplicationLog", "RestoreReport"]

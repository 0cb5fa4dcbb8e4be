"""The concurrent query service: admission, locking, caching, planning.

:class:`QueryService` fronts a :class:`~repro.core.aggregator.BoxSumIndex`
(any backend) for serving-style traffic:

* **admission control** — at most ``max_inflight`` requests execute
  concurrently; up to ``max_queue`` more wait (FIFO by condition wakeup);
  beyond that :class:`~repro.core.errors.ServiceOverloadedError` sheds load
  immediately instead of building an unbounded queue;
* **a readers–writer lock** — queries share the index, mutations are
  exclusive, so a reader can never observe a half-applied page split;
* **an epoch-invalidated result/probe cache** — every mutation bumps the
  service epoch, logically invalidating all cached values in O(1); a stale
  entry is never served (see :mod:`repro.service.cache`);
* **corner-sharing batch planning** — a batch's ``2^d``-probe plans are
  deduped across queries and each unique probe runs once, on the calling
  thread (see :mod:`repro.service.planner`);
* **observability** — request/probe/cache counters and batch-size plus
  queue-wait histograms in the :mod:`repro.obs` registry, and a
  ``service.batch`` span nesting the underlying ``dominance_sum`` spans
  when a tracer is active.

Object backends (``ar``/``rstar``) expose no probe plan; their queries run
monolithically, serialized on an internal mutex (the aR-tree keeps
per-query instance state), with result caching still applied.
"""

from __future__ import annotations

import threading
from typing import Dict, List, NamedTuple, Optional, Sequence

from ..approx.builder import ApproxTier
from ..core.errors import NotSupportedError, ServiceClosedError, ServiceOverloadedError
from ..core.geometry import Box, check_finite_object
from ..obs import trace as _trace
from ..obs.registry import MetricsRegistry, get_registry
from ..replog.digest import StateDigest
from ..replog.records import BulkLoadOp, DeleteOp, InsertOp, SetMetaOp
from .cache import EpochLRUCache, box_key, probe_key
from .locks import AdmissionGate, RWLock
from .planner import BatchPlanner, ProbeIdentity

#: Batch-size histogram buckets (queries per request).
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

#: Queue-wait histogram buckets (seconds).
QUEUE_WAIT_BUCKETS = (0.0001, 0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)


class BatchResult(NamedTuple):
    """Answers of one batch plus its execution accounting.

    ``epoch`` is the service epoch the whole batch was evaluated at — the
    readers–writer lock guarantees every answer reflects exactly the
    mutations applied before that epoch was observed.
    """

    results: List[float]
    epoch: int
    result_cache_hits: int
    probes_planned: int
    probes_unique: int
    probes_executed: int
    probe_cache_hits: int
    queue_wait_s: float

    @property
    def dedup_ratio(self) -> float:
        """Batch-level probe sharing: ``planned / unique`` (1.0 when empty)."""
        if not self.probes_unique:
            return 1.0
        return self.probes_planned / self.probes_unique


class ProbeSnapshot(NamedTuple):
    """One shard's probe values plus everything a router needs, atomically.

    All fields are read under a single read-lock acquisition, so ``values``,
    ``base`` (the reduction's seed: zero for corner, grand total for EO82),
    ``total`` (the index grand total — the value of any probe that strictly
    dominates the shard's whole extent) and ``epoch`` describe one
    consistent index state: a scatter-gather merge built from them can never
    mix a shard's pre- and post-mutation views.
    """

    values: List[object]
    base: object
    total: object
    epoch: int
    probes_executed: int
    probe_cache_hits: int


class QueryService:
    """A thread-safe box-sum serving layer over one index.

    Parameters
    ----------
    index:
        The :class:`~repro.core.aggregator.BoxSumIndex` (or compatible
        object) to serve.  When it owns a storage context, the context's
        buffer pool is switched to thread-safe mode so concurrent readers
        cannot interleave LRU bookkeeping.
    result_cache / probe_cache:
        Entry capacities of the two epoch-invalidated LRU caches (0
        disables either).
    max_inflight / max_queue / queue_timeout:
        Admission control: concurrent executions, waiting slots, and an
        optional cap (seconds) on queue wait before shedding.
    oplog:
        An optional :class:`~repro.replog.ReplicationLog`.  When attached,
        every admitted mutation appends one logical record *inside* the
        write lock — immediately after the epoch bump — so the log's LSN
        sequence is exactly the epoch sequence, which is the invariant
        checkpoint/restore relies on (epoch = ``base_epoch + lsn``).
    approx:
        Opt-in bounded degradation.  Pass an
        :class:`~repro.approx.ApproxPolicy` (a single-slot
        :class:`~repro.approx.ApproxTier` is built over this index's
        mutation stream) or a pre-built tier.  When the admission gate
        would shed a query, the service answers from the synopsis as a
        typed :class:`~repro.approx.ApproxResult` with certified bounds
        instead of raising; exact answers are unchanged.  Default ``None``
        — overload sheds exactly as before.
    """

    def __init__(
        self,
        index,
        *,
        result_cache: int = 1024,
        probe_cache: int = 4096,
        max_inflight: int = 8,
        max_queue: int = 32,
        queue_timeout: Optional[float] = None,
        registry: Optional[MetricsRegistry] = None,
        label: Optional[str] = None,
        oplog=None,
        approx=None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        self.index = index
        self.oplog = oplog
        self.label = label if label is not None else getattr(index, "backend", "index")
        self._supports_probes = bool(getattr(index, "supports_probes", False))
        self._planner = BatchPlanner(index) if self._supports_probes else None
        self._results = EpochLRUCache(result_cache)
        self._probes = EpochLRUCache(probe_cache)
        self._rwlock = RWLock()
        #: Serializes monolithic queries of object backends (aR-tree keeps
        #: per-query instance state) — unused on the probe path.
        self._object_mutex = threading.Lock()
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.queue_timeout = queue_timeout
        self._gate = AdmissionGate(
            max_inflight, max_queue, queue_timeout, scope=f"service[{self.label}]"
        )
        self._epoch = 0
        #: Stream digest of every *recorded* mutation this member applied —
        #: the member-side half of the divergence-audit invariant
        #: ``digest(log) == digest(member)`` (see :mod:`repro.replog.digest`).
        self._digest = StateDigest()
        self._stats_lock = threading.Lock()
        self._counts: Dict[str, float] = {
            "batches": 0.0,
            "singles": 0.0,
            "queries": 0.0,
            "rejected": 0.0,
            "mutations": 0.0,
            "probes_planned": 0.0,
            "probes_unique": 0.0,
            "probes_executed": 0.0,
            "probes_saved": 0.0,
            "probe_cache_hits": 0.0,
            "result_cache_hits": 0.0,
            "result_cache_misses": 0.0,
            "backend_queries": 0.0,
            "degraded": 0.0,
        }
        storage = getattr(index, "storage", None)
        if storage is not None:
            storage.make_thread_safe()
        registry = registry if registry is not None else get_registry()
        if approx is not None and not isinstance(approx, ApproxTier):
            # Accept a bare policy as shorthand for a fresh single-slot tier.
            approx = ApproxTier(
                index.dims,
                1,
                policy=approx,
                measure=getattr(index, "measure", "sum"),
                registry=registry,
                label=f"{self.label}-approx",
            )
        self.approx = approx
        self._m_requests = registry.counter(
            "repro_service_requests", "requests admitted, by kind (single/batch)"
        )
        self._m_rejected = registry.counter(
            "repro_service_rejected", "requests shed by admission control"
        )
        self._m_queries = registry.counter("repro_service_queries", "box-sum queries answered")
        self._m_probes = registry.counter(
            "repro_service_probes", "dominance probes, by stage (planned/executed)"
        )
        self._m_saved = registry.counter(
            "repro_service_probes_saved", "probe executions avoided by batch dedup"
        )
        self._m_cache = registry.counter(
            "repro_service_cache_lookups", "cache lookups, by cache and outcome"
        )
        self._m_mutations = registry.counter(
            "repro_service_mutations", "epoch-bumping mutations applied"
        )
        self._m_epoch = registry.gauge("repro_service_epoch", "current service epoch")
        self._m_batch_size = registry.histogram(
            "repro_service_batch_size", "queries per request", buckets=BATCH_SIZE_BUCKETS
        )
        self._m_queue_wait = registry.histogram(
            "repro_service_queue_wait_seconds",
            "seconds spent waiting for an execution slot",
            buckets=QUEUE_WAIT_BUCKETS,
        )

    # -- admission --------------------------------------------------------------

    def _admit(self) -> float:
        """Take an execution slot (waiting if allowed); returns the wait time."""
        try:
            return self._gate.admit()
        except ServiceOverloadedError:
            with self._stats_lock:
                self._counts["rejected"] += 1
                self._m_rejected.inc(label=self.label)
            raise

    def _release(self) -> None:
        self._gate.release()

    # -- queries ---------------------------------------------------------------

    def box_sum(self, query: Box):
        """One cached, admission-controlled box-sum.

        With an approximate tier attached, overload degrades to a typed
        :class:`~repro.approx.ApproxResult` instead of shedding.
        """
        try:
            return self._serve([query], kind="single").results[0]
        except ServiceOverloadedError:
            degraded = self._degraded([query])
            if degraded is None:
                raise
            return degraded

    def box_sum_batch(self, queries: Sequence[Box]):
        """Answers for a batch, in request order (see :meth:`batch`)."""
        try:
            return self._serve(queries, kind="batch").results
        except ServiceOverloadedError:
            degraded = self._degraded(list(queries))
            if degraded is None:
                raise
            return degraded

    def batch(self, queries: Sequence[Box]):
        """A batch with its full accounting (epoch, dedup, cache hits)."""
        try:
            return self._serve(queries, kind="batch")
        except ServiceOverloadedError:
            degraded = self._degraded(list(queries))
            if degraded is None:
                raise
            return degraded

    def degraded_batch(self, queries: Sequence[Box], *, reason: str = "direct"):
        """Answer straight from the approximate tier (bypasses admission).

        Raises :class:`~repro.core.errors.NotSupportedError` when no tier
        is attached or the tier refuses (desynced mirrors).
        """
        if self.approx is None:
            raise NotSupportedError(f"service {self.label!r} has no approximate tier")
        result = self.approx.answer(list(queries), reason=reason)
        with self._stats_lock:
            self._counts["degraded"] += 1
        return result

    def _degraded(self, queries: List[Box]):
        """Overload fallback: a certified bounded answer, or None to re-raise."""
        if self.approx is None:
            return None
        result = self.approx.try_answer(queries, reason="overload")
        if result is not None:
            with self._stats_lock:
                self._counts["degraded"] += 1
        return result

    def _serve(self, queries: Sequence[Box], kind: str) -> BatchResult:
        queries = list(queries)
        wait_s = self._admit()
        try:
            with self._rwlock.read():
                tracer = _trace._ACTIVE
                if tracer is None:
                    result = self._execute(queries, wait_s)
                else:
                    with tracer.span("service.batch", label=self.label, queries=len(queries)):
                        result = self._execute(queries, wait_s)
                        tracer.event(
                            "service_plan",
                            cached=result.result_cache_hits,
                            unique=result.probes_unique,
                            executed=result.probes_executed,
                        )
        finally:
            self._release()
        with self._stats_lock:
            c = self._counts
            c["batches" if kind == "batch" else "singles"] += 1
            c["queries"] += len(queries)
            c["probes_planned"] += result.probes_planned
            c["probes_unique"] += result.probes_unique
            c["probes_executed"] += result.probes_executed
            c["probes_saved"] += result.probes_planned - result.probes_unique
            c["probe_cache_hits"] += result.probe_cache_hits
            c["result_cache_hits"] += result.result_cache_hits
            c["result_cache_misses"] += len(queries) - result.result_cache_hits
            self._m_requests.inc(kind=kind, label=self.label)
            self._m_queries.inc(len(queries), label=self.label)
            self._m_batch_size.observe(len(queries), label=self.label)
            self._m_queue_wait.observe(wait_s, label=self.label)
            if result.probes_planned:
                self._m_probes.inc(result.probes_planned, stage="planned", label=self.label)
            if result.probes_executed:
                self._m_probes.inc(result.probes_executed, stage="executed", label=self.label)
            saved = result.probes_planned - result.probes_unique
            if saved:
                self._m_saved.inc(saved, label=self.label)
            if result.result_cache_hits:
                self._m_cache.inc(
                    result.result_cache_hits, cache="result", outcome="hit", label=self.label
                )
            misses = len(queries) - result.result_cache_hits
            if misses:
                self._m_cache.inc(misses, cache="result", outcome="miss", label=self.label)
            if result.probe_cache_hits:
                self._m_cache.inc(
                    result.probe_cache_hits, cache="probe", outcome="hit", label=self.label
                )
        return result

    def _execute(self, queries: List[Box], wait_s: float) -> BatchResult:
        """Resolve a batch under the read lock: caches → planner → backend."""
        epoch = self._epoch
        answers: List[Optional[float]] = [None] * len(queries)
        missing: List[int] = []
        result_hits = 0
        for i, query in enumerate(queries):
            found, value = self._results.get(box_key(query), epoch)
            if found:
                answers[i] = value
                result_hits += 1
            else:
                missing.append(i)

        probes_planned = probes_unique = probes_executed = probe_hits = 0
        if missing:
            to_run = [queries[i] for i in missing]
            if self._planner is not None:
                plan = self._planner.plan(to_run)
                execution = self._planner.execute(
                    plan,
                    lookup=lambda identity: self._probes.get(probe_key(identity), epoch),
                    store=lambda identity, value: self._probes.put(
                        probe_key(identity), epoch, value
                    ),
                )
                fresh = execution.results
                probes_planned = execution.probes_total
                probes_unique = execution.probes_unique
                probes_executed = execution.probes_executed
                probe_hits = execution.probe_cache_hits
            else:
                with self._object_mutex:
                    fresh = [self.index.box_sum(query) for query in to_run]
                with self._stats_lock:
                    self._counts["backend_queries"] += len(to_run)
            for i, value in zip(missing, fresh):
                answers[i] = value
                self._results.put(box_key(queries[i]), epoch, value)

        return BatchResult(
            results=answers,
            epoch=epoch,
            result_cache_hits=result_hits,
            probes_planned=probes_planned,
            probes_unique=probes_unique,
            probes_executed=probes_executed,
            probe_cache_hits=probe_hits,
            queue_wait_s=wait_s,
        )

    # -- shard router seam -------------------------------------------------------

    def resolve_probe_values(self, identities: Sequence[ProbeIdentity]) -> ProbeSnapshot:
        """Resolve raw probe values for a router, atomically with base/total/epoch.

        This is the scatter half of sharded scatter-gather
        (:mod:`repro.shard.router`): the router deduplicates probe identities
        across queries and shards, each shard resolves its values here, and
        the gather side merges them by addition.  Everything in the returned
        :class:`ProbeSnapshot` is read under one read-lock acquisition, so the
        merge never mixes pre- and post-mutation views of this shard.  Probe
        values are cached in (and served from) the epoch-invalidated probe
        cache exactly like locally planned batches.
        """
        if not self._supports_probes:
            raise NotSupportedError(
                f"backend {self.label!r} exposes no probe seam; "
                "use box_sum_batch for monolithic evaluation"
            )
        executed = 0
        hits = 0
        values: List[object] = []
        self._admit()
        try:
            with self._rwlock.read():
                epoch = self._epoch
                for identity in identities:
                    found, value = self._probes.get(probe_key(identity), epoch)
                    if not found:
                        value = self.index.probe_value(identity[0], identity[1])
                        self._probes.put(probe_key(identity), epoch, value)
                        executed += 1
                    else:
                        hits += 1
                    values.append(value)
                base = self.index.probe_base
                total = self.index.total()
        finally:
            self._release()
        with self._stats_lock:
            self._counts["probes_executed"] += executed
            self._counts["probe_cache_hits"] += hits
            if executed:
                self._m_probes.inc(executed, stage="executed", label=self.label)
            if hits:
                self._m_cache.inc(hits, cache="probe", outcome="hit", label=self.label)
        return ProbeSnapshot(
            values=values,
            base=base,
            total=total,
            epoch=epoch,
            probes_executed=executed,
            probe_cache_hits=hits,
        )

    # -- mutations -------------------------------------------------------------

    def insert(self, box: Box, value: float = 1.0) -> int:
        """Insert one object exclusively; returns the new epoch."""
        check_finite_object(box, value)
        return self.mutate(
            lambda: self.index.insert(box, value),
            op="insert",
            record=InsertOp(box, float(value)),
        )

    def delete(self, box: Box, value: float = 1.0) -> int:
        """Delete one object exclusively; returns the new epoch."""
        check_finite_object(box, value)
        return self.mutate(
            lambda: self.index.delete(box, value),
            op="delete",
            record=DeleteOp(box, float(value)),
        )

    def bulk_load(self, objects) -> int:
        """Rebuild the index exclusively; returns the new epoch."""
        objects = list(objects)
        for box, value in objects:
            check_finite_object(box, value)
        return self.mutate(
            lambda: self.index.bulk_load(objects),
            op="bulk_load",
            record=BulkLoadOp(tuple((box, float(value)) for box, value in objects)),
        )

    def set_meta(self, key: str, blob: bytes) -> int:
        """Write an opaque metadata blob exclusively; returns the new epoch.

        Applied to the index when it exposes a ``set_meta`` hook (the
        durable pager does); always shipped to the replication log so a
        replica fronting a durable backend replays it.
        """
        apply_meta = getattr(self.index, "set_meta", None)
        fn = (lambda: apply_meta(blob)) if apply_meta is not None else (lambda: None)
        return self.mutate(fn, op="set_meta", record=SetMetaOp(key, bytes(blob)))

    def mutate(self, fn, op: str = "mutate", record=None) -> int:
        """Run an arbitrary index mutation under the write lock and bump the epoch.

        Use this for mutations the service has no verb for — e.g. a durable
        backend's ``set_meta`` — so cached results can never outlive them.
        ``record`` is the logical operation shipped to the attached
        replication log (if any); restores pass ``record=None`` so
        replaying the log never re-logs it.
        """
        # Fail fast before queueing on the write lock: a post-close mutation
        # must not block behind a draining reader.  The re-check inside the
        # lock closes the race with a concurrent close().
        if self._gate.closed:
            raise ServiceClosedError("service is closed")
        with self._rwlock.write():
            if self._gate.closed:
                raise ServiceClosedError("service is closed")
            fn()
            self._epoch += 1
            epoch = self._epoch
            if record is not None:
                # Digest the admitted record whether or not this member
                # carries the log itself: replicated members log at the
                # group level, yet each must track its own applied stream
                # for the divergence audit.  Un-recorded mutations
                # (restores, out-of-band tampering) deliberately do not
                # touch it — a restore re-seeds via sync_digest.
                self._digest.note(record)
            if self.oplog is not None and record is not None:
                self.oplog.record(record)
            if self.approx is not None:
                # Unrecorded mutations (record=None, e.g. restores) desync
                # the tier's mirror; it refuses to answer until reseeded.
                self.approx.note_record(0, record)
        with self._stats_lock:
            self._counts["mutations"] += 1
            self._m_mutations.inc(op=op, label=self.label)
            self._m_epoch.set(epoch, label=self.label)
        return epoch

    def checkpoint(self):
        """Snapshot the attached replication log's state under the write lock.

        Taking the write lock guarantees the checkpoint reflects a
        mutation boundary — no half-applied batch, no record racing the
        snapshot — and passing the live epoch pins the ``epoch =
        base_epoch + lsn`` invariant into the checkpoint file.
        """
        if self.oplog is None:
            raise NotSupportedError(f"service {self.label!r} has no replication log attached")
        with self._rwlock.write():
            return self.oplog.checkpoint(self._epoch)

    def sync_epoch(self, epoch: int) -> None:
        """Align this service's epoch after a log-driven restore.

        Both caches are cleared: entries were tagged with the pre-restore
        epoch sequence, and re-aligning the counter could otherwise let a
        stale value collide with a future epoch and be served as fresh.
        """
        with self._rwlock.write():
            self._epoch = epoch
            self._results.clear()
            self._probes.clear()
            if self.approx is not None:
                self.approx.desync()
        with self._stats_lock:
            self._m_epoch.set(epoch, label=self.label)

    def sync_digest(self, digest: StateDigest) -> None:
        """Re-seed the stream digest after a log-driven restore.

        Called by :meth:`~repro.replog.ReplicationLog.restore_into` with
        the restored state's digest, so the audit invariant
        ``digest(log) == digest(member)`` holds again from the first
        post-restore mutation.
        """
        with self._rwlock.write():
            self._digest = digest.copy()

    @property
    def state_digest(self) -> int:
        """The 64-bit stream digest of this member's applied mutations."""
        return self._digest.value

    @property
    def epoch(self) -> int:
        """Mutations applied so far; cached values are tagged with this."""
        return self._epoch

    # -- introspection -----------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """A flat snapshot: service counters plus both caches' stats."""
        with self._stats_lock:
            out = dict(self._counts)
        out["epoch"] = float(self._epoch)
        out["inflight"] = float(self._gate.inflight)
        out["dedup_ratio"] = (
            out["probes_planned"] / out["probes_unique"] if out["probes_unique"] else 1.0
        )
        for name, cache in (("result_cache", self._results), ("probe_cache", self._probes)):
            for key, value in cache.stats().items():
                out[f"{name}.{key}"] = value
        return out

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Reject new work, drain accepted requests, drop the caches.

        Close is *graceful*: requests the admission gate already accepted —
        executing or queued — run to completion and return real answers;
        only admissions arriving after the close are rejected with
        :class:`~repro.core.errors.ServiceClosedError`.  The caches are
        cleared only once the gate has drained, so no in-flight batch ever
        races a teardown.
        """
        if not self._gate.close():
            return
        self._gate.drain()
        self._results.clear()
        self._probes.clear()

    @property
    def closed(self) -> bool:
        return self._gate.closed

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()


__all__ = [
    "QueryService",
    "BatchResult",
    "ProbeSnapshot",
    "ServiceOverloadedError",
    "ServiceClosedError",
]

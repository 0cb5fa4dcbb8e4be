"""``ShardedService``: N shard-local query services behind one exact facade.

Each shard owns a full :class:`~repro.core.aggregator.BoxSumIndex` (its own
epoch caches, readers–writer lock and, optionally, storage context) wrapped
in a :class:`~repro.service.service.QueryService`; the cluster adds:

* **routing** — inserts go where the :class:`~repro.shard.partition.ShardMap`
  assigns them; deletes follow the *ledger* (the cluster's authoritative
  per-object ownership record), falling back to the map for objects it has
  never seen (still exact: a dominance negation cancels additively no
  matter which shard absorbs it);
* **cluster-wide admission** — an :class:`~repro.service.locks.AdmissionGate`
  in front of the scatter path, stacked above the per-shard gates, so
  overload is shed before it fans out;
* **exact scatter-gather queries** — via :class:`~repro.shard.router.ShardRouter`
  with per-shard grow-only extent MBRs enabling probe pruning/covering;
* **online rebalancing** — under the cluster write lock (queries drain
  first, none can start), the hottest shard either has its kd region split
  (map-aware) or sheds objects to the coldest shard through the ledger
  (map-agnostic); either way no query ever observes a torn half-migrated
  view.

Locking order is strictly ``cluster lock → metadata mutex → shard locks``;
queries and single-object mutations take the cluster lock *shared* (each
shard serializes its own mutations), only rebalancing takes it exclusive.
"""

from __future__ import annotations

import itertools
import os
import threading
from inspect import signature
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from ..approx.bounds import ApproxResult
from ..approx.builder import ApproxPolicy, ApproxTier
from ..core.aggregator import BoxSumIndex
from ..core.errors import (
    NotSupportedError,
    ServiceClosedError,
    ServiceOverloadedError,
    ShardUnavailableError,
)
from ..core.geometry import Box, check_finite_object
from ..obs import trace as _trace
from ..obs.registry import MetricsRegistry, get_registry
from ..replog import ReplicationLog
from ..resilience.config import ResilienceConfig
from ..resilience.group import ReplicaGroup
from ..resilience.partial import PartialResult
from ..service.locks import AdmissionGate, RWLock
from ..service.service import QUEUE_WAIT_BUCKETS, QueryService
from .partition import ShardMap, make_shard_map
from .router import ClusterBatchResult, ShardRouter

#: One ledger entry: an exact object key → per-shard instance counts.
_LedgerKey = Tuple[Tuple[float, ...], Tuple[float, ...], float]


class WorkerRestartReport(NamedTuple):
    """Outcome of one :meth:`ShardedService.restart_worker` invocation."""

    shard: int
    #: Member ids repaired (empty when no member was found dead).
    members: Tuple[int, ...]
    #: Pid of the last worker respawned (None for in-process members).
    pid: Optional[int]


class RebalanceReport(NamedTuple):
    """Outcome of one :meth:`ShardedService.rebalance` invocation."""

    source: int
    target: int
    moved: int
    #: ``"split"`` (the shard map refined its regions), ``"ledger"`` (generic
    #: migration without touching the map), or ``"noop"``.
    strategy: str
    objects: Tuple[int, ...]

    @property
    def imbalance(self) -> float:
        """Post-rebalance max/mean object-count ratio (1.0 = perfect)."""
        return _imbalance(self.objects)


def _imbalance(counts: Sequence[int]) -> float:
    clamped = [max(0, c) for c in counts]
    total = sum(clamped)
    if not clamped or total == 0:
        return 1.0
    return max(clamped) / (total / len(clamped))


class ShardedService:
    """Exact box-sum serving over horizontally partitioned objects.

    Parameters
    ----------
    dims:
        Dimensionality of every shard index.
    num_shards:
        Number of shard-local indices (>= 1).
    backend / reduction / measure / index_kwargs:
        Forwarded to each shard's :class:`~repro.core.aggregator.BoxSumIndex`
        (ignored when ``index_factory`` is given).
    index_factory:
        ``shard_id -> index`` override for heterogeneous or durable shards
        (e.g. each shard on its own :class:`~repro.storage.StorageContext`).
    partitioner:
        A registry name (``"kd"``, ``"hash"``, ``"roundrobin"``), a
        :class:`~repro.shard.partition.Partitioner`, or a restored
        :class:`~repro.shard.partition.ShardMap`.
    max_inflight / max_queue / queue_timeout:
        The *cluster* admission gate.  Per-shard services default to the
        same budget (the cluster gate is then the binding constraint); tune
        individual shards via ``shard_kwargs``.
    workers:
        ``None`` (default) hosts every shard in this process; the router
        scatters to them inline on the calling thread (the probes are pure
        Python, so a thread pool would only serialize on the GIL).  The
        string ``"process"`` switches every shard member to a
        :class:`~repro.rpc.WorkerClient` — a ``multiprocessing`` child
        hosting the shard service behind the wire protocol of
        :mod:`repro.rpc` — and, with more than one shard, gives the router
        a fan-out pool of ``min(num_shards, 8)`` threads so round-trips to
        different workers overlap (the waiting thread releases the GIL on
        pipe I/O).  Answers stay bit-identical; ``index_factory`` is
        rejected (a factory closure cannot cross the process boundary —
        use the declarative backend/kwargs form).  Any other value raises
        :class:`ValueError`.
    replicas:
        Synchronous replicas per shard beyond the primary.  Any non-zero
        value (or a ``resilience`` config, or a ``service_wrapper``) turns
        each shard into a :class:`~repro.resilience.group.ReplicaGroup`:
        mutations fan out to every member, queries fail over between them
        behind per-member circuit breakers — and stay bit-identical, since
        every member answers exactly.
    resilience:
        The failover policy (:class:`~repro.resilience.config.ResilienceConfig`):
        retry budget, per-attempt deadline, backoff, hedged reads, and
        whether a whole-group outage degrades to a
        :class:`~repro.resilience.partial.PartialResult` instead of raising
        :class:`~repro.core.errors.ShardUnavailableError`.
    service_wrapper:
        ``(service, shard_id, member_id) -> service`` hook applied to every
        member service as the groups are built — the chaos harness's seam
        (:func:`~repro.resilience.chaos.chaos_member_wrapper`), also usable
        for bespoke instrumentation.
    replog_dir:
        When set, every shard ships its admitted mutations to a
        :class:`~repro.replog.ReplicationLog` under
        ``<replog_dir>/shard-<sid>``.  Replicated shards log at the group
        level (one record per admitted group mutation); unreplicated
        shards attach the log to the shard service itself.  Enables
        :meth:`checkpoint`, :meth:`add_replica`, :meth:`catch_up` /
        :meth:`catch_up_all` and per-shard point-in-time recovery.
        Members built here are *not* run through ``service_wrapper`` when
        seeded later — a freshly restored member starts clean.
    replog_options:
        Extra keyword arguments for each shard's
        :class:`~repro.replog.ReplicationLog` (``segment_bytes``,
        ``fsync``, ``checkpoint_retain``, ...).
    degrade:
        ``"off"`` (default) or ``"bounded"``.  With ``"bounded"`` the
        cluster keeps a per-shard :class:`~repro.approx.ApproxTier` fed
        from the admitted mutation stream; queries that admission would
        shed, or whose shards are entirely unavailable, answer from the
        synopsis as a typed :class:`~repro.approx.ApproxResult` carrying
        certified ``[lo, hi]`` bounds instead of failing.  Exact-path
        answers are bit-identical either way — the tier only ever serves
        requests that would otherwise shed, degrade or raise.
    approx_policy:
        The tier's :class:`~repro.approx.ApproxPolicy` (fit granularity
        and degree, bounded-staleness budget, auto-refresh) when
        ``degrade="bounded"``; ignored otherwise.
    heal:
        A :class:`~repro.heal.HealPolicy` (or ``True`` for the defaults)
        attaches a :class:`~repro.heal.HealSupervisor` to the cluster:
        automatic detection and repair of poisoned members, dead worker
        processes, tripped breakers and digest-diverged replicas.  With
        ``policy.auto_start`` (the default) the wall-clock supervisor
        thread starts here and is stopped by :meth:`close`.
    """

    def __init__(
        self,
        dims: int,
        num_shards: int,
        *,
        backend: str = "ba",
        reduction: str = "corner",
        measure: str = "sum",
        partitioner="kd",
        index_factory=None,
        index_kwargs: Optional[Dict[str, object]] = None,
        shard_kwargs: Optional[Dict[str, object]] = None,
        max_inflight: int = 8,
        max_queue: int = 32,
        queue_timeout: Optional[float] = None,
        workers: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
        label: str = "cluster",
        replicas: int = 0,
        resilience: Optional[ResilienceConfig] = None,
        service_wrapper=None,
        replog_dir: Optional[str] = None,
        replog_options: Optional[Dict[str, object]] = None,
        degrade: str = "off",
        approx_policy: Optional[ApproxPolicy] = None,
        heal=None,
    ) -> None:
        self.dims = dims
        self.label = label
        if workers not in (None, "process"):
            raise ValueError(f'workers must be None or "process", got {workers!r}')
        process_workers = workers == "process"
        if process_workers:
            if index_factory is not None:
                raise NotSupportedError(
                    "workers='process' cannot ship an index_factory closure "
                    "across the process boundary; use the declarative "
                    "backend/reduction/measure/index_kwargs form"
                )
        self._process_workers = process_workers
        self._map = make_shard_map(partitioner, num_shards, replicas=replicas)
        replicas = self._map.replicas
        registry = registry if registry is not None else get_registry()
        index_kwargs = dict(index_kwargs or {})
        shard_kwargs = dict(shard_kwargs or {})
        shard_kwargs.setdefault("max_inflight", max_inflight)
        shard_kwargs.setdefault("max_queue", max_queue)
        # Replication, an explicit failover policy or a member wrapper all
        # switch the shards to replica groups; otherwise the plain
        # single-service path is untouched (no extra layers, no threads).
        self._resilient = bool(replicas or resilience is not None or service_wrapper is not None)
        self.resilience = (
            (resilience if resilience is not None else ResilienceConfig())
            if self._resilient
            else None
        )
        if degrade not in ("off", "bounded"):
            raise ValueError(f'degrade must be "off" or "bounded", got {degrade!r}')
        self.degrade = degrade
        # The approximate tier mirrors the declared measure; clusters built
        # through an index_factory must declare the matching measure= too.
        self._approx = (
            ApproxTier(
                dims,
                num_shards,
                policy=approx_policy,
                measure=measure,
                registry=registry,
                label=f"{label}-approx",
            )
            if degrade == "bounded"
            else None
        )
        factory_arity = 1
        if index_factory is not None:
            try:
                factory_arity = len(signature(index_factory).parameters)
            except (TypeError, ValueError):
                factory_arity = 1

        def build_index(sid: int, member: int):
            if index_factory is None:
                return BoxSumIndex(
                    dims,
                    backend=backend,
                    reduction=reduction,
                    measure=measure,
                    **index_kwargs,
                )
            # A 2-arg factory places each member separately (e.g. its own
            # storage directory); a 1-arg factory is called once per member
            # and must yield equivalent empty indices.
            if factory_arity >= 2:
                return index_factory(sid, member)
            return index_factory(sid)

        self._replogs: List[Optional[ReplicationLog]] = []
        replog_options = dict(replog_options or {})

        def build_replog(sid: int) -> Optional[ReplicationLog]:
            if replog_dir is None:
                return None
            return ReplicationLog(
                os.path.join(replog_dir, f"shard-{sid:04d}"),
                registry=registry,
                label=f"{label}/s{sid}",
                **replog_options,
            )

        if process_workers:
            # Imported lazily: the cluster only depends on the RPC layer
            # when process workers are actually requested.
            from ..rpc.client import WorkerClient
            from ..rpc.worker import make_spec

            def build_member(sid: int, member: int, suffix: str, oplog):
                spec = make_spec(
                    dims,
                    backend=backend,
                    reduction=reduction,
                    measure=measure,
                    index_kwargs=index_kwargs,
                    service_kwargs=shard_kwargs,
                    label=f"{label}/{suffix}",
                )
                return WorkerClient(spec, registry=registry, oplog=oplog)

        else:

            def build_member(sid: int, member: int, suffix: str, oplog):
                return QueryService(
                    build_index(sid, member),
                    registry=registry,
                    label=f"{label}/{suffix}",
                    oplog=oplog,
                    **shard_kwargs,
                )

        self._groups: List[ReplicaGroup] = []
        self._shards: List[Union[QueryService, ReplicaGroup]] = []
        self._build_index = build_index
        #: member ids for log-seeded members (2-arg index factories place
        #: each member separately, so late members need fresh ids)
        self._member_ids = itertools.count(1000)
        for sid in range(num_shards):
            replog = build_replog(sid)
            self._replogs.append(replog)
            members: List[QueryService] = []
            for member in range(1 + replicas):
                suffix = f"s{sid}" if member == 0 else f"s{sid}r{member}"
                # Replicated shards log at the group level; attaching the
                # log to members too would double-ship every record.
                service = build_member(
                    sid, member, suffix, replog if not self._resilient else None
                )
                if service_wrapper is not None:
                    service = service_wrapper(service, sid, member)
                members.append(service)
            if self._resilient:

                def make_member(sid=sid) -> QueryService:
                    member = next(self._member_ids)
                    return build_member(sid, member, f"s{sid}m{member}", None)

                group = ReplicaGroup(
                    sid,
                    members,
                    config=self.resilience,
                    registry=registry,
                    label=label,
                    replication_log=replog,
                    member_factory=make_member,
                )
                self._groups.append(group)
                self._shards.append(group)
            else:
                self._shards.append(members[0])
        # Only process workers overlap: the parent thread blocks on pipe I/O
        # with the GIL released.  In-process shards are scattered inline.
        self._executor = None
        if process_workers and num_shards > 1:
            from concurrent.futures import ThreadPoolExecutor

            self._executor = ThreadPoolExecutor(
                max_workers=min(num_shards, 8), thread_name_prefix="repro-shard"
            )
        self._router = ShardRouter(
            self._shards,
            executor=self._executor,
            registry=registry,
            label=label,
            allow_partial=bool(self.resilience and self.resilience.partial_results)
            or self._approx is not None,
        )
        self._gate = AdmissionGate(
            max_inflight, max_queue, queue_timeout, scope=f"cluster[{label}]"
        )
        self._cluster_lock = RWLock()
        self._meta = threading.Lock()
        self._ledger: Dict[_LedgerKey, Dict[int, int]] = {}
        self._extents: List[Optional[Box]] = [None] * num_shards
        self._object_counts: List[int] = [0] * num_shards
        self._stats_lock = threading.Lock()
        self._counts: Dict[str, float] = {
            "queries": 0.0,
            "batches": 0.0,
            "rejected": 0.0,
            "mutations": 0.0,
            "rebalances": 0.0,
            "migrated": 0.0,
            "partial_batches": 0.0,
            "degraded_batches": 0.0,
        }
        self._m_objects = registry.gauge(
            "repro_shard_objects", "objects currently owned, per shard"
        )
        self._m_imbalance = registry.gauge(
            "repro_shard_imbalance", "max/mean per-shard object-count ratio"
        )
        self._m_queries = registry.counter(
            "repro_shard_queries", "box-sum queries answered by the cluster"
        )
        self._m_rejected = registry.counter(
            "repro_shard_rejected", "batches shed by the cluster admission gate"
        )
        self._m_mutations = registry.counter(
            "repro_shard_mutations", "mutations routed to shards, by op"
        )
        self._m_rebalances = registry.counter(
            "repro_shard_rebalances", "rebalance rounds, by strategy"
        )
        self._m_migrated = registry.counter(
            "repro_shard_migrated", "objects moved between shards by rebalancing"
        )
        self._m_queue_wait = registry.histogram(
            "repro_shard_queue_wait_seconds",
            "seconds batches waited at the cluster gate",
            buckets=QUEUE_WAIT_BUCKETS,
        )
        self._m_partial = registry.counter(
            "repro_resilience_partial_batches",
            "batches degraded to PartialResult by whole-group outages",
        )
        self._m_degraded = registry.counter(
            "repro_approx_degraded_batches",
            "batches answered with certified bounds instead of failing, by reason",
        )
        self._publish_balance()
        self._heal = None
        if heal:
            # Imported lazily: the cluster only depends on the heal layer
            # when a supervisor is actually requested.
            from ..heal import HealPolicy, HealSupervisor

            policy = heal if isinstance(heal, HealPolicy) else HealPolicy()
            self._heal = HealSupervisor(
                self, policy, registry=registry, label=f"{label}-heal"
            )
            if policy.auto_start:
                self._heal.start()

    # -- introspection accessors ---------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def num_objects(self) -> int:
        """Objects currently owned across every shard (ledger count)."""
        with self._meta:
            return sum(self._object_counts)

    @property
    def shard_map(self) -> ShardMap:
        return self._map

    @property
    def services(self) -> Tuple[QueryService, ...]:
        """The shard-local services, in shard-id order (read-only use).

        In a replicated cluster these are the *primaries*; use
        :attr:`groups` for the full replica topology.
        """
        if self._groups:
            return tuple(group.primary for group in self._groups)
        return tuple(self._shards)

    @property
    def groups(self) -> Tuple[ReplicaGroup, ...]:
        """The replica groups (empty tuple when the cluster is unreplicated)."""
        return tuple(self._groups)

    @property
    def admission(self) -> AdmissionGate:
        """The cluster admission gate (read its limits; don't drive it)."""
        return self._gate

    @property
    def replicas(self) -> int:
        """Synchronous replicas per shard beyond the primary."""
        return self._map.replicas

    @property
    def heal_supervisor(self):
        """The self-healing supervisor (None when built without ``heal=``)."""
        return self._heal

    @property
    def imbalance(self) -> float:
        """Current max/mean object-count ratio (1.0 = perfectly balanced)."""
        with self._meta:
            return _imbalance(self._object_counts)

    def object_counts(self) -> List[int]:
        """Per-shard object counts, in shard-id order."""
        with self._meta:
            return list(self._object_counts)

    def extents(self) -> List[Optional[Box]]:
        """Per-shard grow-only extent MBRs (None = shard never touched)."""
        with self._meta:
            return list(self._extents)

    def epochs(self) -> List[int]:
        """Per-shard service epochs, in shard-id order."""
        return [service.epoch for service in self._shards]

    # -- queries -------------------------------------------------------------------

    def box_sum(self, query: Box) -> Union[float, PartialResult, ApproxResult]:
        """One exact cluster-wide box-sum.

        With ``partial_results`` opted in and a whole replica group down,
        returns a single-query :class:`PartialResult` instead of a bare
        float; with ``degrade="bounded"`` an outage (or an overload shed)
        returns an :class:`~repro.approx.ApproxResult` with certified
        bounds — a degraded answer is never a silently wrong number.
        """
        outcome = self.batch([query])
        if isinstance(outcome, (PartialResult, ApproxResult)):
            return outcome
        return outcome.results[0]

    def box_sum_batch(
        self, queries: Sequence[Box]
    ) -> Union[List[float], PartialResult, ApproxResult]:
        """Exact answers for a batch, in request order (or a typed degradation)."""
        outcome = self.batch(queries)
        if isinstance(outcome, (PartialResult, ApproxResult)):
            return outcome
        return outcome.results

    def batch(
        self, queries: Sequence[Box]
    ) -> Union[ClusterBatchResult, PartialResult, ApproxResult]:
        """Scatter a batch across the shards and gather the exact merge.

        Returns a :class:`ClusterBatchResult` when every shard answered.
        A dead replica group raises
        :class:`~repro.core.errors.ShardUnavailableError` by default;
        with :class:`~repro.resilience.config.ResilienceConfig`
        ``partial_results=True`` it degrades to a :class:`PartialResult`
        carrying the answered-shard sums and the missing shards' extents.
        With ``degrade="bounded"`` both failure modes — an admission shed
        and a whole-group outage — degrade to an
        :class:`~repro.approx.ApproxResult` instead: the answered shards'
        exact sums plus certified synopsis intervals for what's missing,
        merged by interval arithmetic (bounded beats partial when both
        are enabled; a refused tier falls back to partial, then raises).
        """
        queries = list(queries)
        try:
            wait_s = self._admit()
        except ServiceOverloadedError:
            degraded = self._degraded(queries, reason="overload")
            if degraded is not None:
                return degraded
            raise
        try:
            with self._cluster_lock.read():
                extents = self.extents()
                result = self._router.scatter(queries, extents)
        finally:
            self._gate.release()
        with self._stats_lock:
            self._counts["batches"] += 1
            self._counts["queries"] += len(queries)
            self._m_queries.inc(len(queries), label=self.label)
            self._m_queue_wait.observe(wait_s, label=self.label)
        if result.shards_failed:
            answered = [
                sid for sid in range(self.num_shards) if sid not in result.shards_failed
            ]
            degraded = self._degraded(
                queries,
                reason="outage",
                slots=result.shards_failed,
                base=result.results,
                answered=answered,
            )
            if degraded is not None:
                return degraded
            if self.resilience and self.resilience.partial_results:
                with self._stats_lock:
                    self._counts["partial_batches"] += 1
                    self._m_partial.inc(label=self.label)
                return PartialResult(
                    result.results,
                    answered=answered,
                    missing=result.shards_failed,
                    missing_extents={sid: extents[sid] for sid in result.shards_failed},
                    queries=queries,
                )
            raise ShardUnavailableError(
                f"shards {sorted(result.shards_failed)} unavailable and no degraded "
                "answer was possible",
                shard=sorted(result.shards_failed)[0],
            )
        return result

    def degraded_batch(self, queries: Sequence[Box], *, reason: str = "direct") -> ApproxResult:
        """Answer straight from the approximate tier (bypasses admission).

        This is the explicit entry point for callers that already know the
        exact path is saturated (e.g. a load generator's queue model) and
        for tests; serving's own overload/outage fallbacks use the same
        tier.  Raises :class:`~repro.core.errors.NotSupportedError` when
        the cluster was built without ``degrade="bounded"`` or the tier
        refuses (desynced mirrors).
        """
        if self._approx is None:
            raise NotSupportedError(
                f'cluster {self.label!r} was built without degrade="bounded"'
            )
        result = self._approx.answer(list(queries), reason=reason)
        self._note_degraded(reason)
        return result

    def _degraded(
        self,
        queries: List[Box],
        *,
        reason: str,
        slots=None,
        base=None,
        answered: Sequence[int] = (),
    ) -> Optional[ApproxResult]:
        """A certified bounded answer, or None to let the caller fail loudly."""
        if self._approx is None:
            return None
        result = self._approx.try_answer(
            queries, reason=reason, slots=slots, base=base, answered=answered
        )
        if result is not None:
            self._note_degraded(reason)
        return result

    def _note_degraded(self, reason: str) -> None:
        with self._stats_lock:
            self._counts["degraded_batches"] += 1
            self._m_degraded.inc(reason=reason, label=self.label)

    @property
    def approx_tier(self) -> Optional[ApproxTier]:
        """The approximate tier, when ``degrade="bounded"`` (else None)."""
        return self._approx

    def _admit(self) -> float:
        try:
            return self._gate.admit()
        except ServiceOverloadedError:
            with self._stats_lock:
                self._counts["rejected"] += 1
                self._m_rejected.inc(label=self.label)
            raise

    # -- mutations -----------------------------------------------------------------

    def insert(self, box: Box, value: float = 1.0) -> int:
        """Insert one object on its assigned shard; returns the shard id."""
        check_finite_object(box, value)
        with self._cluster_lock.read():
            self._check_open()
            key = self._ledger_key(box, value)
            with self._meta:
                sid = self._map.assign(box)
                # Extent grows *before* the shard mutation lands so a
                # concurrent scatter can only overcover (safe), never
                # undercover (which would wrongly prune a live object).
                self._grow_extent(sid, box)
                owners = self._ledger.setdefault(key, {})
                owners[sid] = owners.get(sid, 0) + 1
                self._object_counts[sid] += 1
            self._shards[sid].insert(box, value)
            if self._approx is not None:
                self._approx.note_insert(sid, box, value)
        self._note_mutation("insert", sid)
        return sid

    def delete(self, box: Box, value: float = 1.0) -> int:
        """Delete one object from its owning shard; returns the shard id.

        Ownership comes from the ledger; an object the cluster never saw is
        routed by the map and still cancels exactly (the negation is
        additive wherever it lands), at the cost of a transiently negative
        count on that shard.
        """
        check_finite_object(box, value)
        with self._cluster_lock.read():
            self._check_open()
            key = self._ledger_key(box, value)
            with self._meta:
                owners = self._ledger.get(key)
                if owners:
                    sid = min(owners)
                    owners[sid] -= 1
                    if owners[sid] == 0:
                        del owners[sid]
                    if not owners:
                        del self._ledger[key]
                else:
                    sid = self._map.assign(box)
                # The negation corners land on this shard, so its extent
                # must cover them too.
                self._grow_extent(sid, box)
                self._object_counts[sid] -= 1
            self._shards[sid].delete(box, value)
            if self._approx is not None:
                self._approx.note_delete(sid, box, value)
        self._note_mutation("delete", sid)
        return sid

    def bulk_load(self, objects: Iterable[Tuple[Box, float]], *, fit: bool = True) -> List[int]:
        """Partition and load a fresh object set; returns per-shard counts.

        ``fit=True`` first adapts the partitioner to the data (the kd
        partitioner builds its median tree here; hash/round-robin ignore
        it).  Runs under the cluster write lock: no query can observe a
        partially loaded cluster.
        """
        pairs = [(box, float(value)) for box, value in objects]
        for box, value in pairs:
            check_finite_object(box, value)
        with self._cluster_lock.write():
            self._check_open()
            with self._meta:
                if fit:
                    self._map.fit([box for box, _ in pairs])
                per_shard: List[List[Tuple[Box, float]]] = [[] for _ in self._shards]
                self._ledger.clear()
                self._extents = [None] * self.num_shards
                for box, value in pairs:
                    sid = self._map.assign(box)
                    per_shard[sid].append((box, value))
                    self._grow_extent(sid, box)
                    owners = self._ledger.setdefault(self._ledger_key(box, value), {})
                    owners[sid] = owners.get(sid, 0) + 1
                self._object_counts = [len(chunk) for chunk in per_shard]
            for sid, service in enumerate(self._shards):
                service.bulk_load(per_shard[sid])
            if self._approx is not None:
                self._approx.note_bulk_load(per_shard)
        self._note_mutation("bulk_load", None)
        return [len(chunk) for chunk in per_shard]

    # -- rebalancing ---------------------------------------------------------------

    def rebalance(self) -> RebalanceReport:
        """Move load from the hottest shard to the coldest, atomically.

        Under the cluster write lock (queries drain, none can start): pick
        the shards with the most and fewest owned objects; ask the map to
        split the hot region (kd succeeds, hash/round-robin decline); then
        migrate — map-directed objects after a split, or the first half of
        the count difference in deterministic ledger order otherwise.  Each
        migration is a delete on the source plus an insert on the target,
        so every shard's index stays internally exact throughout.
        """
        with self._cluster_lock.write():
            self._check_open()
            counts = [max(0, c) for c in self._object_counts]
            hot = max(range(len(counts)), key=counts.__getitem__)
            cold = min(range(len(counts)), key=counts.__getitem__)
            if hot == cold or counts[hot] - counts[cold] <= 1:
                report = RebalanceReport(hot, cold, 0, "noop", tuple(self._object_counts))
            else:
                hot_entries = [
                    (key, owners[hot])
                    for key, owners in self._ledger.items()
                    if owners.get(hot, 0) > 0
                ]
                centers = [
                    Box(key[0], key[1]).center()
                    for key, count in hot_entries
                    for _ in range(count)
                ]
                if self._map.rebalance(hot, cold, centers):
                    to_move = [
                        (key, count)
                        for key, count in hot_entries
                        if self._map.assign(Box(key[0], key[1])) == cold
                    ]
                    strategy = "split"
                else:
                    deficit = (counts[hot] - counts[cold]) // 2
                    to_move = []
                    taken = 0
                    for key, count in hot_entries:
                        if taken >= deficit:
                            break
                        take = min(count, deficit - taken)
                        to_move.append((key, take))
                        taken += take
                    strategy = "ledger"
                moved = self._migrate(hot, cold, to_move)
                report = RebalanceReport(hot, cold, moved, strategy, tuple(self._object_counts))
        with self._stats_lock:
            self._counts["rebalances"] += 1
            self._counts["migrated"] += report.moved
            self._m_rebalances.inc(strategy=report.strategy, label=self.label)
            if report.moved:
                self._m_migrated.inc(report.moved, label=self.label)
        self._publish_balance()
        tracer = _trace._ACTIVE
        if tracer is not None:
            tracer.event(
                "shard_rebalance",
                source=report.source,
                target=report.target,
                moved=report.moved,
                strategy=report.strategy,
            )
        return report

    def _migrate(self, source: int, target: int, entries: List[Tuple[_LedgerKey, int]]) -> int:
        """Move ``count`` instances of each keyed object between shards.

        Caller holds the cluster write lock, so the ledger, extents and both
        shard indices change with no reader in flight.
        """
        moved = 0
        for key, count in entries:
            box = Box(key[0], key[1])
            value = key[2]
            for _ in range(count):
                self._grow_extent(source, box)
                self._grow_extent(target, box)
                self._shards[source].delete(box, value)
                self._shards[target].insert(box, value)
                if self._approx is not None:
                    self._approx.note_migrate(source, target, box, value)
            owners = self._ledger[key]
            owners[source] -= count
            if owners[source] == 0:
                del owners[source]
            owners[target] = owners.get(target, 0) + count
            self._object_counts[source] -= count
            self._object_counts[target] += count
            moved += count
        return moved

    # -- log-shipping / recovery -----------------------------------------------------

    @property
    def replication_logs(self) -> Tuple[Optional[ReplicationLog], ...]:
        """Per-shard replication logs (all None without ``replog_dir``)."""
        return tuple(self._replogs)

    def _require_replog(self, sid: int) -> ReplicationLog:
        if not 0 <= sid < self.num_shards:
            raise ValueError(f"unknown shard {sid}")
        replog = self._replogs[sid]
        if replog is None:
            raise NotSupportedError(
                f"cluster {self.label!r} was built without replog_dir; "
                "log-shipping verbs are unavailable"
            )
        return replog

    def checkpoint(self) -> List[object]:
        """Checkpoint every shard's replication log at a mutation boundary.

        Runs under the cluster read lock (rebalances excluded); each
        shard's own mutation serialization makes its snapshot consistent.
        Returns the per-shard :class:`~repro.replog.Checkpoint` list.
        """
        self._require_replog(0)
        checkpoints = []
        with self._cluster_lock.read():
            for shard in self._shards:
                checkpoints.append(shard.checkpoint())
        return checkpoints

    def add_replica(self, sid: int) -> int:
        """Seed one new member for shard ``sid`` from checkpoint + log tail.

        The member is built by the shard's member factory, restored to the
        group's head LSN and only then enters the serve rotation.  Returns
        the new member id within the group.
        """
        self._require_replog(sid)
        if not self._groups:
            raise NotSupportedError(
                f"cluster {self.label!r} is unreplicated; "
                "build it with replicas/resilience to host replica groups"
            )
        with self._cluster_lock.read():
            return self._groups[sid].add_member()

    def catch_up(self, sid: int, mid: int, *, audit_probes: int = 16):
        """Restore shard ``sid``'s poisoned member ``mid`` from its log."""
        self._require_replog(sid)
        if not self._groups:
            raise NotSupportedError(f"cluster {self.label!r} is unreplicated")
        with self._cluster_lock.read():
            return self._groups[sid].catch_up(mid, audit_probes=audit_probes)

    def catch_up_all(self, *, audit_probes: int = 16) -> Dict[int, List[int]]:
        """Catch up every poisoned member, cluster-wide.

        Returns ``{shard_id: [revived member ids]}`` for shards where
        anything changed.  This is a one-shot operator sweep; the one
        background repair loop is :class:`~repro.heal.HealSupervisor`
        (``heal=``), which repairs members as their health demands.
        """
        if not self._groups:
            return {}
        revived: Dict[int, List[int]] = {}
        with self._cluster_lock.read():
            for sid, group in enumerate(self._groups):
                if self._replogs[sid] is None:
                    continue
                members = group.catch_up_all(audit_probes=audit_probes)
                if members:
                    revived[sid] = members
        return revived

    def restart_worker(self, sid: int) -> WorkerRestartReport:
        """Respawn and restore shard ``sid``'s dead worker process(es).

        The public remedy for
        :class:`~repro.core.errors.WorkerCrashedError` ("restart() +
        catch_up to revive").  In a replicated cluster every crashed
        member routes through
        :meth:`~repro.resilience.group.ReplicaGroup.repair`: the dead
        member is poisoned (if a mutation has not already witnessed the
        death), respawned, restored from checkpoint + log tail and
        bit-exactness-audited before re-entering the rotation.  An
        unreplicated shard restarts its worker and restores it from the
        shard's log directly.  Either way a replication log is required —
        a respawned worker is empty, and without the log there is nothing
        to restore it *from* — so clusters built without ``replog_dir``
        raise :class:`~repro.core.errors.NotSupportedError` before any
        worker is touched.  Returns the member ids actually repaired
        (empty when nothing was dead — an idempotent no-op).
        """
        replog = self._require_replog(sid)
        with self._cluster_lock.read():
            if self._groups:
                group = self._groups[sid]
                repaired: List[int] = []
                pid: Optional[int] = None
                for mid in range(len(group.members)):
                    member = group.members[mid]
                    if not getattr(member, "crashed", False):
                        continue
                    group.repair(mid, audit_probes=16)
                    repaired.append(mid)
                    pid = getattr(member, "pid", pid)
                return WorkerRestartReport(sid, tuple(repaired), pid)
            shard = self._shards[sid]
            restart = getattr(shard, "restart", None)
            if restart is None:
                raise NotSupportedError(
                    f"shard {sid} is served in-process; there is no worker "
                    "to restart (build the cluster with workers='process')"
                )
            if not getattr(shard, "crashed", False):
                return WorkerRestartReport(sid, (), getattr(shard, "pid", None))
            restart()
            replog.restore_into(shard)
            return WorkerRestartReport(sid, (0,), getattr(shard, "pid", None))

    def recover_shard_to(self, sid: int, lsn: int) -> QueryService:
        """Point-in-time recovery: shard ``sid`` as of record ``lsn``.

        Builds a fresh index through the shard's own factory settings and
        replays checkpoint + tail into it — an offline forensic replica;
        the live shard is untouched.
        """
        replog = self._require_replog(sid)
        member = next(self._member_ids)
        return replog.recover_to(lsn, lambda: self._build_index(sid, member))

    # -- internals -----------------------------------------------------------------

    @staticmethod
    def _ledger_key(box: Box, value: float) -> _LedgerKey:
        return (box.low, box.high, float(value))

    def _grow_extent(self, sid: int, box: Box) -> None:
        current = self._extents[sid]
        self._extents[sid] = box if current is None else current.union(box)

    def _check_open(self) -> None:
        if self._gate.closed:
            raise ServiceClosedError("cluster is closed")

    def _note_mutation(self, op: str, sid: Optional[int]) -> None:
        with self._stats_lock:
            self._counts["mutations"] += 1
            if sid is None:
                self._m_mutations.inc(op=op, label=self.label)
            else:
                self._m_mutations.inc(op=op, shard=str(sid), label=self.label)
        self._publish_balance()

    def _publish_balance(self) -> None:
        with self._meta:
            counts = list(self._object_counts)
        for sid, count in enumerate(counts):
            self._m_objects.set(float(count), shard=str(sid), label=self.label)
        self._m_imbalance.set(_imbalance(counts), label=self.label)

    # -- stats / lifecycle ---------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Cluster counters plus per-shard object counts and epochs."""
        with self._stats_lock:
            out: Dict[str, object] = dict(self._counts)
        with self._meta:
            counts = list(self._object_counts)
        out["shards"] = self.num_shards
        out["replicas"] = self.replicas
        out["objects"] = counts
        out["objects_total"] = sum(counts)
        out["imbalance"] = _imbalance(counts)
        out["partitioner"] = self._map.name
        out["epochs"] = self.epochs()
        out["inflight"] = self._gate.inflight
        out["degrade"] = self.degrade
        if self._approx is not None:
            out["approx"] = self._approx.stats()
        if any(replog is not None for replog in self._replogs):
            out["head_lsns"] = [
                replog.head_lsn if replog is not None else None
                for replog in self._replogs
            ]
        if self._heal is not None:
            out["heal"] = self._heal.stats()
        return out

    def shard_stats(self) -> List[Dict[str, float]]:
        """Each shard service's own :meth:`~QueryService.stats` snapshot."""
        return [service.stats() for service in self._shards]

    def resilience_stats(self) -> List[Dict[str, object]]:
        """Per-group failover/breaker snapshots (empty when unreplicated)."""
        return [group.stats() for group in self._groups]

    def close(self) -> None:
        """Graceful close: reject new batches, drain accepted ones, close shards.

        The cluster gate closes first (new admissions fail with
        :class:`~repro.core.errors.ServiceClosedError`), then already
        admitted batches drain, then the process-worker fan-out pool (if
        any) and every shard service (each draining its own accepted work)
        shut down.
        """
        if self._heal is not None:
            # The supervisor must stop *first*: a repair racing the close
            # would restore into shards that are already shutting down.
            self._heal.stop()
        if not self._gate.close():
            return
        self._gate.drain()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        for service in self._shards:
            service.close()
        for replog in self._replogs:
            if replog is not None:
                replog.close()

    @property
    def closed(self) -> bool:
        return self._gate.closed

    def __enter__(self) -> "ShardedService":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()


__all__ = ["ShardedService", "RebalanceReport", "WorkerRestartReport"]

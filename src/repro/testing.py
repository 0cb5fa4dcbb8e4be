"""Validation harness for dominance-sum and box-sum implementations.

Downstream users adding a backend (or modifying one) can drive it through
the same randomized oracle comparison this repository's own test suite
uses::

    from repro.testing import check_dominance_index, check_box_sum_index

    report = check_dominance_index(lambda: MyIndex(dims=2), dims=2)
    assert report.ok, report

Each check builds the candidate and a brute-force oracle from the same
random workload, interleaves inserts (and bulk loads where supported) with
queries, and reports the first disagreement.

:func:`check_crash_recovery` is the durable path's counterpart: a crash
torture loop that replays an insert-and-checkpoint workload, killing the
simulated process at *every* write point in turn, and asserts the reopened
index always equals a committed oracle prefix.

:func:`check_failover` is the serving path's counterpart: a chaos torture
loop that runs a replicated cluster with one deterministically misbehaving
member per replica group and asserts every answer stays bit-identical to
an unsharded reference index, that a whole-group outage is loud (raise, or
an explicit :class:`~repro.resilience.partial.PartialResult` when opted
in), and that circuit breakers actually stop routing to a dead member and
re-admit it after it heals.

:func:`check_log_shipping` closes the loop for the replication log: a
seeded workload ships through a replica group, one member is poisoned
mid-stream, and the check asserts the log-driven recovery verbs restore
exact state — catch-up produces a bit-identical member, a bootstrapped
member answers like everyone else, and point-in-time recovery reproduces
the exact pre-fault answers.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from .core.geometry import Box
from .core.naive import NaiveBoxSum, NaiveDominanceSum
from .core.values import values_equal


@dataclass
class CheckReport:
    """Outcome of a validation run."""

    ok: bool = True
    checks: int = 0
    failures: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.ok = False
        self.failures.append(message)

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        if self.ok:
            return f"CheckReport(ok, {self.checks} checks)"
        head = "; ".join(self.failures[:3])
        return f"CheckReport(FAILED {len(self.failures)}/{self.checks}: {head})"


def check_dominance_index(
    factory: Callable[[], object],
    dims: int,
    n_points: int = 300,
    n_queries: int = 100,
    seed: int = 0,
    span: float = 100.0,
    tol: float = 1e-6,
    use_bulk_load: bool = False,
) -> CheckReport:
    """Compare a dominance-sum implementation against the scan oracle.

    The workload includes duplicate points, negative values and query
    points off the data distribution; strictness at exact coordinates is
    probed explicitly.
    """
    rng = random.Random(seed)
    report = CheckReport()
    candidate = factory()
    oracle = NaiveDominanceSum(dims)
    points: List[Tuple[Tuple[float, ...], float]] = []
    for i in range(n_points):
        if points and rng.random() < 0.05:
            point, _v = points[rng.randrange(len(points))]  # duplicate
        else:
            point = tuple(rng.uniform(0, span) for _ in range(dims))
        value = rng.uniform(-3.0, 8.0)
        points.append((point, value))
    if use_bulk_load:
        candidate.bulk_load(points)  # type: ignore[attr-defined]
        oracle.bulk_load(points)
    else:
        for point, value in points:
            candidate.insert(point, value)  # type: ignore[attr-defined]
            oracle.insert(point, value)
    queries = [tuple(rng.uniform(-5, span + 5) for _ in range(dims)) for _ in range(n_queries)]
    # Probe strictness: query exactly at stored coordinates.
    queries += [points[rng.randrange(len(points))][0] for _ in range(10)]
    for q in queries:
        report.checks += 1
        got = candidate.dominance_sum(q)  # type: ignore[attr-defined]
        expected = oracle.dominance_sum(q)
        if not values_equal(got, expected, tol=tol):
            report.fail(f"dominance_sum({q}): got {got}, expected {expected}")
    report.checks += 1
    got_total = candidate.total()  # type: ignore[attr-defined]
    if not values_equal(got_total, oracle.total(), tol=tol):
        report.fail(f"total(): got {got_total}, expected {oracle.total()}")
    return report


def check_box_sum_index(
    factory: Callable[[], object],
    dims: int,
    n_objects: int = 250,
    n_queries: int = 80,
    seed: int = 0,
    span: float = 100.0,
    max_side: float = 20.0,
    tol: float = 1e-6,
    use_bulk_load: bool = False,
    with_deletes: bool = True,
) -> CheckReport:
    """Compare a box-sum implementation against the scan oracle.

    Exercises intersection boundary cases (touching boxes, degenerate
    point-boxes) and, when ``with_deletes``, deletion as value negation.
    """
    rng = random.Random(seed)
    report = CheckReport()
    candidate = factory()
    oracle = NaiveBoxSum(dims)

    def random_object() -> Tuple[Box, float]:
        low = [rng.uniform(0, span - max_side) for _ in range(dims)]
        if rng.random() < 0.05:
            return Box(low, low), rng.uniform(0.5, 5.0)  # degenerate point
        high = [lo + rng.uniform(0, max_side) for lo in low]
        return Box(low, high), rng.uniform(0.5, 5.0)

    objects = [random_object() for _ in range(n_objects)]
    if use_bulk_load:
        candidate.bulk_load(objects)  # type: ignore[attr-defined]
        for box, value in objects:
            oracle.insert(box, value)
    else:
        for box, value in objects:
            candidate.insert(box, value)  # type: ignore[attr-defined]
            oracle.insert(box, value)
    live = list(objects)
    for i in range(n_queries):
        if with_deletes and live and i % 10 == 9:
            box, value = live.pop(rng.randrange(len(live)))
            candidate.delete(box, value)  # type: ignore[attr-defined]
            oracle.insert(box, -value)
        low = [rng.uniform(0, span) for _ in range(dims)]
        high = [lo + rng.uniform(0, span / 2) for lo in low]
        query = Box(low, high)
        report.checks += 1
        got = candidate.box_sum(query)  # type: ignore[attr-defined]
        expected = oracle.box_sum(query)
        if not values_equal(got, expected, tol=tol):
            report.fail(f"box_sum({query}): got {got}, expected {expected}")
    # Touching-boundary probes (the paper's asymmetric semantics).
    if live:
        box, value = live[0]
        for probe, should_hit in (
            (Box(box.high, tuple(h + 1.0 for h in box.high)), True),
            (Box(tuple(lo - 1.0 for lo in box.low), box.low), False),
        ):
            report.checks += 1
            got = candidate.box_sum(probe)  # type: ignore[attr-defined]
            expected = oracle.box_sum(probe)
            if not values_equal(got, expected, tol=tol):
                report.fail(
                    f"touching probe {probe} (expect hit={should_hit}): "
                    f"got {got}, expected {expected}"
                )
    return report


def _crash_workload(n_inserts: int, seed: int) -> List[Tuple[float, float]]:
    """Deterministic keys and values with distinct prefix totals."""
    rng = random.Random(seed)
    keys = [float(i) for i in range(n_inserts)]
    rng.shuffle(keys)
    # Value i+1 makes every committed prefix's total unique, so the
    # recovered state identifies exactly one prefix length.
    return [(key, float(i + 1)) for i, key in enumerate(keys)]


def _remove_index_files(path: str) -> None:
    for candidate in (path, path + ".wal"):
        if os.path.exists(candidate):
            os.remove(candidate)


def check_crash_recovery(
    path: str,
    n_inserts: int = 10,
    modes: Sequence[str] = ("crash", "torn"),
    page_size: int = 512,
    seed: int = 0,
    tol: float = 1e-9,
) -> CheckReport:
    """Torture-test the durable index's crash recovery at every write point.

    The workload inserts ``n_inserts`` weighted keys into a
    :class:`~repro.durable.DurableAggIndex` at ``path``, checkpointing after
    each.  A dry run counts every mutating file operation (page file and
    WAL); then, for each fault ``mode`` and each operation index, the run is
    repeated from scratch with a simulated crash at exactly that operation.
    Reopening the survivor files must always yield a committed prefix of the
    workload — at least every checkpoint that completed before the crash,
    never a torn or mixed state — and must pass a checksum scrub.
    """
    from .durable import DurableAggIndex
    from .storage.faults import CrashPoint, FaultInjector, SimulatedCrashError

    report = CheckReport()
    items = _crash_workload(n_inserts, seed)
    prefix_totals = [0.0]
    for _key, value in items:
        prefix_totals.append(prefix_totals[-1] + value)

    def seed_empty_index() -> None:
        """The committed base state: a freshly created, empty index.

        Creation itself is not crash-atomic (there is no previous state to
        preserve), so it runs fault-free; every later transition is the
        WAL's responsibility.
        """
        _remove_index_files(path)
        DurableAggIndex.open(path, page_size=page_size).close()

    def run(crash_point: Optional[CrashPoint]) -> Tuple[FaultInjector, int]:
        """One workload attempt; returns the injector and checkpoints done."""
        injector = FaultInjector(crash_point)
        completed = 0
        try:
            index = DurableAggIndex.open(
                path, page_size=page_size, create=False, opener=injector.opener
            )
            try:
                for key, value in items:
                    index.insert(key, value)
                    index.checkpoint()
                    completed += 1
            finally:
                index.close()
        except SimulatedCrashError:
            pass  # the "process" died; survivor files are on disk
        return injector, completed

    seed_empty_index()
    dry_injector, completed = run(None)
    if completed != n_inserts:
        report.fail(f"dry run only committed {completed}/{n_inserts} inserts")
        return report
    total_ops = dry_injector.ops

    for mode in modes:
        for at_op in range(1, total_ops + 1):
            report.checks += 1
            seed_empty_index()
            injector, completed = run(CrashPoint(at_op=at_op, mode=mode))
            if not injector.fired:
                continue  # ops after the workload's last mutation
            label = f"{mode}@{at_op}"
            try:
                with DurableAggIndex.open(path, page_size=page_size, create=False) as survivor:
                    recovered = len(survivor)
                    got_total = survivor.total()
                    if not (completed <= recovered <= min(completed + 1, n_inserts)):
                        report.fail(
                            f"{label}: recovered {recovered} entries after "
                            f"{completed} committed checkpoints"
                        )
                        continue
                    expected = prefix_totals[recovered]
                    if not values_equal(got_total, expected, tol=tol):
                        report.fail(
                            f"{label}: total {got_total} != oracle prefix "
                            f"{expected} for {recovered} entries"
                        )
                        continue
                    # The recovered prefix must agree point-wise, not just
                    # in total: probe a few dominance sums.
                    prefix = items[:recovered]
                    for probe in (0.5, n_inserts / 2.0, float(n_inserts)):
                        want = sum(v for k, v in prefix if k < probe)
                        got = survivor.dominance_sum(probe)
                        if not values_equal(got, want, tol=tol):
                            report.fail(
                                f"{label}: dominance_sum({probe}) = {got}, "
                                f"oracle prefix says {want}"
                            )
                            break
                    survivor.verify()
            except Exception as exc:  # noqa: BLE001 - any failure is a finding
                report.fail(f"{label}: reopen/recovery raised {exc!r}")
    _remove_index_files(path)
    return report


def _failover_workload(
    dims: int, n_objects: int, seed: int, span: float = 100.0, max_side: float = 25.0
) -> List[Tuple[Box, float]]:
    """Deterministic boxes with small-integer weights.

    Integer weights keep every partial sum exactly representable, so the
    sharded merge is bit-identical to the unsharded sum regardless of
    addition order — which is what lets the chaos checks use ``==``.
    """
    rng = random.Random(seed)
    objects: List[Tuple[Box, float]] = []
    for _ in range(n_objects):
        low = [rng.uniform(0, span - max_side) for _ in range(dims)]
        high = [lo + rng.uniform(0, max_side) for lo in low]
        objects.append((Box(low, high), float(rng.randint(1, 9))))
    return objects


def check_failover(
    dims: int = 2,
    num_shards: int = 3,
    replicas: int = 1,
    n_objects: int = 90,
    n_batches: int = 25,
    batch_size: int = 4,
    modes: Sequence[str] = ("raise", "delay", "corrupt"),
    backend: str = "ba",
    seed: int = 0,
) -> CheckReport:
    """Torture-test the resilient serving path under deterministic chaos.

    Three phases, all seeded (same arguments ⇒ same run, bit for bit):

    1. **Exactness under failover** — for each fault ``mode``, a replicated
       cluster whose *primaries* all misbehave on a seeded schedule serves
       interleaved mutations and query batches; every answer must equal the
       unsharded reference index exactly (``==``, no tolerance — additive
       dominance-sum decomposition plus identical replicas make failover
       invisible in the bits).
    2. **Whole-group outage** — with every member of shard 0 dead, the
       default config must raise
       :class:`~repro.core.errors.ShardUnavailableError`; with
       ``partial_results=True`` it must return a
       :class:`~repro.resilience.partial.PartialResult` whose provably
       exact queries (no intersection with the dead shard's extent) match
       the reference — never a silently wrong bare float.
    3. **Breaker trip and heal** — a replica group with an always-failing
       primary must stop routing to it (trip open within the breaker
       window), serve exactly from the replica meanwhile, and re-admit the
       primary after its chaos is lifted and the cooldown elapses.
    """
    from .core.aggregator import BoxSumIndex
    from .core.errors import ShardUnavailableError
    from .obs.registry import MetricsRegistry
    from .resilience import (
        BreakerConfig,
        ChaosPlan,
        FaultyQueryService,
        PartialResult,
        ReplicaGroup,
        ResilienceConfig,
        chaos_member_wrapper,
    )
    from .service import QueryService
    from .shard import ShardedService

    report = CheckReport()
    rng = random.Random(seed)
    objects = _failover_workload(dims, n_objects, seed)

    def random_query() -> Box:
        low = [rng.uniform(0, 100.0) for _ in range(dims)]
        high = [lo + rng.uniform(0, 60.0) for lo in low]
        return Box(low, high)

    plans = {
        "raise": ChaosPlan(raise_rate=0.4),
        "delay": ChaosPlan(delay_rate=0.5, delay_s=0.0005),
        "hang": ChaosPlan(hang_rate=0.3, hang_s=0.05),
        "corrupt": ChaosPlan(corrupt_rate=0.4),
    }
    policy = ResilienceConfig(
        max_attempts=4,
        backoff_base_s=0.0,
        # A hang only resolves through a deadline; harmless for the rest.
        deadline_s=0.02 if "hang" in modes else None,
        breaker=BreakerConfig(window=8, min_requests=4, cooldown_s=0.05),
        seed=seed,
    )

    # -- phase 1: bit-exactness under per-member chaos -----------------------------
    for mode in modes:
        if mode not in plans:
            report.fail(f"unknown chaos mode {mode!r}")
            continue
        plan = plans[mode].with_seed(seed)
        reference = BoxSumIndex(dims, backend=backend)
        reference.bulk_load(objects)
        cluster = ShardedService(
            dims,
            num_shards,
            backend=backend,
            replicas=replicas,
            partitioner="kd",
            registry=MetricsRegistry(),
            service_wrapper=chaos_member_wrapper(plan),
            resilience=policy,
        )
        try:
            cluster.bulk_load(objects)
            extra = _failover_workload(dims, n_batches, seed + 1)
            for i in range(n_batches):
                if i % 5 == 2:  # interleave mutations (fan out to every member)
                    box, value = extra[i]
                    cluster.insert(box, value)
                    reference.insert(box, value)
                elif i % 5 == 4:
                    box, value = objects[i % len(objects)]
                    cluster.delete(box, value)
                    reference.delete(box, value)
                queries = [random_query() for _ in range(batch_size)]
                got = cluster.box_sum_batch(queries)
                expected = [reference.box_sum(q) for q in queries]
                report.checks += 1
                if isinstance(got, PartialResult):
                    report.fail(f"{mode}@batch{i}: unexpected PartialResult {got}")
                elif list(got) != expected:
                    report.fail(
                        f"{mode}@batch{i}: chaos answers {list(got)} != "
                        f"reference {expected}"
                    )
            groups = cluster.resilience_stats()
            report.checks += 1
            if mode != "delay" and not any(g["failovers"] for g in groups):
                report.fail(f"{mode}: chaos never forced a failover (inert test?)")
        finally:
            cluster.close()

    # -- phase 2: whole-group outage is loud ---------------------------------------
    def dead_wrapper(service: QueryService, sid: int, member: int):
        if sid != 0:
            return service
        plan = ChaosPlan(raise_rate=1.0).with_seed(seed + member)
        return FaultyQueryService(service, plan)

    reference = BoxSumIndex(dims, backend=backend)
    reference.bulk_load(objects)
    for partial in (False, True):
        cluster = ShardedService(
            dims,
            num_shards,
            backend=backend,
            replicas=replicas,
            partitioner="kd",
            registry=MetricsRegistry(),
            service_wrapper=dead_wrapper,
            resilience=ResilienceConfig(
                max_attempts=2, backoff_base_s=0.0, partial_results=partial, seed=seed
            ),
        )
        try:
            cluster.bulk_load(objects)
            # One full-span query guarantees the dead shard is contacted even
            # on object backends, whose router prunes shards whose extent
            # misses every query in the batch.
            queries = [Box([0.0] * dims, [100.0] * dims)] + [
                random_query() for _ in range(batch_size - 1)
            ]
            report.checks += 1
            if not partial:
                try:
                    cluster.box_sum_batch(queries)
                    report.fail("dead group without opt-in did not raise")
                except ShardUnavailableError:
                    pass
            else:
                got = cluster.box_sum_batch(queries)
                if not isinstance(got, PartialResult):
                    report.fail(f"dead group with opt-in returned {type(got).__name__}")
                elif got.missing != (0,):
                    report.fail(f"partial result blames shards {got.missing}, not 0")
                else:
                    for i in got.exact_indices():
                        report.checks += 1
                        if got.results[i] != reference.box_sum(queries[i]):
                            report.fail(
                                f"provably exact partial answer {got.results[i]} != "
                                f"reference {reference.box_sum(queries[i])}"
                            )
                    for i in range(len(queries)):
                        report.checks += 1
                        if got.results[i] > reference.box_sum(queries[i]):
                            report.fail(
                                f"partial sum {got.results[i]} exceeds full sum "
                                f"{reference.box_sum(queries[i])} (non-negative weights)"
                            )
        finally:
            cluster.close()

    # -- phase 3: breaker trips, contains, and heals --------------------------------
    now = [0.0]
    breaker_cfg = BreakerConfig(
        window=8, min_requests=3, failure_threshold=0.5, cooldown_s=1.0, half_open_probes=2
    )
    primary_index = BoxSumIndex(dims, backend=backend)
    replica_index = BoxSumIndex(dims, backend=backend)
    primary_index.bulk_load(objects)
    replica_index.bulk_load(objects)
    faulty = FaultyQueryService(
        QueryService(primary_index, registry=MetricsRegistry()),
        ChaosPlan(raise_rate=1.0).with_seed(seed),
    )
    healthy = QueryService(replica_index, registry=MetricsRegistry())
    group = ReplicaGroup(
        0,
        [faulty, healthy],
        config=ResilienceConfig(
            max_attempts=3, backoff_base_s=0.0, breaker=breaker_cfg, seed=seed
        ),
        registry=MetricsRegistry(),
        clock=lambda: now[0],
        sleep=lambda s: None,
    )
    try:
        reference = BoxSumIndex(dims, backend=backend)
        reference.bulk_load(objects)
        queries = [random_query() for _ in range(10)]
        for q in queries:
            report.checks += 1
            if group.box_sum(q) != reference.box_sum(q):
                report.fail(f"group answer under dead primary differs on {q}")
        report.checks += 1
        if group.breakers[0].state != "open":
            report.fail(
                f"always-failing primary's breaker is {group.breakers[0].state!r}, "
                "expected open"
            )
        calls_at_trip = faulty.calls
        for q in queries:
            group.box_sum(q)
        report.checks += 1
        if faulty.calls != calls_at_trip:
            report.fail(
                f"breaker did not stop routing: primary saw "
                f"{faulty.calls - calls_at_trip} calls while open"
            )
        # Heal: lift the chaos, let the cooldown elapse; half-open probes
        # must re-admit the primary and close the breaker.
        faulty.enabled = False
        now[0] += breaker_cfg.cooldown_s + 0.001
        for q in queries[: breaker_cfg.half_open_probes + 1]:
            report.checks += 1
            if group.box_sum(q) != reference.box_sum(q):
                report.fail(f"group answer during half-open probing differs on {q}")
        report.checks += 1
        if group.breakers[0].state != "closed":
            report.fail(
                f"healed primary's breaker is {group.breakers[0].state!r}, "
                "expected closed"
            )
        report.checks += 1
        if faulty.calls <= calls_at_trip:
            report.fail("healed primary never received traffic again")
    finally:
        group.close()
    return report


def check_log_shipping(
    directory: str,
    dims: int = 2,
    backend: str = "ba",
    n_objects: int = 60,
    n_mutations: int = 30,
    n_probes: int = 20,
    audit_probes: int = 16,
    seed: int = 0,
) -> CheckReport:
    """Torture-test log-shipping recovery end to end, bit for bit.

    A replica group of three members ships a seeded workload through a
    :class:`~repro.replog.ReplicationLog` rooted at ``directory``.  Four
    phases, all deterministic (integer weights keep every comparison
    exact, ``==`` with no tolerance):

    1. **Ship and checkpoint** — interleaved inserts and deletes fan out
       to every member and append to the log; a mid-stream checkpoint
       pins the pre-fault LSN and the answers the group gave there.
    2. **Poison and catch up** — one member's mutation is made to fail
       (poisoned: excluded from rotation); more mutations widen its lag;
       :meth:`~repro.resilience.group.ReplicaGroup.catch_up` must restore
       it from checkpoint + tail, pass the seeded audit and return it to
       rotation answering bit-identically to the reference.
    3. **Bootstrap** — :meth:`add_member` must seed a brand-new member to
       the head LSN that answers bit-identically from its first query.
    4. **Point-in-time recovery** — :meth:`recover_to` at the pre-fault
       LSN must reproduce the recorded pre-fault answers and the
       historical epoch exactly.
    """
    from .core.aggregator import BoxSumIndex
    from .obs.registry import MetricsRegistry
    from .replog import ReplicationLog
    from .resilience import ChaosPlan, FaultyQueryService, ReplicaGroup, ResilienceConfig
    from .service import QueryService

    report = CheckReport()
    rng = random.Random(seed)
    objects = _failover_workload(dims, n_objects, seed)
    mutations = _failover_workload(dims, n_mutations, seed + 1)
    probes = []
    for _ in range(n_probes):
        low = [rng.uniform(0, 100.0) for _ in range(dims)]
        high = [lo + rng.uniform(0, 60.0) for lo in low]
        probes.append(Box(low, high))

    registry = MetricsRegistry()

    def make_member() -> QueryService:
        return QueryService(BoxSumIndex(dims, backend=backend), registry=MetricsRegistry())

    reference = NaiveBoxSum(dims)
    replog = ReplicationLog(directory, registry=registry)
    victim = FaultyQueryService(
        make_member(), ChaosPlan(raise_rate=1.0, mutations=True).with_seed(seed)
    )
    victim.enabled = False  # armed only for the poisoning mutation
    group = ReplicaGroup(
        0,
        [make_member(), make_member(), victim],
        config=ResilienceConfig(max_attempts=3, backoff_base_s=0.0, seed=seed),
        registry=registry,
        replication_log=replog,
        member_factory=make_member,
    )
    historical = None
    try:
        # -- phase 1: ship and checkpoint ---------------------------------------
        group.bulk_load(objects)
        for box, value in objects:
            reference.insert(box, value)
        half = n_mutations // 2
        for i, (box, value) in enumerate(mutations[:half]):
            if i % 3 == 2:
                box, value = objects[i % len(objects)]
                group.delete(box, value)
                reference.insert(box, -value)
            else:
                group.insert(box, value)
                reference.insert(box, value)
        group.checkpoint()
        pre_fault_lsn = replog.head_lsn
        pre_fault_answers = list(group.box_sum_batch(probes))
        report.checks += 1
        if pre_fault_answers != [reference.box_sum(q) for q in probes]:
            report.fail("pre-fault group answers differ from the reference")

        # -- phase 2: poison one member, then catch it up -----------------------
        victim.enabled = True
        box, value = mutations[half]
        group.insert(box, value)
        reference.insert(box, value)
        victim.enabled = False
        report.checks += 1
        if group.stats()["member_states"][2] != "poisoned":
            report.fail("failed mutation did not poison the member")
        for box, value in mutations[half + 1 :]:
            group.insert(box, value)
            reference.insert(box, value)
        report.checks += 1
        lag = group.stats()["replica_lag"]
        if lag[2] == 0 or any(lag[:2]):
            report.fail(f"replica lag {lag} does not isolate the poisoned member")
        group.checkpoint()  # exercises retention with the member down
        restore = group.catch_up(2, audit_probes=audit_probes)
        report.checks += 1
        if restore is None:
            report.fail("catch_up returned None for a poisoned member")
        report.checks += 1
        if group.stats()["member_states"][2] == "poisoned":
            report.fail("caught-up member is still poisoned")
        expected = [reference.box_sum(q) for q in probes]
        for mid in range(group.num_members):
            report.checks += 1
            got = list(group.members[mid].box_sum_batch(probes))
            if got != expected:
                report.fail(f"member {mid} diverges from the reference after catch-up")

        # -- phase 3: bootstrap a brand-new member ------------------------------
        new_mid = group.add_member()
        report.checks += 1
        got = list(group.members[new_mid].box_sum_batch(probes))
        if got != expected:
            report.fail("bootstrapped member diverges from the reference")
        report.checks += 1
        epochs = {group.members[mid].epoch for mid in range(group.num_members)}
        if len(epochs) != 1:
            report.fail(f"members disagree on the epoch after recovery: {epochs}")

        # -- phase 4: point-in-time recovery ------------------------------------
        historical = group.recover_to(
            pre_fault_lsn, index_factory=lambda: BoxSumIndex(dims, backend=backend)
        )
        report.checks += 1
        if list(historical.box_sum_batch(probes)) != pre_fault_answers:
            report.fail("recover_to did not reproduce the pre-fault answers")
        report.checks += 1
        if historical.epoch != replog.epoch_at(pre_fault_lsn):
            report.fail(
                f"recovered epoch {historical.epoch} != invariant "
                f"{replog.epoch_at(pre_fault_lsn)}"
            )
    finally:
        if historical is not None:
            historical.close()
        group.close()
        replog.close()
    return report

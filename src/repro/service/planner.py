"""Corner-sharing batch planner for box-sum queries.

The paper's reduction (Lemma 1 / Theorem 2) turns every box-sum into
exactly ``2^d`` signed dominance-sum probes.  A *batch* of queries over the
same index therefore shares structure: any two queries whose plans contain
probes with equal ``(index key, point)`` identity need that dominance-sum
computed only once.  Real serving workloads (hot dashboard queries,
repeated tiles, drill-downs anchored at a shared corner) produce such
collisions constantly.

:class:`BatchPlanner` expands a batch to its probes via
:meth:`~repro.core.aggregator.BoxSumIndex.probe_plan`, dedupes identities
across the whole batch (first-seen order, so execution order — and thus
I/O accounting — is deterministic), resolves each unique probe exactly once
(optionally through a probe cache) on the calling thread, and reassembles
per-query answers by inclusion–exclusion.  Answers are bit-identical to
direct ``box_sum`` calls: probes are pure functions of index state and the
reassembly accumulates in the same order as the direct path.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..core.errors import NotSupportedError
from ..core.geometry import Box
from ..core.reduction import Probe
from ..core.values import Value

#: A probe identity: ``(index key, point)`` — see :attr:`Probe.identity`.
ProbeIdentity = Tuple[object, Tuple[float, ...]]

#: Optional probe-level cache hook: identity -> (found, value).
ProbeLookup = Callable[[ProbeIdentity], Tuple[bool, Value]]

#: Optional probe-level store hook, called for every freshly executed probe.
ProbeStore = Callable[[ProbeIdentity, Value], None]


class BatchPlan:
    """A planned batch: per-query probe plans plus the deduped probe set."""

    __slots__ = ("queries", "plans", "unique", "probes_total")

    def __init__(self, queries: Sequence[Box], plans: List[List[Probe]]) -> None:
        self.queries = list(queries)
        self.plans = plans
        #: Unique probe identities in first-seen order.
        self.unique: List[ProbeIdentity] = []
        seen: Dict[ProbeIdentity, None] = {}
        total = 0
        for plan in plans:
            for probe in plan:
                total += 1
                identity = probe.identity
                if identity not in seen:
                    seen[identity] = None
                    self.unique.append(identity)
        self.probes_total = total

    @property
    def probes_unique(self) -> int:
        """Distinct ``(index key, point)`` probes across the batch."""
        return len(self.unique)

    @property
    def probes_saved(self) -> int:
        """Probes the batch shares — executions avoided relative to naive."""
        return self.probes_total - self.probes_unique

    @property
    def dedup_ratio(self) -> float:
        """``probes_total / probes_unique`` (1.0 for an empty batch)."""
        if not self.unique:
            return 1.0
        return self.probes_total / self.probes_unique


class BatchExecution(NamedTuple):
    """Outcome of one planned batch: answers plus probe accounting."""

    results: List[float]
    probes_total: int
    probes_unique: int
    probes_executed: int
    probe_cache_hits: int


class BatchPlanner:
    """Plans and executes box-sum batches against one probe-capable index."""

    def __init__(self, index) -> None:
        if not getattr(index, "supports_probes", False):
            raise NotSupportedError(
                f"{type(index).__name__} does not expose a probe plan "
                "(object backends answer queries monolithically)"
            )
        self.index = index

    def plan(self, queries: Sequence[Box]) -> BatchPlan:
        """Expand and dedupe a batch (validates every query's arity)."""
        plans = [self.index.probe_plan(query) for query in queries]
        return BatchPlan(queries, plans)

    def execute(
        self,
        plan: BatchPlan,
        lookup: Optional[ProbeLookup] = None,
        store: Optional[ProbeStore] = None,
    ) -> BatchExecution:
        """Resolve the unique probes and reassemble every query's answer.

        ``lookup``/``store`` bridge to the service's probe cache; the
        cache-missing probes are resolved on the calling thread.  Probe
        values land in a dict keyed by identity, so reassembly is
        independent of resolution order.
        """
        values: Dict[ProbeIdentity, Value] = {}
        missing: List[ProbeIdentity] = []
        cache_hits = 0
        for identity in plan.unique:
            if lookup is not None:
                found, value = lookup(identity)
                if found:
                    values[identity] = value
                    cache_hits += 1
                    continue
            missing.append(identity)

        index = self.index
        for identity in missing:
            value = index.probe_value(identity[0], identity[1])
            values[identity] = value
            if store is not None:
                store(identity, value)

        results = [index.box_sum_from_probes(query_plan, values) for query_plan in plan.plans]
        return BatchExecution(
            results=results,
            probes_total=plan.probes_total,
            probes_unique=plan.probes_unique,
            probes_executed=len(missing),
            probe_cache_hits=cache_hits,
        )


__all__ = ["BatchPlan", "BatchPlanner", "BatchExecution", "ProbeIdentity"]

"""Query serving layer: batching, caching, admission control.

The paper's reduction makes box-sum *serving* unusually batchable: every
query is exactly ``2^d`` dominance-sum probes (Lemma 1), so a batch of
queries over one index shares identical ``(index key, point)`` probes that
need computing only once.  This package exploits that:

* :mod:`repro.service.planner` — the corner-sharing batch planner
  (:class:`BatchPlanner`): expand, dedupe, resolve once, reassemble;
* :mod:`repro.service.cache` — :class:`EpochLRUCache`, an LRU over
  canonicalized query boxes and probes where every mutation bumps an epoch
  and logically invalidates all older entries in O(1);
* :mod:`repro.service.locks` — the readers–writer lock
  (:class:`RWLock`) keeping concurrent readers off half-applied updates;
* :mod:`repro.service.service` — :class:`QueryService`, tying admission
  control (``max_inflight``/``max_queue``/backpressure), the lock, both
  caches, the planner and :mod:`repro.obs` instrumentation together.

Quickstart::

    from repro import Box, BoxSumIndex, QueryService

    service = QueryService(BoxSumIndex(dims=2, backend="ba"))
    service.insert(Box((2, 10), (15, 26)), value=4.0)
    batch = service.batch([Box((5, 7), (20, 15)), Box((5, 7), (20, 15))])
    batch.results        # answers, bit-identical to index.box_sum
    batch.dedup_ratio    # > 1.0: the duplicate query shared all its probes
"""

from ..core.errors import ServiceClosedError, ServiceError, ServiceOverloadedError
from .cache import EpochLRUCache
from .locks import AdmissionGate, RWLock
from .planner import BatchExecution, BatchPlan, BatchPlanner
from .service import BatchResult, ProbeSnapshot, QueryService

__all__ = [
    "AdmissionGate",
    "BatchExecution",
    "BatchPlan",
    "BatchPlanner",
    "BatchResult",
    "EpochLRUCache",
    "ProbeSnapshot",
    "QueryService",
    "RWLock",
    "ServiceClosedError",
    "ServiceError",
    "ServiceOverloadedError",
]

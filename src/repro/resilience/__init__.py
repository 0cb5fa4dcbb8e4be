"""Fault-tolerant serving: replica groups, failover, breakers, chaos.

The paper's reduction is what makes all of this *exact*: a box-sum is an
additive merge of per-shard dominance sums, and every member of a replica
group owns the same objects, so failover between members — retries,
hedges, whole-member outages — can never change a bit of the answer.  The
package layers:

* :mod:`~repro.resilience.config` — :class:`BreakerConfig` /
  :class:`ResilienceConfig`, the whole failure policy as one frozen value;
* :mod:`~repro.resilience.breaker` — per-member circuit breakers
  (closed → open → half-open, plus forced-open for diverged replicas);
* :mod:`~repro.resilience.group` — :class:`ReplicaGroup`: synchronous
  mutation fan-out, breaker-gated failover with deadlines, backoff and
  hedged reads;
* :mod:`~repro.resilience.partial` — :class:`PartialResult`: opt-in
  graceful degradation with the outage as an explicit error bound;
* :mod:`~repro.resilience.chaos` — deterministic fault injection
  (:class:`ChaosPlan` / :class:`FaultyQueryService`) driving
  :func:`repro.testing.check_failover`.

A :class:`ReplicaGroup` duck-types the shard service surface
(``resolve_probe_values``, ``batch``, ``index``), so
:class:`~repro.shard.router.ShardRouter` scatters over groups unchanged;
``ResilienceConfig.partial_results`` is passed as its ``allow_partial``
merge mode.
"""

from .breaker import CLOSED, FORCED_OPEN, HALF_OPEN, OPEN, CircuitBreaker
from .chaos import (
    ChaosPlan,
    CrashableService,
    FaultyQueryService,
    InjectedFaultError,
    LostWriteService,
    bitflip_injector,
    chaos_member_wrapper,
)
from .config import BreakerConfig, ResilienceConfig
from .group import ReplicaGroup
from .partial import PartialResult

__all__ = [
    "BreakerConfig",
    "CircuitBreaker",
    "ChaosPlan",
    "CLOSED",
    "CrashableService",
    "FaultyQueryService",
    "FORCED_OPEN",
    "HALF_OPEN",
    "InjectedFaultError",
    "LostWriteService",
    "OPEN",
    "PartialResult",
    "ReplicaGroup",
    "ResilienceConfig",
    "bitflip_injector",
    "chaos_member_wrapper",
]

"""Self-healing soak: seeded chaos in, converged-and-exact cluster out.

The proof the supervisor exists for: a replicated cluster under three
concurrent seeded fault streams —

* **kills** — a replica's worker "process" dies between calls
  (:class:`~repro.resilience.chaos.CrashableService`), so the next
  mutation poisons it and the healer must restart + log-restore it;
* **silent drops** — a replica swallows mutations while acking them
  (:class:`~repro.resilience.chaos.LostWriteService`), the failure only
  the stream-digest audit can see;
* **read faults** — the primary raises (and stalls, via seeded
  ``delay_ms`` draws) on a seeded schedule
  (:class:`~repro.resilience.chaos.FaultyQueryService`), tripping its
  breaker; the healer's probes must walk it back closed —

while every round's queries are compared ``==`` against an unsharded
oracle (unit values, so float addition order cannot perturb a bit).  The
run must end with ``inexact == 0``, every shard group converged, and —
once chaos stops — fully healthy within the repair budget, with **zero
operator calls**: the supervisor's tick is the only recovery driver.

``run_heal_soak`` is the reusable runner (the ``heal``-marked test in
``tests/heal`` drives the same loop); :func:`heal_experiment` renders it
as a bench table.  The supervisor runs on a virtual clock, so the soak is
deterministic and fast.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from typing import Dict, List, Tuple

from ..core.geometry import Box
from ..heal import HealPolicy, HealSupervisor
from ..obs import MetricsRegistry
from ..resilience import (
    BreakerConfig,
    ChaosPlan,
    CrashableService,
    FaultyQueryService,
    LostWriteService,
    ResilienceConfig,
)
from ..shard import ShardedService
from .config import BenchConfig
from .report import banner, format_table

#: (metric, value, unit, note)
Row = Tuple[str, float, str, str]


class VirtualClock:
    """A monotonic clock whose ``sleep`` just advances it (no waiting)."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def _random_box(rng: random.Random, dims: int, span: float = 100.0, side: float = 12.0) -> Box:
    low = [rng.uniform(0.0, span - side) for _ in range(dims)]
    high = [lo + rng.uniform(0.5, side) for lo in low]
    return Box(low, high)


def run_heal_soak(
    *,
    seed: int = 0,
    shards: int = 2,
    dims: int = 2,
    rounds: int = 12,
    mutations_per_round: int = 16,
    queries_per_round: int = 8,
    budget_s: float = 30.0,
) -> Dict[str, float]:
    """One seeded chaos soak; returns the outcome counters.

    Keys: ``inexact`` (exact-path answers that differed from the oracle —
    must be 0), ``kills`` / ``drops`` / ``read_faults`` (injected),
    ``repairs`` / ``quarantines`` / ``ticks`` (supervisor work),
    ``converged`` / ``fully_healthy`` (1.0 = yes, after the final
    chaos-off convergence run).
    """
    rng = random.Random(seed)
    registry = MetricsRegistry()
    crashables: List[CrashableService] = []
    droppers: List[LostWriteService] = []
    faulties: List[FaultyQueryService] = []

    def make_fresh():
        from ..core.aggregator import BoxSumIndex
        from ..service import QueryService

        return QueryService(BoxSumIndex(dims, backend="ba"), registry=registry)

    def wrapper(service, sid: int, member: int):
        if member == 0:
            faulty = FaultyQueryService(
                service,
                ChaosPlan(
                    seed=seed + 101 * sid,
                    raise_rate=0.4,
                    delay_rate=0.1,
                    delay_ms=(0.0, 1.0),
                ),
            )
            faulty.enabled = False
            faulties.append(faulty)
            return faulty
        if member == 1:
            crashable = CrashableService(make_fresh, initial=service)
            crashables.append(crashable)
            return crashable
        dropper = LostWriteService(service, drop_rate=1.0, seed=seed + 211 * sid)
        dropper.enabled = False
        droppers.append(dropper)
        return dropper

    clock = VirtualClock()
    tmp = tempfile.mkdtemp(prefix="repro-heal-soak-")
    oracle: List[Tuple[Box, float]] = []
    inexact = 0
    kills = drops = 0
    try:
        cluster = ShardedService(
            dims,
            shards,
            replicas=2,
            partitioner="kd",
            replog_dir=tmp,
            registry=registry,
            resilience=ResilienceConfig(
                max_attempts=4,
                backoff_base_s=0.0,
                breaker=BreakerConfig(window=8, min_requests=4, cooldown_s=0.0),
                seed=seed,
            ),
            service_wrapper=wrapper,
            label="heal-soak",
        )
        supervisor = HealSupervisor(
            cluster,
            HealPolicy(
                tick_interval_s=0.01,
                audit_every_ticks=1,
                audit_probes=4,
                backoff_base_s=0.0,
                max_repair_attempts=6,
                failure_window_s=1000.0,
                repair_budget_s=budget_s,
                auto_start=False,
                seed=seed,
            ),
            registry=registry,
            label="heal-soak",
            clock=clock,
            sleep=clock.sleep,
        )
        with cluster:
            for round_no in range(rounds):
                # Chaos first: arm this round's fault windows.
                if round_no % 3 == 1:
                    victim = rng.randrange(len(crashables))
                    crashables[victim].kill()
                    kills += 1
                if round_no % 4 == 2:
                    dropper = droppers[rng.randrange(len(droppers))]
                    dropper.enabled = True
                for faulty in faulties:
                    faulty.enabled = round_no % 2 == 0
                # Mutate: cluster and oracle see the same stream.  Unit
                # values keep every sum an integer, so `==` is order-proof.
                for _ in range(mutations_per_round):
                    if oracle and rng.random() < 0.25:
                        box, value = oracle.pop(rng.randrange(len(oracle)))
                        cluster.delete(box, value)
                    else:
                        box = _random_box(rng, dims)
                        cluster.insert(box, 1.0)
                        oracle.append((box, 1.0))
                drops += sum(d.dropped for d in droppers)
                for dropper in droppers:
                    dropper.dropped = 0
                    dropper.enabled = False
                # Heal: the audit tick runs *before* the queries, so a
                # silently diverged member is poisoned before any read
                # could fail over onto it.
                supervisor.tick()
                # Verify: exact path vs oracle, bit for bit.
                for _ in range(queries_per_round):
                    query = _random_box(rng, dims, side=30.0)
                    expected = float(
                        sum(value for box, value in oracle if box.intersects(query))
                    )
                    if cluster.box_sum(query) != expected:
                        inexact += 1
            # Chaos off; the supervisor must converge on its own.
            for faulty in faulties:
                faulty.enabled = False
            report = supervisor.run_until_converged(budget_s)
            stats = supervisor.stats()
            read_faults = sum(f.faults["raise"] for f in faulties)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "inexact": float(inexact),
        "kills": float(kills),
        "drops": float(drops),
        "read_faults": float(read_faults),
        "diverged_caught": float(stats["diverged"]),
        "repairs": float(stats["repairs_ok"]),
        "quarantines": float(stats["quarantines"]),
        "ticks": float(stats["ticks"]),
        "converge_ticks": float(report.ticks),
        "converged": 1.0 if report.converged else 0.0,
        "fully_healthy": 1.0 if report.fully_healthy else 0.0,
    }


def heal_experiment(cfg: BenchConfig, verbose: bool = True) -> List[Row]:
    """Run the seeded soak and render the outcome as a table."""
    outcome = run_heal_soak(
        seed=cfg.seed,
        rounds=max(8, min(24, cfg.queries // 8)),
    )
    rows: List[Row] = [
        ("soak_inexact_answers", outcome["inexact"], "answers", "exact path vs oracle — must be 0"),
        ("faults_kills", outcome["kills"], "faults", "replica processes killed mid-soak"),
        ("faults_silent_drops", outcome["drops"], "faults", "mutations silently swallowed by a replica"),
        ("faults_read_raises", outcome["read_faults"], "faults", "primary read faults (breaker food)"),
        ("digest_divergence_caught", outcome["diverged_caught"], "members", "poisoned by the stream-digest audit"),
        ("repairs_completed", outcome["repairs"], "repairs", "restart/catch-up cycles the supervisor drove"),
        ("quarantines", outcome["quarantines"], "members", "crash-looped members (0 = all recoverable)"),
        ("converged", outcome["converged"], "bool", "no suspect/repairing members at the end"),
        ("fully_healthy", outcome["fully_healthy"], "bool", "every member back in rotation"),
        ("convergence_ticks", outcome["converge_ticks"], "ticks", "final chaos-off convergence run"),
    ]
    if verbose:
        print(banner("heal: self-healing soak under seeded chaos (virtual time)"))
        print(
            format_table(
                ["metric", "value", "unit", "note"],
                [(name, value, unit, note) for name, value, unit, note in rows],
            )
        )
    return rows


__all__ = ["VirtualClock", "run_heal_soak", "heal_experiment"]

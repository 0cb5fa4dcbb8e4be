"""The workloads: deployment, load, checks and counters.

Each workload builds one deployment through ``ShardedService``, drives it
from this process, and checks a deterministic sample of its answers against
the scan oracle outside the timed window.  See README.md for what each
workload exercises and why it was chosen.

A request runs as ``call(name, fn, *args)``: a plain call in untraced runs,
:meth:`~perfbench.spans.Tracer.call` (the request's root span) in traced ones.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import resource
import shutil
import tempfile
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.errors import ServiceOverloadedError
from repro.core.geometry import Box
from repro.service.service import QueryService
from repro.shard.cluster import ShardedService
from repro.shard.router import ClusterBatchResult

from . import inputs
from .oracle import Oracle, matches
from .spans import Tracer
from .stats import median, ratio

#: Every SAMPLE_EVERY-th read of the timed window is checked, up to SAMPLE_MAX.
SAMPLE_EVERY = 7
SAMPLE_MAX = 400
#: Fresh queries run (cold buffers, one client) after the window: their
#: answers are checked and their page I/Os give ``page_ios_per_query``.
CHECK_QUERIES = 200
#: Insert/delete pairs of the write epilogue of read-only workloads.
EPILOGUE_WRITES = 3000
#: ``queries_per_s`` and the p50s are medians over this many slices of the window.
SLICES = 5

Call = Callable[..., object]


def direct(_name: str, fn: Callable, *args):
    """The untraced ``call``."""
    return fn(*args)


class Outcome:
    """Latencies, answers and failures of one phase."""

    def __init__(self) -> None:
        self.read_ms: List[float] = []
        #: (completion time, answers) of each read, for per-slice throughput.
        self.read_done: List[Tuple[float, int]] = []
        self.write_ms: List[float] = []
        self.queries = 0
        self.attempted = 0
        self.shed = 0
        self.errors = 0
        self.wrong = 0
        self.checked = 0
        self.first_error: Optional[str] = None
        self.elapsed = 0.0
        #: Box-sum answers completed per slice of a closed-loop window.
        self.slice_queries: List[int] = []

    def fail(self, exc: BaseException) -> None:
        if isinstance(exc, ServiceOverloadedError):
            self.shed += 1
        else:
            self.errors += 1
        if self.first_error is None:
            self.first_error = f"{type(exc).__name__}: {exc}"

    def check(self, got: object, want: float, tolerance: float) -> None:
        self.checked += 1
        if not matches(got, want, tolerance):
            self.wrong += 1

    @property
    def failed(self) -> int:
        return self.shed + self.errors + self.wrong

    @property
    def queries_per_s(self) -> float:
        """Answers per second of the window's median slice.

        A stall confined to one or two of the slices leaves it unmoved, whether
        the host or the program causes it; :attr:`window_queries_per_s` shows
        such a stall.
        """
        return median(self.slice_queries) / (self.elapsed / len(self.slice_queries))

    @property
    def window_queries_per_s(self) -> float:
        """Answers per second over the whole window."""
        return ratio(self.queries, self.elapsed)

    def absorb(self, other: "Outcome") -> None:
        self.read_ms += other.read_ms
        self.read_done += other.read_done
        self.write_ms += other.write_ms
        for name in ("queries", "attempted", "shed", "errors", "wrong", "checked"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.first_error = self.first_error or other.first_error


def _vm_hwm_kib(pid: int) -> int:
    """Peak resident set of a live process (Linux ``VmHWM``), in KiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _dir_bytes(path: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def closed_loop(steps: List[Callable[[Outcome], None]], seconds: float) -> Outcome:
    """Run each client's step in its own thread until ``seconds`` have passed."""
    outcomes = [Outcome() for _ in steps]
    barrier = threading.Barrier(len(steps) + 1)
    deadline = [0.0]

    def loop(i: int) -> None:
        step, out = steps[i], outcomes[i]
        barrier.wait()
        stop = deadline[0]
        try:
            while perf_counter() < stop:
                step(out)
        except Exception as exc:  # noqa: BLE001 — a client that cannot go on fails the run
            out.fail(exc)

    threads = [threading.Thread(target=loop, args=(i,)) for i in range(len(steps))]
    for t in threads:
        t.start()
    start = perf_counter()
    deadline[0] = start + seconds
    barrier.wait()
    for t in threads:
        t.join()
    total = Outcome()
    for out in outcomes:
        total.absorb(out)
    # Two clients' samples interleave in time: order them by completion.
    order = sorted(range(len(total.read_done)), key=lambda j: total.read_done[j][0])
    total.read_ms = [total.read_ms[j] for j in order]
    total.read_done = [total.read_done[j] for j in order]
    total.elapsed = seconds
    total.slice_queries = [0] * SLICES
    for done, answers in total.read_done:
        # A request that ends after the deadline counts in the last slice.
        total.slice_queries[min(SLICES - 1, int((done - start) / seconds * SLICES))] += answers
    return total


class Workload:
    """One deployment driven one way; subclasses fill in the specifics."""

    name = ""
    n = 50_000
    #: Read-only workloads time a closed-loop write epilogue after the window.
    read_only = True

    def __init__(self, seed: int, seconds: float, root: str) -> None:
        self.seed = seed
        self.seconds = seconds
        self.root = root
        self.objects = inputs.paper_objects(inputs.rng(seed, inputs.OBJECTS), self.n)
        self.pairs = self.objects.pairs()
        self.oracle = Oracle(self.objects.low, self.objects.high, self.objects.weight)
        #: Objects ids ``n ..`` are written after the bulk load (``universe``).
        self.universe = self.pairs
        self.cluster: Optional[ShardedService] = None
        self._tmpdirs: List[str] = []
        #: ClusterBatchResults seen by the traced ``batch`` wrapper.
        self.batches: List[ClusterBatchResult] = []

    def describe(self) -> Dict[str, object]:
        """Sizes and settings recorded with every result."""
        raise NotImplementedError

    # -- deployment ------------------------------------------------------------

    def build(self) -> ShardedService:
        raise NotImplementedError

    def setup(self) -> float:
        """Build the deployment and load the objects until a query is served."""
        start = perf_counter()
        cluster = self.build()
        self.cluster = cluster
        cluster.bulk_load(self.pairs)
        cluster.box_sum(Box((0.0,) * inputs.DIMS, (1.0,) * inputs.DIMS))
        return perf_counter() - start

    def setup_repeated(self, times: int) -> List[float]:
        """Set up ``times`` deployments, keeping only the last one."""
        durations = []
        for i in range(times):
            durations.append(self.setup())
            if i < times - 1:
                self.close()
                gc.collect()
        return durations

    def tmpdir(self) -> str:
        base = os.path.join(self.root, ".perfbench", "tmp")
        os.makedirs(base, exist_ok=True)
        path = tempfile.mkdtemp(prefix=f"{self.name}-", dir=base)
        self._tmpdirs.append(path)
        return path

    def close(self) -> None:
        """Close the deployment, wait for its processes, delete its files."""
        if self.cluster is not None:
            self.cluster.close()
            self.cluster = None
        for child in multiprocessing.active_children():
            child.join()
        for path in self._tmpdirs:
            shutil.rmtree(path, ignore_errors=True)
        self._tmpdirs.clear()

    def in_process_services(self) -> List[QueryService]:
        """Shard services whose index lives in this process."""
        if self.cluster.groups:
            return [
                m for g in self.cluster.groups for m in g.members if isinstance(m, QueryService)
            ]
        return list(self.cluster.services)

    def workers(self) -> List[object]:
        """Process-worker clients (``WorkerClient``) of every replica group."""
        return [
            m for g in self.cluster.groups for m in g.members if not isinstance(m, QueryService)
        ]

    def peak_rss_mb(self) -> float:
        """Peak resident memory of this process plus its live worker processes."""
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kib += sum(_vm_hwm_kib(w.pid) for w in self.workers() if w.pid is not None)
        return kib / 1024.0

    def index_bytes_per_object(self) -> float:
        """Index bytes per live object; 0 when the indices live in workers."""
        services = self.in_process_services()
        return ratio(sum(s.index.storage.size_bytes for s in services), self.cluster.num_objects)

    # -- driving ---------------------------------------------------------------

    def warm(self) -> None:
        """A fixed amount of reads before timing, so buffers and caches fill."""
        raise NotImplementedError

    def window(self, call: Call, since: float, until: float) -> Outcome:
        """Drive the part ``[since, until)`` seconds of the timed window."""
        raise NotImplementedError

    def check_window(self) -> Outcome:
        """Check the sampled answers of the window against the oracle."""
        raise NotImplementedError

    def with_writes(self, count: int) -> None:
        """Add ``count`` fresh boxes, not yet live, to the universe and oracle."""
        writes = inputs.paper_objects(inputs.rng(self.seed, inputs.WRITE_BOXES), count)
        self.universe = self.pairs + writes.pairs()
        self.oracle = Oracle(
            np.concatenate([self.objects.low, writes.low]),
            np.concatenate([self.objects.high, writes.high]),
            np.concatenate([self.objects.weight, writes.weight]),
            live=np.arange(self.n + count) < self.n,
        )

    def epilogue(self, call: Call) -> Outcome:
        """Closed-loop writes after the window: insert fresh, delete old, in turn.

        Each insert of a fresh box is followed by the delete of a different
        bulk-loaded object, so both kinds land on pages the other did not
        just touch.  The oracle follows every acknowledged write.
        """
        out = Outcome()
        self.with_writes(EPILOGUE_WRITES)
        gen = inputs.rng(self.seed, inputs.VICTIMS)
        victims = gen.choice(self.n, size=EPILOGUE_WRITES, replace=False).tolist()
        ops = []
        for i, victim in enumerate(victims):
            ops += [("insert", self.n + i), ("delete", victim)]
        for op, obj in ops:
            box, weight = self.universe[obj]
            out.attempted += 1
            start = perf_counter()
            try:
                call(f"request.{op}", getattr(self.cluster, op), box, weight)
            except Exception as exc:  # noqa: BLE001 — counted and reported
                out.fail(exc)
                continue
            out.write_ms.append((perf_counter() - start) * 1e3)
            getattr(self.oracle, op)(obj)
        return out

    def check_final(self) -> Tuple[Outcome, float]:
        """Fresh queries on cold buffers: answers checked, page I/Os counted.

        Returns the outcome and the page reads plus writes per query summed
        over the in-process shards' storage counters (0 when every index
        lives in a worker process).  One client on cold buffers makes the
        count repeat exactly for a given seed.
        """
        out = Outcome()
        services = self.in_process_services()
        for s in services:
            s.index.storage.cold_cache()
        before = [s.index.storage.counter.snapshot() for s in services]
        tolerance = self.oracle.tolerance()
        for box in inputs.query_boxes(inputs.rng(self.seed, inputs.CHECK), CHECK_QUERIES):
            out.attempted += 1
            try:
                got = self.cluster.box_sum(box)
            except Exception as exc:  # noqa: BLE001 — counted and reported
                out.fail(exc)
                continue
            out.check(got, self.oracle.box_sum(box.low, box.high), tolerance)
        ios = sum(s.index.storage.counter.delta(b).total_ios for s, b in zip(services, before))
        return out, ratio(ios, CHECK_QUERIES)

    # -- tracing -----------------------------------------------------------------

    def counters(self) -> Dict[str, float]:
        """Counter snapshot; per-layer metrics use deltas of two snapshots."""
        out: Dict[str, float] = defaultdict(float)
        for s in self.in_process_services():
            counter = s.index.storage.counter
            out["storage.reads"] += counter.reads
            out["storage.hits"] += counter.hits
        for group in self.cluster.groups:
            stats = group.stats()
            out["resilience.retries"] += stats["retries"] + stats["failovers"]
        for worker in self.workers():
            out["rpc.child_probes_executed"] += float(worker.stats().get("probes_executed", 0))
        out["replog.bytes"] += sum(_dir_bytes(d) for d in self._tmpdirs)
        return out

    def instrument(self, tracer: Tracer) -> None:
        """Wrap every layer's public entry points on the live instances."""
        c = self.cluster
        tracer.wrap(c, "box_sum", "shard.box_sum")
        tracer.wrap(c, "batch", "shard.batch", on_result=self._note_batch)
        tracer.wrap(c, "insert", "shard.insert")
        tracer.wrap(c, "delete", "shard.delete")
        tracer.wrap(c.admission, "admit", "shard.admit")
        for group in c.groups:
            tracer.wrap(group, "resolve_probe_values", "resilience.read")
            tracer.wrap(group, "insert", "resilience.write")
            tracer.wrap(group, "delete", "resilience.write")
        for worker in self.workers():
            for verb in ("resolve_probe_values", "batch", "insert", "delete"):
                tracer.wrap(worker, verb, "rpc.call")
        for service in self.in_process_services():
            tracer.wrap(service, "resolve_probe_values", "service.resolve")
            tracer.wrap(service, "insert", "service.write")
            tracer.wrap(service, "delete", "service.write")
            tracer.wrap(service.index, "probe_value", "core.probe")
        for log in c.replication_logs:
            if log is not None:
                tracer.wrap(log, "record", "replog.record")
        tracer.attach()

    def _note_batch(self, result: object) -> None:
        if isinstance(result, ClusterBatchResult):
            self.batches.append(result)


class PaperUniform(Workload):
    """The paper's query experiment through the whole in-process stack."""

    name = "paper-uniform"
    shards = 4
    page_size = 2048
    #: About 5% of one shard's index (~4,270 pages of 2 KB at 12.5k objects).
    buffer_pages = 214
    warm_queries = 200

    def __init__(self, seed: int, seconds: float, root: str) -> None:
        super().__init__(seed, seconds, root)
        self.queries = inputs.fresh_queries(inputs.rng(seed, inputs.QUERIES))
        self.samples: List[Tuple[Box, object]] = []
        self._issued = 0

    def describe(self) -> Dict[str, object]:
        return {
            "objects": self.n,
            "shards": self.shards,
            "page_size": self.page_size,
            "buffer_pages": self.buffer_pages,
            "clients": 1,
            "loop": "closed",
            "request": "box_sum",
        }

    def build(self) -> ShardedService:
        return ShardedService(
            inputs.DIMS,
            self.shards,
            partitioner="kd",
            index_kwargs={"page_size": self.page_size, "buffer_pages": self.buffer_pages},
        )

    def warm(self) -> None:
        for box in inputs.query_boxes(inputs.rng(self.seed, inputs.WARMUP), self.warm_queries):
            self.cluster.box_sum(box)

    def window(self, call: Call, since: float, until: float) -> Outcome:
        box_sum = self.cluster.box_sum

        def step(out: Outcome) -> None:
            box = next(self.queries)
            i = self._issued
            self._issued += 1
            out.attempted += 1
            start = perf_counter()
            try:
                got = call("request.read", box_sum, box)
            except Exception as exc:  # noqa: BLE001 — counted and reported
                out.fail(exc)
                return
            done = perf_counter()
            out.read_ms.append((done - start) * 1e3)
            out.read_done.append((done, 1))
            out.queries += 1
            if i % SAMPLE_EVERY == 0 and len(self.samples) < SAMPLE_MAX:
                self.samples.append((box, got))

        return closed_loop([step], until - since)

    def check_window(self) -> Outcome:
        out = Outcome()
        tolerance = self.oracle.tolerance()
        for box, got in self.samples:
            out.check(got, self.oracle.box_sum(box.low, box.high), tolerance)
        return out


class HotDashboard(Workload):
    """Repeated dashboard batches: caches, dedup and pruning do the work."""

    name = "hot-dashboard"
    shards = 4
    clients = 2
    batch = 32
    pool_size = 64
    zipf_exponent = 1.1
    warm_batches = 20

    def __init__(self, seed: int, seconds: float, root: str) -> None:
        super().__init__(seed, seconds, root)
        self.pool = inputs.query_boxes(inputs.rng(seed, inputs.POOL), self.pool_size)
        self.draws = [
            inputs.zipf_batches(
                inputs.rng(seed, inputs.POOL_DRAWS + k),
                self.pool_size,
                self.batch,
                self.zipf_exponent,
            )
            for k in range(self.clients)
        ]
        #: Distinct (pool index, answer) pairs of the window, one set per
        #: client: a pool box should always get the same answer, so what is
        #: kept does not grow with throughput.
        self.answered: List[Set[Tuple[int, object]]] = [set() for _ in range(self.clients)]

    def describe(self) -> Dict[str, object]:
        return {
            "objects": self.n,
            "shards": self.shards,
            "storage": "library default",
            "clients": self.clients,
            "loop": "closed",
            "request": f"batch of {self.batch}",
            "pool": self.pool_size,
            "zipf_exponent": self.zipf_exponent,
        }

    def build(self) -> ShardedService:
        return ShardedService(inputs.DIMS, self.shards, partitioner="kd")

    def warm(self) -> None:
        self.cluster.batch(self.pool)
        warm_draws = inputs.zipf_batches(
            inputs.rng(self.seed, inputs.WARMUP), self.pool_size, self.batch, self.zipf_exponent
        )
        for _ in range(self.warm_batches):
            self.cluster.batch([self.pool[j] for j in next(warm_draws)])

    def window(self, call: Call, since: float, until: float) -> Outcome:
        batch = self.cluster.batch
        pool = self.pool

        def client(k: int) -> Callable[[Outcome], None]:
            draws = self.draws[k]
            answered = self.answered[k]

            def step(out: Outcome) -> None:
                idx = next(draws)
                boxes = [pool[j] for j in idx]
                out.attempted += 1
                start = perf_counter()
                try:
                    got = call("request.read", batch, boxes).results
                except Exception as exc:  # noqa: BLE001 — counted and reported
                    out.fail(exc)
                    return
                done = perf_counter()
                out.read_ms.append((done - start) * 1e3)
                out.read_done.append((done, len(boxes)))
                out.queries += len(boxes)
                answered.update(zip(idx.tolist(), got))

            return step

        return closed_loop([client(k) for k in range(self.clients)], until - since)

    def check_window(self) -> Outcome:
        """Every distinct answer of the window, against the oracle's per pool box."""
        out = Outcome()
        tolerance = self.oracle.tolerance()
        want = [self.oracle.box_sum(b.low, b.high) for b in self.pool]
        for j, value in set().union(*self.answered):
            out.check(value, want[j], tolerance)
        return out


class MixedRW(Workload):
    """Reads and writes, one closed-loop client, on a replicated worker shard."""

    name = "mixed-rw"
    n = 20_000
    read_only = False
    read_share = 0.7
    warm_reads = 100
    #: Operations generated per second of window: several times what the
    #: stack completes, so the closed loop never runs out.
    ops_per_s_cap = 2000

    def __init__(self, seed: int, seconds: float, root: str) -> None:
        super().__init__(seed, seconds, root)
        self.ops = inputs.op_sequence(
            inputs.rng(seed, inputs.SCHEDULE),
            int(self.ops_per_s_cap * seconds),
            self.read_share,
            self.n,
        )
        reads = sum(1 for op in self.ops if op.kind == "read")
        self.reads = inputs.query_boxes(inputs.rng(seed, inputs.QUERIES), reads)
        self.with_writes(sum(1 for op in self.ops if op.kind == "insert"))
        self.read_answers: Dict[int, object] = {}
        self._cursor = 0

    def describe(self) -> Dict[str, object]:
        return {
            "objects": self.n,
            "shards": 1,
            "workers": "process",
            "replicas": 1,
            "replog": "temporary directory",
            "clients": 1,
            "loop": "closed",
            "read_share": self.read_share,
        }

    def build(self) -> ShardedService:
        return ShardedService(
            inputs.DIMS, 1, workers="process", replicas=1, replog_dir=self.tmpdir()
        )

    def warm(self) -> None:
        for box in inputs.query_boxes(inputs.rng(self.seed, inputs.WARMUP), self.warm_reads):
            self.cluster.box_sum(box)

    def run_op(self, call: Call, out: Outcome, started: float) -> None:
        """Run the next operation; latency counts from ``started``."""
        op = self.ops[self._cursor]
        self._cursor += 1
        c = self.cluster
        out.attempted += 1
        try:
            if op.kind == "read":
                got = call("request.read", c.box_sum, self.reads[op.arg])
            else:
                box, weight = self.universe[op.arg]
                fn = c.insert if op.kind == "insert" else c.delete
                call(f"request.{op.kind}", fn, box, weight)
        except Exception as exc:  # noqa: BLE001 — counted and reported
            out.fail(exc)
            return
        done = perf_counter()
        latency = (done - started) * 1e3
        if op.kind == "read":
            out.read_ms.append(latency)
            out.read_done.append((done, 1))
            out.queries += 1
            if op.arg % SAMPLE_EVERY == 0:
                self.read_answers[op.arg] = got
        else:
            out.write_ms.append(latency)

    def window(self, call: Call, since: float, until: float) -> Outcome:
        def step(out: Outcome) -> None:
            if self._cursor == len(self.ops):
                raise RuntimeError("operation sequence exhausted; raise ops_per_s_cap")
            self.run_op(call, out, perf_counter())

        return closed_loop([step], until - since)

    def check_window(self) -> Outcome:
        """Replay the applied writes in order; check the sampled reads."""
        out = Outcome()
        for op in self.ops[: self._cursor]:
            if op.kind == "insert":
                self.oracle.insert(op.arg)
            elif op.kind == "delete":
                self.oracle.delete(op.arg)
            elif op.arg in self.read_answers:
                box = self.reads[op.arg]
                want = self.oracle.box_sum(box.low, box.high)
                out.check(self.read_answers[op.arg], want, self.oracle.tolerance())
        return out


WORKLOADS = {w.name: w for w in (PaperUniform, HotDashboard, MixedRW)}

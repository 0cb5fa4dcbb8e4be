"""Run one workload of the serving-stack benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-uniform --seed 1 --seconds 15 --trace 0

It builds the deployment from this checkout's ``src`` and nothing else,
prints a readable report, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (see README.md).  Results and traces go to ``.perfbench/`` in the
checkout.  The exit code is 2 when the checkout holds no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from collections import defaultdict
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Deployments built per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: End-to-end metrics (untraced runs) and their units; BENCHMARK.json lists
#: the same names.  The p99s are printed with every run but not gated: on a
#: shared 2-CPU host they follow the host's steal time (see README.md).
END_TO_END = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "queries_per_s": "1/s",
    "write_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced runs) and their units.  A layer the workload
#: does not exercise reads 0.
PER_LAYER = {
    "core.probe_ms": "ms",
    "storage.page_reads_per_probe": "count",
    "storage.buffer_hit_ratio": "ratio",
    "storage.page_ios_per_query": "count",
    "storage.index_bytes_per_object": "B",
    "shard.request_self_ms": "ms",
    "shard.fanout": "count",
    "shard.probes_pruned_frac": "ratio",
    "shard.probes_unique_per_query": "count",
    "shard.admit_wait_ms": "ms",
    "shard.write_self_ms": "ms",
    "service.resolve_ms": "ms",
    "service.write_ms": "ms",
    "service.probe_cache_hit_ratio": "ratio",
    "service.probes_executed_per_query": "count",
    "resilience.read_ms": "ms",
    "resilience.write_ms": "ms",
    "resilience.retries_per_op": "count",
    "rpc.call_ms": "ms",
    "rpc.calls_per_op": "count",
    "rpc.child_probes_executed_per_query": "count",
    "replog.record_ms": "ms",
    "replog.bytes_per_write": "B",
    "trace.overhead_qps_frac": "ratio",
    "trace.overhead_p50_frac": "ratio",
}


def _import_stack() -> None:
    """Put this checkout's ``src`` first on the path, or exit with code 2."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no src/repro under {ROOT}; nothing to benchmark\n")
        sys.exit(2)
    # The script's own directory would shadow stdlib modules; use the root.
    sys.path[:1] = [src, ROOT]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision() -> object:
    # The ceiling keeps git from searching the directories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def run_metadata(args: argparse.Namespace) -> Dict[str, object]:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": _git_revision(),
    }


def layer_metrics(tracer, batches, delta: Dict[str, float], writes: int) -> Dict[str, float]:
    """Per-layer metrics of the traced phase (README.md defines each)."""
    from perfbench.spans import self_times
    from perfbench.stats import median, ratio

    spans = tracer.spans
    selfs = self_times(spans)
    durations: Dict[str, List[float]] = defaultdict(list)
    requests = set()
    read_self: Dict[int, float] = defaultdict(float)
    write_self: Dict[int, float] = defaultdict(float)
    for span in spans:
        durations[span.name].append(span.duration * 1e3)
        if span.name.startswith("request."):
            requests.add(span.request)
        elif span.name in ("shard.box_sum", "shard.batch"):
            read_self[span.request] += selfs[span.id] * 1e3
        elif span.name in ("shard.insert", "shard.delete"):
            write_self[span.request] += selfs[span.id] * 1e3

    def med(name: str) -> float:
        return median(durations[name])

    queries = sum(len(b.results) for b in batches)
    pairs = sum(b.shards_total * b.probes_unique for b in batches)
    hits = sum(b.probe_cache_hits for b in batches)
    executed = sum(b.probes_executed for b in batches)
    ops = len(requests)
    return {
        "core.probe_ms": med("core.probe"),
        "storage.page_reads_per_probe": ratio(delta["storage.reads"], len(durations["core.probe"])),
        "storage.buffer_hit_ratio": ratio(
            delta["storage.hits"], delta["storage.hits"] + delta["storage.reads"]
        ),
        "shard.request_self_ms": median(list(read_self.values())),
        "shard.fanout": ratio(sum(b.shards_contacted for b in batches), len(batches)),
        "shard.probes_pruned_frac": ratio(sum(b.probes_pruned for b in batches), pairs),
        "shard.probes_unique_per_query": ratio(sum(b.probes_unique for b in batches), queries),
        "shard.admit_wait_ms": med("shard.admit"),
        "shard.write_self_ms": median(list(write_self.values())),
        "service.resolve_ms": med("service.resolve"),
        "service.write_ms": med("service.write"),
        "service.probe_cache_hit_ratio": ratio(hits, hits + executed),
        "service.probes_executed_per_query": ratio(executed, queries),
        "resilience.read_ms": med("resilience.read"),
        "resilience.write_ms": med("resilience.write"),
        "resilience.retries_per_op": ratio(delta["resilience.retries"], ops),
        "rpc.call_ms": med("rpc.call"),
        "rpc.calls_per_op": ratio(len(durations["rpc.call"]), ops),
        "rpc.child_probes_executed_per_query": ratio(delta["rpc.child_probes_executed"], queries),
        "replog.record_ms": med("replog.record"),
        "replog.bytes_per_write": ratio(delta["replog.bytes"], writes),
    }


def measure(workload, args: argparse.Namespace):
    """Drive one run; returns (metrics, report facts, outcome of every phase)."""
    from perfbench.spans import Tracer
    from perfbench.stats import median, percentile, ratio, sliced_percentile
    from perfbench.workloads import SLICES, direct

    seconds = float(args.seconds)
    facts: Dict[str, object] = {}
    if args.trace:
        workload.setup()
    else:
        facts["setup_runs_s"] = workload.setup_repeated(SETUPS)
    workload.warm()
    index_bytes = workload.index_bytes_per_object()
    tracer = Tracer()
    call = direct
    phases = []
    try:
        if args.trace:
            # First half untraced, second half traced: the difference is
            # the tracing overhead.
            plain = workload.window(direct, 0.0, seconds / 2.0)
            phases.append(plain)
            before = workload.counters()
            workload.instrument(tracer)
            call = tracer.call
            window = workload.window(call, seconds / 2.0, seconds)
            after = workload.counters()
        else:
            window = workload.window(direct, 0.0, seconds)
        phases += [window, workload.check_window()]
        writes = window
        if workload.read_only:
            writes = workload.epilogue(call)
            phases.append(writes)
    finally:
        tracer.detach()
    final, page_ios = workload.check_final()
    phases.append(final)

    if args.trace:
        delta = defaultdict(float, {k: after[k] - before[k] for k in after})
        metrics = layer_metrics(tracer, workload.batches, delta, len(writes.write_ms))
        metrics["trace.overhead_qps_frac"] = 1.0 - ratio(window.queries_per_s, plain.queries_per_s)
        metrics["trace.overhead_p50_frac"] = (
            ratio(median(window.read_ms), median(plain.read_ms)) - 1.0
        )
        metrics["storage.page_ios_per_query"] = page_ios
        metrics["storage.index_bytes_per_object"] = index_bytes
        trace_dir = os.path.join(ROOT, ".perfbench", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")
        tracer.dump(trace_path)
        facts["spans"] = len(tracer.spans)
        facts["trace_file"] = os.path.relpath(trace_path, ROOT)
    else:
        metrics = {
            "setup_s": median(facts["setup_runs_s"]),
            "query_p50_ms": sliced_percentile(window.read_ms, 0.5, SLICES),
            "queries_per_s": window.queries_per_s,
            "write_p50_ms": sliced_percentile(writes.write_ms, 0.5, SLICES),
            "peak_rss_mb": workload.peak_rss_mb(),
        }
    facts.update(
        read_samples=len(window.read_ms),
        query_p99_ms=percentile(window.read_ms, 0.99),
        read_max_ms=max(window.read_ms, default=0.0),
        write_samples=len(writes.write_ms),
        write_p99_ms=percentile(writes.write_ms, 0.99),
        write_max_ms=max(writes.write_ms, default=0.0),
        page_ios_per_query=page_ios,
        index_bytes_per_object=index_bytes,
        checked_answers=sum(p.checked for p in phases),
        window_queries_per_s=window.window_queries_per_s,
    )
    return metrics, facts, phases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_stack()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, args.seconds, ROOT)
    try:
        metrics, facts, phases = measure(workload, args)
    finally:
        workload.close()

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    first_error = next((p.first_error for p in phases if p.first_error), None)
    # A shed, an error and a wrong answer each make the run incorrect.
    correct = failed == 0
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    facts.update(
        failed_frac=failed / attempted if attempted else 0.0,
        shed=sum(p.shed for p in phases),
        errors=sum(p.errors for p in phases),
        wrong_answers=sum(p.wrong for p in phases),
        first_error=first_error,
    )
    record = {
        "meta": run_metadata(args),
        "workload": workload.describe(),
        "facts": facts,
        "result": result,
    }
    out_dir = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for key, value in record["meta"].items():
        print(f"  meta.{key} = {value}")
    for key, value in record["workload"].items():
        print(f"  workload.{key} = {value}")
    for key, metric in result["metrics"].items():
        print(f"  {key:<40} {metric['value']:>14.6g} {metric['unit']}")
    for key, value in facts.items():
        print(f"  {key} = {value}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

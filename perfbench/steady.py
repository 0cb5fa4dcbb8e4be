"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the repository root::

    python3 perfbench/steady.py --workload mixed-rw --seeds 1 2 3 4 5

Runs the benchmark once per seed (untraced, ``run_seconds`` from
BENCHMARK.json unless ``--seconds`` is given) and prints, per metric, the
median and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound.  Each run's wall time is printed with its metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]  # fmt: skip
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        wall = time.perf_counter() - start
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        line = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(
            f"seed {seed}: wall={wall:.1f}s correct={result['correct']} "
            f"failed={result['failed']} {line}",
            flush=True,
        )
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    if len(args.seeds) < 2:
        return 0
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        q1, _q2, q3 = statistics.quantiles(vals, n=4)
        mid = statistics.median(vals)
        spread = (q3 - q1) / mid if mid else float("inf")
        print(
            f"{metric['name']:<16} median {mid:12.5g} {metric['unit']:<5} "
            f"spread {spread:6.3f}  bound {metric['bound']:.3f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

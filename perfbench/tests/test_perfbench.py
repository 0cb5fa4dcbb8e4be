"""Tests of the benchmark's own parts: oracle, spans, percentiles, inputs.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import random
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from perfbench import inputs, run
from perfbench.oracle import Oracle, matches
from perfbench.spans import Span, Tracer, covered, self_times
from perfbench.stats import median, percentile, sliced_percentile
from repro.core.geometry import Box
from repro.core.naive import NaiveBoxSum

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# -- oracle ---------------------------------------------------------------------


def test_oracle_matches_naive_box_sum_on_live_objects():
    gen = inputs.rng(3, inputs.OBJECTS)
    # Large boxes so that queries meet many objects and boundaries matter.
    low = gen.uniform(0.0, 0.8, size=(300, 2))
    high = low + gen.uniform(0.0, 0.2, size=(300, 2))
    weight = gen.uniform(0.0, 100.0, size=300)
    live = gen.random(300) < 0.7
    oracle = Oracle(low, high, weight, live=live)
    naive = NaiveBoxSum(2)
    for i in np.flatnonzero(live):
        naive.insert(Box(low[i], high[i]), float(weight[i]))
    # Query corners that coincide with object corners exercise the
    # strict-low / closed-high intersection rule.
    queries = inputs.query_boxes(inputs.rng(3, inputs.QUERIES), 40)
    pairs = ((0, 1), (5, 5), (7, 2))
    queries += [Box(low[i], high[j]) for i, j in pairs if (low[i] <= high[j]).all()]
    queries += [Box(high[4], high[4] + 0.1)]
    for q in queries:
        assert oracle.box_sum(q.low, q.high) == pytest.approx(naive.box_sum(q), rel=1e-12, abs=1e-9)


def test_oracle_insert_delete_follow_the_live_set():
    low = np.array([[0.1, 0.1], [0.5, 0.5]])
    high = np.array([[0.2, 0.2], [0.6, 0.6]])
    oracle = Oracle(low, high, np.array([2.0, 3.0]), live=np.array([True, False]))
    whole = ((0.0, 0.0), (1.0, 1.0))
    assert oracle.box_sum(*whole) == 2.0
    oracle.insert(1)
    assert oracle.box_sum(*whole) == 5.0
    oracle.delete(0)
    assert oracle.box_sum(*whole) == 3.0
    assert oracle.tolerance() == pytest.approx(3.0e-12)


def test_matches_rejects_degraded_answers_and_misses():
    assert matches(10.0, 10.0 + 1e-10, 1e-9)
    assert not matches(10.0, 10.5, 1e-9)
    assert not matches(object(), 10.0, 1e-9)


# -- spans ----------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, 0, 1, "request.read", 0.0, 10.0),
        Span(2, 1, 1, "shard.batch", 1.0, 9.0),
        # Two overlapping children (3..6 covered once) and one disjoint.
        Span(3, 2, 1, "service.resolve", 2.0, 5.0),
        Span(4, 2, 1, "service.resolve", 3.0, 6.0),
        Span(5, 2, 1, "shard.admit", 7.0, 7.5),
        # A grandchild does not count against the batch directly.
        Span(6, 3, 1, "core.probe", 2.5, 4.0),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 8.0)
    assert selfs[2] == pytest.approx(8.0 - (4.0 + 0.5))
    assert selfs[3] == pytest.approx(3.0 - 1.5)
    assert selfs[4] == pytest.approx(3.0)
    assert selfs[6] == pytest.approx(1.5)


def test_covered_clips_children_to_the_parent():
    assert covered(0.0, 10.0, [(-5.0, 2.0), (9.0, 12.0)]) == pytest.approx(3.0)
    assert covered(0.0, 10.0, [(11.0, 12.0), (4.0, 4.0)]) == 0.0
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (3.5, 5.0)]) == pytest.approx(4.0)


class _Layer:
    def __init__(self, inner=None, pool=None):
        self.inner = inner
        self.pool = pool

    def work(self, x):
        if self.inner is None:
            return x + 1
        if self.pool is not None:
            return sum(self.pool.map(self.inner.work, [x, x]))
        return self.inner.work(x)


def test_tracer_links_spans_across_thread_pools_and_detaches():
    leaf = _Layer()
    with ThreadPoolExecutor(max_workers=2) as pool:
        top = _Layer(inner=leaf, pool=pool)
        tracer = Tracer()
        original_submit = ThreadPoolExecutor.submit
        tracer.wrap(top, "work", "top")
        tracer.wrap(leaf, "work", "leaf")
        tracer.attach()
        try:
            assert tracer.call("request.read", top.work, 1) == 4
        finally:
            tracer.detach()
        by_name = {}
        for span in tracer.spans:
            by_name.setdefault(span.name, []).append(span)
        (root,) = by_name["request.read"]
        (top_span,) = by_name["top"]
        assert top_span.parent == root.id
        assert [s.parent for s in by_name["leaf"]] == [top_span.id, top_span.id]
        assert {s.request for s in tracer.spans} == {root.request}
        # Detached: the class methods are back and no new spans appear.
        assert "work" not in vars(top) and "work" not in vars(leaf)
        count = len(tracer.spans)
        assert top.work(1) == 4
        assert len(tracer.spans) == count
        assert ThreadPoolExecutor.submit is original_submit


# -- percentiles ----------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 10, 99, 100, 101, 1000, 1001])
def test_percentiles_never_exceed_the_observed_max(n):
    rng = random.Random(n)
    samples = [rng.lognormvariate(0.0, 2.0) for _ in range(n)]
    for p in (0.5, 0.9, 0.99, 0.999, 1.0):
        value = percentile(samples, p)
        assert value <= max(samples)
        assert value in samples


def test_sliced_median_ignores_a_burst_in_one_slice():
    calm = [1.0 + 0.001 * i for i in range(100)]
    burst = calm[:40] + [50.0] * 20 + calm[60:]
    assert sliced_percentile(calm, 0.5, 5) == pytest.approx(median(calm), abs=0.02)
    assert sliced_percentile(burst, 0.5, 5) < 1.1
    assert percentile(burst, 0.5) < sliced_percentile(burst, 0.99, 5) <= max(burst)
    assert sliced_percentile([3.0, 1.0], 0.5, 5) == 1.0


def test_p99_leaves_at_least_ten_samples_beyond_it_at_1000():
    samples = list(range(1, 1001))
    assert percentile(samples, 0.99) == 990
    assert sum(1 for s in samples if s > percentile(samples, 0.99)) == 10
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert percentile([], 0.99) == 0.0


# -- inputs ---------------------------------------------------------------------


def test_inputs_repeat_for_a_seed_and_follow_the_paper_generator():
    a = inputs.paper_objects(inputs.rng(5, inputs.OBJECTS), 2000)
    b = inputs.paper_objects(inputs.rng(5, inputs.OBJECTS), 2000)
    c = inputs.paper_objects(inputs.rng(6, inputs.OBJECTS), 2000)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a.low, c.low)
    side = a.high - a.low
    assert (a.low >= 0.0).all() and (a.high <= 1.0).all()
    assert side.mean() == pytest.approx(inputs.MEAN_SIDE, rel=0.05)
    assert (a.weight >= 0.0).all() and (a.weight < 100.0).all()
    q = inputs.query_boxes(inputs.rng(5, inputs.QUERIES), 50)
    areas = [(b.high[0] - b.low[0]) * (b.high[1] - b.low[1]) for b in q]
    assert areas == pytest.approx([inputs.QBS] * 50)


def test_op_sequence_deletes_only_live_objects():
    ops = inputs.op_sequence(inputs.rng(9, inputs.SCHEDULE), 1000, 0.7, 30)
    assert ops == inputs.op_sequence(inputs.rng(9, inputs.SCHEDULE), 1000, 0.7, 30)
    live = set(range(30))
    for op in ops:
        if op.kind == "insert":
            assert op.arg not in live
            live.add(op.arg)
        elif op.kind == "delete":
            live.remove(op.arg)
    reads = [op.arg for op in ops if op.kind == "read"]
    assert reads == list(range(len(reads)))
    assert 0.65 < len(reads) / len(ops) < 0.75


def test_zipf_batches_favour_low_ranks():
    draws = inputs.zipf_batches(inputs.rng(1, inputs.POOL_DRAWS), 64, 32, 1.1)
    counts = np.bincount(np.concatenate([next(draws) for _ in range(200)]), minlength=64)
    assert counts[0] > counts[10] > counts[63]


# -- the benchmark's declared metrics --------------------------------------------


def test_benchmark_json_names_the_metrics_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == {"paper-uniform", "hot-dashboard", "mixed-rw"}

"""Tests for the corner-sharing batch planner and the probe seam."""

from __future__ import annotations

import pytest

from repro.core.aggregator import BoxSumIndex
from repro.core.errors import DimensionMismatchError, NotSupportedError
from repro.core.geometry import Box
from repro.service.planner import BatchPlanner

from ..conftest import random_box, random_objects


def _built_index(rng, backend: str, dims: int = 2, n: int = 120, **kwargs) -> BoxSumIndex:
    index = BoxSumIndex(dims, backend=backend, page_size=512, buffer_pages=None, **kwargs)
    index.bulk_load(random_objects(rng, n, dims))
    return index


class TestProbeSeam:
    def test_plan_has_2_pow_d_probes(self, rng):
        index = _built_index(rng, "ba", dims=2)
        plan = index.probe_plan(random_box(rng, 2))
        assert len(plan) == 4

    def test_object_backend_has_no_probe_plan(self, rng):
        index = _built_index(rng, "ar", dims=2, n=30)
        assert not index.supports_probes
        with pytest.raises(NotSupportedError):
            index.probe_plan(random_box(rng, 2))
        with pytest.raises(NotSupportedError):
            BatchPlanner(index)

    @pytest.mark.parametrize("backend", ["ba", "ecdf-bu", "ecdf-bq", "naive"])
    def test_reassembly_is_bit_identical_corner(self, rng, backend):
        index = _built_index(rng, backend)
        for _ in range(20):
            query = random_box(rng, 2)
            plan = index.probe_plan(query)
            values = {p.identity: index.probe_value(*p.identity) for p in plan}
            assert index.box_sum_from_probes(plan, values) == index.box_sum(query)

    def test_reassembly_is_bit_identical_eo82(self, rng):
        index = BoxSumIndex(2, backend="naive", reduction="eo82")
        index.bulk_load(random_objects(rng, 80, 2))
        for _ in range(20):
            query = random_box(rng, 2)
            plan = index.probe_plan(query)
            values = {p.identity: index.probe_value(*p.identity) for p in plan}
            assert index.box_sum_from_probes(plan, values) == index.box_sum(query)

    def test_reassembly_is_bit_identical_1d_bptree(self, rng):
        index = BoxSumIndex(1, backend="bptree", page_size=512, buffer_pages=None)
        index.bulk_load(random_objects(rng, 120, 1))
        for _ in range(20):
            query = random_box(rng, 1)
            plan = index.probe_plan(query)
            values = {p.identity: index.probe_value(*p.identity) for p in plan}
            assert index.box_sum_from_probes(plan, values) == index.box_sum(query)

    def test_probe_plan_checks_arity(self, rng):
        index = _built_index(rng, "ba", dims=2)
        with pytest.raises(DimensionMismatchError):
            index.probe_plan(random_box(rng, 3))


class TestBatchPlan:
    def test_identical_queries_share_all_probes(self, rng):
        index = _built_index(rng, "ba")
        planner = BatchPlanner(index)
        query = random_box(rng, 2)
        plan = planner.plan([query] * 5)
        assert plan.probes_total == 20
        assert plan.probes_unique == 4
        assert plan.probes_saved == 16
        assert plan.dedup_ratio == pytest.approx(5.0)

    def test_disjoint_queries_share_nothing(self, rng):
        index = _built_index(rng, "ba")
        planner = BatchPlanner(index)
        plan = planner.plan([Box((0, 0), (1, 1)), Box((2, 2), (3, 3))])
        assert plan.probes_unique == plan.probes_total == 8
        assert plan.dedup_ratio == 1.0

    def test_empty_batch(self, rng):
        index = _built_index(rng, "ba")
        planner = BatchPlanner(index)
        plan = planner.plan([])
        assert plan.probes_total == 0
        assert plan.dedup_ratio == 1.0
        execution = planner.execute(plan)
        assert execution.results == []
        assert execution.probes_executed == 0


class TestBatchExecution:
    def test_answers_match_direct_box_sum(self, rng):
        index = _built_index(rng, "ba")
        planner = BatchPlanner(index)
        queries = [random_box(rng, 2) for _ in range(10)]
        execution = planner.execute(planner.plan(queries))
        assert execution.results == [index.box_sum(q) for q in queries]

    def test_probe_cache_hooks(self, rng):
        index = _built_index(rng, "ba")
        planner = BatchPlanner(index)
        query = random_box(rng, 2)
        stored = {}
        execution = planner.execute(
            planner.plan([query]),
            lookup=lambda identity: (identity in stored, stored.get(identity)),
            store=stored.__setitem__,
        )
        assert execution.probes_executed == 4
        assert execution.probe_cache_hits == 0
        assert len(stored) == 4
        # second run: everything served from the hook, nothing executed
        again = planner.execute(
            planner.plan([query]),
            lookup=lambda identity: (identity in stored, stored.get(identity)),
            store=stored.__setitem__,
        )
        assert again.probes_executed == 0
        assert again.probe_cache_hits == 4
        assert again.results == execution.results

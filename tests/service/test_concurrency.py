"""Concurrency stress tests for the query service (``service_stress`` marker).

CI runs these in a repeat loop to surface interleaving-dependent failures;
each test is still fast enough for the ordinary suite.

The central invariant: a :class:`BatchResult` carries the epoch its answers
were computed at, and under the readers–writer lock an answer at epoch ``e``
must reflect *exactly* the first ``e`` mutations — no torn reads, no stale
cache entries, no lost updates.
"""

from __future__ import annotations

import threading

import pytest

from repro import BoxSumIndex, MetricsRegistry, QueryService
from repro.core.geometry import Box

from ..conftest import random_box, random_objects

pytestmark = pytest.mark.service_stress


def _drive(threads, errors):
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    assert not errors, errors[0]


class TestEpochConsistency:
    @pytest.mark.parametrize("backend", ["ba", "ecdf-bu", "ar"])
    def test_readers_see_exactly_the_mutations_of_their_epoch(self, rng, backend):
        """Answer at epoch e == base + e: each mutation adds 1.0 inside Q."""
        index = BoxSumIndex(2, backend=backend, page_size=512, buffer_pages=None)
        index.bulk_load(random_objects(rng, 60, 2))
        query = Box((10.0, 10.0), (90.0, 90.0))
        base = index.box_sum(query)
        writes = 15
        with QueryService(index, registry=MetricsRegistry()) as service:
            done = threading.Event()
            errors = []

            def writer():
                try:
                    for i in range(writes):
                        # distinct boxes fully inside the query window
                        lo = 20.0 + i * 4.0
                        service.insert(Box((lo, 20.0), (lo + 2.0, 22.0)), 1.0)
                finally:
                    done.set()

            def reader():
                try:
                    while not done.is_set():
                        result = service.batch([query])
                        expect = base + result.epoch
                        if abs(result.results[0] - expect) > 1e-6:
                            raise AssertionError(
                                f"epoch {result.epoch}: got {result.results[0]}, "
                                f"want {expect}"
                            )
                except Exception as exc:  # propagate to the main thread
                    errors.append(exc)

            _drive(
                [threading.Thread(target=writer)]
                + [threading.Thread(target=reader) for _ in range(4)],
                errors,
            )
            final = service.batch([query])
            assert final.epoch == writes
            assert final.results[0] == pytest.approx(base + writes)

    def test_no_stale_reads_after_close_race(self, rng):
        index = BoxSumIndex(2, backend="ba", page_size=512, buffer_pages=None)
        index.bulk_load(random_objects(rng, 40, 2))
        service = QueryService(index, registry=MetricsRegistry())
        errors = []

        def hammer():
            try:
                for _ in range(50):
                    service.box_sum(Box((10.0, 10.0), (20.0, 20.0)))
            except Exception as exc:
                from repro import ServiceClosedError

                if not isinstance(exc, ServiceClosedError):
                    errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for t in threads:
            t.start()
        service.close()
        for t in threads:
            t.join(timeout=60.0)
        assert not errors, errors[0]


class TestParallelReaders:
    def test_shared_buffer_pool_under_eviction_pressure(self, rng):
        """Tiny locked buffer + many reader threads: answers stay exact."""
        index = BoxSumIndex(2, backend="ba", page_size=512, buffer_pages=8)
        index.bulk_load(random_objects(rng, 300, 2))
        queries = [random_box(rng, 2) for _ in range(12)]
        expected = [index.box_sum(q) for q in queries]
        with QueryService(index, registry=MetricsRegistry()) as service:
            errors = []

            def reader():
                try:
                    for _ in range(5):
                        got = service.box_sum_batch(queries)
                        if got != expected:
                            raise AssertionError("answers diverged under concurrency")
                except Exception as exc:
                    errors.append(exc)

            _drive([threading.Thread(target=reader) for _ in range(6)], errors)
            stats = service.stats()
            assert stats["queries"] == 6 * 5 * len(queries)

    def test_mixed_single_and_batch_traffic(self, rng):
        index = BoxSumIndex(2, backend="ecdf-bq", page_size=512, buffer_pages=None)
        index.bulk_load(random_objects(rng, 150, 2))
        hot = [random_box(rng, 2) for _ in range(4)]
        expected = {q: index.box_sum(q) for q in hot}
        with QueryService(
            index, max_inflight=4, max_queue=64, registry=MetricsRegistry()
        ) as service:
            errors = []

            def single(q):
                try:
                    for _ in range(10):
                        if service.box_sum(q) != expected[q]:
                            raise AssertionError("single query diverged")
                except Exception as exc:
                    errors.append(exc)

            def batch():
                try:
                    for _ in range(10):
                        if service.box_sum_batch(hot) != [expected[q] for q in hot]:
                            raise AssertionError("batch diverged")
                except Exception as exc:
                    errors.append(exc)

            _drive(
                [threading.Thread(target=single, args=(q,)) for q in hot]
                + [threading.Thread(target=batch) for _ in range(2)],
                errors,
            )


class TestTracerThreadSafety:
    def test_spans_from_many_threads_stay_separated(self):
        """Each thread builds its own span tree; roots never interleave."""
        from repro.obs import Tracer

        tracer = Tracer()
        errors = []

        def work(tid):
            try:
                for i in range(20):
                    with tracer.span("outer", tid=tid, i=i):
                        with tracer.span("inner", tid=tid):
                            pass
            except Exception as exc:
                errors.append(exc)

        _drive([threading.Thread(target=work, args=(t,)) for t in range(6)], errors)
        assert len(tracer.spans) == 6 * 20
        for root in tracer.spans:
            assert root.name == "outer"
            assert [c.name for c in root.children] == ["inner"]
            assert root.children[0].attrs["tid"] == root.attrs["tid"]

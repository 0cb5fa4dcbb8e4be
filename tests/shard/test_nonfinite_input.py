"""NaN and ±inf weights or coordinates are rejected before any state changes.

One non-finite weight would make every covering box-sum NaN for good
(``inf - inf`` is NaN, so the matching delete cannot cancel it) and the
replication log would ship it to every replica.  Each mutation layer —
``BoxSumIndex``, ``QueryService`` and ``ShardedService``, in-process and
with process workers — must raise :class:`ValueError` and leave answers,
object counts, epochs, digests, extents and the log head exactly as they
were.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

from repro.core.aggregator import BoxSumIndex
from repro.core.geometry import Box
from repro.obs import MetricsRegistry
from repro.replog import ReplicationLog
from repro.service import QueryService
from repro.shard import ShardedService

from ..conftest import random_box

INF = math.inf
GOOD = Box((10.0, 10.0), (20.0, 20.0))

#: (box, weight) pairs every mutation verb must refuse.
BAD_OBJECTS = [
    (GOOD, INF),
    (GOOD, -INF),
    (GOOD, math.nan),
    (Box((-INF, 0.0), (5.0, 5.0)), 1.0),
    (Box((0.0, 0.0), (5.0, INF)), 1.0),
]
BAD_IDS = ["inf-weight", "neg-inf-weight", "nan-weight", "neg-inf-low", "inf-high"]


def _objects(seed=0xF1, n=40):
    rng = random.Random(seed)
    return [(random_box(rng, 2), float(rng.randint(1, 9))) for _ in range(n)]


def _queries(seed=0xF2, n=10):
    rng = random.Random(seed)
    return [random_box(rng, 2, max_side=60.0) for _ in range(n)] + [GOOD]


def _attempts(box, value, existing):
    """Every mutation verb with the bad object: insert, delete, bulk loads."""
    return [
        ("insert", lambda target: target.insert(box, value)),
        ("delete", lambda target: target.delete(box, value)),
        ("bulk_load", lambda target: target.bulk_load(existing + [(box, value)])),
    ]


@pytest.mark.parametrize("box, value", BAD_OBJECTS, ids=BAD_IDS)
def test_box_sum_index_rejects_before_mutating(box, value):
    objects = _objects()
    index = BoxSumIndex(2, backend="ba")
    index.bulk_load(objects)
    queries = _queries()
    before = [index.box_sum(q) for q in queries]
    for verb, attempt in _attempts(box, value, objects):
        with pytest.raises(ValueError, match="finite"):
            attempt(index)
        assert index.num_objects == len(objects), verb
        assert [index.box_sum(q) for q in queries] == before, verb


@pytest.mark.parametrize("box, value", BAD_OBJECTS, ids=BAD_IDS)
def test_query_service_rejects_before_logging(tmp_path, box, value):
    objects = _objects()
    replog = ReplicationLog(str(tmp_path / "log"), registry=MetricsRegistry())
    service = QueryService(BoxSumIndex(2, backend="ba"), oplog=replog, registry=MetricsRegistry())
    try:
        service.bulk_load(objects)
        queries = _queries()
        before = service.box_sum_batch(queries)
        epoch, digest, head = service.epoch, service.state_digest, replog.head_lsn
        for verb, attempt in _attempts(box, value, objects):
            with pytest.raises(ValueError, match="finite"):
                attempt(service)
            assert service.epoch == epoch, verb
            assert service.state_digest == digest, verb
            assert replog.head_lsn == head, verb
            assert service.index.num_objects == len(objects), verb
            assert service.box_sum_batch(queries) == before, verb
    finally:
        service.close()
        replog.close()


@pytest.mark.parametrize("workers", [None, "process"])
def test_sharded_service_rejects_before_routing(tmp_path, workers):
    objects = _objects()
    with ShardedService(
        2,
        2,
        partitioner="kd",
        workers=workers,
        replicas=1,
        replog_dir=str(tmp_path / "replog"),
        registry=MetricsRegistry(),
    ) as cluster:
        cluster.bulk_load(objects)
        queries = _queries()
        before = cluster.box_sum_batch(queries)
        stats = cluster.stats()
        extents = cluster.extents()

        def member_digests():
            return [[m.state_digest for m in group.members] for group in cluster.groups]

        digests = member_digests()
        # The cluster, and each shard member it fronts (a QueryService or,
        # with process workers, a WorkerClient), refuses on its own.
        targets = [cluster] + [m for group in cluster.groups for m in group.members]
        for (box, value), target in itertools.product(BAD_OBJECTS, targets):
            for verb, attempt in _attempts(box, value, objects):
                with pytest.raises(ValueError, match="finite"):
                    attempt(target)
                after = cluster.stats()
                assert cluster.num_objects == len(objects), verb
                assert after["objects"] == stats["objects"], verb
                assert after["epochs"] == stats["epochs"], verb
                assert after["head_lsns"] == stats["head_lsns"], verb
                assert cluster.extents() == extents, verb
        assert member_digests() == digests
        assert cluster.box_sum_batch(queries) == before
        # The cluster still takes good writes afterwards.
        cluster.insert(GOOD, 2.5)
        assert cluster.num_objects == len(objects) + 1

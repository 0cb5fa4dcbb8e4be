"""Seeded inputs owned by the benchmark.

Everything a run feeds the system comes from here, so the inputs depend only
on ``--seed`` (and, for the length of ``mixed-rw``'s operation sequence, on
``--seconds``), never on library generators a later change could edit.

Seed rule: each input stream is ``numpy.random.default_rng([seed, stream])``
with a fixed stream code below.  The same seed therefore gives the same
objects to every workload, and streams never overlap.

The data follow the paper's generator (Section 6): uniform centres in the
unit square, sides drawn from U(0, 2/10,000) so the mean side is 1/10,000 of
the space, and real-valued weights from U[0, 100).  Query boxes are squares
covering 1% of the space (QBS 1%) placed uniformly inside it.
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Tuple

import numpy as np

from repro.core.geometry import Box

DIMS = 2
MEAN_SIDE = 1e-4
WEIGHT_HIGH = 100.0
QBS = 0.01
#: Side of a QBS-1% square query.
QUERY_SIDE = QBS ** (1.0 / DIMS)

# Stream codes (the second word of the seed sequence).
OBJECTS = 1
QUERIES = 2
WARMUP = 3
POOL = 4
POOL_DRAWS = 10  # + client number
SCHEDULE = 5
WRITE_BOXES = 6
CHECK = 7
VICTIMS = 8


def rng(seed: int, stream: int) -> np.random.Generator:
    """The generator of one input stream."""
    return np.random.default_rng([seed, stream])


class Objects(NamedTuple):
    """Weighted boxes as columns (for the oracle) and as ``(Box, w)`` pairs."""

    low: np.ndarray  # (n, DIMS)
    high: np.ndarray  # (n, DIMS)
    weight: np.ndarray  # (n,)

    def pairs(self) -> List[Tuple[Box, float]]:
        return [
            (Box(lo, hi), w)
            for lo, hi, w in zip(self.low.tolist(), self.high.tolist(), self.weight.tolist())
        ]


def paper_objects(gen: np.random.Generator, n: int) -> Objects:
    """``n`` boxes from the paper's uniform generator."""
    side = gen.uniform(0.0, 2.0 * MEAN_SIDE, size=(n, DIMS))
    centre = side / 2.0 + gen.uniform(0.0, 1.0, size=(n, DIMS)) * (1.0 - side)
    low = centre - side / 2.0
    high = low + side
    weight = gen.uniform(0.0, WEIGHT_HIGH, size=n)
    return Objects(low, high, weight)


def query_lows(gen: np.random.Generator, n: int) -> np.ndarray:
    """Low corners of ``n`` QBS-1% query squares."""
    return gen.uniform(0.0, 1.0 - QUERY_SIDE, size=(n, DIMS))


def query_boxes(gen: np.random.Generator, n: int) -> List[Box]:
    """``n`` fresh QBS-1% query squares."""
    return [Box(lo, [x + QUERY_SIDE for x in lo]) for lo in query_lows(gen, n).tolist()]


def fresh_queries(gen: np.random.Generator, chunk: int = 4096) -> Iterator[Box]:
    """An endless stream of fresh query squares, drawn ``chunk`` at a time.

    The chunk size is fixed, so the sequence depends on the seed only.
    """
    while True:
        yield from query_boxes(gen, chunk)


def zipf_weights(size: int, exponent: float) -> np.ndarray:
    """Rank-``r`` probability proportional to ``1 / r**exponent``."""
    w = 1.0 / np.arange(1, size + 1, dtype=float) ** exponent
    return w / w.sum()


def zipf_batches(
    gen: np.random.Generator, pool_size: int, batch: int, exponent: float, chunk: int = 256
) -> Iterator[np.ndarray]:
    """An endless stream of batches of pool indices, Zipf-ranked."""
    p = zipf_weights(pool_size, exponent)
    while True:
        yield from gen.choice(pool_size, size=(chunk, batch), p=p)


class Op(NamedTuple):
    """One operation of the mixed read/write sequence."""

    kind: str  # "read", "insert" or "delete"
    arg: int  # query index (read) or object id (insert/delete)


def op_sequence(gen: np.random.Generator, count: int, read_share: float, initial: int) -> List[Op]:
    """``count`` reads, inserts and deletes, valid when run in order.

    Object ids ``0 .. initial-1`` are the bulk-loaded objects; inserts take
    fresh ids ``initial, initial+1, ...``.  Writes are inserts or deletes with
    equal odds, and a delete names an object that is live at that point of the
    sequence.
    """
    ops: List[Op] = []
    live = list(range(initial))
    next_id = initial
    reads = 0
    for _ in range(count):
        if gen.random() < read_share:
            ops.append(Op("read", reads))
            reads += 1
        elif gen.random() < 0.5 or not live:
            ops.append(Op("insert", next_id))
            live.append(next_id)
            next_id += 1
        else:
            # Swap-remove keeps the draw O(1); the order of ``live`` is seeded.
            j = int(gen.integers(len(live)))
            live[j], live[-1] = live[-1], live[j]
            ops.append(Op("delete", live.pop()))
    return ops

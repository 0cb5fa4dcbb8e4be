"""The correctness oracle: a vectorised scan over the live objects.

It shares no code with the index: an object counts toward a query when their
projections meet in every dimension under the paper's semantics
(``obj.low < q.high`` and ``obj.high >= q.low``), and the selected weights
are summed with ``math.fsum``, which rounds the exact sum once.

Float sums in the index re-associate (the corner reduction is a signed sum
of prefix sums), so answers are compared with one stated tolerance:
``|got - want| <= REL_TOL * W``, where ``W`` is the total absolute weight of
the live objects, the scale of the prefix sums the reduction cancels.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

#: Relative tolerance of every answer check, as a share of the live weight.
REL_TOL = 1e-12


class Oracle:
    """Box-sums over a fixed universe of objects, some of them live."""

    def __init__(
        self,
        low: np.ndarray,
        high: np.ndarray,
        weight: np.ndarray,
        live: Optional[np.ndarray] = None,
    ) -> None:
        self.low = np.ascontiguousarray(low, dtype=float)
        self.high = np.ascontiguousarray(high, dtype=float)
        self.weight = np.ascontiguousarray(weight, dtype=float)
        self.live = (
            np.ones(len(self.weight), dtype=bool) if live is None else np.array(live, dtype=bool)
        )

    def insert(self, obj: int) -> None:
        self.live[obj] = True

    def delete(self, obj: int) -> None:
        self.live[obj] = False

    def box_sum(self, qlow: Sequence[float], qhigh: Sequence[float]) -> float:
        hit = self.live.copy()
        for d in range(self.low.shape[1]):
            hit &= self.low[:, d] < qhigh[d]
            hit &= self.high[:, d] >= qlow[d]
        return math.fsum(self.weight[hit].tolist())

    def tolerance(self) -> float:
        """The largest admissible absolute error at the current live set."""
        return REL_TOL * math.fsum(np.abs(self.weight[self.live]).tolist())


def matches(got: object, want: float, tolerance: float) -> bool:
    """True when ``got`` is a plain number within ``tolerance`` of ``want``.

    A degraded answer (``PartialResult``/``ApproxResult``) is not a number
    and never matches.
    """
    return isinstance(got, float) and abs(got - want) <= tolerance

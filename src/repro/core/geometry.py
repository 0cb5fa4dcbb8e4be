"""d-dimensional points, boxes, dominance and the paper's intersection predicate.

The paper (Section 2) fixes the following conventions, which this module
implements verbatim:

* a point ``x`` *dominates* ``y`` iff ``x_i >= y_i`` in every dimension;
* the reduction conditions ``A^0_i`` / ``A^1_i`` are *strict*:
  ``A^0_i(o, q) = o.l_i < q.h_i`` and ``A^1_i(o, q) = o.h_i < q.l_i``;
* two intervals ``i1``, ``i2`` intersect iff
  ``i1.low < i2.high and not (i1.high < i2.low)``, and two boxes intersect
  iff their projections intersect in every dimension.

Internally points are plain tuples of floats (cheap to hash, compare and
store inside pages); :class:`Box` is the friendly wrapper used at API
boundaries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Tuple

from .errors import DimensionMismatchError, InvalidBoxError

#: A point is a tuple of per-dimension coordinates.
Coords = Tuple[float, ...]


def as_coords(point: Sequence[float]) -> Coords:
    """Normalize any coordinate sequence to the internal tuple form."""
    return tuple(float(c) for c in point)


def check_same_dims(a: Sequence[float], b: Sequence[float]) -> None:
    """Raise :class:`DimensionMismatchError` unless ``a`` and ``b`` have equal arity."""
    if len(a) != len(b):
        raise DimensionMismatchError(f"dimension mismatch: {len(a)} vs {len(b)}")


def dominates(x: Sequence[float], y: Sequence[float]) -> bool:
    """Return True iff ``x`` dominates ``y`` (``x_i >= y_i`` for every i)."""
    check_same_dims(x, y)
    return all(xi >= yi for xi, yi in zip(x, y))


def strictly_dominates(x: Sequence[float], y: Sequence[float]) -> bool:
    """Return True iff ``y_i < x_i`` in every dimension.

    This is the predicate dominance-sum indices answer: the ``A`` conditions
    of Lemma 1 are all strict ``<`` comparisons, so a stored point ``y``
    contributes to the dominance-sum at query point ``x`` iff
    ``strictly_dominates(x, y)``.
    """
    check_same_dims(x, y)
    return all(yi < xi for xi, yi in zip(x, y))


def intervals_intersect(low1: float, high1: float, low2: float, high2: float) -> bool:
    """The paper's interval intersection: ``low1 < high2 and not (high1 < low2)``."""
    return low1 < high2 and not high1 < low2


@dataclass(frozen=True)
class Box:
    """An axis-parallel d-dimensional rectangle given by its low and high corners.

    ``low`` must be dominated by ``high``; degenerate boxes (zero extent in
    some or all dimensions, i.e. points) are allowed — the paper treats
    range-sum over points as the special case of box-sum with degenerate
    boxes.
    """

    low: Coords
    high: Coords

    def __init__(self, low: Sequence[float], high: Sequence[float]) -> None:
        low_t = as_coords(low)
        high_t = as_coords(high)
        check_same_dims(low_t, high_t)
        if not dominates(high_t, low_t):
            raise InvalidBoxError(f"low corner {low_t} must be dominated by high corner {high_t}")
        object.__setattr__(self, "low", low_t)
        object.__setattr__(self, "high", high_t)

    # -- basic properties -------------------------------------------------

    @property
    def dims(self) -> int:
        """Number of dimensions of this box."""
        return len(self.low)

    @property
    def is_point(self) -> bool:
        """True iff the box has zero extent in every dimension."""
        return self.low == self.high

    def side(self, dim: int) -> float:
        """Extent of the box along dimension ``dim``."""
        return self.high[dim] - self.low[dim]

    def volume(self) -> float:
        """Product of the side lengths (area in 2-d, volume in 3-d, ...)."""
        result = 1.0
        for lo, hi in zip(self.low, self.high):
            result *= hi - lo
        return result

    def margin(self) -> float:
        """Sum of the side lengths (the R*-tree split heuristic's 'margin')."""
        return sum(hi - lo for lo, hi in zip(self.low, self.high))

    def center(self) -> Coords:
        """Center point of the box."""
        return tuple((lo + hi) / 2.0 for lo, hi in zip(self.low, self.high))

    # -- predicates --------------------------------------------------------

    def intersects(self, other: "Box") -> bool:
        """Paper-semantics intersection test (strict on the low side).

        Projections must intersect in every dimension using
        :func:`intervals_intersect`.
        """
        check_same_dims(self.low, other.low)
        return all(
            intervals_intersect(self.low[i], self.high[i], other.low[i], other.high[i])
            for i in range(self.dims)
        )

    def contains_box(self, other: "Box") -> bool:
        """True iff ``other`` lies entirely within this box (closed on both sides)."""
        check_same_dims(self.low, other.low)
        return dominates(other.low, self.low) and dominates(self.high, other.high)

    def contains_point(self, point: Sequence[float]) -> bool:
        """Half-open membership test: ``low_i <= p_i < high_i`` in every dimension.

        The half-open convention is what the page-partitioning trees
        (k-d-B-tree, BA-tree) use so that a point belongs to exactly one
        sibling region.
        """
        check_same_dims(self.low, point)
        return all(lo <= p < hi for lo, p, hi in zip(self.low, point, self.high))

    def contains_point_closed(self, point: Sequence[float]) -> bool:
        """Closed membership test: ``low_i <= p_i <= high_i`` in every dimension."""
        check_same_dims(self.low, point)
        return all(lo <= p <= hi for lo, p, hi in zip(self.low, point, self.high))

    # -- constructive operations -------------------------------------------

    def intersection(self, other: "Box") -> "Box | None":
        """Geometric intersection, or None when the closed boxes are disjoint."""
        check_same_dims(self.low, other.low)
        low = tuple(max(a, b) for a, b in zip(self.low, other.low))
        high = tuple(min(a, b) for a, b in zip(self.high, other.high))
        if not dominates(high, low):
            return None
        return Box(low, high)

    def union(self, other: "Box") -> "Box":
        """Smallest box enclosing both operands (the R-tree 'MBR union')."""
        check_same_dims(self.low, other.low)
        low = tuple(min(a, b) for a, b in zip(self.low, other.low))
        high = tuple(max(a, b) for a, b in zip(self.high, other.high))
        return Box(low, high)

    def split_at(self, dim: int, value: float) -> Tuple["Box", "Box"]:
        """Split by the hyperplane ``x_dim = value`` into (lower, upper) halves.

        ``value`` must lie strictly inside the box's extent along ``dim``.
        The halves follow the half-open convention: the lower half is
        ``[low_dim, value)`` and the upper half ``[value, high_dim)``.
        """
        if not self.low[dim] < value < self.high[dim]:
            raise InvalidBoxError(
                f"split value {value} outside open interval "
                f"({self.low[dim]}, {self.high[dim]}) of dim {dim}"
            )
        lower_high = list(self.high)
        lower_high[dim] = value
        upper_low = list(self.low)
        upper_low[dim] = value
        return Box(self.low, tuple(lower_high)), Box(tuple(upper_low), self.high)

    # -- corners -----------------------------------------------------------

    def corner(self, signs: Sequence[int]) -> Coords:
        """The corner selected by a 0/1 vector: coordinate ``high_i`` where ``signs[i]`` is 1.

        Corner ``(0, ..., 0)`` is the low point and ``(1, ..., 1)`` the high
        point. This is the corner indexing used by the Theorem 2 reduction.
        """
        check_same_dims(self.low, signs)
        return tuple(self.high[i] if signs[i] else self.low[i] for i in range(self.dims))

    def corners(self) -> Iterator[Tuple[Tuple[int, ...], Coords]]:
        """Iterate ``(signs, corner)`` over all 2^d corners in sign order."""
        for signs in itertools.product((0, 1), repeat=self.dims):
            yield signs, self.corner(signs)

    # -- conversions ---------------------------------------------------------

    @classmethod
    def from_point(cls, point: Sequence[float]) -> "Box":
        """Degenerate box with zero extent at ``point``."""
        coords = as_coords(point)
        return cls(coords, coords)

    @classmethod
    def enclosing(cls, boxes: Iterable["Box"]) -> "Box":
        """Smallest box enclosing every box in a non-empty iterable."""
        it = iter(boxes)
        try:
            result = next(it)
        except StopIteration:
            raise InvalidBoxError("cannot compute the enclosure of zero boxes") from None
        for box in it:
            result = result.union(box)
        return result

    def __repr__(self) -> str:
        return f"Box({list(self.low)}, {list(self.high)})"


def sign_parity(signs: Sequence[int]) -> int:
    """``(-1) ** sum(signs)`` — the inclusion–exclusion sign of a corner."""
    return -1 if sum(signs) % 2 else 1


def universe_box(dims: int, low: float = 0.0, high: float = 1.0) -> Box:
    """Convenience constructor for the cube ``[low, high]^dims``."""
    return Box((low,) * dims, (high,) * dims)


def check_finite_object(box: Box, value: float) -> None:
    """Raise :class:`ValueError` unless ``value`` and every coordinate are finite.

    Mutations call this before touching any state.  A NaN or infinite
    weight poisons every dominance sum that covers the object for good
    (``inf - inf`` is NaN, so the matching delete cannot cancel it), and a
    non-finite coordinate does the same through the extent bookkeeping.
    """
    isfinite = math.isfinite
    if not isfinite(value):
        raise ValueError(f"object weight must be finite, got {value!r}")
    for corner in (box.low, box.high):
        for c in corner:
            if not isfinite(c):
                raise ValueError(f"object coordinates must be finite, got {box!r}")

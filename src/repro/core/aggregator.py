"""Public facades: :class:`BoxSumIndex` and :class:`FunctionalBoxSumIndex`.

These wire a *reduction* (Section 2/3) to a set of *dominance-sum backends*
(Sections 4/5), or — for the R-tree family — index the objects directly.

Backends
--------

==============  ==============================================================
name            structure
==============  ==============================================================
``ba``          BA-tree (the paper's proposal; default)
``ecdf-bu``     ECDF-Bu-tree (update-optimized borders)
``ecdf-bq``     ECDF-Bq-tree (query-optimized prefix borders)
``ecdf``        static main-memory ECDF-tree (bulk-build only)
``bptree``      aggregated B+-tree (1-d only)
``naive``       scan-based oracle
``ar``          aR-tree — direct object indexing, aggregate-augmented R*-tree
``rstar``       plain R*-tree — direct object indexing, no aggregates
==============  ==============================================================

The dominance-based backends of a :class:`BoxSumIndex` share one
:class:`~repro.storage.StorageContext` (the paper runs its four
dominance-sum trees against a single 10 MB LRU buffer).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..obs import trace as _trace
from ..storage import StorageContext, polynomial_value_bytes
from .errors import DimensionMismatchError, InvalidQueryError, NotSupportedError
from .geometry import Box, check_finite_object
from .naive import NaiveDominanceSum
from .polynomial import Polynomial
from .reduction import (
    CornerReduction,
    EO82Reduction,
    Probe,
    ProbeValues,
    combine_probe_values,
    format_key,
)
from .functional import FunctionalReduction
from .values import SumCount, Value

#: Backends that answer the dominance-sum protocol.
DOMINANCE_BACKENDS = ("ba", "ecdf-bu", "ecdf-bq", "ecdf", "ecdf-log", "bptree", "naive")
#: Backends that index the objects themselves.
OBJECT_BACKENDS = ("ar", "rstar")


def make_dominance_index(
    backend: str,
    dims: int,
    storage: Optional[StorageContext] = None,
    zero: Value = 0.0,
    value_bytes: Optional[int] = None,
    **kwargs: object,
):
    """Construct a dominance-sum index of the requested backend and arity.

    ``storage`` may be shared across indices; when omitted a private context
    with the library defaults is created (except for the purely in-memory
    ``naive`` and ``ecdf`` backends, which need none).
    """
    if backend == "naive":
        return NaiveDominanceSum(dims, zero=zero)
    if backend == "ecdf":
        from ..ecdf.ecdf_tree import StaticEcdfTree

        return StaticEcdfTree(dims, zero=zero)
    if backend == "ecdf-log":
        from ..ecdf.dynamized import LogarithmicEcdfTree

        return LogarithmicEcdfTree(dims, zero=zero, **kwargs)
    if storage is None:
        storage = StorageContext()
    if backend == "bptree":
        if dims != 1:
            raise NotSupportedError("the aggregated B+-tree backend is 1-dimensional")
        from ..bptree import AggBPlusTree

        return AggBPlusTree(storage, zero=zero, value_bytes=value_bytes, **kwargs)
    if backend == "ba":
        from ..batree import BATree

        return BATree(storage, dims, zero=zero, value_bytes=value_bytes, **kwargs)
    if backend in ("ecdf-bu", "ecdf-bq"):
        from ..ecdf.ecdf_b import EcdfBTree

        variant = "u" if backend.endswith("u") else "q"
        return EcdfBTree(
            storage, dims, variant=variant, zero=zero, value_bytes=value_bytes, **kwargs
        )
    raise NotSupportedError(f"unknown dominance backend {backend!r}")


class BoxSumIndex:
    """SUM/COUNT/AVG over boxes intersecting a query box (the simple problem).

    With a dominance backend this maintains ``2^d`` dominance-sum indices
    (one per object corner, Theorem 2) over a shared storage context; with
    ``reduction="eo82"`` it instead maintains the ``3^d − 1`` indices of the
    prior technique [13] — useful for head-to-head reduction benchmarks.
    With the ``ar``/``rstar`` backends objects are indexed directly.

    ``measure`` selects what is aggregated: ``"sum"`` stores scalar weights,
    ``"count"`` stores 1 per object, ``"sum+count"`` stores
    :class:`~repro.core.values.SumCount` pairs and additionally enables
    :meth:`box_avg`.
    """

    def __init__(
        self,
        dims: int,
        backend: str = "ba",
        reduction: str = "corner",
        measure: str = "sum",
        storage: Optional[StorageContext] = None,
        page_size: int = 8192,
        buffer_pages: Optional[int] = 1280,
        **backend_kwargs: object,
    ) -> None:
        if dims < 1:
            raise DimensionMismatchError(f"dims must be >= 1, got {dims}")
        if measure not in ("sum", "count", "sum+count"):
            raise InvalidQueryError(f"unknown measure {measure!r}")
        self.dims = dims
        self.backend = backend
        self.measure = measure
        self.num_objects = 0
        self._zero: Value = SumCount(0.0, 0.0) if measure == "sum+count" else 0.0
        if backend in OBJECT_BACKENDS:
            if reduction != "corner":
                raise NotSupportedError("object backends do not use a reduction")
            self.storage = storage or StorageContext(page_size=page_size, buffer_pages=buffer_pages)
            self._reduction = None
            from ..rtree import ARTree, RStarTree

            cls = ARTree if backend == "ar" else RStarTree
            self._object_index = cls(self.storage, dims, **backend_kwargs)
            return
        if backend not in DOMINANCE_BACKENDS:
            raise NotSupportedError(f"unknown backend {backend!r}")
        needs_storage = backend not in ("naive", "ecdf", "ecdf-log")
        if needs_storage:
            self.storage = storage or StorageContext(page_size=page_size, buffer_pages=buffer_pages)
        else:
            self.storage = storage
        value_bytes = 16 if measure == "sum+count" else 8
        if reduction == "corner":
            self._reduction = CornerReduction(dims)
        elif reduction == "eo82":
            self._reduction = EO82Reduction(dims)
        else:
            raise NotSupportedError(f"unknown reduction {reduction!r}")
        self._object_index = None
        self._total: Value = self._zero
        self._indices: Dict[object, object] = {}
        for key in self._reduction.index_keys():
            arity = dims if reduction == "corner" else len(key[0])
            sub_backend = backend
            if backend == "bptree" and arity != 1:
                raise NotSupportedError("the bptree backend only supports 1-dimensional box-sums")
            self._indices[key] = make_dominance_index(
                sub_backend,
                arity,
                storage=self.storage,
                zero=self._zero,
                value_bytes=value_bytes,
                **backend_kwargs,
            )

    # -- updates ------------------------------------------------------------------

    def _measure_value(self, value: float) -> Value:
        if self.measure == "sum":
            return float(value)
        if self.measure == "count":
            return 1.0
        return SumCount(float(value), 1.0)

    def insert(self, box: Box, value: float = 1.0) -> None:
        """Add one weighted box object (ValueError on a non-finite weight or box)."""
        self._check(box)
        check_finite_object(box, value)
        measured = self._measure_value(value)
        self.num_objects += 1
        if self._object_index is not None:
            self._object_index.insert(box, measured)
            return
        self._total = self._total + measured
        for key, point, v in self._reduction.insertions(box, measured):
            self._indices[key].insert(point, v)

    def delete(self, box: Box, value: float = 1.0) -> None:
        """Remove one previously inserted object (by inserting its negation).

        As in the paper's aggregate indices, the structures store aggregates
        rather than objects, so deletion is the insertion of the inverse
        weight; the caller must pass the same box and value used at insert.
        """
        self._check(box)
        check_finite_object(box, value)
        measured = self._measure_value(value)
        self.num_objects -= 1
        if self._object_index is not None:
            self._object_index.delete(box, measured)
            return
        self._total = self._total + (-measured)
        for key, point, v in self._reduction.insertions(box, measured):
            self._indices[key].insert(point, -v)

    def bulk_load(self, objects: Iterable[Tuple[Box, float]]) -> None:
        """Build from scratch out of ``(box, weight)`` pairs (bulk-loading backends)."""
        objects = list(objects)
        for box, value in objects:
            self._check(box)
            check_finite_object(box, value)
        self.num_objects = len(objects)
        if self._object_index is not None:
            self._object_index.bulk_load([(box, self._measure_value(v)) for box, v in objects])
            return
        self._total = self._zero
        per_index: Dict[object, List[Tuple[Sequence[float], Value]]] = {
            key: [] for key in self._indices
        }
        for box, value in objects:
            measured = self._measure_value(value)
            self._total = self._total + measured
            for key, point, v in self._reduction.insertions(box, measured):
                per_index[key].append((point, v))
        for key, items in per_index.items():
            self._indices[key].bulk_load(items)

    # -- queries ----------------------------------------------------------------------

    def box_sum(self, query: Box) -> float:
        """SUM of weights of objects intersecting ``query``."""
        result = self._aggregate(query)
        if isinstance(result, SumCount):
            return result.total
        return float(result)

    def box_count(self, query: Box) -> float:
        """COUNT of objects intersecting ``query`` (needs measure count/sum+count)."""
        if self.measure == "sum":
            raise InvalidQueryError('box_count requires measure="count" or "sum+count"')
        result = self._aggregate(query)
        if isinstance(result, SumCount):
            return result.count
        return float(result)

    def box_avg(self, query: Box) -> float:
        """AVG of weights of objects intersecting ``query`` (measure sum+count)."""
        if self.measure != "sum+count":
            raise InvalidQueryError('box_avg requires measure="sum+count"')
        result = self._aggregate(query)
        assert isinstance(result, SumCount)
        return result.average()

    def _aggregate(self, query: Box) -> Value:
        self._check(query)
        tracer = _trace._ACTIVE
        if tracer is None:
            return self._aggregate_impl(query)
        with tracer.span("box_sum", backend=self.backend, dims=self.dims):
            return self._aggregate_impl(query)

    def _aggregate_impl(self, query: Box) -> Value:
        if self._object_index is not None:
            return self._object_index.box_sum(query)
        if isinstance(self._reduction, CornerReduction):
            return self._reduction.box_sum(self._indices, query, zero=self._zero)
        return self._reduction.box_sum(self._indices, self._total, query, zero=self._zero)

    def total(self) -> Value:
        """Aggregate over every stored object."""
        if self._object_index is not None:
            return self._object_index.total()
        return self._total

    # -- probe planning (the repro.service seam) ---------------------------------------

    @property
    def supports_probes(self) -> bool:
        """True when box-sums decompose into shareable dominance-sum probes.

        Object backends (``ar``/``rstar``) answer queries monolithically and
        return False; the :mod:`repro.service` batch planner then falls back
        to per-query execution (result caching still applies).
        """
        return self._object_index is None

    @property
    def zero(self) -> Value:
        """The additive identity of this index's value domain.

        ``0.0`` for scalar measures, a zero :class:`~repro.core.values.SumCount`
        for ``measure="sum+count"`` — the seed a router uses when merging
        probe values across disjoint shards.
        """
        return self._zero

    @property
    def probe_base(self) -> Value:
        """The base value seeding probe reassembly (Lemma 1 vs Theorem 1).

        The corner reduction starts inclusion–exclusion from ``zero``; EO82
        starts from the grand total and subtracts avoidance terms.  Because
        dominance sums — and the grand total — are additive over disjoint
        object partitions, a sharded deployment reassembles the exact answer
        from ``sum(shard.probe_base)`` plus the per-probe sums.
        """
        if self._object_index is not None:
            raise NotSupportedError("object backends do not expose a probe base")
        if isinstance(self._reduction, CornerReduction):
            return self._zero
        return self._total

    def probe_plan(self, query: Box) -> List[Probe]:
        """The query's constituent dominance-sum probes, in evaluation order.

        Every box-sum is exactly this plan combined by inclusion–exclusion
        (Lemma 1); probes with equal :attr:`~repro.core.reduction.Probe.identity`
        may be shared across a batch of queries.
        """
        if self._object_index is not None:
            raise NotSupportedError("object backends do not expose a probe plan")
        self._check(query)
        return self._reduction.probes(query)

    def probe_value(self, key: object, point: Tuple[float, ...]) -> Value:
        """Execute one dominance-sum probe against a constituent index."""
        if self._object_index is not None:
            raise NotSupportedError("object backends do not expose probes")
        index = self._indices[key]
        tracer = _trace._ACTIVE
        if tracer is None:
            return index.dominance_sum(point)
        with tracer.span("dominance_sum", key=format_key(key)):
            return index.dominance_sum(point)

    def box_sum_from_probes(self, plan: List[Probe], values: ProbeValues) -> float:
        """Reassemble :meth:`box_sum` from externally resolved probe values.

        Bit-identical to :meth:`box_sum` on the same index state: probes are
        pure functions of the state and the accumulation order matches the
        direct path.
        """
        if self._object_index is not None:
            raise NotSupportedError("object backends do not expose probes")
        result = combine_probe_values(plan, values, self.probe_base, self._zero)
        if isinstance(result, SumCount):
            return result.total
        return float(result)

    # -- introspection ----------------------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        """Footprint of the index on the simulated disk."""
        if self.storage is None:
            return 0
        return self.storage.size_bytes

    def _check(self, box: Box) -> None:
        if box.dims != self.dims:
            raise DimensionMismatchError(f"box dims {box.dims} != index dims {self.dims}")


class FunctionalBoxSumIndex:
    """The functional box-sum problem over polynomial value functions.

    A single polynomial-valued dominance-sum index receives ``2^d`` corner
    tuples per inserted object (Theorem 3); queries evaluate the OIFBS
    inclusion–exclusion of Figure 4.  ``max_degree`` bounds the value
    functions' total degree; the stored tuples then have degree at most
    ``max_degree + d``, which sizes the index records.

    The ``ar`` backend indexes the objects (box + coefficient tuple)
    directly in a functional aR-tree for head-to-head comparison.
    """

    def __init__(
        self,
        dims: int,
        backend: str = "ba",
        max_degree: int = 2,
        storage: Optional[StorageContext] = None,
        page_size: int = 8192,
        buffer_pages: Optional[int] = 1280,
        **backend_kwargs: object,
    ) -> None:
        if dims < 1:
            raise DimensionMismatchError(f"dims must be >= 1, got {dims}")
        if max_degree < 0:
            raise InvalidQueryError(f"max_degree must be >= 0, got {max_degree}")
        self.dims = dims
        self.backend = backend
        self.max_degree = max_degree
        self.num_objects = 0
        self._reduction = FunctionalReduction(dims)
        tuple_bytes = polynomial_value_bytes(dims, max_degree + dims)
        if backend == "ar":
            self.storage = storage or StorageContext(page_size=page_size, buffer_pages=buffer_pages)
            from ..rtree import FunctionalARTree

            self._object_index = FunctionalARTree(
                self.storage, dims, function_bytes=tuple_bytes, **backend_kwargs
            )
            self._index = None
            return
        if backend not in DOMINANCE_BACKENDS:
            raise NotSupportedError(f"unknown backend {backend!r}")
        self._object_index = None
        needs_storage = backend not in ("naive", "ecdf", "ecdf-log")
        if needs_storage:
            self.storage = storage or StorageContext(page_size=page_size, buffer_pages=buffer_pages)
        else:
            self.storage = storage
        self._index = make_dominance_index(
            backend,
            dims,
            storage=self.storage,
            zero=Polynomial(dims),
            value_bytes=tuple_bytes,
            **backend_kwargs,
        )

    def _coerce(self, function: Polynomial | float) -> Polynomial:
        if isinstance(function, (int, float)):
            function = Polynomial.constant(self.dims, float(function))
        if function.dims != self.dims:
            raise DimensionMismatchError(
                f"value function arity {function.dims} != index dims {self.dims}"
            )
        if function.degree() > self.max_degree:
            raise InvalidQueryError(
                f"value function degree {function.degree()} exceeds the index's "
                f"max_degree {self.max_degree}"
            )
        return function

    def insert(self, box: Box, function: Polynomial | float) -> None:
        """Add an object with a polynomial (or constant) value function."""
        if box.dims != self.dims:
            raise DimensionMismatchError(f"box dims {box.dims} != index dims {self.dims}")
        function = self._coerce(function)
        self.num_objects += 1
        if self._object_index is not None:
            self._object_index.insert(box, function)
            return
        for point, tup in self._reduction.corner_tuples(box, function):
            self._index.insert(point, tup)

    def delete(self, box: Box, function: Polynomial | float) -> None:
        """Remove a previously inserted object (insert the negated function)."""
        function = self._coerce(function)
        self.num_objects -= 2  # insert() below will add one back
        self.insert(box, -function)

    def bulk_load(self, objects: Iterable[Tuple[Box, Polynomial | float]]) -> None:
        """Build from scratch out of ``(box, value function)`` pairs."""
        objects = list(objects)
        self.num_objects = len(objects)
        if self._object_index is not None:
            self._object_index.bulk_load([(box, self._coerce(f)) for box, f in objects])
            return
        items: List[Tuple[Sequence[float], Polynomial]] = []
        for box, function in objects:
            if box.dims != self.dims:
                raise DimensionMismatchError(f"box dims {box.dims} != index dims {self.dims}")
            items.extend(self._reduction.corner_tuples(box, self._coerce(function)))
        self._index.bulk_load(items)

    def functional_box_sum(self, query: Box) -> float:
        """``Σ_objects ∫ f over (object ∩ query)``."""
        if query.dims != self.dims:
            raise DimensionMismatchError(f"box dims {query.dims} != index dims {self.dims}")
        tracer = _trace._ACTIVE
        if tracer is None:
            return self._functional_impl(query)
        with tracer.span("functional_box_sum", backend=self.backend, dims=self.dims):
            return self._functional_impl(query)

    def _functional_impl(self, query: Box) -> float:
        if self._object_index is not None:
            return self._object_index.functional_box_sum(query)
        return self._reduction.functional_box_sum(self._index, query)

    def oifbs(self, point: Sequence[float]) -> float:
        """Origin-involved functional box-sum at a single point."""
        if self._object_index is not None:
            raise NotSupportedError("OIFBS queries need a dominance backend")
        return self._reduction.oifbs(self._index, tuple(float(c) for c in point))

    @property
    def size_bytes(self) -> int:
        """Footprint of the index on the simulated disk."""
        if self.storage is None:
            return 0
        return self.storage.size_bytes

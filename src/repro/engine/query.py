"""Query objects: what the user of the library states.

A :class:`SpatialQuery` bundles

* a :class:`~repro.constraints.system.ConstraintSystem` over named
  variables (the paper's high-level query language),
* which :class:`~repro.spatial.table.SpatialTable` each *unknown*
  variable draws its objects from,
* concrete :class:`~repro.algebra.regions.Region` bindings for the
  *given* variables (the example's ``C`` and ``A``),
* optionally a retrieval order (otherwise the planner picks one).

The answers are assignments ``variable -> SpatialObject`` such that the
underlying regions satisfy the constraint system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence, Tuple

from ..algebra.regions import Region, RegionAlgebra
from ..boxes.box import Box
from ..constraints.system import ConstraintSystem
from ..constraints.triangular import SharedTriangularForms
from ..errors import CompilationError, UnboundVariableError
from ..spatial.table import SpatialTable


@dataclass(frozen=True)
class KNNStep:
    """A logical nearest-neighbor restriction on one unknown variable.

    ``variable`` ranges over the ``k`` rows of its table nearest to the
    anchor — instead of over the whole table — *before* the query's
    constraints filter them (the classic "kNN then filter" semantics,
    which makes the answer set identical in every execution mode and
    trivially checkable against a brute-force reference).  Distances
    are bounding-box MINDISTs with ties at the ``k``-th distance broken
    by ``repr(oid)``, so the restriction is deterministic.

    Exactly one anchor form must be given:

    ``point``
        a fixed coordinate tuple;
    ``ref``
        the name of a constant binding or an *earlier* unknown — the
        anchor is that variable's bounding box, re-evaluated per partial
        tuple.

    Either form lowers to a :class:`~repro.engine.physical.KNNProbe`,
    which makes one :meth:`~repro.spatial.table.SpatialTable.nearest`
    probe per distinct anchor — a best-first browse on an r-tree table,
    the columnar distance kernel on a scan table — so a fixed anchor
    probes once per execution.  EXPLAIN labels the per-tuple form (a
    ``ref`` to an unknown) ``DistanceJoin``.
    """

    variable: str
    k: int
    point: Optional[Tuple[float, ...]] = None
    ref: Optional[str] = None

    def __post_init__(self) -> None:
        if self.point is not None:
            object.__setattr__(self, "point", tuple(float(c) for c in self.point))

    def describe(self) -> str:
        anchor = (
            f"point={self.point}" if self.point is not None else f"ref={self.ref}"
        )
        return f"knn({self.variable}, k={self.k}, {anchor})"


#: Aggregate operations :class:`AggregateSpec` accepts.  ``count`` takes
#: no target; ``min``/``max`` aggregate the bounding-box *volume* of the
#: target variable's retrieved object (the one numeric measure every
#: spatial row carries).
AGGREGATE_OPS = ("count", "min", "max")


@dataclass(frozen=True)
class AggregateSpec:
    """A logical aggregation over the query's answer stream.

    ``aggregates`` is a tuple of ``(op, target)`` pairs — ``("count",
    None)``, ``("min", var)``, ``("max", var)`` — and ``group_by`` names
    the unknowns whose retrieved oids key the groups.  With
    ``exact=True`` (default) the aggregate consumes fully verified
    answers in any mode.  ``exact=False`` requests the *box-level*
    count: the number of rows whose bounding box matches the step's
    compiled template (an upper bound on the exact count, in the spirit
    of the paper's box approximations) — only legal for a
    single-variable ungrouped COUNT, where it is pushed down to the
    R-tree's cached subtree entry counts.
    """

    aggregates: Tuple[Tuple[str, Optional[str]], ...] = (("count", None),)
    group_by: Tuple[str, ...] = ()
    exact: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "aggregates", tuple((op, v) for op, v in self.aggregates)
        )
        object.__setattr__(self, "group_by", tuple(self.group_by))
        if not self.aggregates:
            raise CompilationError("AggregateSpec needs at least one aggregate")
        for op, target in self.aggregates:
            if op not in AGGREGATE_OPS:
                raise CompilationError(
                    f"unknown aggregate {op!r}; expected one of {AGGREGATE_OPS}"
                )
            if target is not None and not isinstance(target, str):
                raise CompilationError(
                    f"an aggregate target is a variable name, not {target!r}"
                )
            if op == "count" and target is not None:
                raise CompilationError("count takes no target variable")
            if op != "count" and target is None:
                raise CompilationError(f"{op} needs a target variable")
        labels = self.labels()
        if len(set(labels)) != len(labels):
            # Accumulators are keyed by label, so duplicates would
            # silently double-count into one shared column.
            dupes = sorted({x for x in labels if labels.count(x) > 1})
            raise CompilationError(
                f"duplicate aggregate(s) {dupes}; each op/target pair "
                f"may appear once"
            )

    def labels(self) -> Tuple[str, ...]:
        """Column labels, e.g. ``("count", "min(T)")``."""
        return tuple(
            op if target is None else f"{op}({target})"
            for op, target in self.aggregates
        )

    def describe(self) -> str:
        by = f" by {','.join(self.group_by)}" if self.group_by else ""
        exact = "" if self.exact else ", boxes only"
        return f"agg({', '.join(self.labels())}{by}{exact})"


def checked_order(order: object, unknowns: Iterable[str]) -> Tuple[str, ...]:
    """``order`` as a tuple, checked to be a retrieval order over
    ``unknowns``: a list or tuple naming each of them exactly once.
    Anything else raises :class:`~repro.errors.CompilationError`."""
    if not isinstance(order, (list, tuple)) or not all(
        isinstance(name, str) for name in order
    ):
        raise CompilationError(
            f"a retrieval order is a list of variable names, not {order!r}"
        )
    if sorted(order) != sorted(unknowns):
        raise CompilationError(
            "retrieval order must list exactly the table variables; "
            f"got {list(order)}, expected a permutation of "
            f"{sorted(unknowns)}"
        )
    return tuple(order)


@dataclass
class SpatialQuery:
    """A multi-variable spatial query (paper Section 1's setting).

    Attributes
    ----------
    system:
        The Boolean constraint system.
    tables:
        Mapping from unknown-variable name to its table.
    bindings:
        Mapping from constant-variable name to its concrete region.
    order:
        Optional retrieval order over the unknowns; ``None`` delegates
        to the planner.
    knn:
        Optional :class:`KNNStep` restricting one unknown to its
        table's ``k`` nearest rows.
    aggregate:
        Optional :class:`AggregateSpec`; execution then returns
        aggregate rows instead of bindings.

    The query owns its Algorithm-1 memo (:meth:`triangular_forms`): planner,
    compiler and strategy choosers handed one object triangularise it once.
    """

    system: ConstraintSystem
    tables: Mapping[str, SpatialTable]
    bindings: Mapping[str, Region] = field(default_factory=dict)
    order: Optional[Sequence[str]] = None
    knn: Optional[KNNStep] = None
    aggregate: Optional[AggregateSpec] = None
    _forms: Optional[Tuple[ConstraintSystem, SharedTriangularForms]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.tables = dict(self.tables)
        self.bindings = dict(self.bindings)
        sys_vars = self.system.variables()
        for name in self.tables:
            if name in self.bindings:
                raise CompilationError(
                    f"variable {name!r} is both a table variable and bound"
                )
        missing = sys_vars - set(self.tables) - set(self.bindings)
        if missing:
            raise UnboundVariableError(
                f"variables with no table or binding: {sorted(missing)}"
            )
        if self.order is not None:
            self.order = checked_order(self.order, self.tables)
        if self.knn is not None:
            self._validate_knn(self.knn)
        if self.aggregate is not None:
            self._validate_aggregate(self.aggregate)

    def _validate_knn(self, knn: KNNStep) -> None:
        if knn.variable not in self.tables:
            raise CompilationError(
                f"kNN variable {knn.variable!r} is not a table variable "
                f"(unknowns: {sorted(self.tables)})"
            )
        if knn.k < 1:
            raise CompilationError(f"kNN needs k >= 1, got {knn.k}")
        if (knn.point is None) == (knn.ref is None):
            raise CompilationError(
                "KNNStep needs exactly one of point= or ref="
            )
        table = self.tables[knn.variable]
        if knn.point is not None and len(knn.point) != table.dim:
            raise CompilationError(
                f"kNN point has {len(knn.point)} dims, table "
                f"{table.name!r} is {table.dim}-dim"
            )
        if knn.ref is not None:
            if knn.ref == knn.variable:
                raise CompilationError(
                    "a kNN step cannot anchor on its own variable"
                )
            if knn.ref not in self.tables and knn.ref not in self.bindings:
                raise CompilationError(
                    f"kNN anchor {knn.ref!r} is neither a table variable "
                    f"nor a bound constant"
                )

    def _validate_aggregate(self, spec: AggregateSpec) -> None:
        for name in spec.group_by:
            if name not in self.tables:
                raise CompilationError(
                    f"group-by variable {name!r} is not a table variable"
                )
        for _op, target in spec.aggregates:
            if target is not None and target not in self.tables:
                raise CompilationError(
                    f"aggregate target {target!r} is not a table variable"
                )

    @property
    def unknowns(self) -> Tuple[str, ...]:
        """Unknown (table-backed) variables, sorted."""
        return tuple(sorted(self.tables))

    @property
    def constants(self) -> Tuple[str, ...]:
        """Bound variables, sorted."""
        return tuple(sorted(self.bindings))

    def triangular_forms(self) -> SharedTriangularForms:
        """The triangular forms of ``system`` by retrieval order: one
        :class:`SharedTriangularForms`, built on first use, for every
        order costed or compiled; rebinding ``system`` drops it."""
        if self._forms is None or self._forms[0] is not self.system:
            self._forms = (self.system, SharedTriangularForms(self.system))
        return self._forms[1]

    def universe_box(self) -> Optional[Box]:
        """A universe box covering all tables' universes, if declared."""
        out: Optional[Box] = None
        for t in self.tables.values():
            if t.universe is not None:
                out = t.universe if out is None else out.enclose(t.universe)
        return out

    def algebra(self) -> RegionAlgebra:
        """A region algebra wide enough for exact checks.

        Uses the declared universe box when available — widened to
        enclose any constant binding that sticks out of it, since the
        algebra refuses to complement regions beyond its universe;
        otherwise computes a box enclosing all stored objects and
        bindings (complement is only ever taken within this universe,
        which is sound for the constraint forms the engine checks: every
        formula evaluation is relative to the same universe on both
        sides).
        """
        box = self.universe_box()
        if box is not None:
            for region in self.bindings.values():
                box = box.enclose(region.bounding_box())
        if box is None:
            from ..boxes.box import EMPTY_BOX

            box = EMPTY_BOX
            for t in self.tables.values():
                for obj in t:
                    box = box.enclose(obj.box)
            for r in self.bindings.values():
                box = box.enclose(r.bounding_box())
            if box.is_empty():
                raise CompilationError(
                    "cannot infer a universe: no data and no declared "
                    "universe boxes"
                )
            box = box.inflate(1.0)
        return RegionAlgebra(box)

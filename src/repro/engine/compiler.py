"""The query compiler: constraint system → executable plan.

The full pipeline of the paper:

1. normalize the system (Theorem 1);
2. triangularise over the retrieval order (Algorithm 1 / Figure 2);
3. check the ground residue against the bound constants — an
   unsatisfiable residue means the query provably has no answers
   (:class:`repro.errors.UnsatisfiableError`);
4. convert every solved constraint into a bounding-box
   :class:`~repro.boxes.bconstraints.StepTemplate` (Section 4,
   Algorithm 2) — at run time each step issues ONE range query.

The resulting :class:`QueryPlan` carries both the exact solved forms
(for exact incremental filtering and for the final verification) and the
box templates (for the index probes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..algebra.regions import RegionAlgebra
from ..boxes.bconstraints import StepTemplate, compile_solved_constraint
from ..constraints.solved import SolvedConstraint
from ..constraints.triangular import TriangularForm
from ..errors import CompilationError, UnsatisfiableError
from ..spatial.table import SpatialTable
from .query import AggregateSpec, KNNStep, SpatialQuery, checked_order

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .physical import PhysicalPlan


@dataclass(frozen=True)
class StepPlan:
    """One retrieval step: where to fetch and how to filter."""

    variable: str
    table: SpatialTable
    exact: SolvedConstraint
    template: StepTemplate


@dataclass(frozen=True)
class QueryPlan:
    """A compiled query: ordered steps plus the triangular form.

    ``knn``/``aggregate`` carry the query's logical nearest-neighbor
    restriction and aggregation through to physical planning.
    """

    query: SpatialQuery
    order: Tuple[str, ...]
    triangular: TriangularForm
    steps: Tuple[StepPlan, ...]
    algebra: RegionAlgebra
    knn: Optional[KNNStep] = None
    aggregate: Optional[AggregateSpec] = None

    def render(self) -> str:
        """Readable plan listing (exact + box form per step)."""
        lines = [f"retrieval order: {', '.join(self.order)}"]
        if self.knn is not None:
            lines.append(self.knn.describe())
        if self.aggregate is not None:
            lines.append(self.aggregate.describe())
        for step in self.steps:
            lines.append(f"== step {step.variable} from {step.table.name} ==")
            lines.append("exact:")
            lines.append(step.exact.render())
            lines.append("boxes:")
            lines.append(step.template.render())
        return "\n".join(lines)

    def physical(
        self,
        mode: str = "boxplan",
        estimate: bool = True,
    ) -> "PhysicalPlan":
        """Lower to a physical operator tree (the third pipeline stage).

        ``estimate=False`` skips the EXPLAIN-only catalog cost rollouts
        (they cost far more than executing a small query).
        """
        from .physical import build_physical_plan

        return build_physical_plan(self, mode=mode, estimate=estimate)

    def explain(self, mode: str = "boxplan", analyze: bool = False) -> str:
        """EXPLAIN: the rendered physical operator tree for ``mode``.

        With ``analyze=True`` the plan is executed first, so the tree
        carries per-operator actual rows/probes/node-reads next to the
        catalog estimates.
        """
        pplan = self.physical(mode=mode)
        if analyze:
            pplan.run()
        return pplan.explain()


def repair_knn_order(
    order: Sequence[str],
    knn: Optional[KNNStep],
    tables: Dict[str, SpatialTable],
) -> Tuple[str, ...]:
    """An order with a ref-anchored kNN variable moved after its anchor.

    No-op (the order returned unchanged, as a tuple) when there is no
    kNN step, its anchor is not an unknown, or the order already places
    the anchor first.  Shared by :func:`compile_query`'s silent repair
    of planner-chosen orders and by callers (e.g. the CLI) that want to
    repair an order *before* passing it explicitly.
    """
    order = tuple(order)
    if knn is None or knn.ref is None or knn.ref not in tables:
        return order
    if knn.ref == knn.variable:  # invalid; left for validation to reject
        return order
    if order.index(knn.variable) > order.index(knn.ref):
        return order
    rest = [v for v in order if v != knn.variable]
    rest.insert(rest.index(knn.ref) + 1, knn.variable)
    return tuple(rest)


def compile_query(
    query: SpatialQuery,
    order: Optional[Sequence[str]] = None,
    check_ground: bool = True,
) -> QueryPlan:
    """Compile a query into a :class:`QueryPlan`.

    ``order`` overrides the query's retrieval order (else the query's,
    else :func:`~repro.engine.planner.choose_order`'s greedy choice —
    the one default order of every :class:`~repro.database.Session`
    call and service route).  An ``order`` that does not list each
    unknown exactly once raises :class:`~repro.errors.CompilationError`,
    as it does in a :class:`SpatialQuery`.  Raises
    :class:`~repro.errors.UnsatisfiableError` when the ground residue
    fails for the given bindings.  Algorithm 1 runs through
    :meth:`SpatialQuery.triangular_forms`: an order the planner already
    costed for this query object is not solved again.

    A kNN step anchored on another *unknown* (``knn.ref``) needs that
    unknown retrieved first: an explicitly supplied order violating
    this raises :class:`~repro.errors.CompilationError`, while a
    planner-chosen order is silently repaired (the kNN variable moves
    to just after its anchor).
    """
    if order is not None:
        order = checked_order(order, query.tables)
    explicit = order is not None or query.order is not None
    if order is None:
        order = query.order
    if order is None:
        from .planner import choose_order

        order = choose_order(query)
    order = tuple(order)

    knn = query.knn
    if knn is not None and repair_knn_order(order, knn, query.tables) != order:
        if explicit:
            raise CompilationError(
                f"kNN variable {knn.variable!r} is anchored on "
                f"{knn.ref!r} and must be retrieved after it; order "
                f"{list(order)} places it first"
            )
        order = repair_knn_order(order, knn, query.tables)

    tri = query.triangular_forms()(order)
    algebra = query.algebra()

    if check_ground:
        env = dict(query.bindings)
        if not tri.check_ground(algebra, env):
            raise UnsatisfiableError(
                "the query's constant constraints are unsatisfiable for "
                f"the given bindings; ground residue:\n{tri.ground}"
            )

    steps: List[StepPlan] = []
    for solved in tri.constraints:
        steps.append(
            StepPlan(
                variable=solved.variable,
                table=query.tables[solved.variable],
                exact=solved,
                template=compile_solved_constraint(solved),
            )
        )
    return QueryPlan(
        query=query,
        order=order,
        triangular=tri,
        steps=tuple(steps),
        algebra=algebra,
        knn=query.knn,
        aggregate=query.aggregate,
    )

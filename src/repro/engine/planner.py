"""Retrieval-order selection.

The paper picks its order "arbitrarily" (Section 2) and leaves order
choice open; in practice the order drives the size of intermediate
results, exactly like join ordering in relational optimizers.  We provide

* :func:`choose_order` — the default heuristic: greedy most-constrained-
  first using connectivity to already-placed variables and table sizes;
* :func:`enumerate_orders` — all permutations (for the E9 ablation);
* :func:`rollout_step_estimates` — per-step expected cardinalities for a
  candidate order: the order is compiled to its box templates and rolled
  out over the statistics catalog (:mod:`repro.engine.catalog`) — step
  candidate counts from histogram selectivities, survivor fractions from
  sampled exact-predicate selectivities.  Shared by the cost model below
  and by the physical plan's EXPLAIN annotations; within one planning
  call the rollouts of all orders share their work (:class:`_Rollouts`);
* :func:`estimate_order_cost_histogram` — the cost-based estimate (the
  rollouts' expected partial-tuple total);
* :func:`plan_order` / :func:`best_order_by_estimate` — strategy
  dispatch; the greedy heuristic is the incumbent of a bounded search
  and the safe fallback (``bench_order_ablation.py`` compares them).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import permutations
from typing import (
    Dict,
    Iterator,
    List,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

from ..boxes.bconstraints import compile_solved_constraint
from ..boxes.box import Box
from ..constraints.solved import SolvedConstraint
from ..constraints.system import ConstraintSystem
from ..errors import CompilationError, ReproError
from .catalog import TableStatistics
from .query import SpatialQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..spatial.table import SpatialObject
    from .compiler import QueryPlan

#: Strategies accepted by :func:`plan_order`.
ORDER_STRATEGIES = ("greedy", "histogram")

#: Beyond this many unknowns, exhaustive order enumeration is skipped
#: and the greedy heuristic is used directly.
MAX_ENUMERATED_UNKNOWNS = 7

#: The histogram planner only overrides the greedy order when its
#: estimate is decisively better (below this fraction of the greedy
#: order's estimate).  Near-ties are estimator noise: deferring to the
#: greedy heuristic there keeps the cost-based planner from ever doing
#: measurably worse while preserving its large wins.
HISTOGRAM_CONFIDENCE_MARGIN = 0.8

#: What costing over unusable statistics raises — the library's own
#: errors (no inferable universe, mixed dimensions, an unbound variable)
#: and the zero division of a zero-bin histogram.  Only these take the
#: documented safe defaults; anything else is a bug and propagates.
ESTIMATION_ERRORS = (ReproError, ZeroDivisionError)


def _constraint_edges(system: ConstraintSystem) -> List[Tuple[frozenset, bool]]:
    """``(variable set, is_negative)`` pairs, one per constraint.

    Negative constraints (disequations) are tracked separately: they are
    typically far more selective than inclusions (a ``T ⊄ C`` admits only
    border towns; a ``B ⊆ C`` admits every state), so the greedy order
    prefers variables whose grounded constraints are negative.
    """
    edges: List[Tuple[frozenset, bool]] = []
    for c in system.positives:
        edges.append((frozenset(c.variables()), False))
    for c in system.negatives:
        edges.append((frozenset(c.variables()), True))
    return edges


def choose_order(query: SpatialQuery) -> Tuple[str, ...]:
    """Greedy heuristic order.

    Repeatedly pick the unknown with the most constraints *fully
    grounded* by already-placed variables, preferring grounded negative
    constraints (disequations are the selective ones: ``T ⊄ C`` admits
    only border towns, while ``B ⊆ C`` admits every state).  Ties break
    by overall connectivity, then smaller table, then name.  On the
    paper's example this retrieves the border town first — the choice
    the paper makes "arbitrarily".
    """
    unknowns = set(query.unknowns)
    placed = set(query.constants)
    edges = _constraint_edges(query.system)
    order: List[str] = []
    while unknowns:
        def score(name: str) -> Tuple:
            grounded_neg = sum(
                1
                for e, negative in edges
                if negative
                and name in e
                and (e - {name})
                and (e - {name}) <= placed
            )
            grounded_pos = sum(
                1
                for e, negative in edges
                if not negative
                and name in e
                and (e - {name})
                and (e - {name}) <= placed
            )
            touching = sum(
                1 for e, _n in edges if name in e and e & placed
            )
            return (
                -grounded_neg,
                -grounded_pos,
                -touching,
                len(query.tables[name]),
                name,
            )

        best = min(unknowns, key=score)
        order.append(best)
        unknowns.discard(best)
        placed.add(best)
    return tuple(order)


def enumerate_orders(query: SpatialQuery) -> Iterator[Tuple[str, ...]]:
    """All retrieval orders (E9 ablation; factorial — small queries only)."""
    return permutations(query.unknowns)


@dataclass(frozen=True)
class StepEstimate:
    """Expected per-step cardinalities for one retrieval order.

    All figures are expectations over the statistics-catalog rollouts
    (averaged across rollouts):

    ``partials_in``
        partial tuples entering the step;
    ``candidates``
        candidate extensions the step's *box* query admits (what an
        :class:`~repro.engine.physical.IndexProbe` returns);
    ``scan_candidates``
        extensions a full table scan would produce instead;
    ``survivors``
        partial tuples after the step's exact filter.  The box query is
        a necessary condition for the exact constraint, so this estimate
        applies to the scan-based modes too.
    """

    variable: str
    partials_in: float
    candidates: float
    scan_candidates: float
    survivors: float


#: A rollout step's outcome: box selectivity, exact fraction, and the
#: rows the next representative is drawn from.
_StepResult = Tuple[float, float, Sequence["SpatialObject"]]


class _StepMemo:
    """One solved constraint's rollout results, by the representatives
    it reads."""

    def __init__(self, solved: SolvedConstraint, stats: TableStatistics) -> None:
        self.solved = solved
        self.stats = stats  # of the table the solved variable ranges over
        self.template = compile_solved_constraint(solved)
        self.reads = tuple(sorted(solved.earlier_variables()))
        #: ids of the representatives of ``reads`` -> the step's outcome.
        self.results: Dict[Tuple[int, ...], _StepResult] = {}


class _Pruned(Exception):
    """A rollout stopped: every order starting with ``prefix`` costs over the bound."""

    def __init__(self, prefix: Tuple[str, ...]) -> None:
        super().__init__(prefix)
        self.prefix = prefix


class _Rollouts:
    """Everything the cost rollouts of one planning call share.

    A step's outcome depends only on its solved constraint and on the
    representative rows that constraint reads, so it is computed once
    and reused by every rollout of every order that reaches the same
    step with the same representatives (all rollouts of all orders with
    a common first variable, for a start).  Solved constraints come one
    step at a time from :meth:`SpatialQuery.triangular_forms`: a rollout
    that stops early never solves the steps it did not reach.  The object
    lives for one call of a public function below — nothing to invalidate.
    """

    def __init__(self, query: SpatialQuery) -> None:
        self.stats = {name: table.statistics() for name, table in query.tables.items()}
        self.forms = query.triangular_forms()
        self.algebra = query.algebra()
        self.universe = self.algebra.universe_box
        self.box_env = {
            name: region.bounding_box()
            for name, region in query.bindings.items()
        }
        self.region_env = dict(query.bindings)
        self.steps: Dict[SolvedConstraint, _StepMemo] = {}

    def _memo(self, order: Sequence[str], i: int) -> _StepMemo:
        solved = self.forms.constraint(order, i)
        memo = self.steps.get(solved)
        if memo is None:
            memo = self.steps[solved] = _StepMemo(solved, self.stats[solved.variable])
        return memo

    def _step(
        self,
        memo: _StepMemo,
        picks: Dict[str, "SpatialObject"],
        box_env: Dict[str, Box],
        region_env: Dict[str, object],
    ) -> _StepResult:
        key = tuple(id(picks.get(name)) for name in memo.reads)
        result = memo.results.get(key)
        if result is None:
            st = memo.stats
            box_query = memo.template.instantiate(box_env, self.universe)
            matching: Sequence["SpatialObject"] = st.matching_sample(box_query)
            box_sel = st.selectivity(box_query, matching)
            # Sampled exact-predicate selectivity among the rows the
            # box filter admits (whole sample when none match).
            exact_frac, holding = st.exact_selectivity(
                memo.solved,
                self.algebra,
                region_env,
                pool=matching if matching else None,
            )
            result = memo.results[key] = (box_sel, exact_frac, holding or matching)
        return result

    def _cost(self, sums: Sequence[Sequence[float]], n: int) -> float:
        """The cost of :meth:`_sums` totals, finished or not: summands
        are non-negative and ``+ / * min`` monotone in floats too, so
        unfinished totals never cost more than they finish with."""
        index_work = sum(acc[1] / n for acc in sums)
        return sum(acc[3] / n for acc in sums) + 1e-3 * index_work

    def _sums(
        self, order: Sequence[str], bound: float, rollouts: int, seed: int
    ) -> Tuple[List[List[float]], int]:
        """Per-step totals over the rollouts of ``order`` (partials_in,
        candidates, scan, survivors) and the rollout count;
        :class:`_Pruned` once the totals so far cost more than ``bound``."""
        order = tuple(order)
        rng = random.Random(seed)
        n_rollouts = max(1, rollouts)
        memos: List[_StepMemo] = []
        sums = [[0.0, 0.0, 0.0, 0.0] for _ in order]
        for rollout in range(n_rollouts):
            box_env = dict(self.box_env)
            region_env = dict(self.region_env)
            picks: Dict[str, "SpatialObject"] = {}
            partials = 1.0
            for i, acc in enumerate(sums):
                if i == len(memos):
                    memos.append(self._memo(order, i))
                memo = memos[i]
                name, st = memo.solved.variable, memo.stats
                box_sel, exact_frac, matching = self._step(
                    memo, picks, box_env, region_env
                )
                candidates = st.count * box_sel
                survivors = candidates * exact_frac
                acc[0] += partials
                acc[1] += partials * candidates
                acc[2] += partials * st.count
                partials *= survivors
                acc[3] += partials
                if self._cost(sums, n_rollouts) > bound:
                    # The rng is seeded per order, so every order that
                    # shares this prefix draws this same first rollout.
                    raise _Pruned(order[: i + 1] if rollout == 0 else order)
                # Choose a representative retrieved object for later steps;
                # with no representative row, later exact sampling against
                # this variable falls back to box-only costing.
                if matching:
                    pick = picks[name] = rng.choice(matching)
                    box_env[name] = pick.box
                    region_env[name] = pick.region
                else:
                    box_env[name] = (
                        self.universe if st.mbr.is_empty() else st.mbr
                    )
        return sums, n_rollouts

    def step_estimates(
        self, order: Sequence[str], rollouts: int = 6, seed: int = 0
    ) -> List[StepEstimate]:
        """See :func:`rollout_step_estimates`."""
        sums, n = self._sums(order, math.inf, rollouts, seed)
        # The totals are kept in StepEstimate's field order.
        return [
            StepEstimate(name, *(total / n for total in acc))
            for name, acc in zip(order, sums)
        ]

    def cost(
        self, order: Sequence[str], bound: float, rollouts: int = 6, seed: int = 0
    ) -> float:
        """See :func:`estimate_order_cost_histogram`; :class:`_Pruned`
        instead of a cost above ``bound``."""
        return self._cost(*self._sums(order, bound, rollouts, seed))


def rollout_step_estimates(
    query: SpatialQuery,
    order: Sequence[str],
    rollouts: int = 6,
    seed: int = 0,
) -> List[StepEstimate]:
    """Per-step cardinality estimates for one retrieval order.

    The order is triangularised and compiled to its per-step bounding-box
    templates (exactly what the executor will run); ``rollouts``
    executions are then simulated over the statistics catalog:

    * the **candidate count** of a step is the table size times the
      histogram selectivity of the step's instantiated box query;
    * the **survivor fraction** is the sampled selectivity of the step's
      exact solved constraint, evaluated on the table's row sample
      (this is what separates a selective disequation like ``T ⊄ C``
      from an unselective inclusion like ``B ⊆ C`` — their *box*
      queries can look equally permissive);
    * representative objects for later steps are drawn from the sample.

    Used by :func:`estimate_order_cost_histogram` (the planner's cost
    model) and the physical plan's EXPLAIN annotations.
    """
    return _Rollouts(query).step_estimates(order, rollouts, seed)


# oracle: tests/test_planner_cost.py
def estimate_order_cost_histogram(
    query: SpatialQuery,
    order: Sequence[str],
    rollouts: int = 6,
    seed: int = 0,
) -> float:
    """Statistics-driven cost estimate for one retrieval order.

    Rolls the order out over the statistics catalog (see
    :func:`rollout_step_estimates`); the cost is the expected total
    number of partial tuples (the executor's ``partial_tuples`` counter)
    plus a small candidate term so index work breaks ties.
    """
    return _Rollouts(query).cost(order, math.inf, rollouts, seed)


def best_order_by_estimate(query: SpatialQuery) -> Tuple[str, ...]:
    """The order minimising the statistics-catalog estimate (small n).

    Returns what costing every permutation would — the cheapest order
    by ``(cost, order)`` if it costs less than
    :data:`HISTOGRAM_CONFIDENCE_MARGIN` times the greedy order, else the
    greedy order — without finishing orders that cannot win.  Greedy is
    costed first; the bound is the margin times its cost, then the best
    complete cost seen.  A rollout stops once its running cost exceeds
    the bound, and when its *first* rollout alone did, every order with
    that prefix is skipped.  Orders that finish get the estimate they
    always got (same per-order rng, same accumulation order) and a tie
    with the incumbent is still compared, so the choice is unchanged.
    Unusable statistics (:data:`ESTIMATION_ERRORS`) and more than
    :data:`MAX_ENUMERATED_UNKNOWNS` unknowns fall back to greedy; at
    most one unknown has one order, returned without touching statistics.
    """
    greedy = choose_order(query)
    if not 1 < len(query.unknowns) <= MAX_ENUMERATED_UNKNOWNS:
        return greedy  # the only order, or too many to enumerate
    try:
        rollouts = _Rollouts(query)
        limit = HISTOGRAM_CONFIDENCE_MARGIN * rollouts.cost(greedy, math.inf)
        best, bound = greedy, limit
        dead = greedy  # the latest prefix found to cost more than the bound
        for order in enumerate_orders(query):
            if order == greedy or order[: len(dead)] == dead:
                continue
            try:
                cost = rollouts.cost(order, bound)
            except _Pruned as pruned:
                dead = pruned.prefix
                continue
            if cost < limit and (cost, order) < (bound, best):
                best, bound = order, cost
        return best
    except ESTIMATION_ERRORS:
        # The greedy heuristic needs no statistics and always succeeds.
        return greedy


def plan_order(
    query: SpatialQuery,
    strategy: str = "greedy",
    # Ignored.  Kept only for benchmarks/e2e/workloads.py, whose frozen
    # workloads pass partitions=0; it goes with that file's traced_run.
    partitions: int = 0,
) -> Tuple[str, ...]:
    """Pick a retrieval order with the named strategy.

    ``"greedy"`` — the connectivity heuristic (default, no statistics
    needed; the order :func:`~repro.engine.compiler.compile_query`, and
    so every ``Session`` call, picks itself); ``"histogram"`` —
    :func:`best_order_by_estimate`'s bounded search over the
    statistics-catalog estimate, falling back to greedy when statistics
    are unusable.  The search is opt-in (the CLI's ``--order-strategy
    histogram``): its planning time costs more than the partial tuples
    it saves on the workloads measured so far.  Planning triangularises
    through ``query``'s own memo, so compiling the same query object
    afterwards does not run Algorithm 1 again.
    """
    if strategy == "greedy":
        return choose_order(query)
    if strategy == "histogram":
        return best_order_by_estimate(query)
    raise ValueError(
        f"unknown strategy {strategy!r}; expected one of {ORDER_STRATEGIES}"
    )


def choose_aggregate_strategy(plan: "QueryPlan", mode: str) -> str:
    """Pick how a compiled query's aggregation executes.

    ``"stream"`` — an :class:`~repro.engine.physical.Aggregate`
    operator folds the (exactly verified) answer stream; works for
    every spec and mode.  ``"pushdown"`` — the box-level COUNT is
    answered by :class:`~repro.engine.physical.IndexCountAggregate`
    straight from the index; chosen exactly when the spec asks for the
    box approximation (``exact=False``), which is only well-defined for
    an ungrouped single-variable COUNT in a box mode — any other
    ``exact=False`` shape raises
    :class:`~repro.errors.CompilationError`.
    """
    spec = plan.aggregate
    if spec is None:
        raise ValueError("plan has no aggregate spec")
    if spec.exact:
        return "stream"
    problems = []
    if mode not in ("boxplan", "boxonly"):
        problems.append(f"mode {mode!r} has no box layer")
    if len(plan.steps) != 1:
        problems.append(f"{len(plan.steps)} retrieval steps (needs 1)")
    if spec.group_by:
        problems.append("group-by is not box-representable")
    if spec.aggregates != (("count", None),):
        problems.append("only count() can be answered from boxes")
    if plan.knn is not None:
        problems.append("a kNN restriction needs the exact pipeline")
    if problems:
        raise CompilationError(
            "box-level aggregation (exact=False) requires an ungrouped "
            "single-variable count in a box mode; this query has: "
            + "; ".join(problems)
        )
    return "pushdown"

"""The planner's cost rollouts and the exact solved-constraint check as
they were before bound constraints and shared rollouts — frozen.

``SolvedConstraint.bind`` and the planning-scoped rollout memo
(``repro.engine.planner._Rollouts``) promise *identical* retrieval
orders, estimates and truth values for less work.  These are copies of
the code they replaced (default arguments inlined, one unreachable
branch dropped): every formula is evaluated again for every candidate
row, every order is triangularised and rolled out from scratch, the row
sample is scanned twice per step, and no failure is swallowed.
``test_planner_reference.py`` holds the engine to them bit for bit;
nothing here may import the code under test beyond the untouched
building blocks (the statistics' histogram estimators); Algorithm 1 is
the frozen formula-level one of ``reference_triangular.py``.
"""

import random
from itertools import permutations

from repro.boolean.semantics import evaluate
from repro.boxes.bconstraints import compile_solved_constraint
from repro.engine.planner import (
    HISTOGRAM_CONFIDENCE_MARGIN,
    MAX_ENUMERATED_UNKNOWNS,
    StepEstimate,
    choose_order,
)
from tests.reference_triangular import reference_triangular_form


# -- constraints/solved.py ---------------------------------------------------
def reference_disequation_holds(r, algebra, value, env):
    """``Disequation.holds``: ``(x ∧ p ≠ 0) ∨ (¬x ∧ q ≠ 0)``."""
    pv = evaluate(r.p, algebra, env)
    if not algebra.is_zero(algebra.meet(value, pv)):
        return True
    qv = evaluate(r.q, algebra, env)
    return not algebra.is_zero(algebra.meet(algebra.complement(value), qv))


def reference_holds(solved, algebra, value, env):
    """``SolvedConstraint.holds``, evaluating every formula per call."""
    lo = evaluate(solved.lower, algebra, env)
    if not algebra.le(lo, value):
        return False
    hi = evaluate(solved.upper, algebra, env)
    if not algebra.le(value, hi):
        return False
    return all(
        reference_disequation_holds(r, algebra, value, env)
        for r in solved.disequations
    )


class ReferenceBound:
    """Stand-in for ``BoundConstraint`` that shares nothing: patch it
    over ``SolvedConstraint.bind`` to make the executor bill exactly
    the region operations the per-row check cost."""

    def __init__(self, solved, algebra, env):
        self.solved, self.algebra, self.env = solved, algebra, env

    def holds(self, value):
        return reference_holds(self.solved, self.algebra, value, self.env)

    def select(self, values):
        """``BoundConstraint.select``'s interface: ``holds`` per value."""
        for i, value in enumerate(values):
            if self.holds(value):
                yield i


# -- engine/catalog.py -------------------------------------------------------
def _clamp(p):
    return min(1.0, max(0.0, p))


def reference_sampled_fraction(st, query):
    if not st.sample:
        return None
    if query.is_unsatisfiable():
        return 0.0
    hits = sum(
        1
        for obj in st.sample
        if not obj.box.is_empty() and query.matches(obj.box)
    )
    return hits / len(st.sample)


def reference_selectivity(st, query):
    hist = st.sel_query(query)
    sampled = reference_sampled_fraction(st, query)
    if sampled is None:
        return hist
    return _clamp((hist + sampled) / 2.0)


def reference_exact_selectivity(st, solved, algebra, env, pool=None):
    rows = tuple(pool) if pool is not None else st.sample
    if not rows:
        return 0.0, ()
    holding = []
    for obj in rows:
        try:
            ok = reference_holds(solved, algebra, obj.region, env)
        except KeyError:
            ok = True
        if ok:
            holding.append(obj)
    return len(holding) / len(rows), tuple(holding)


# -- engine/planner.py -------------------------------------------------------
def reference_rollout_step_estimates(query, order, rollouts=6, seed=0):
    stats = {name: t.statistics() for name, t in query.tables.items()}
    tri = reference_triangular_form(query.system, list(order))
    steps = {
        c.variable: (c, compile_solved_constraint(c)) for c in tri.constraints
    }
    algebra = query.algebra()
    universe = algebra.universe_box

    base_box_env = {
        name: region.bounding_box() for name, region in query.bindings.items()
    }
    base_region_env = dict(query.bindings)

    rng = random.Random(seed)
    n_rollouts = max(1, rollouts)
    sums = {name: [0.0, 0.0, 0.0, 0.0] for name in order}
    for _ in range(n_rollouts):
        box_env = dict(base_box_env)
        region_env = dict(base_region_env)
        partials = 1.0
        for name in order:
            st = stats[name]
            solved, template = steps[name]
            box_query = template.instantiate(box_env, universe)
            box_sel = reference_selectivity(st, box_query)
            matching = [
                obj
                for obj in st.sample
                if not obj.box.is_empty() and box_query.matches(obj.box)
            ]
            exact_frac, holding = reference_exact_selectivity(
                st,
                solved,
                algebra,
                region_env,
                pool=matching if matching else None,
            )
            if holding:
                matching = list(holding)
            candidates = st.count * box_sel
            survivors = candidates * exact_frac
            acc = sums[name]
            acc[0] += partials
            acc[1] += partials * candidates
            acc[2] += partials * st.count
            partials *= survivors
            acc[3] += partials
            if matching:
                pick = rng.choice(matching)
                box_env[name] = pick.box
                region_env[name] = pick.region
            else:
                box_env[name] = universe if st.mbr.is_empty() else st.mbr
    return [
        StepEstimate(
            variable=name,
            partials_in=sums[name][0] / n_rollouts,
            candidates=sums[name][1] / n_rollouts,
            scan_candidates=sums[name][2] / n_rollouts,
            survivors=sums[name][3] / n_rollouts,
        )
        for name in order
    ]


def reference_order_cost(estimates):
    """``estimate_order_cost_histogram`` given the order's estimates."""
    index_work = sum(e.candidates for e in estimates)
    return sum(e.survivors for e in estimates) + 1e-3 * index_work


def reference_estimates_by_order(query):
    """Every order's estimates, each rolled out from scratch."""
    return {
        order: reference_rollout_step_estimates(query, order)
        for order in permutations(query.unknowns)
    }


def reference_plan_order(query, estimates_by_order):
    """``plan_order(strategy="histogram")`` over
    :func:`reference_estimates_by_order`'s result — with no fallback: a
    failing estimate has already raised instead of quietly yielding the
    greedy order."""
    greedy = choose_order(query)
    if len(query.unknowns) > MAX_ENUMERATED_UNKNOWNS:
        return greedy
    costs = {
        order: reference_order_cost(estimates)
        for order, estimates in estimates_by_order.items()
    }
    best = min(costs, key=lambda order: (costs[order], order))
    if best == greedy:
        return best
    if costs[best] < HISTOGRAM_CONFIDENCE_MARGIN * costs[greedy]:
        return best
    return greedy

"""Differential oracle for bound constraints and shared cost rollouts.

``tests/reference_planner.py`` freezes the planner's rollouts and the
exact solved-constraint check as they were before
``SolvedConstraint.bind`` and the planning-scoped memo.  The engine must
agree with that reference *bit for bit* — same retrieval order, same
``StepEstimate`` floats, same truth values, same ``KeyError``s — while
billing fewer region operations, and while the order search stops
costing the orders that cannot win.

Tier-1 runs a thin diagonal of the 4-/5-unknown product; CI's
seed-matrix job (``REPRO_TEST_SEED`` set) runs all of it.
"""

import hashlib
import math
import os
import random
from contextlib import ExitStack, contextmanager
from itertools import permutations
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra.regions import Region
from repro.boolean import semantics
from repro.boolean.bdd import Bdd
from repro.boolean.syntax import FALSE, TRUE, Var
from repro.boxes.box import Box
from repro.constraints import triangular
from repro.constraints.examples import SMUGGLERS_ORDER
from repro.constraints.parser import parse_system
from repro.constraints.solved import Disequation, SolvedConstraint
from repro.constraints.system import ConstraintSystem, overlaps
from repro.constraints.triangular import shared_triangular_forms, triangular_form
from repro.constraints.system import EquationalSystem
from repro.database import Database
from repro.datagen.maps import make_map
from repro.datagen.workloads import containment_chain_query, overlay_query
from repro.engine.compiler import compile_query
from repro.engine.planner import plan_order, rollout_step_estimates
from repro.engine.query import KNNStep, SpatialQuery
from repro.engine import planner
from repro.engine.catalog import TableStatistics
from repro.engine.planner import StepEstimate, _Pruned, _Rollouts
from repro.engine.compiler import repair_knn_order
from repro.errors import CompilationError, ReproError, UnboundVariableError
from repro.spatial.table import SpatialTable
from tests.conftest import (
    UNIVERSE,
    constraint_systems,
    make_workload,
    random_table,
)
from tests.reference_planner import (
    ReferenceBound,
    reference_estimates_by_order,
    reference_holds,
    reference_plan_order,
)
from tests.reference_triangular import reference_triangular_form
from tests.strategies import (
    BITS8,
    LINE,
    PLANE,
    bitvec_elements,
    interval_elements,
    region_elements,
)
from tests.test_boolean_semantics import formulas

#: The Figure-1 system as ``benchmarks/e2e`` spells it (``TEXT_FORMS``):
#: as printed, reordered, the paper's equational rewrite, and with an
#: entailed constraint added.
TEXT_FORMS = (
    "{A} <= C\nB <= C\nR <= {A} | B | T\n{A} & R !<= 0\nR & T !<= 0\nT !<= C",
    "T !<= C\nR & T != 0\nR & {A} != 0\nR <= T | B | {A}\nB <= C\n{A} <= C",
    "{A} & ~C = 0\nB & ~C = 0\nR & ~{A} & ~B & ~T = 0\n"
    "R & {A} != 0\nR & T != 0\nT & ~C != 0",
    "{A} <= C\nB <= C\nR <= {A} | B | T\nR & {A} != 0\nR & T != 0\nT !<= C\n"
    "{A} & R <= C",
)
AREA_SCALES = (0.6, 0.8, 1.0, 1.2)
FIGURE1_VARIANTS = [
    (form, area)
    for form in range(len(TEXT_FORMS))
    for area in range(len(AREA_SCALES))
]


@pytest.fixture(scope="module")
def figure1_db():
    return _figure1_database()


def _figure1_database():
    """The ``text_query`` workload's database: the seed-0 map with the
    destination area scaled about its centre."""
    world = make_map(seed=0, n_towns=100, n_roads=100, states_grid=(4, 4))
    bindings = {"C": world.country}
    area = world.area.bounding_box()
    centre = area.center()
    for i, scale in enumerate(AREA_SCALES):
        lo = tuple(c - (c - l) * scale for c, l in zip(centre, area.lo))
        hi = tuple(c + (h - c) * scale for c, h in zip(centre, area.hi))
        bindings[f"A{i}"] = Region.from_box(Box(lo, hi))
    return Database(tables=world.tables(), bindings=bindings)


def _figure1_query(db, form, area):
    return db.query(TEXT_FORMS[form].format(A=f"A{area}"))


def _no_fallback():
    """Inside this context no planner failure is swallowed."""
    return mock.patch.object(planner, "ESTIMATION_ERRORS", ())


def _assert_planner_matches_reference(query):
    reference = reference_estimates_by_order(query)
    with _no_fallback():
        chosen = plan_order(query, strategy="histogram")
    assert chosen == reference_plan_order(query, reference)
    for order, expected in reference.items():
        got = rollout_step_estimates(query, order)
        # Dataclass equality compares the floats exactly.
        assert got == expected, order
    return chosen


# -- orders and estimates ----------------------------------------------------
@pytest.mark.parametrize("form,area", FIGURE1_VARIANTS)
def test_figure1_variants_plan_like_the_reference(figure1_db, form, area):
    query = _figure1_query(figure1_db, form, area)
    chosen = _assert_planner_matches_reference(query)
    assert chosen in (("T", "R", "B"), ("R", "T", "B"))


@given(
    constraint_systems(),
    st.integers(0, 10_000),
    st.sampled_from([(2, 5), (2, 40)]),
)
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_workloads_plan_like_the_reference(system, seed, sizes):
    tables, bindings = make_workload(seed, system=system, sizes=sizes)
    if not tables:
        return
    query = SpatialQuery(system=system, tables=tables, bindings=bindings)
    chosen = _assert_planner_matches_reference(query)
    if len(tables) < 2:
        return
    # A ref-anchored kNN step moves its variable behind the anchor; the
    # repaired order is one of the orders checked above, and the session
    # path (plan, then repair) lands on it.
    names = sorted(tables)
    knn = KNNStep(variable=names[0], k=2, ref=names[1])
    repaired = repair_knn_order(chosen, knn, tables)
    assert repaired.index(names[1]) < repaired.index(names[0])
    knn_query = SpatialQuery(
        system=system, tables=tables, bindings=bindings, knn=knn
    )
    with _no_fallback():
        assert plan_order(knn_query, "histogram") == chosen
    assert rollout_step_estimates(knn_query, repaired) == rollout_step_estimates(
        query, repaired
    )


@given(constraint_systems())
@settings(max_examples=40, deadline=None)
def test_shared_triangular_forms_equal_fresh_ones(system):
    unknowns = sorted(system.variables() & {"u", "v", "w"})
    shared = shared_triangular_forms(system)
    for order in permutations(unknowns):
        assert shared(order) == reference_triangular_form(system, order)
    # Orders over fewer variables (the rest become constants) share the
    # cache without mixing up their ground residues.
    for order in permutations(unknowns[:-1]):
        assert shared(order) == reference_triangular_form(system, order)


def test_shared_triangular_forms_on_figure1():
    for form in TEXT_FORMS:
        system = parse_system(form.format(A="A"))
        shared = shared_triangular_forms(system)
        for order in permutations("TRB"):
            assert shared(order) == reference_triangular_form(system, order)


def test_single_unknown_plans_without_statistics():
    table = SpatialTable("boxes", 2, universe=Box((0.0, 0.0), (10.0, 10.0)))
    table.insert(0, Region.from_box(Box((1.0, 1.0), (2.0, 2.0))))
    query = SpatialQuery(
        system=parse_system("x & W !<= 0"),
        tables={"x": table},
        bindings={"W": Region.from_box(Box((0.0, 0.0), (5.0, 5.0)))},
    )
    with mock.patch.object(
        SpatialTable, "statistics", side_effect=AssertionError("touched")
    ):
        assert plan_order(query, strategy="histogram") == ("x",)


# -- the bounded search ------------------------------------------------------
#: The whole 4-/5-unknown product runs in CI's seed-matrix job only.
FULL = "REPRO_TEST_SEED" in os.environ


def _overlap_chain_query(n):
    """``x_i & x_{i+1} !<= 0`` over tables of ``100 * (i + 1)`` boxes."""
    rng = random.Random(n)
    names = [f"x{i}" for i in range(n)]
    return SpatialQuery(
        system=ConstraintSystem.build(
            *(overlaps(a, b) for a, b in zip(names, names[1:]))
        ),
        tables={
            name: random_table(name, rng, 100 * (i + 1))
            for i, name in enumerate(names)
        },
    )


CHAIN_QUERIES = {
    "overlap": _overlap_chain_query,
    "containment": lambda n: containment_chain_query(
        n_per_table=30, depth=n, seed=n
    ),
}


#: Share of exhaustive costing's step results the bounded search may
#: evaluate (measured: overlap 0.52 / 0.29 at 4 / 5 unknowns; the
#: containment chain's orders all cost within the margin of the greedy
#: one, so each must run five of six rollouts to be ruled out: 0.63 / 0.75).
STEP_RESULT_CEILING = {"overlap": 0.55, "containment": 0.8}


class _TopLevelCalls:
    """Patch over a recursive method counting its outermost calls (the
    original still runs)."""

    def __init__(self, cls, attr):
        self.call_count = 0
        depth = [0]
        original = getattr(cls, attr)

        def spy(*args, **kwargs):
            self.call_count += not depth[0]
            depth[0] += 1
            try:
                return original(*args, **kwargs)
            finally:
                depth[0] -= 1

        self.patch = mock.patch.object(cls, attr, spy)


@contextmanager
def _counted():
    """Mocks counting the calls (the originals still run) of Algorithm
    1's building blocks, of what they cost the BDD layer — managers
    built, formulas lifted, covers extracted, truth tables — and of the
    rollouts' step results."""
    methods = {
        "subsume": (EquationalSystem, "subsume_disequations"),
        "exact_selectivity": (TableStatistics, "exact_selectivity"),
        "managers": (Bdd, "__init__"),
    }
    with ExitStack() as stack:
        mocks = {
            name: stack.enter_context(
                mock.patch.object(triangular, name, wraps=getattr(triangular, name))
            )
            for name in ("project", "solve_for")
        }
        mocks["truth_tables"] = stack.enter_context(
            mock.patch.object(
                semantics, "truth_table_fast", wraps=semantics.truth_table_fast
            )
        )
        for name, (cls, attr) in methods.items():
            mocks[name] = stack.enter_context(
                mock.patch.object(
                    cls, attr, autospec=True, side_effect=getattr(cls, attr)
                )
            )
        for name, attr in (("lifts", "from_formula"), ("isops", "_isop")):
            mocks[name] = _TopLevelCalls(Bdd, attr)
            stack.enter_context(mocks[name].patch)
        yield mocks


@pytest.mark.parametrize(
    "kind,n,partitions",
    [
        (kind, n, partitions)
        for kind in sorted(CHAIN_QUERIES)
        for n in (4, 5)
        for partitions in (0, 4)
        # Tier-1's diagonal: each kind and each partitions value once,
        # at four unknowns.
        if FULL or (n == 4 and (kind == "overlap") == (partitions == 0))
    ],
)
def test_chain_queries_plan_like_the_reference_for_less(kind, n, partitions):
    query = CHAIN_QUERIES[kind](n)
    reference = reference_estimates_by_order(query)
    with _no_fallback(), _counted() as bounded:
        # ``partitions`` is PBSM's tile target: it must not move the order.
        chosen = plan_order(query, strategy="histogram", partitions=partitions)
    assert chosen == reference_plan_order(query, reference)
    # What costing every permutation (through one shared memo, as the
    # search did before it was bounded) evaluates.
    fresh = SpatialQuery(
        system=query.system, tables=query.tables, bindings=query.bindings
    )
    with _counted() as exhaustive:
        rollouts = _Rollouts(fresh)
        costs = {
            order: rollouts.cost(order, math.inf)
            for order in permutations(fresh.unknowns)
        }
    assert chosen in (min(costs, key=costs.get), planner.choose_order(query))
    assert (
        bounded["exact_selectivity"].call_count
        <= STEP_RESULT_CEILING[kind] * exhaustive["exact_selectivity"].call_count
    )
    assert bounded["solve_for"].call_count <= exhaustive["solve_for"].call_count
    # Orders that complete still get the reference's floats, through
    # the memo the search left on the query.
    for order in (chosen, planner.choose_order(query), tuple(reversed(chosen))):
        assert rollout_step_estimates(query, order) == reference[order]


def _stub_costs(table):
    """``_Rollouts.cost`` reading ``table`` — pruning like the real one."""

    def cost(self, order, bound, rollouts=6, seed=0):
        if table[order] > bound:
            raise _Pruned(order)
        return table[order]

    return mock.patch.object(_Rollouts, "cost", cost)


def _reference_choice(query, table):
    """The oracle's pick, given single-step estimates costing ``table``."""
    estimates = {
        order: [StepEstimate(order[0], 1.0, 0.0, 0.0, survivors=cost)]
        for order, cost in table.items()
    }
    return reference_plan_order(query, estimates)


@pytest.mark.parametrize(
    "costs,expected",
    [
        # Equal costs resolve lexicographically, wherever greedy sits.
        ({"uvw": 1.0, "vwu": 1.0, "wvu": 1.0}, "uvw"),
        ({"wuv": 2.0, "vwu": 2.0}, "vwu"),
        ({"greedy": 5.0, "uvw": 5.0}, None),
        # cost == margin x greedy keeps greedy; one ulp less does not.
        ({"uvw": 8.0}, None),
        ({"uvw": math.nextafter(8.0, 0.0)}, "uvw"),
        # A later order tying the incumbent is compared, and loses the
        # tie-break; a later cheaper one wins.
        ({"uvw": 3.0, "wvu": 3.0}, "uvw"),
        ({"uvw": 3.0, "wvu": 2.5}, "wvu"),
        # Nothing can undercut a free greedy order.
        ({"greedy": 0.0, "uvw": 0.0}, None),
    ],
)
def test_search_ties_and_margin_edges(costs, expected):
    assert planner.HISTOGRAM_CONFIDENCE_MARGIN == 0.8
    rng = random.Random(0)
    query = SpatialQuery(
        system=parse_system("v & P !<= 0\nu & v !<= 0\nv & w !<= 0"),
        tables={name: random_table(name, rng, 3) for name in "uvw"},
        bindings={"P": Region.from_box(UNIVERSE)},
    )
    greedy = planner.choose_order(query)
    assert greedy == ("v", "u", "w")  # neither first nor last of the six
    table = {order: 100.0 for order in permutations(query.unknowns)}
    table[greedy] = costs.pop("greedy", 10.0)
    for name, cost in costs.items():
        assert tuple(name) != greedy
        table[tuple(name)] = cost
    with _no_fallback(), _stub_costs(table):
        chosen = plan_order(query, strategy="histogram")
    assert chosen == _reference_choice(query, table)
    assert chosen == (greedy if expected is None else tuple(expected))


def test_rollout_bound_is_strict_and_names_the_dead_prefix(figure1_db):
    query = _figure1_query(figure1_db, 0, 2)
    rollouts = _Rollouts(query)
    order = ("B", "R", "T")
    cost = rollouts.cost(order, math.inf)
    # An order that ties the bound exactly finishes; one ulp over stops.
    assert rollouts.cost(order, cost) == cost
    with pytest.raises(_Pruned) as late:
        rollouts.cost(order, math.nextafter(cost, 0.0))
    assert late.value.prefix == order  # the last rollout: only this order
    # A bound the first rollout's first steps already exceed condemns
    # every order with that prefix — and those steps are all it solved.
    fresh = _figure1_query(figure1_db, 0, 2)
    with _counted() as calls, pytest.raises(_Pruned) as early:
        _Rollouts(fresh).cost(order, 0.0)
    assert early.value.prefix == ("B",)
    assert calls["solve_for"].call_count == 1 and calls["exact_selectivity"].call_count == 1


# -- work counts -------------------------------------------------------------
@pytest.mark.parametrize("form,area", FIGURE1_VARIANTS)
def test_figure1_run_work_counts(figure1_db, form, area):
    """Per ``Session.run``: 10 / 15 / 46-50 before the search was bounded
    and the triangular memo moved onto the query; 84 managers, 136
    formulas lifted, 84 covers and 159 truth tables before Algorithm 1
    moved onto the nodes of one manager."""
    text = TEXT_FORMS[form].format(A=f"A{area}")
    with _counted() as calls:
        figure1_db.session().run(text)
    assert calls["project"].call_count <= 7
    assert calls["solve_for"].call_count <= 10
    assert calls["exact_selectivity"].call_count <= 19
    assert calls["managers"].call_count == 1
    # Each parsed constraint once, and the care set once.
    assert calls["lifts"].call_count <= 8
    assert calls["isops"].call_count <= 30
    assert calls["truth_tables"].call_count == 0
    # Once per distinct eliminated set (the 2^3 subsets of {T, R, B}).
    levels = [c.args[0] for c in calls["subsume"].call_args_list]
    assert len(levels) == len({id(level) for level in levels}) <= 8


#: One warm Figure-1 ``Session.run`` of ``A2`` in the session's greedy
#: order: the region operations it bills, its answers (projected onto
#: the paper's order) and the boxes it builds, validating or trusted.
#: While the session ran the histogram search it picked the paper's
#: order ``T, R, B`` and billed 1 222 region operations for 644 boxes
#: (1 664 while the step filters checked the conjuncts the range
#: queries had decided; 1 008 and 2 147 boxes in older kernels), with
#: the same answers.  Greedy's ``R, T, B`` reads one partial tuple more
#: and bills more region operations, but plans no order it does not run.
FIGURE1_A2_ORDER = ("R", "T", "B")
FIGURE1_A2_REGION_OPS = 2087
FIGURE1_A2_BOXES = 636
FIGURE1_A2_ANSWERS_SHA1 = "fbbc746645b4c46342a39ea90ca67d7d56af16a2"


def test_figure1_run_builds_only_the_boxes_it_returns():
    db = _figure1_database()  # its caches hold only what the warm-up leaves
    text = TEXT_FORMS[0].format(A="A2")
    db.session().run(text)
    with mock.patch.object(
        Box, "__init__", autospec=True, side_effect=Box.__init__
    ) as validating, mock.patch.object(
        Box, "_trusted", side_effect=Box._trusted
    ) as trusted:
        result = db.session().run(text)
    assert result.order == FIGURE1_A2_ORDER
    assert result.stats.region_ops == FIGURE1_A2_REGION_OPS
    answers = result.oid_tuples(SMUGGLERS_ORDER)
    assert len(answers) == 21
    assert hashlib.sha1(repr(answers).encode()).hexdigest() == FIGURE1_A2_ANSWERS_SHA1
    assert validating.call_count + trusted.call_count == FIGURE1_A2_BOXES


def test_run_and_explain_triangularise_once(figure1_db):
    """Planner, compiler and EXPLAIN annotations share the query's
    Algorithm-1 memo: nothing after planning solves again, and a session,
    which plans greedily, solves one order's worth per call."""
    text = TEXT_FORMS[0].format(A="A2")
    query = figure1_db.query(text)
    with _counted() as planning:
        order = plan_order(query, "histogram")
    with _counted() as compiling:
        compile_query(query, order=order)
    assert planning["project"].call_count == 7
    assert planning["managers"].call_count == 1
    # The search costed the order it returns: compiling the same query
    # object solves nothing, builds no manager and lifts no formula.
    for name in ("project", "solve_for", "managers", "lifts"):
        assert compiling[name].call_count == 0, name
    session = figure1_db.session()
    with _counted() as run:
        result = session.run(text)
    with _counted() as explain:
        explained = session.explain(text)
    for calls in (run, explain):
        # One projection and one solve per unknown: the greedy order's.
        assert calls["project"].call_count == calls["solve_for"].call_count == 3
        # The EXPLAIN annotations build no manager and lift no formula
        # of their own.
        assert calls["managers"].call_count == 1
        assert calls["lifts"].call_count == planning["lifts"].call_count
    assert result.order == planner.choose_order(figure1_db.query(text))
    # Sharing changes no outcome: stage by stage on query objects of
    # their own, the EXPLAIN text is the same.
    plan = compile_query(figure1_db.query(text), order=result.order)
    assert plan.triangular == triangular_form(plan.query.system, result.order)
    assert explained == plan.physical("boxplan").explain()


# -- failures are not swallowed ----------------------------------------------
def test_injected_type_error_propagates(figure1_db):
    query = _figure1_query(figure1_db, 0, 2)
    order = ("T", "R", "B")
    plan = compile_query(query, order=order)
    with mock.patch.object(
        TableStatistics, "exact_selectivity", side_effect=TypeError("broken")
    ):
        with pytest.raises(TypeError):
            plan_order(query, strategy="histogram")
        with pytest.raises(TypeError):
            plan.physical("boxplan")  # EXPLAIN's estimate annotations


def _failing_at(call, error):
    """``exact_selectivity`` patched to raise ``error`` on its ``call``-th call."""
    original = TableStatistics.exact_selectivity
    calls = []

    def exact_selectivity(self, *args, **kwargs):
        calls.append(None)
        if len(calls) == call:
            raise error
        return original(self, *args, **kwargs)

    return mock.patch.object(TableStatistics, "exact_selectivity", exact_selectivity)


@pytest.mark.parametrize("where", ["first", "last"])
@pytest.mark.parametrize(
    "error", [ReproError("unusable"), ZeroDivisionError(), TypeError("bug")], ids=repr
)
def test_failures_inside_the_search(figure1_db, where, error):
    """An estimation error in a *non-greedy* order — the first step
    result after the greedy order's, or the last one the search computes,
    inside a rollout it is about to abandon — falls back to greedy; a
    bug's ``TypeError`` from the same spot propagates."""
    greedy = planner.choose_order(_figure1_query(figure1_db, 0, 2))
    with _counted() as counted:
        _Rollouts(_figure1_query(figure1_db, 0, 2)).cost(greedy, math.inf)
        after_greedy = counted["exact_selectivity"].call_count
        assert plan_order(_figure1_query(figure1_db, 0, 2), "histogram") != greedy
        total = counted["exact_selectivity"].call_count - after_greedy
    assert after_greedy < total
    fresh = _figure1_query(figure1_db, 0, 2)
    with _failing_at(after_greedy + 1 if where == "first" else total, error):
        if isinstance(error, TypeError):
            with pytest.raises(TypeError):
                plan_order(fresh, strategy="histogram")
        else:
            assert plan_order(fresh, strategy="histogram") == greedy


def test_unusable_statistics_still_fall_back():
    """The library's own errors keep the documented safe defaults."""
    empty = {
        name: SpatialTable(name, 2, universe=None) for name in ("x", "y")
    }
    query = SpatialQuery(
        system=parse_system("x & y !<= 0"), tables=empty, bindings={}
    )
    with pytest.raises(CompilationError):
        rollout_step_estimates(query, ("x", "y"))
    assert plan_order(query, strategy="histogram") == planner.choose_order(query)


# -- bound constraints -------------------------------------------------------
EARLIER = ["a", "b", "c"]
CARRIERS = {
    "regions": (PLANE, region_elements()),
    "intervals": (LINE, interval_elements()),
    "bits": (BITS8, bitvec_elements()),
}


@st.composite
def solved_constraints(draw):
    f = formulas(names=EARLIER, max_leaves=5)
    disequations = draw(
        st.lists(st.builds(Disequation, f, f), max_size=3).map(tuple)
    )
    return SolvedConstraint("x", draw(f), draw(f), disequations)


def _outcome(check):
    try:
        return check()
    except KeyError as exc:
        return ("KeyError", exc.args)
    except UnboundVariableError as exc:
        # The bound check raises this for the KeyError the reference's
        # formula evaluation hits: compare that lookup.
        return ("KeyError", exc.__cause__.args)


@pytest.mark.parametrize("carrier", sorted(CARRIERS))
@given(data=st.data(), solved=solved_constraints())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_bound_constraint_equals_reference_holds(carrier, data, solved):
    algebra, elements = CARRIERS[carrier]
    bound_names = data.draw(st.sets(st.sampled_from(EARLIER)), label="bound")
    env = {name: data.draw(elements, label=name) for name in sorted(bound_names)}
    values = data.draw(st.lists(elements, min_size=1, max_size=4), label="values")

    algebra.ops.reset()
    expected = [
        _outcome(lambda: reference_holds(solved, algebra, v, env))
        for v in values
    ]
    reference_ops = algebra.ops.total

    algebra.ops.reset()
    bound = solved.bind(algebra, env)
    got = [_outcome(lambda: bound.holds(v)) for v in values]
    assert got == expected
    # One bind serves every value and never costs more than the per-row
    # evaluation; the unbound spelling is the same code path.
    assert algebra.ops.total <= reference_ops
    assert [
        _outcome(lambda: solved.holds(algebra, v, env)) for v in values
    ] == expected


def test_exact_selectivity_counts_unbound_rows_as_satisfying(figure1_db):
    stats = figure1_db.table("R").statistics()
    algebra = figure1_db.query(TEXT_FORMS[0].format(A="A2")).algebra()
    everywhere = Region.from_box(algebra.universe_box)
    # The lower bound rejects nothing and the upper bound reads a
    # variable the environment lacks: every row counts as satisfying.
    unbound_upper = SolvedConstraint("R", FALSE, Var("T"))
    assert stats.exact_selectivity(unbound_upper, algebra, {}) == (
        1.0,
        stats.sample,
    )
    # Rows the lower bound already rejects never reach the missing
    # variable, exactly as with the per-row evaluation.
    rejecting = SolvedConstraint("R", Var("C"), Var("T"))
    fraction, holding = stats.exact_selectivity(
        rejecting, algebra, {"C": everywhere}
    )
    assert (fraction, holding) == (0.0, ())
    assert SolvedConstraint("R", FALSE, TRUE).bind(algebra, {}).holds(everywhere)


# -- billing -----------------------------------------------------------------
class _CheckEveryConjunct(ReferenceBound):
    """The frozen per-row check, which takes no box marks: no value skips
    a conjunct the step's range query decided."""

    decides_one_box = False


def _run(db, text, order, reference=False, **options):
    session = db.session()
    if not reference:
        return session.run(text, order=order, **options)
    # The step filters get no marks (a one-box row is not passed on its
    # marks before any bind) and bind the frozen check.
    with mock.patch.object(
        SolvedConstraint,
        "bind",
        lambda self, algebra, env, **_marks: _CheckEveryConjunct(self, algebra, env),
    ), mock.patch("repro.engine.physical.box_decided", lambda solved: ()):
        return session.run(text, order=order, **options)


@pytest.mark.parametrize("area", range(len(AREA_SCALES)))
def test_figure1_bills_fewer_region_ops_than_the_reference(figure1_db, area):
    text = TEXT_FORMS[0].format(A=f"A{area}")
    for order in (("T", "R", "B"), ("R", "T", "B")):
        new = _run(figure1_db, text, order)
        old = _run(figure1_db, text, order, reference=True)
        assert [
            {name: row.oid for name, row in answer.items()}
            for answer in new.answers
        ] == [
            {name: row.oid for name, row in answer.items()}
            for answer in old.answers
        ]
        assert new.stats.partial_tuples == old.stats.partial_tuples
        assert 0 < new.stats.region_ops < old.stats.region_ops


def test_overlay_join_bills_the_same_region_ops_as_the_reference():
    """``x & y !<= 0``: ``s = 0``, ``t = 1``, ``p = x`` and ``q = 0``, so
    the range query decides every conjunct of both steps for one-box
    rows: the step filters bill nothing where the reference, which
    checks every row, bills some.  Answers and partial tuples stay
    equal.  (The name is from when both billed the same.)"""
    db = Database.from_query(overlay_query(120, 120, seed=0))
    options = [{}, {"join_strategy": "pbsm", "partitions": 4}]
    for opts in options:
        new = _run(db, "x & y !<= 0", ("x", "y"), **opts)
        old = _run(db, "x & y !<= 0", ("x", "y"), reference=True, **opts)
        assert new.oid_tuples() == old.oid_tuples()
        assert new.stats.partial_tuples == old.stats.partial_tuples
        assert new.stats.region_ops == 0 < old.stats.region_ops

"""Differential oracle for Algorithm 1 on BDD nodes.

``tests/reference_triangular.py`` freezes ``normalize``, ``project``,
``solve_for`` and the two subsumption passes as they ran on formulas — a
manager per ``simplify``, syntax rewritten between levels, truth tables
for implication.  The node-level code must print the *same* formulas:
``TriangularForm``s compare ``==`` (constraints and ground) and render
the same text, and the decision procedure and the witness builder, which
ride on ``project`` / ``solve_for``, answer the same.

Tier-1 runs a thin slice; CI's seed-matrix job (``REPRO_TEST_SEED``
set) runs the whole matrix and the full Hypothesis budget.
"""

from itertools import permutations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.boolean.simplify import simplify
from repro.boolean.syntax import FALSE, Var
from repro.constraints.decision import satisfiable_atomless
from repro.constraints.parser import parse_system
from repro.constraints.projection import project
from repro.constraints.system import ConstraintSystem, EquationalSystem
from repro.constraints.triangular import shared_triangular_forms, triangular_form
from repro.constraints.witness import WitnessError, build_witness
from repro.constraints.projection import exists_equation, project_disequation
from repro.constraints.system import Negative, Positive
from tests.conftest import SEED_MATRIX
from tests.reference_triangular import (
    reference_build_witness,
    reference_normalize,
    reference_satisfiable_atomless,
    reference_triangular_form,
)
from tests.strategies import LINE
from tests.test_boolean_semantics import NAMES, formulas
from tests.test_planner_reference import (
    CHAIN_QUERIES,
    FIGURE1_VARIANTS,
    TEXT_FORMS,
)


def _assert_same(got, expected):
    assert got == expected
    assert got.constraints == expected.constraints
    assert got.ground == expected.ground
    assert got.render() == expected.render()


def _assert_all_orders(system, unknowns):
    """Every order of ``unknowns`` — through one shared memo, and fresh,
    with and without the ground residue as the care set."""
    shared = shared_triangular_forms(system)
    for order in permutations(unknowns):
        expected = reference_triangular_form(system, order)
        _assert_same(shared(order), expected)
        _assert_same(triangular_form(system, order), expected)
        _assert_same(
            triangular_form(system, order, simplify_modulo_ground=False),
            reference_triangular_form(system, order, simplify_modulo_ground=False),
        )


# -- the fixed matrix --------------------------------------------------------
@pytest.mark.parametrize(
    "form,area",
    # Tier-1's diagonal: each spelling and each area once.
    [(f, a) for f, a in FIGURE1_VARIANTS if SEED_MATRIX or f == a],
)
def test_figure1_variants_all_orders(form, area):
    system = parse_system(TEXT_FORMS[form].format(A=f"A{area}"))
    _assert_all_orders(system, "TRB")


@pytest.mark.parametrize(
    "kind,n",
    [
        (kind, n)
        for kind in sorted(CHAIN_QUERIES)
        for n in (4, 5)
        if SEED_MATRIX or n == 4
    ],
)
def test_chain_queries_all_orders(kind, n):
    query = CHAIN_QUERIES[kind](n)
    shared = shared_triangular_forms(query.system)
    orders = list(permutations(query.unknowns))
    for order in orders if SEED_MATRIX else orders[::5]:
        _assert_same(shared(order), reference_triangular_form(query.system, order))


def test_unsatisfiable_ground_empties_the_care_set():
    # A <= C with A !<= C: the residue's equation and a disequation clash.
    # C | ~C <= 0: the residue's equation is 1, so the care set is empty.
    for text in ("A <= C\nA !<= C\nx <= A\nx & y != 0", "C | ~C <= 0\nx & y != 0\nx <= C"):
        system = parse_system(text)
        _assert_all_orders(system, "xy")
    care_zero = triangular_form(parse_system("C | ~C <= 0\nx & y != 0\nx <= C"), "xy")
    assert all(c.lower == FALSE and c.upper == FALSE for c in care_zero.constraints)


def test_constant_zero_disequation_survives_every_level():
    system = parse_system("x & ~x != 0\nx <= y\ny & A != 0")
    assert reference_normalize(system).has_false_disequation()
    assert system.normalize().has_false_disequation()
    _assert_all_orders(system, "xy")
    assert not satisfiable_atomless(system)


def test_equational_systems_built_from_formulas_lift_on_first_use():
    x, y, a = Var("x"), Var("y"), Var("A")
    system = EquationalSystem(x & ~y | y & ~a, [x & a, y])
    assert system.lifted()[0] is system.lifted()[0]
    for order in permutations("xy"):
        _assert_same(
            triangular_form(system, order), reference_triangular_form(system, order)
        )
    # A projection inherits the manager; a system of its own does not.
    assert project(system, "x").lifted()[0] is system.lifted()[0]
    assert EquationalSystem(x, []).lifted()[0] is not system.lifted()[0]


# -- random systems ----------------------------------------------------------
@st.composite
def formula_systems(draw):
    """≤ 3 positive and ≤ 3 negative constraints over ≤ 5 variables."""
    side = formulas(max_leaves=4)
    positives = draw(st.lists(st.builds(Positive, side, side), max_size=3))
    negatives = draw(st.lists(st.builds(Negative, side, side), max_size=3))
    return ConstraintSystem(positives, negatives)


@given(formula_systems(), st.data())
@settings(
    max_examples=150 if SEED_MATRIX else 12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_systems_all_orders(system, data):
    names = sorted(system.variables())
    if not SEED_MATRIX:  # tier-1: every order of at most three unknowns
        names = data.draw(st.permutations(names))[:3]
    _assert_all_orders(system, names)


@given(formula_systems())
@settings(max_examples=150 if SEED_MATRIX else 25, deadline=None)
def test_project_is_simplify_of_the_papers_definitions(system):
    """Theorems 2 and 4, literally: ``proj(S, x)`` prints ``simplify`` of
    ``exists_equation`` / ``project_disequation`` (the normal form's
    formulas are covers, so "occurs in" and "depends on" coincide)."""
    normal = system.normalize()
    assert normal == reference_normalize(system)
    for x in NAMES:
        projected = project(normal, x)
        assert projected.equation == simplify(exists_equation(normal.equation, x))
        assert projected.disequations == tuple(
            simplify(project_disequation(normal.equation, g, x))
            for g in normal.disequations
        )


@given(formula_systems())
@settings(max_examples=100 if SEED_MATRIX else 20, deadline=None)
def test_decision_and_witness_agree_with_the_formula_level_chain(system):
    sat = reference_satisfiable_atomless(system)
    assert satisfiable_atomless(system) == sat
    order = sorted(system.variables())
    try:
        expected = reference_build_witness(system, LINE, order, {})
    except WitnessError:
        expected = None
    assert (expected is not None) == sat
    if sat:
        assert build_witness(system, LINE, order=order) == expected
    else:
        with pytest.raises(WitnessError):
            build_witness(system, LINE, order=order)


# -- a retrieval order must name variables of the system ---------------------
def test_order_naming_a_stranger_is_rejected():
    system = parse_system("x <= y\nx & z != 0")
    with pytest.raises(ValueError, match=r"\['nope'\].*\['x', 'y', 'z'\]"):
        triangular_form(system, ["x", "nope"])
    with pytest.raises(ValueError, match="nope"):
        triangular_form(system.normalize(), ["nope"])
    with pytest.raises(ValueError, match="duplicates"):
        triangular_form(system, ["x", "x"])
    # The shared memo stays unvalidated: the engine's orders come from
    # the query's own tables.
    assert shared_triangular_forms(system)(["x", "nope"]).order == ("x", "nope")


"""Algorithm 1 as it ran on formulas — frozen.

``project``, ``solve_for``, ``EquationalSystem.subsume_disequations`` and
``_subsume_solved`` now work on nodes of one ``Bdd`` manager per system
and promise the *same* formulas.  These are copies of the bodies they
replaced (the removed ``simplify_formulas`` / ``subsume`` keywords
inlined at ``True``): every step rewrites syntax (``cofactors``,
``conj`` / ``disj`` / ``neg``), every ``simplify`` / ``simplify_under``
builds a manager of its own, lifts the formula and runs a fresh ISOP, and
the two subsumption passes compare big-integer truth tables.
``test_triangular_reference.py`` holds the code under test to them with
``==``; ``reference_planner.py`` builds its triangles here.

Nothing here may import the code under test beyond the untouched
building blocks: the formula syntax, ``truth_table_fast``'s
``implies`` / ``implies_under``, the value classes
(``EquationalSystem`` as a plain container, ``SolvedConstraint``,
``Disequation``, ``TriangularForm``) and the ``Bdd`` manager's
hash-consing core (``from_formula``, ``apply_*``, ``_mk``) — the
generalized cofactor and the Minato–Morreale recursion are frozen here
too, unmemoised.
"""

from repro.boolean.bdd import Bdd
from repro.boolean.semantics import implies, implies_under
from repro.boolean.syntax import FALSE, TRUE, conj, disj, neg
from repro.boolean.terms import Term, cover_to_formula
from repro.constraints.solved import Disequation, SolvedConstraint
from repro.constraints.system import EquationalSystem
from repro.constraints.triangular import TriangularForm


# -- boolean/bdd.py ----------------------------------------------------------
def reference_constrain(mgr, f, c):
    """``Bdd.constrain`` (Coudert–Madre), one memo per call."""
    if c == 0:
        raise ValueError("constrain by the empty care set")
    memo = {}

    def walk(u, care):
        if care == 1 or u <= 1:
            return u
        key = (u, care)
        out = memo.get(key)
        if out is not None:
            return out
        top = min(mgr._level(u), mgr._level(care))
        c0, c1 = mgr._cof(care, top)
        if c0 == 0:
            out = walk(mgr._cof(u, top)[1], c1)
        elif c1 == 0:
            out = walk(mgr._cof(u, top)[0], c0)
        else:
            u0, u1 = mgr._cof(u, top)
            out = mgr._mk(top, walk(u0, c0), walk(u1, c1))
        memo[key] = out
        return out

    return walk(f, c)


def reference_isop(mgr, lower, upper):
    """``Bdd._isop`` (Minato–Morreale on ``[lower, upper]``), no memo."""
    if lower == 0:
        return [], 0
    if upper == 1:
        return [Term({})], 1
    level = min(mgr._level(lower), mgr._level(upper))
    name = mgr.var_names[level]
    l0, l1 = mgr._cof(lower, level)
    u0, u1 = mgr._cof(upper, level)
    lo_only, lo_bdd = reference_isop(
        mgr, mgr.apply_and(l0, mgr.apply_not(u1)), u0
    )
    hi_only, hi_bdd = reference_isop(
        mgr, mgr.apply_and(l1, mgr.apply_not(u0)), u1
    )
    rest_lower = mgr.apply_or(
        mgr.apply_and(l0, mgr.apply_not(lo_bdd)),
        mgr.apply_and(l1, mgr.apply_not(hi_bdd)),
    )
    rest, rest_bdd = reference_isop(mgr, rest_lower, mgr.apply_and(u0, u1))

    cover = []
    for t in lo_only:
        extended = t.with_literal(name, False)
        if extended is not None:
            cover.append(extended)
    for t in hi_only:
        extended = t.with_literal(name, True)
        if extended is not None:
            cover.append(extended)
    cover.extend(rest)
    x = mgr._mk(level, 0, 1)
    covered = mgr.apply_or(
        mgr.apply_or(
            mgr.apply_and(mgr.apply_not(x), lo_bdd),
            mgr.apply_and(x, hi_bdd),
        ),
        rest_bdd,
    )
    return cover, covered


# -- boolean/simplify.py -----------------------------------------------------
def reference_simplify(f):
    """``simplify``: a manager per call, ordered by the formula's names."""
    mgr = Bdd(sorted(f.variables()))
    node = mgr.from_formula(f)
    if node == mgr.true:
        return TRUE
    if node == mgr.false:
        return FALSE
    return cover_to_formula(reference_isop(mgr, node, node)[0])


def reference_simplify_under(f, care):
    """``simplify_under``: ISOP of ``[f∧care, constrain(f, care)∨¬care]``."""
    mgr = Bdd(sorted(f.variables() | care.variables()))
    node = mgr.from_formula(f)
    care_node = mgr.from_formula(care)
    if care_node == mgr.false:
        return FALSE
    constrained = reference_constrain(mgr, node, care_node)
    lower = mgr.apply_and(node, care_node)
    upper = mgr.apply_or(constrained, mgr.apply_not(care_node))
    cover, _ = reference_isop(mgr, lower, upper)
    if not cover:
        return FALSE
    if len(cover) == 1 and cover[0].is_true():
        return TRUE
    return cover_to_formula(cover)


# -- constraints/system.py ---------------------------------------------------
def reference_normalize(system):
    """``ConstraintSystem.normalize`` (Theorem 1), simplified."""
    f = disj(*[c.as_zero_equation() for c in system.positives])
    gs = [c.as_nonzero_formula() for c in system.negatives]
    return EquationalSystem(
        reference_simplify(f), [reference_simplify(g) for g in gs]
    )


def reference_subsume_disequations(system):
    """``EquationalSystem.subsume_disequations`` on truth tables."""
    kept = []
    pool = list(dict.fromkeys(system.disequations))
    for i, g in enumerate(pool):
        redundant = False
        for j, h in enumerate(pool):
            if i == j:
                continue
            if implies(h, g) and not (implies(g, h) and j > i):
                redundant = True
                break
        if not redundant:
            kept.append(g)
    return EquationalSystem(system.equation, kept)


# -- constraints/projection.py -----------------------------------------------
def reference_project(system, x):
    """``proj(S, x)`` by rewriting and re-simplifying every formula."""
    f = system.equation
    a, b = f.cofactors(x)
    disequations = []
    for g in system.disequations:
        if g.mentions(x):
            c, d = g.cofactors(x)
            g = disj(conj(neg(b), d), conj(neg(a), c))
        disequations.append(reference_simplify(g))
    return EquationalSystem(reference_simplify(conj(a, b)), disequations)


# -- constraints/solved.py ---------------------------------------------------
def reference_solve_for(system, x, care=None):
    """``solve_for``: Schröder and Boole's expansion on the syntax."""

    def clean(f):
        if care is not None:
            return reference_simplify_under(f, care)
        return reference_simplify(f)

    lower_raw, upper_neg = system.equation.cofactors(x)
    lower = clean(lower_raw)
    upper = clean(neg(upper_neg))

    solved = []
    passed = []
    for g in system.disequations:
        if g.mentions(x):
            q_raw, p_raw = g.cofactors(x)
            solved.append(Disequation(p=clean(p_raw), q=clean(q_raw)))
        else:
            passed.append(g)
    constraint = SolvedConstraint(
        variable=x, lower=lower, upper=upper, disequations=tuple(solved)
    )
    return constraint, passed


# -- constraints/triangular.py -----------------------------------------------
def reference_subsume_solved(c, care):
    """``_subsume_solved`` on truth tables."""
    hyp = TRUE if care is None else care

    def le(a, b):
        return implies_under(hyp, a, b)

    rs = list(dict.fromkeys(c.disequations))
    kept = []
    for j, rj in enumerate(rs):
        redundant = False
        for k, rk in enumerate(rs):
            if k == j:
                continue
            if le(rk.p, rj.p) and le(rk.q, rj.q):
                mutual = le(rj.p, rk.p) and le(rj.q, rk.q)
                if not (mutual and k > j):
                    redundant = True
                    break
        if not redundant:
            kept.append(rj)
    if len(kept) == len(c.disequations):
        return c
    return SolvedConstraint(
        variable=c.variable,
        lower=c.lower,
        upper=c.upper,
        disequations=tuple(kept),
    )


def reference_triangular_form(system, order, simplify_modulo_ground=True):
    """Algorithm 1 for one order, every projection from scratch."""
    if not isinstance(system, EquationalSystem):
        system = reference_normalize(system)
    names = list(order)
    systems = {len(names): system}
    for i in range(len(names), 0, -1):
        systems[i - 1] = reference_project(systems[i], names[i - 1])
    ground = reference_subsume_disequations(systems[0])
    care = neg(ground.equation) if simplify_modulo_ground else None
    constraints = []
    for i in range(1, len(names) + 1):
        solved, _passed = reference_solve_for(
            reference_subsume_disequations(systems[i]), names[i - 1], care
        )
        constraints.append(reference_subsume_solved(solved, care))
    return TriangularForm(
        order=tuple(names), constraints=tuple(constraints), ground=ground
    )


# -- constraints/decision.py, constraints/witness.py -------------------------
def reference_satisfiable_atomless(system):
    """``satisfiable_atomless``: eliminate everything, read the residue."""
    from repro.boolean.semantics import is_contradiction

    ground = reference_normalize(system)
    for x in sorted(ground.variables()):
        ground = reference_project(ground, x)
    return is_contradiction(ground.equation) and not any(
        is_contradiction(g) for g in ground.disequations
    )


def reference_build_witness(system, algebra, order, constants):
    """``build_witness`` over the formula-level chain ``S_n .. S_0``."""
    from repro.constraints.witness import WitnessError, choose_value

    chain = [reference_normalize(system)]
    for x in reversed(list(order)):
        chain.append(reference_project(chain[-1], x))
    chain.reverse()
    if not chain[0].holds(algebra, constants):
        raise WitnessError("ground residue fails for the bound constants")
    env = dict(constants)
    for i, x in enumerate(order, start=1):
        constraint, _passed = reference_solve_for(chain[i], x)
        env[x] = choose_value(algebra, constraint, env)
    return env

"""Algorithm 1 (paper Figure 2): the triangular solved form.

Given a system ``S`` over variables ``x_1 .. x_n`` (the *retrieval
order*), compute constraints ``C_1(x_1), C_2(x_1,x_2), …,
C_n(x_1..x_n)`` such that each ``C_i`` is the strongest necessary
condition on a partial solution ``x_1..x_i`` (exact over atomless
algebras)::

    let S_n = S
    for i = n downto 1:
        C_i   = solved form of S_i for x_i      (Schröder + Boole)
        S_{i-1} = proj(S_i, x_i)

Variables *not* in the retrieval order (bound constants such as the
example's ``C`` and ``A``) are never eliminated; whatever remains in
``S_0`` — the **ground residue** — constrains only those constants and is
checked once at query set-up.

The optional ``simplify_modulo_ground`` mode displays each ``C_i``
simplified under the ground residue's equation, which is exactly how the
paper presents its Section 2 example (e.g. the upper bound ``C ∨ (¬A∧T)``
prints as ``C ∨ T`` given ``A ⊆ C``).

**Functions between levels, formulas at the outputs.**  ``S_i`` is a
tuple of *nodes* of one BDD manager — made when the system is normalized,
ordered by ``sorted(system.variables())``, inherited by every projection
— and ``proj``, Schröder, Boole's expansion, the care-set simplification
and both subsumption passes are ``restrict`` / ``apply_*`` / ``constrain``
on it.  A formula is printed (``Bdd.to_formula``) only for what leaves:
``s``, ``t``, each ``p_j``/``q_j``, the ground residue.  It is the formula
the syntax-rewriting algorithm (``tests/reference_triangular.py``) printed:
that one called ``simplify`` after every step, whose private manager is
ordered by ``sorted(f.variables())``; the shared manager induces the same
relative order on every subset of the names; ROBDDs are canonical, so node
operations reach the node ``from_formula`` of the rewritten syntax did; and
a node's irredundant cover depends on its shape and variable names alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

from ..boolean.bdd import Bdd
from ..boolean.syntax import Formula, neg
from .projection import project
from .solved import Disequation, SolvedConstraint, solve_for
from .system import ConstraintSystem, EquationalSystem


@dataclass(frozen=True)
class TriangularForm:
    """The output of Algorithm 1.

    Attributes
    ----------
    order:
        The retrieval order ``x_1 .. x_n``.
    constraints:
        ``C_1 .. C_n`` aligned with ``order``; ``C_i`` mentions only
        ``x_1..x_i`` and the bound constants.
    ground:
        The residue ``S_0`` over constants only.
    """

    order: Tuple[str, ...]
    constraints: Tuple[SolvedConstraint, ...]
    ground: EquationalSystem

    def constraint_for(self, variable: str) -> SolvedConstraint:
        """The ``C_i`` solving ``variable``."""
        for c in self.constraints:
            if c.variable == variable:
                return c
        raise KeyError(f"{variable!r} is not in the retrieval order")

    def check_prefix(
        self, algebra, env: Mapping[str, object], upto: Optional[int] = None
    ) -> bool:
        """Check ``C_1 .. C_upto`` on a (partial) assignment.

        ``env`` must bind constants and the first ``upto`` order
        variables.  This is the executor's pruning predicate.
        """
        limit = len(self.order) if upto is None else upto
        for i in range(limit):
            c = self.constraints[i]
            if not c.holds(algebra, env[c.variable], env):
                return False
        return True

    def check_ground(self, algebra, env: Mapping[str, object]) -> bool:
        """Check the ground residue against the bound constants."""
        return self.ground.holds(algebra, env)

    def render(self) -> str:
        """Paper-style multi-line rendering of the whole triangle."""
        blocks = []
        for c in self.constraints:
            blocks.append(f"-- C[{c.variable}] --\n{c.render()}")
        if self.ground.equation.variables() or self.ground.disequations:
            blocks.append(f"-- ground --\n{self.ground}")
        return "\n".join(blocks)

    def __str__(self) -> str:
        return self.render()


def triangular_form(
    system: ConstraintSystem | EquationalSystem,
    order: Sequence[str],
    simplify_modulo_ground: bool = True,
) -> TriangularForm:
    """Run Algorithm 1 over ``system`` with retrieval order ``order``.

    Parameters
    ----------
    system:
        The constraint system (normalized on the fly if needed).
    order:
        Retrieval order ``x_1 .. x_n``; every name must occur in the
        system and be pairwise distinct (``ValueError`` otherwise).
        Variables of the system not listed are treated as bound
        constants.
    simplify_modulo_ground:
        Additionally simplify each ``C_i`` under the ground residue's
        equation, as the paper's Section 2 does.  Sound because the
        compiler verifies the residue before the plan runs.

    Returns
    -------
    TriangularForm
    """
    names = sorted(system.variables())
    if not set(order) <= set(names):
        raise ValueError(
            f"retrieval order names {sorted(set(order) - set(names))}; the system's variables are {names}"
        )
    return shared_triangular_forms(system, simplify_modulo_ground)(order)


class SharedTriangularForms:
    """Algorithm 1 of one system, memoised across retrieval orders.

    Call it with an order for the :class:`TriangularForm`, or ask
    :meth:`constraint` for one ``C_i`` — only what that step needs is
    computed, so an order abandoned half way never solves the rest.
    Orders share work: ``S_i`` depends only on the *set* of variables
    eliminated so far (``proj`` commutes and nodes are canonical), and
    ``C_i`` only on that set, ``x_i`` and the ground residue.  Every level
    lives on the normalized system's BDD manager, which dies with this object.
    """

    def __init__(
        self,
        system: ConstraintSystem | EquationalSystem,
        simplify_modulo_ground: bool = True,
    ) -> None:
        if isinstance(system, ConstraintSystem):
            system = system.normalize()
        self._modulo_ground = simplify_modulo_ground
        # Eliminated-variable set -> S_i, as projected and as the solver
        # reads it; (all unknowns, that set, x_i) -> C_i.
        self._systems: Dict[FrozenSet[str], EquationalSystem] = {frozenset(): system}
        self._levels: Dict[FrozenSet[str], EquationalSystem] = {}
        self._solved: Dict[tuple, SolvedConstraint] = {}

    def _system(self, names: Sequence[str], i: int) -> EquationalSystem:
        """``S_i`` of the order ``names``: ``x_n .. x_{i+1}`` projected out."""
        key = frozenset(names[i:])
        if key not in self._systems:
            self._systems[key] = project(self._system(names, i + 1), names[i])
        return self._systems[key]

    def _level(self, names: Sequence[str], i: int) -> EquationalSystem:
        """``S_i`` less its subsumed disequations (``S_0``: the ground)."""
        key = frozenset(names[i:])
        if key not in self._levels:
            self._levels[key] = self._system(names, i).subsume_disequations()
        return self._levels[key]

    def constraint(self, order: Sequence[str], i: int) -> SolvedConstraint:
        """``C_{i+1}``: the solved form of ``order[i]`` given ``order[:i]``."""
        key = (frozenset(order), frozenset(order[i + 1 :]), order[i])
        if key not in self._solved:
            care: Optional[Formula] = None
            if self._modulo_ground:  # care set: the residue's equation holds
                care = neg(self._level(order, 0).equation)
            level = self._level(order, i + 1)
            solved, _passed = solve_for(level, order[i], care)
            self._solved[key] = _subsume_solved(solved, care, level.lifted()[0])
        return self._solved[key]

    def __call__(self, order: Sequence[str]) -> TriangularForm:
        names = tuple(order)
        if len(set(names)) != len(names):
            raise ValueError(f"retrieval order has duplicates: {list(names)}")
        constraints = tuple(self.constraint(names, i) for i in range(len(names)))
        return TriangularForm(names, constraints, ground=self._level(names, 0))


shared_triangular_forms = SharedTriangularForms  # the name callers know


def _subsume_solved(
    c: SolvedConstraint, care: Optional[Formula], mgr: Bdd
) -> SolvedConstraint:
    """Remove redundant disequations within one level.

    ``r_k`` implies ``r_j`` iff ``p_k <= p_j`` and ``q_k <= q_j`` (the
    disequation bodies are monotone in both coefficients); implication is
    checked modulo the ground residue ``care`` when provided, matching
    the paper's display of the Section 2 example.  ``mgr`` is the manager
    that printed ``c``, so lifting its formulas back is a lookup.
    """
    hyp = mgr.true if care is None else mgr.lift(care)
    first: Dict[Tuple[int, int], Disequation] = {}  # of equivalent r_j, the first
    for r in c.disequations:
        pq = mgr.apply_and(hyp, mgr.lift(r.p)), mgr.apply_and(hyp, mgr.lift(r.q))
        first.setdefault(pq, r)
    kept = tuple(
        r
        for (p, q), r in first.items()
        if not any(
            (pk, qk) != (p, q) and mgr.apply_imp(pk, p) == 1 and mgr.apply_imp(qk, q) == 1
            for pk, qk in first
        )
    )
    return c if len(kept) == len(c.disequations) else replace(c, disequations=kept)


# paper: Theorem 9
def verify_necessity(
    tri: TriangularForm,
    algebra,
    env: Mapping[str, object],
) -> bool:
    """Soundness check: a full solution satisfies every ``C_i`` prefix.

    ``env`` binds all order variables and constants and is assumed to
    satisfy the original system; Theorem 9 (best approximation) implies
    each prefix satisfies ``C_1..C_i``.  Used by tests and benches.
    """
    return tri.check_ground(algebra, env) and tri.check_prefix(algebra, env)

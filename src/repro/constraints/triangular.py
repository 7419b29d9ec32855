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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

from ..boolean.syntax import Formula, neg
from .projection import project
from .solved import SolvedConstraint, solve_for
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
    simplify_formulas: bool = True,
    simplify_modulo_ground: bool = True,
    subsume: bool = True,
) -> TriangularForm:
    """Run Algorithm 1 over ``system`` with retrieval order ``order``.

    Parameters
    ----------
    system:
        The constraint system (normalized on the fly if needed).
    order:
        Retrieval order ``x_1 .. x_n``; every name must occur in the
        system and be pairwise distinct.  Variables of the system not
        listed are treated as bound constants.
    simplify_formulas:
        Canonicalise intermediate formulas (recommended; Algorithm 1's
        raw rewriting is exponential syntactically).
    simplify_modulo_ground:
        Additionally simplify each ``C_i`` under the ground residue's
        equation, as the paper's Section 2 does.  Sound because the
        compiler verifies the residue before the plan runs.
    subsume:
        Drop per-level disequations subsumed by stronger ones.

    Returns
    -------
    TriangularForm
    """
    return shared_triangular_forms(
        system, simplify_formulas, simplify_modulo_ground, subsume
    )(order)


class SharedTriangularForms:
    """Algorithm 1 of one system, memoised across retrieval orders.

    Call it with an order for the :class:`TriangularForm`, or ask
    :meth:`constraint` for one ``C_i`` — only what that step needs is
    computed, so an order abandoned half way never solves the rest.
    Orders share work: ``S_i`` depends only on the *set* of variables
    eliminated so far (``proj`` commutes and the simplifier is
    canonical), and ``C_i`` only on that set, ``x_i`` and the ground
    residue.
    """

    def __init__(
        self,
        system: ConstraintSystem | EquationalSystem,
        simplify_formulas: bool = True,
        simplify_modulo_ground: bool = True,
        subsume: bool = True,
    ) -> None:
        if isinstance(system, ConstraintSystem):
            system = system.normalize(simplify_formulas)
        self._simplify = simplify_formulas
        self._modulo_ground = simplify_modulo_ground
        self._subsume = subsume
        # Eliminated-variable set -> S_i, as projected and as the solver
        # reads it; (all unknowns, that set, x_i) -> C_i.
        self._systems: Dict[FrozenSet[str], EquationalSystem] = {frozenset(): system}
        self._levels: Dict[FrozenSet[str], EquationalSystem] = {}
        self._solved: Dict[tuple, SolvedConstraint] = {}

    def _system(self, names: Sequence[str], i: int) -> EquationalSystem:
        """``S_i`` of the order ``names``: ``x_n .. x_{i+1}`` projected out."""
        key = frozenset(names[i:])
        if key not in self._systems:
            self._systems[key] = project(
                self._system(names, i + 1), names[i], self._simplify
            )
        return self._systems[key]

    def _level(self, names: Sequence[str], i: int) -> EquationalSystem:
        """``S_i`` less its subsumed disequations (``S_0``: the ground)."""
        key = frozenset(names[i:])
        if key not in self._levels:
            level = self._system(names, i)
            self._levels[key] = (
                level.subsume_disequations() if self._subsume else level
            )
        return self._levels[key]

    def constraint(self, order: Sequence[str], i: int) -> SolvedConstraint:
        """``C_{i+1}``: the solved form of ``order[i]`` given ``order[:i]``."""
        key = (frozenset(order), frozenset(order[i + 1 :]), order[i])
        if key not in self._solved:
            care: Optional[Formula] = None
            if self._modulo_ground:  # care set: the residue's equation holds
                care = neg(self._level(order, 0).equation)
            solved, _passed = solve_for(
                self._level(order, i + 1), order[i], self._simplify, care
            )
            if self._subsume:
                solved = _subsume_solved(solved, care)
            self._solved[key] = solved
        return self._solved[key]

    def __call__(self, order: Sequence[str]) -> TriangularForm:
        names = tuple(order)
        if len(set(names)) != len(names):
            raise ValueError(f"retrieval order has duplicates: {list(names)}")
        constraints = tuple(self.constraint(names, i) for i in range(len(names)))
        return TriangularForm(names, constraints, ground=self._level(names, 0))


shared_triangular_forms = SharedTriangularForms  # the name callers know


def _subsume_solved(
    c: SolvedConstraint, care: Optional[Formula]
) -> SolvedConstraint:
    """Remove redundant disequations within one level.

    ``r_k`` implies ``r_j`` iff ``p_k <= p_j`` and ``q_k <= q_j`` (the
    disequation bodies are monotone in both coefficients); implication is
    checked modulo the ground residue ``care`` when provided, matching
    the paper's display of the Section 2 example.
    """
    from ..boolean.semantics import implies_under
    from ..boolean.syntax import TRUE

    hyp = TRUE if care is None else care

    def le(a: Formula, b: Formula) -> bool:
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

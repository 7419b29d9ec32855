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
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

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


def shared_triangular_forms(
    system: ConstraintSystem | EquationalSystem,
    simplify_formulas: bool = True,
    simplify_modulo_ground: bool = True,
    subsume: bool = True,
) -> Callable[[Sequence[str]], TriangularForm]:
    """:func:`triangular_form` of one system for many retrieval orders.

    The returned function maps an order to its triangular form and
    shares work between calls: ``S_i`` depends only on the *set* of
    variables eliminated so far (``proj`` commutes and the simplifier is
    canonical), and ``C_i`` only on that set, ``x_i`` and the ground
    residue, so orders that agree on them reuse them.
    """
    if isinstance(system, ConstraintSystem):
        normalized = system.normalize(simplify_formulas)
    else:
        normalized = system
    # Eliminated-variable set -> S_i; (all unknowns, that set, x_i) -> C_i.
    systems: Dict[FrozenSet[str], EquationalSystem] = {frozenset(): normalized}
    solved_by_level: Dict[tuple, SolvedConstraint] = {}

    def form(order: Sequence[str]) -> TriangularForm:
        names = list(order)
        if len(set(names)) != len(names):
            raise ValueError(f"retrieval order has duplicates: {names}")

        # Eliminate from x_n down to x_1, keeping each S_i.
        levels = [frozenset(names[i:]) for i in range(len(names) + 1)]
        for i in range(len(names), 0, -1):
            if levels[i - 1] not in systems:
                systems[levels[i - 1]] = project(
                    systems[levels[i]], names[i - 1], simplify_formulas
                )
        ground = systems[levels[0]]
        if subsume:
            ground = ground.subsume_disequations()

        care: Optional[Formula] = None
        if simplify_modulo_ground:
            care = neg(ground.equation)  # care set: residue equation holds

        constraints: List[SolvedConstraint] = []
        for i in range(1, len(names) + 1):
            key = (levels[0], levels[i], names[i - 1])
            if key not in solved_by_level:
                level_system = systems[levels[i]]
                if subsume:
                    level_system = level_system.subsume_disequations()
                solved, _passed = solve_for(
                    level_system,
                    names[i - 1],
                    simplify_formulas=simplify_formulas,
                    care=care,
                )
                if subsume:
                    solved = _subsume_solved(solved, care)
                solved_by_level[key] = solved
            constraints.append(solved_by_level[key])

        return TriangularForm(
            order=tuple(names), constraints=tuple(constraints), ground=ground
        )

    return form


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

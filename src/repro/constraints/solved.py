"""Solved-form constraints for one variable (paper §3, display (2)).

The triangular form's ``C_i`` constrains ``x_i`` by the *preceding*
variables only:

    s(x_1..x_{i-1})  ⊆  x_i  ⊆  t(x_1..x_{i-1})          (range part)
    ⋀_j  r_j   with   r_j:  (x_i ∧ p_j ≠ 0) ∨ (¬x_i ∧ q_j ≠ 0)

* The range part comes from **Schröder's theorem (Theorem 10)**:
  ``f = 0  ⟺  f[x←0] ⊆ x ⊆ ¬f[x←1]``.
* Each disequation comes from **Boole's expansion (Theorem 11)**:
  ``g = (x ∧ g[x←1]) ∨ (¬x ∧ g[x←0])``, so ``g ≠ 0`` iff
  ``x ∧ g[x←1] ≠ 0`` or ``¬x ∧ g[x←0] ≠ 0``.

In the paper's containment notation, ``x∧p ≠ 0`` is ``x ⊄ ¬p`` and
``¬x∧q ≠ 0`` is ``q ⊄ x``; we carry the pair ``(p, q)`` directly.

A :class:`SolvedConstraint` is made of formulas — the compiler reads
them, EXPLAIN prints them — and :func:`solve_for` is where they are made:
cofactors and complement are node operations on the system's BDD manager,
which prints ``s``, ``t`` and each ``p_j``, ``q_j`` under the care set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    AbstractSet, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

from ..algebra.regions import RegionAlgebra
from ..boolean.printer import to_str
from ..boolean.semantics import evaluate
from ..boolean.syntax import FALSE, Formula, TRUE, conj, neg
from ..errors import UnboundVariableError
from .system import EquationalSystem


@dataclass(frozen=True)
class Disequation:
    """``(x ∧ p ≠ 0) ∨ (¬x ∧ q ≠ 0)`` for the solved variable ``x``.

    ``p`` is the coefficient of ``x`` (``g[x←1]``) and ``q`` the
    coefficient of ``¬x`` (``g[x←0]``) in Boole's expansion of the
    original disequation body ``g``.
    """

    p: Formula
    q: Formula

    def body(self, x: str) -> Formula:
        """Reconstruct ``g`` = ``(x∧p) ∨ (¬x∧q)`` for variable name ``x``."""
        from ..boolean.syntax import Var, disj

        v = Var(x)
        return disj(conj(v, self.p), conj(neg(v), self.q))

    def render(self, x: str) -> str:
        """Human-readable rendering."""
        parts = []
        if self.p != FALSE:
            parts.append(f"{x} & ({to_str(self.p)}) != 0")
        if self.q != FALSE:
            parts.append(f"~{x} & ({to_str(self.q)}) != 0")
        if not parts:
            return "false"
        return "  or  ".join(parts)


@dataclass(frozen=True)
class SolvedConstraint:
    """The solved form ``C_i`` for one variable.

    Attributes
    ----------
    variable:
        The solved variable ``x_i``.
    lower:
        ``s`` with ``s ⊆ x_i`` (from Schröder; ``0`` when vacuous).
    upper:
        ``t`` with ``x_i ⊆ t`` (``1`` when vacuous).
    disequations:
        The ``r_j`` pairs.
    """

    variable: str
    lower: Formula
    upper: Formula
    disequations: Tuple[Disequation, ...] = ()

    def earlier_variables(self) -> FrozenSet[str]:
        """Variables other than the solved one (must all precede it)."""
        out = set(self.lower.variables()) | set(self.upper.variables())
        for r in self.disequations:
            out |= r.p.variables() | r.q.variables()
        out.discard(self.variable)
        return frozenset(out)

    def is_range_trivial(self) -> bool:
        """``True`` when the range part is ``0 ⊆ x ⊆ 1``."""
        return self.lower == FALSE and self.upper == TRUE

    def bind(
        self,
        algebra,
        env: Mapping[str, object],
        accept_unbound: bool = False,
        box_decided: Sequence[Optional[AbstractSet[str]]] = (),
    ) -> "BoundConstraint":
        """``C_i`` with the earlier variables fixed to ``env``.

        ``env`` must bind every earlier variable (and any constants) and
        must not change while the bound constraint is in use; see
        :class:`BoundConstraint` for ``accept_unbound`` and
        ``box_decided``.
        """
        return BoundConstraint(self, algebra, env, accept_unbound, box_decided)

    def holds(self, algebra, value, env: Mapping[str, object]) -> bool:
        """Check ``C_i`` exactly with ``value`` for the solved variable."""
        return self.bind(algebra, env).holds(value)

    def render(self) -> str:
        """Multi-line human-readable rendering, paper style."""
        x = self.variable
        lines = [f"{to_str(self.lower)} <= {x} <= {to_str(self.upper)}"]
        lines += [r.render(x) for r in self.disequations]
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


_PENDING = object()
_ACCEPT = object()  # an unbound slot under ``accept_unbound=True``


class BoundConstraint:
    """A :class:`SolvedConstraint` bound to one environment.

    ``s``, ``t`` and every ``p_j``/``q_j`` are functions of the earlier
    variables only, so each is evaluated at most once per environment,
    at the first value that needs it, and shared by every value
    :meth:`select` checks.  A formula over a variable missing from the
    environment raises :class:`~repro.errors.UnboundVariableError` at
    each value that needs it; with ``accept_unbound=True`` (the
    planner's sampling, where a variable may have no representative)
    such slots are found up front and pass each value that needs them.

    ``box_decided`` holds, per conjunct (``s ⊆ x``, ``x ⊆ t``, then each
    ``r_j``), the atoms that must be one box each for the step's range
    query to have decided it, or ``None``: this constraint's
    :func:`~repro.boxes.bconstraints.box_decided`.  Give it only when
    every value :meth:`select` sees has passed that query: over the
    region algebra a one-box value then skips each conjunct whose atoms
    are one-box regions in ``env``.
    """

    __slots__ = ("_solved", "_algebra", "_env", "_values", "_skips", "decides_one_box")

    def __init__(
        self,
        solved: SolvedConstraint,
        algebra,
        env,
        accept_unbound: bool = False,
        box_decided: Sequence[Optional[AbstractSet[str]]] = (),
    ):
        self._solved = solved
        self._algebra = algebra
        self._env = env
        # s, t, then p_j, q_j per disequation.
        self._values = [_PENDING] * (2 + 2 * len(solved.disequations))
        # s, t, then r_j: does a one-box value skip the conjunct?
        self._skips: Sequence[bool] = (False,) * (2 + len(solved.disequations))
        if box_decided and isinstance(algebra, RegionAlgebra):
            self._skips = [
                atoms is not None
                and all(name in env and len(env[name].boxes) == 1 for name in atoms)
                for atoms in box_decided
            ]
        #: Does a one-box value skip every conjunct (pass without a check)?
        self.decides_one_box = all(self._skips)
        if accept_unbound:
            pairs = [(r.p, r.q) for r in solved.disequations]
            formulas = [solved.lower, solved.upper, *(f for pair in pairs for f in pair)]
            for slot, formula in enumerate(formulas):
                if not formula.variables().issubset(env):
                    self._values[slot] = _ACCEPT

    def _value(self, slot: int, formula: Formula):
        value = self._values[slot]
        if value is _PENDING:
            try:
                value = evaluate(formula, self._algebra, self._env)
            except KeyError as exc:  # only a missing variable is ours
                name = exc.args[0] if exc.args else None
                if name in self._env or name not in formula.variables():
                    raise
                raise UnboundVariableError(
                    f"C_{self._solved.variable} reads {name!r}, which has no value"
                ) from exc
            self._values[slot] = value
        return value

    def select(self, values: Iterable) -> Iterator[int]:
        """Yield, lazily and in order, the position of each of ``values``
        that satisfies the constraint, checked with the algebra's ``le``/
        ``meets``/``complement`` — over the region algebra a single-box
        value with their one-box forms (``RegionAlgebra.covers_box``, ...),
        and not at all for a conjunct its range query decided.
        """
        algebra, solved, slots, skips = self._algebra, self._solved, self._values, self._skips
        flat = isinstance(algebra, RegionAlgebra)
        disequations = [
            (2 * j, 2 * j + 1, r, skips[j + 1]) for j, r in enumerate(solved.disequations, 1)
        ]
        s, t = slots[0], slots[1]
        skip_s, skip_t = skips[0], skips[1]
        for i, value in enumerate(values):
            box = value.boxes[0] if flat and len(value.boxes) == 1 else None
            # s ⊆ value
            if box is None or not skip_s:
                if s is _PENDING:
                    s = self._value(0, solved.lower)
                if s is _ACCEPT:
                    yield i
                    continue
                if not (algebra.le(s, value) if box is None else algebra.covers_box(s, box)):
                    continue
            # value ⊆ t
            if box is None or not skip_t:
                if t is _PENDING:
                    t = self._value(1, solved.upper)
                if t is _ACCEPT:
                    yield i
                    continue
                if not (algebra.le(value, t) if box is None else algebra.box_le(box, t)):
                    continue
            # each r_j: value ∧ p_j ≠ 0, or else ¬value ∧ q_j ≠ 0
            outside = None  # taken only when some q_j ≠ 0
            passes = True
            for at_p, at_q, r, skip in disequations:
                if skip and box is not None:
                    continue
                p = slots[at_p]
                if p is _PENDING:
                    p = self._value(at_p, r.p)
                if p is _ACCEPT:
                    break
                if algebra.meets(value, p) if box is None else algebra.box_meets(box, p):
                    continue
                q = slots[at_q]
                if q is _PENDING:
                    q = self._value(at_q, r.q)
                if q is _ACCEPT:
                    break
                if algebra.is_zero(q):
                    passes = False
                    break
                if outside is None:  # ¬value, billed once
                    outside = (algebra.complement(value) if box is None
                               else algebra.box_complement(box))
                if not (algebra.meets(outside, q) if box is None
                        else algebra.outside_meets(box, q)):
                    passes = False
                    break
            if passes:
                yield i

    def holds(self, value) -> bool:
        """Check the constraint with ``value``: :meth:`select` on one value."""
        for _ in self.select((value,)):
            return True
        return False


def solve_for(
    system: EquationalSystem, x: str, care: Optional[Formula] = None
) -> Tuple[SolvedConstraint, List[Formula]]:
    """Rewrite a system into solved form for variable ``x``.

    Applies Schröder to the equation and Boole's expansion to every
    disequation depending on ``x``.  Returns the :class:`SolvedConstraint`
    together with the disequations *not* depending on ``x`` (they belong to
    lower levels of the triangle and are handled by the caller).

    ``care`` optionally supplies a ground hypothesis (the residue ``S_0``
    of Algorithm 1, as the formula ``residue = 0`` i.e. care set
    ``¬residue``, over the system's variables); formulas are then
    displayed/simplified modulo it, reproducing the paper's
    hand-simplified Section 2 presentation.
    """
    mgr, equation, disequations = system.lifted()
    hyp = mgr.true if care is None else mgr.lift(care)
    lower = mgr.to_formula(mgr.restrict(equation, x, False), hyp)
    upper = mgr.to_formula(mgr.apply_not(mgr.restrict(equation, x, True)), hyp)

    solved: List[Disequation] = []
    passed: List[Formula] = []
    for g in disequations:
        q, p = mgr.restrict(g, x, False), mgr.restrict(g, x, True)
        if p == q:
            passed.append(mgr.to_formula(g))
        else:
            solved.append(Disequation(p=mgr.to_formula(p, hyp), q=mgr.to_formula(q, hyp)))
    return SolvedConstraint(x, lower, upper, tuple(solved)), passed


# oracle: tests/test_solved_triangular.py
def solved_to_system(constraint: SolvedConstraint) -> EquationalSystem:
    """Rebuild the equational system denoted by a solved constraint.

    Inverse of :func:`solve_for` up to semantic equivalence; used by
    round-trip tests.
    """
    from ..boolean.syntax import Var, disj

    x = Var(constraint.variable)
    equation = disj(
        conj(constraint.lower, neg(x)), conj(x, neg(constraint.upper))
    )
    disequations = [r.body(constraint.variable) for r in constraint.disequations]
    return EquationalSystem(equation, disequations)

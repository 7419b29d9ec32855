"""Systems of positive and negative Boolean constraints (paper §1, §3).

The paper's query language:

* a **positive constraint** is an inclusion ``f ⊆ g``;
* a **negative constraint** is its denial ``f ⊄ g``;
* a **system** is a conjunction of both kinds.

Derived predicates (paper Section 1)::

    x = y   ≡   x ⊆ y ∧ y ⊆ x
    x ≠ y   ≡   ¬(x ⊆ y) ∨ ¬(y ⊆ x)      (not expressible as ONE constraint;
                                          we expose the common one-sided uses)
    x ⊂ y   ≡   x ⊆ y ∧ y ⊄ x

Theorem 1: every system can be rewritten into the *normal form*

    f = 0  ∧  g_1 ≠ 0  ∧ … ∧  g_m ≠ 0

since ``f ⊆ g`` iff ``f ∧ ¬g = 0`` (Boole) and ``f ⊄ g`` iff
``f ∧ ¬g ≠ 0``, and positive constraints conjoin by disjunction of their
left-hand sides.  :class:`EquationalSystem` is that normal form and is
what the projection/triangularisation algorithms consume — as nodes of
one BDD manager shared by a system and everything projected from it, with
a formula made only for the parts somebody reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..boolean.bdd import Bdd
from ..boolean.semantics import evaluate
from ..boolean.syntax import FALSE, Formula, FormulaLike, conj, formula, neg
from ..boolean.printer import to_str


@dataclass(frozen=True)
class Positive:
    """The positive constraint ``lhs ⊆ rhs``."""

    lhs: Formula
    rhs: Formula

    def as_zero_equation(self) -> Formula:
        """The Boole form: ``lhs ∧ ¬rhs`` (constrained to equal 0)."""
        return conj(self.lhs, neg(self.rhs))

    def holds(self, algebra, env: Mapping[str, object]) -> bool:
        """Evaluate the constraint over an algebra carrier."""
        return algebra.is_zero(evaluate(self.as_zero_equation(), algebra, env))

    def variables(self) -> FrozenSet[str]:
        """Variables mentioned."""
        return self.lhs.variables() | self.rhs.variables()

    def __str__(self) -> str:
        return f"{to_str(self.lhs)} <= {to_str(self.rhs)}"


@dataclass(frozen=True)
class Negative:
    """The negative constraint ``lhs ⊄ rhs``."""

    lhs: Formula
    rhs: Formula

    def as_nonzero_formula(self) -> Formula:
        """The Boole form: ``lhs ∧ ¬rhs`` (constrained to differ from 0)."""
        return conj(self.lhs, neg(self.rhs))

    def holds(self, algebra, env: Mapping[str, object]) -> bool:
        """Evaluate the constraint over an algebra carrier."""
        return not algebra.is_zero(
            evaluate(self.as_nonzero_formula(), algebra, env)
        )

    def variables(self) -> FrozenSet[str]:
        """Variables mentioned."""
        return self.lhs.variables() | self.rhs.variables()

    def __str__(self) -> str:
        return f"{to_str(self.lhs)} !<= {to_str(self.rhs)}"


class ConstraintSystem:
    """A conjunction of positive and negative Boolean constraints."""

    def __init__(
        self,
        positives: Iterable[Positive] = (),
        negatives: Iterable[Negative] = (),
    ):
        self.positives: Tuple[Positive, ...] = tuple(positives)
        self.negatives: Tuple[Negative, ...] = tuple(negatives)

    # -- constructors ------------------------------------------------------------
    @staticmethod
    def build(*constraints) -> "ConstraintSystem":
        """Build from a mixed sequence of constraints."""
        pos: List[Positive] = []
        negs: List[Negative] = []
        for c in constraints:
            if isinstance(c, Positive):
                pos.append(c)
            elif isinstance(c, Negative):
                negs.append(c)
            elif isinstance(c, ConstraintSystem):
                pos.extend(c.positives)
                negs.extend(c.negatives)
            else:
                raise TypeError(f"not a constraint: {c!r}")
        return ConstraintSystem(pos, negs)

    def conjoin(self, other: "ConstraintSystem") -> "ConstraintSystem":
        """Conjunction of two systems."""
        return ConstraintSystem(
            self.positives + other.positives,
            self.negatives + other.negatives,
        )

    # -- structure ----------------------------------------------------------------
    def variables(self) -> FrozenSet[str]:
        """All variables mentioned anywhere in the system."""
        out: set = set()
        for c in self.positives:
            out |= c.variables()
        for c in self.negatives:
            out |= c.variables()
        return frozenset(out)

    def __len__(self) -> int:
        return len(self.positives) + len(self.negatives)

    def __str__(self) -> str:
        lines = [str(c) for c in self.positives]
        lines += [str(c) for c in self.negatives]
        return "\n".join(lines)

    # -- semantics -------------------------------------------------------------------
    def holds(self, algebra, env: Mapping[str, object]) -> bool:
        """Evaluate the whole system over an algebra carrier."""
        return all(c.holds(algebra, env) for c in self.positives) and all(
            c.holds(algebra, env) for c in self.negatives
        )

    # -- Theorem 1 ----------------------------------------------------------------------
    def normalize(self) -> "EquationalSystem":
        """Rewrite into the normal form ``f = 0 ∧ g_1 ≠ 0 ∧ …`` (Theorem 1).

        All positive constraints merge into one equation by disjunction;
        each negative constraint yields one disequation.  Each is lifted
        once, into the manager the normal form's projections inherit.
        """
        mgr = Bdd(sorted(self.variables()))
        equation = mgr.false
        for c in self.positives:
            equation = mgr.apply_or(equation, mgr.from_formula(c.as_zero_equation()))
        negatives = [mgr.from_formula(c.as_nonzero_formula()) for c in self.negatives]
        return EquationalSystem.of_nodes(mgr, equation, negatives)


class EquationalSystem:
    """The normal form ``equation = 0  ∧  ⋀_i disequations[i] ≠ 0``.

    The object manipulated by ``proj`` and Algorithm 1.  ``equation`` and
    each disequation are plain formulas; the constraint reading is
    implicit.  Disequations syntactically equal to ``0`` make the system
    trivially unsatisfiable (``0 ≠ 0``); callers detect this with
    :meth:`has_false_disequation`.

    Each part (slot 0: the equation) is a formula, a node of a BDD manager,
    or both.  A system built from formulas lifts them on first use
    (:meth:`lifted`) into a manager of its own, ordered by name; one built
    :meth:`of_nodes` shares its parent's and prints a part when it is read.
    """

    def __init__(self, equation: Formula, disequations: Iterable[Formula] = ()):
        self._formulas: List[Optional[Formula]] = [formula(f) for f in (equation, *disequations)]
        self._mgr: Optional[Bdd] = None
        self._nodes: Tuple[int, ...] = ()

    @classmethod
    def of_nodes(cls, mgr: Bdd, equation: int, disequations: Sequence[int]) -> "EquationalSystem":
        """The system of these nodes of ``mgr``."""
        self = cls.__new__(cls)
        self._mgr, self._nodes = mgr, (equation, *disequations)
        self._formulas = [None] * len(self._nodes)
        return self

    def lifted(self) -> Tuple[Bdd, int, Tuple[int, ...]]:
        """``(manager, equation node, disequation nodes)``."""
        if self._mgr is None:
            self._mgr = mgr = Bdd(sorted(self.variables()))
            self._nodes = tuple(mgr.lift(f) for f in (self.equation, *self.disequations))
        return self._mgr, self._nodes[0], self._nodes[1:]

    def _part(self, i: int) -> Formula:
        f = self._formulas[i]
        if f is None:  # a part made from a node, not printed yet
            f = self._formulas[i] = self.lifted()[0].to_formula(self._nodes[i])
        return f

    @property
    def equation(self) -> Formula:
        """``f`` of ``f = 0``."""
        return self._part(0)

    @property
    def disequations(self) -> Tuple[Formula, ...]:
        """The ``g_i`` of ``g_i ≠ 0``."""
        return tuple(self._part(i) for i in range(1, len(self._formulas)))

    def variables(self) -> FrozenSet[str]:
        """All variables in the system."""
        out = set(self.equation.variables())
        for g in self.disequations:
            out |= g.variables()
        return frozenset(out)

    def has_false_disequation(self) -> bool:
        """``True`` if some disequation is the constant 0 (unsat)."""
        return any(g == FALSE for g in self.disequations)

    def holds(self, algebra, env: Mapping[str, object]) -> bool:
        """Evaluate over an algebra carrier."""
        if not algebra.is_zero(evaluate(self.equation, algebra, env)):
            return False
        return all(
            not algebra.is_zero(evaluate(g, algebra, env))
            for g in self.disequations
        )

    def subsume_disequations(self) -> "EquationalSystem":
        """Drop disequations implied by stronger ones.

        ``h ≠ 0`` and ``h <= g`` imply ``g ≠ 0``, so ``g`` is redundant
        whenever some other disequation ``h`` satisfies ``h <= g``.  This
        is the cleanup that makes the compiled Section 2 example display
        exactly as in the paper (``T ≠ 0`` is dropped in favour of
        ``¬C ∧ T ≠ 0``).  Of equivalent disequations (one node) the first stays.
        """
        mgr, equation, nodes = self.lifted()
        pool = list(dict.fromkeys(nodes))
        kept = [g for g in pool if not any(h != g and mgr.apply_imp(h, g) == 1 for h in pool)]
        return EquationalSystem.of_nodes(mgr, equation, kept)

    def simplified(self) -> "EquationalSystem":
        """Semantically simplify every formula in the system."""
        return EquationalSystem.of_nodes(*self.lifted())

    def __str__(self) -> str:
        lines = [f"{to_str(self.equation)} = 0"]
        lines += [f"{to_str(g)} != 0" for g in self.disequations]
        return "\n".join(lines)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EquationalSystem)
            and other.equation == self.equation
            and other.disequations == self.disequations
        )

    def __hash__(self) -> int:
        return hash((self.equation, self.disequations))


# ---------------------------------------------------------------------------
# Convenience constraint constructors (the paper's derived predicates)
# ---------------------------------------------------------------------------


def subset(a: FormulaLike, b: FormulaLike) -> Positive:
    """``a ⊆ b``."""
    return Positive(formula(a), formula(b))


def not_subset(a: FormulaLike, b: FormulaLike) -> Negative:
    """``a ⊄ b``."""
    return Negative(formula(a), formula(b))


def equal(a: FormulaLike, b: FormulaLike) -> ConstraintSystem:
    """``a = b`` as two inclusions (paper Section 1)."""
    return ConstraintSystem.build(subset(a, b), subset(b, a))


def strict_subset(a: FormulaLike, b: FormulaLike) -> ConstraintSystem:
    """``a ⊂ b`` as ``a ⊆ b ∧ b ⊄ a`` (paper Section 1)."""
    return ConstraintSystem.build(subset(a, b), not_subset(b, a))


def nonempty(a: FormulaLike) -> Negative:
    """``a ≠ 0`` as ``a ⊄ 0``."""
    return Negative(formula(a), FALSE)


def empty(a: FormulaLike) -> Positive:
    """``a = 0`` as ``a ⊆ 0``."""
    return Positive(formula(a), FALSE)


def overlaps(a: FormulaLike, b: FormulaLike) -> Negative:
    """``a ∧ b ≠ 0`` — the spatial overlay predicate."""
    return nonempty(conj(formula(a), formula(b)))


def disjoint(a: FormulaLike, b: FormulaLike) -> Positive:
    """``a ∧ b = 0``."""
    return empty(conj(formula(a), formula(b)))

"""Canonical constraint systems from the paper, as reusable constructors.

Centralising these keeps the tests, examples and benchmarks literally on
the same objects the paper manipulates.
"""

from __future__ import annotations

from typing import Tuple

from ..boolean.syntax import Var, disj, neg
from .system import (
    ConstraintSystem,
    not_subset,
    overlaps,
    subset,
)


def smugglers_system() -> ConstraintSystem:
    """The Section 2 example (paper Figure 1).

    Variables: ``C`` country, ``A`` destination area, ``T`` border town,
    ``R`` road, ``B`` state.  Constraints::

        A ⊆ C                   the destination area is in the country
        B ⊆ C                   the state is in the country
        R ⊆ A ∪ B ∪ T           the road stays within area/state/town
        R ∩ A ≠ ∅               the road reaches the destination area
        R ∩ T ≠ ∅               the road starts at the border town
        T ⊄ C                   the town straddles the border

    The paper rewrites this to one equation and three disequations::

        (A∧¬C) ∨ (B∧¬C) ∨ (R∧¬A∧¬B∧¬T) = 0
        R∧A ≠ 0,   R∧T ≠ 0,   ¬C∧T ≠ 0
    """
    A, B, C, R, T = (Var(v) for v in "ABCRT")
    return ConstraintSystem.build(
        subset(A, C),
        subset(B, C),
        subset(R, disj(A, B, T)),
        overlaps(R, A),
        overlaps(R, T),
        not_subset(T, C),
    )


SMUGGLERS_ORDER: Tuple[str, ...] = ("T", "R", "B")
"""The retrieval order the paper picks "arbitrarily": town, road, state."""

"""The bound (given) variables of the Section 2 example."""


# paper: Example 1
def nonclosure_example() -> ConstraintSystem:
    """Paper Example 1: ``x∧y ≠ 0 ∧ ¬x∧y ≠ 0``.

    ``∃x`` of this system is *not* expressible as a Boolean constraint
    system over ``y`` (it says ``y`` dominates at least two disjoint
    nonzero elements, i.e. "|y| ≥ 2" in an atomic algebra); its best
    approximation is ``y ≠ 0``.
    """
    x, y = Var("x"), Var("y")
    return ConstraintSystem.build(
        overlaps(x, y),
        overlaps(neg(x), y),
    )

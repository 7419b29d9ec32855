"""Finite powerset algebras.

``PowersetAlgebra(universe)`` is the Boolean algebra of all subsets of a
finite universe, with elements represented as ``frozenset``.  Finite
powerset algebras are **atomic** (every singleton is an atom), so they
witness the paper's Example 1: the projection ``proj(S, x)`` is only an
*approximation* of ``exists x. S`` here — the system
``x & y != 0  and  ~x & y != 0`` is satisfiable only when ``|y| >= 2``,
which no Boolean constraint over ``y`` can express.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, Tuple

from .base import BooleanAlgebra


# oracle: tests/strategies.py
class PowersetAlgebra(BooleanAlgebra[FrozenSet]):
    """The algebra of all subsets of a finite ``universe``."""

    def __init__(self, universe: Iterable):
        super().__init__()
        self._universe = frozenset(universe)

    @property
    def universe(self) -> FrozenSet:
        """The underlying finite universe."""
        return self._universe

    @property
    def top(self) -> FrozenSet:
        return self._universe

    @property
    def bot(self) -> FrozenSet:
        return frozenset()

    def meet(self, a: FrozenSet, b: FrozenSet) -> FrozenSet:
        self.ops.meet += 1
        return a & b

    def join(self, a: FrozenSet, b: FrozenSet) -> FrozenSet:
        self.ops.join += 1
        return a | b

    def complement(self, a: FrozenSet) -> FrozenSet:
        self.ops.complement += 1
        return self._universe - a

    def is_zero(self, a: FrozenSet) -> bool:
        return not a

    def le(self, a: FrozenSet, b: FrozenSet) -> bool:
        self.ops.comparisons += 1
        return a <= b

    def eq(self, a: FrozenSet, b: FrozenSet) -> bool:
        self.ops.comparisons += 1
        return a == b

    # -- atoms -------------------------------------------------------------------
    def atoms(self) -> Iterator[FrozenSet]:
        """All atoms (singletons)."""
        for item in sorted(self._universe, key=repr):
            yield frozenset([item])

    def is_atom(self, a: FrozenSet) -> bool:
        """``True`` iff ``a`` is a singleton."""
        return len(a) == 1

    def elements(self) -> Iterator[FrozenSet]:
        """All 2^|universe| elements (small universes only)."""
        items = sorted(self._universe, key=repr)
        n = len(items)
        if n > 16:
            raise ValueError("universe too large to enumerate")
        for mask in range(1 << n):
            yield frozenset(
                items[i] for i in range(n) if (mask >> i) & 1
            )

    def split(self, a: FrozenSet) -> Tuple[FrozenSet, FrozenSet]:
        """Split when possible; atoms are not splittable (atomic algebra)."""
        if len(a) < 2:
            raise ValueError("cannot split an atom or zero in an atomic algebra")
        items = sorted(a, key=repr)
        return frozenset(items[:1]), frozenset(items[1:])

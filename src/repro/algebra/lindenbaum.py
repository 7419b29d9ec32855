"""The free Boolean algebra on n generators, backed by BDDs.

``FreeBooleanAlgebra(['x', 'y'])`` carries Boolean *functions* over its
generators (canonically represented as BDD nodes).  It is the
Lindenbaum-Tarski algebra of propositional formulas — atomic (its atoms
are the minterms) but useful as an oracle: a constraint holds in the free
algebra under the generic assignment iff the corresponding formula
identity is valid.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..boolean.bdd import Bdd
from ..boolean.syntax import Formula
from .base import BooleanAlgebra


# oracle: tests/test_algebra_carriers.py
class FreeBooleanAlgebra(BooleanAlgebra[int]):
    """Boolean functions over fixed generators; elements are BDD nodes."""

    def __init__(self, generators: Sequence[str]):
        super().__init__()
        self._mgr = Bdd(list(generators))
        self._generators = tuple(generators)

    @property
    def generators(self) -> Tuple[str, ...]:
        """Generator names in BDD order."""
        return self._generators

    @property
    def manager(self) -> Bdd:
        """The underlying BDD manager."""
        return self._mgr

    @property
    def top(self) -> int:
        return self._mgr.true

    @property
    def bot(self) -> int:
        return self._mgr.false

    def generator(self, name: str) -> int:
        """The element for a generator."""
        if name not in self._generators:
            raise KeyError(f"unknown generator {name!r}")
        return self._mgr.var(name)

    def from_formula(self, f: Formula) -> int:
        """Interpret a formula over the generators."""
        unknown = f.variables() - set(self._generators)
        if unknown:
            raise KeyError(f"formula uses non-generators {sorted(unknown)}")
        return self._mgr.from_formula(f)

    def meet(self, a: int, b: int) -> int:
        self.ops.meet += 1
        return self._mgr.apply_and(a, b)

    def join(self, a: int, b: int) -> int:
        self.ops.join += 1
        return self._mgr.apply_or(a, b)

    def complement(self, a: int) -> int:
        self.ops.complement += 1
        return self._mgr.apply_not(a)

    def is_zero(self, a: int) -> bool:
        return a == self._mgr.false

    def eq(self, a: int, b: int) -> bool:
        self.ops.comparisons += 1
        return a == b

    def is_atom(self, a: int) -> bool:
        """Atoms of the free algebra are the minterms."""
        return a != self._mgr.false and self._mgr.sat_count(
            a, len(self._generators)
        ) == 1

"""The two-valued Boolean algebra B2.

The degenerate carrier ``{0, 1}``.  The paper notes (Section 1) that over
two-valued algebras negative constraints add no expressive power, since
``f != 0`` is equivalent to the positive constraint ``~f = 0`` — B2 is the
counterpoint against which the atomless results are interesting.  It is
also the algebra through which all formula-level identities are decided
(see :mod:`repro.boolean.semantics`).
"""

from __future__ import annotations

from .base import BooleanAlgebra


# oracle: tests/strategies.py
class TwoValuedAlgebra(BooleanAlgebra[bool]):
    """B2: elements are Python bools."""

    @property
    def top(self) -> bool:
        return True

    @property
    def bot(self) -> bool:
        return False

    def meet(self, a: bool, b: bool) -> bool:
        self.ops.meet += 1
        return a and b

    def join(self, a: bool, b: bool) -> bool:
        self.ops.join += 1
        return a or b

    def complement(self, a: bool) -> bool:
        self.ops.complement += 1
        return not a

    def is_zero(self, a: bool) -> bool:
        return not a

    def elements(self):
        """All elements (for exhaustive tests)."""
        return [False, True]

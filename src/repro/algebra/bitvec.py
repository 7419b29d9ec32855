"""Bit-vector Boolean algebras.

``BitVectorAlgebra(n)`` is the powerset algebra of ``{0..n-1}`` with
elements packed into Python integers — isomorphic to
:class:`repro.algebra.powerset.PowersetAlgebra` but much faster, which
matters for randomized soundness testing of ``proj`` where thousands of
random evaluations are performed.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from .base import BooleanAlgebra


class BitVectorAlgebra(BooleanAlgebra[int]):
    """Subsets of ``{0..width-1}`` as integer bit masks."""

    def __init__(self, width: int):
        if width < 1:
            raise ValueError("width must be positive")
        super().__init__()
        self._width = width
        self._mask = (1 << width) - 1

    @property
    def width(self) -> int:
        """Number of atoms."""
        return self._width

    @property
    def top(self) -> int:
        return self._mask

    @property
    def bot(self) -> int:
        return 0

    def meet(self, a: int, b: int) -> int:
        self.ops.meet += 1
        return a & b

    def join(self, a: int, b: int) -> int:
        self.ops.join += 1
        return a | b

    def complement(self, a: int) -> int:
        self.ops.complement += 1
        return self._mask & ~a

    def is_zero(self, a: int) -> bool:
        return a == 0

    def le(self, a: int, b: int) -> bool:
        self.ops.comparisons += 1
        return a & ~b == 0

    def eq(self, a: int, b: int) -> bool:
        self.ops.comparisons += 1
        return a == b

    def elements(self) -> Iterator[int]:
        """All elements (guarded for small widths)."""
        if self._width > 16:
            raise ValueError("width too large to enumerate")
        return iter(range(1 << self._width))

    def atoms(self) -> Iterator[int]:
        """All single-bit elements."""
        return (1 << i for i in range(self._width))

    def is_atom(self, a: int) -> bool:
        """``True`` iff ``a`` has exactly one bit set."""
        return a != 0 and a & (a - 1) == 0

    def split(self, a: int) -> Tuple[int, int]:
        """Split multi-bit elements; atoms are unsplittable."""
        if a == 0 or self.is_atom(a):
            raise ValueError("cannot split an atom or zero in an atomic algebra")
        low = a & -a  # least significant set bit
        return low, a & ~low

"""The Boolean algebra interface and shared helpers.

The paper's constraint language is interpreted over an arbitrary Boolean
algebra ``M`` (Section 3); the spatially relevant ones are *atomless*
(Definition before Theorem 6 — "M is atomless iff it contains no atomic
elements"), e.g. the measurable subsets of R^k modulo null sets.

Every carrier in :mod:`repro.algebra` implements :class:`BooleanAlgebra`.
Carriers are deliberately *instrumented*: each structural operation bumps
a counter on :class:`OpCounter`, so benchmarks can report "number of exact
region operations" — the cost the paper's bounding-box approximation is
designed to avoid.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Generic, Iterable, Tuple, TypeVar

E = TypeVar("E")


@dataclass
class OpCounter:
    """Mutable operation counters attached to an algebra instance."""

    meet: int = 0
    join: int = 0
    complement: int = 0
    comparisons: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.meet = self.join = self.complement = self.comparisons = 0

    @property
    def total(self) -> int:
        """Total structural operations performed."""
        return self.meet + self.join + self.complement + self.comparisons

    def snapshot(self) -> dict:
        """Plain-dict copy, for benchmark reporting."""
        return {
            "meet": self.meet,
            "join": self.join,
            "complement": self.complement,
            "comparisons": self.comparisons,
            "total": self.total,
        }


class BooleanAlgebra(abc.ABC, Generic[E]):
    """Abstract Boolean algebra over elements of type ``E``.

    Subclasses provide ``top``, ``bot`` and the three structural
    operations; the comparison helpers (`le`, `eq`, `is_zero`,
    `disjoint`, `overlaps`) are derived but may be overridden with faster
    carrier-specific versions.
    """

    def __init__(self):
        self.ops = OpCounter()

    # -- required interface ------------------------------------------------------
    @property
    @abc.abstractmethod
    def top(self) -> E:
        """The unit element ``1`` (the whole space)."""

    @property
    @abc.abstractmethod
    def bot(self) -> E:
        """The zero element ``0`` (the empty region)."""

    @abc.abstractmethod
    def meet(self, a: E, b: E) -> E:
        """Greatest lower bound (intersection)."""

    @abc.abstractmethod
    def join(self, a: E, b: E) -> E:
        """Least upper bound (union)."""

    @abc.abstractmethod
    def complement(self, a: E) -> E:
        """The complement within the algebra's universe."""

    @abc.abstractmethod
    def is_zero(self, a: E) -> bool:
        """``True`` iff ``a`` is the zero element.

        Disequations ``g != 0`` — the paper's negative constraints — are
        decided by exactly this predicate.
        """

    # -- derived operations --------------------------------------------------------
    def diff(self, a: E, b: E) -> E:
        """Difference ``a & ~b``."""
        return self.meet(a, self.complement(b))

    def le(self, a: E, b: E) -> bool:
        """Containment ``a <= b``, i.e. ``a & ~b == 0``."""
        self.ops.comparisons += 1
        return self.is_zero(self.diff(a, b))

    def eq(self, a: E, b: E) -> bool:
        """Element equality as ``a <= b`` and ``b <= a``."""
        return self.le(a, b) and self.le(b, a)

    def lt(self, a: E, b: E) -> bool:
        """Strict containment."""
        return self.le(a, b) and not self.le(b, a)

    def meets(self, a: E, b: E) -> bool:
        """``a & b != 0``, billed as the one ``meet`` it stands for;
        carriers that can decide it without building the meet override."""
        return not self.is_zero(self.meet(a, b))

    def disjoint(self, a: E, b: E) -> bool:
        """``True`` iff ``a & b == 0``."""
        self.ops.comparisons += 1
        return not self.meets(a, b)

    def overlaps(self, a: E, b: E) -> bool:
        """``True`` iff ``a & b != 0`` — the spatial overlay predicate."""
        return not self.disjoint(a, b)

    def join_all(self, items: Iterable[E]) -> E:
        """Join of an iterable (``0`` for the empty iterable)."""
        acc = self.bot
        for item in items:
            acc = self.join(acc, item)
        return acc

    def meet_all(self, items: Iterable[E]) -> E:
        """Meet of an iterable (``1`` for the empty iterable)."""
        acc = self.top
        for item in items:
            acc = self.meet(acc, item)
        return acc

    # -- atomless interface ----------------------------------------------------------
    def is_atomless(self) -> bool:
        """Whether this carrier is atomless (Theorems 6-9 apply exactly).

        Carriers that can split every nonzero element override this to
        return ``True`` and implement :meth:`split`.
        """
        return False

    def split(self, a: E) -> Tuple[E, E]:
        """Split nonzero ``a`` into two disjoint nonzero parts.

        Only available on atomless carriers; this is the constructive
        content of atomlessness used by the Independence theorem's proof
        ("Since M is atomless we can find for every u_ij and v_ij a
        proper nonempty subset").
        """
        raise NotImplementedError(
            f"{type(self).__name__} is not atomless; cannot split"
        )

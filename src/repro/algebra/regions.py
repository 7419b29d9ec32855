"""The k-dimensional region algebra — the paper's spatial data model.

``RegionAlgebra(universe)`` is the Boolean algebra of finite unions of
half-open axis-parallel boxes inside a universe box.  Over real
coordinates this is a dense subalgebra of the measurable subsets of R^k
(the paper's atomless model: "the data model in spatial databases in
which regions are not arranged on a grid") that additionally has an
**exactly decidable** emptiness test, which is what the disequations
``g != 0`` require.

Elements are :class:`Region` values holding pairwise-disjoint boxes, so
``measure`` is a plain sum of volumes and ``is_empty`` is a length check.
The structural operations keep disjointness invariantly:

* intersection — pairwise box meets (disjointness is preserved);
* union — new boxes are added minus the existing ones
  (:func:`box_subtract` splinters a box into at most ``2k`` pieces);
* complement — successive subtraction from the universe box.

The minimal bounding box ``⌈r⌉`` (:meth:`Region.bounding_box`) is the
bridge into Section 4 of the paper.
"""

from __future__ import annotations

from operator import le, lt
from typing import Iterable, List, Optional, Sequence, Tuple

from ..boxes.box import Box, enclose_all
from ..errors import DimensionMismatchError, UniverseMismatchError
from .base import BooleanAlgebra


def box_subtract(a: Box, b: Box) -> List[Box]:
    """``a \\ b`` as a list of pairwise-disjoint boxes (at most ``2k``).

    Classic axis sweep: for each dimension, the parts of ``a`` hanging
    below/above ``b`` in that dimension are split off, and the remaining
    core is narrowed; anything left at the end is ``a ∩ b`` and is
    discarded.  On coordinates alone: where the boxes overlap, ``b``'s
    edges are the intersection's wherever ``a`` reaches past them.
    """
    if a._empty:
        return []
    alo, ahi, blo, bhi = a.lo, a.hi, b.lo, b.hi
    if len(alo) != len(blo):
        a._require_compatible(b)
    if b._empty or not (all(map(lt, blo, ahi)) and all(map(lt, alo, bhi))):
        return [a]
    # Every piece keeps a nonempty core in the other dimensions and a
    # nonempty side in the split one, so none needs re-validation.
    out: List[Box] = []
    lo = list(alo)
    hi = list(ahi)
    for d, (low, high) in enumerate(zip(blo, bhi)):
        if lo[d] < low:
            piece_hi = hi.copy()
            piece_hi[d] = low
            out.append(Box._trusted(tuple(lo), tuple(piece_hi), False))
            lo[d] = low
        if high < hi[d]:
            piece_lo = lo.copy()
            piece_lo[d] = high
            out.append(Box._trusted(tuple(piece_lo), tuple(hi), False))
            hi[d] = high
    return out


def _cut(box: Box, cuts: Sequence[Box]) -> List[Box]:
    """The disjoint pieces of ``box`` that no box of ``cuts`` covers."""
    pieces = [box]
    for cut in cuts:
        pieces = [p for piece in pieces for p in box_subtract(piece, cut)]
        if not pieces:
            break
    return pieces


class Region:
    """A finite union of pairwise-disjoint half-open boxes.

    Immutable value object.  Use :meth:`from_boxes` (or the algebra's
    helpers) to construct from arbitrary, possibly overlapping boxes.
    Set-equality of regions is decided exactly via double difference.
    """

    __slots__ = ("boxes",)

    def __init__(self, disjoint_boxes: Iterable[Box] = ()):
        cleaned = tuple(b for b in disjoint_boxes if not b.is_empty())
        dims = {b.dim for b in cleaned}
        if len(dims) > 1:
            raise DimensionMismatchError(
                f"boxes of mixed dimensions: {sorted(dims)}"
            )
        object.__setattr__(self, "boxes", cleaned)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Region is immutable")

    @classmethod
    def _trusted(cls, boxes: Tuple[Box, ...]) -> "Region":
        """Construct from known-disjoint, known-nonempty, same-dimension
        boxes (the snapshot load path); skips the constructor's filter
        and mixed-dimension check."""
        region = cls.__new__(cls)
        object.__setattr__(region, "boxes", boxes)
        return region

    @staticmethod
    def from_boxes(boxes: Iterable[Box]) -> "Region":
        """Build a region from arbitrary (overlapping) boxes."""
        disjoint: List[Box] = []
        for b in boxes:
            disjoint.extend(_cut(b, disjoint))
        return Region(disjoint)

    @staticmethod
    def from_box(box: Box) -> "Region":
        """A single-box region."""
        return Region([box] if not box.is_empty() else [])

    @staticmethod
    def empty() -> "Region":
        """The empty region."""
        return Region(())

    # -- queries ------------------------------------------------------------------
    def is_empty(self) -> bool:
        """Exact emptiness."""
        return not self.boxes

    @property
    def dim(self) -> Optional[int]:
        """Dimension, or ``None`` for the (polymorphic) empty region."""
        return self.boxes[0].dim if self.boxes else None

    def measure(self) -> float:
        """Lebesgue measure (sum of disjoint box volumes)."""
        return sum(b.volume() for b in self.boxes)

    def bounding_box(self) -> Box:
        """``⌈self⌉`` — the minimal surrounding bounding box (Section 4)."""
        boxes = self.boxes
        return boxes[0] if len(boxes) == 1 else enclose_all(boxes)

    def contains_point(self, point: Sequence[float]) -> bool:
        """Half-open point membership."""
        return any(b.contains_point(point) for b in self.boxes)

    def __bool__(self) -> bool:
        return not self.is_empty()

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"Region({len(self.boxes)} boxes, measure={self.measure():g})"

    def __eq__(self, other) -> bool:
        """Exact set equality (mutual containment via subtraction)."""
        if not isinstance(other, Region):
            return NotImplemented
        return _difference(self, other).is_empty() and _difference(
            other, self
        ).is_empty()

    def __hash__(self):  # Region equality is semantic; hashing is unsafe.
        raise TypeError("Region is unhashable; use id-keyed containers")

    def translate(self, offset: Sequence[float]) -> "Region":
        """Shift the whole region by an offset vector."""
        return Region(tuple(b.translate(offset) for b in self.boxes))


def _difference(a: Region, b: Region) -> Region:
    return Region._trusted(tuple(p for box in a.boxes for p in _cut(box, b.boxes)))


class RegionAlgebra(BooleanAlgebra[Region]):
    """Box-union regions within a universe box — atomless and exact.

    The carrier for the paper's headline results: ``proj`` is exact here
    (Theorem 8), every ``⌈·⌉`` is computable, and emptiness is decidable.
    """

    def __init__(self, universe: Box):
        super().__init__()
        if universe.is_empty():
            raise ValueError("universe box must be non-empty")
        self._universe = universe
        self._top = Region((universe,))

    @property
    def universe_box(self) -> Box:
        """The universe box (top's single box)."""
        return self._universe

    @property
    def top(self) -> Region:
        return self._top

    @property
    def bot(self) -> Region:
        return Region(())

    def _check(self, a: Region) -> None:
        for b in a.boxes:
            self._check_box(b)

    def _check_box(self, b: Box) -> None:
        if not b.le(self._universe):
            raise UniverseMismatchError(
                f"box {b!r} exceeds universe {self._universe!r}"
            )

    def meet(self, a: Region, b: Region) -> Region:
        self.ops.meet += 1
        out: List[Box] = []
        if a.boxes and b.boxes and len(a.boxes[0].lo) != len(b.boxes[0].lo):
            a.boxes[0]._require_compatible(b.boxes[0])
        # Nonempty boxes of one dimension overlap iff each starts before
        # the other ends; only a pair that does gets a box.
        for ba in a.boxes:
            alo, ahi = ba.lo, ba.hi
            for bb in b.boxes:
                blo, bhi = bb.lo, bb.hi
                if all(map(lt, blo, ahi)) and all(map(lt, alo, bhi)):
                    lo, hi = tuple(map(max, alo, blo)), tuple(map(min, ahi, bhi))
                    out.append(Box._trusted(lo, hi, False))
        return Region._trusted(tuple(out))

    def join(self, a: Region, b: Region) -> Region:
        self.ops.join += 1
        pieces: List[Box] = list(a.boxes)
        for new in b.boxes:
            pieces.extend(_cut(new, a.boxes))
        # Cutting b's boxes by a's raised on a dimension mismatch.
        return Region._trusted(tuple(pieces))

    def complement(self, a: Region) -> Region:
        self.ops.complement += 1
        self._check(a)
        return _difference(self._top, a)

    def diff(self, a: Region, b: Region) -> Region:
        """Difference without materialising the complement."""
        self.ops.meet += 1
        return _difference(a, b)

    def is_zero(self, a: Region) -> bool:
        return a.is_empty()

    def le(self, a: Region, b: Region) -> bool:
        """``a ⊆ b`` decided on the box tuples, billed like the generic
        ``is_zero(diff(a, b))``: nothing is cut unless ``b`` has several
        boxes (one box covers a union iff it covers every member), and
        then ``a`` is cut box by box up to the first box with a piece
        left."""
        self.ops.comparisons += 1
        self.ops.meet += 1
        if not a.boxes:
            return True
        if len(b.boxes) == 1:
            cover = b.boxes[0]
            for box in a.boxes:
                if not box.le(cover):
                    return False
            return True
        return not any(_cut(box, b.boxes) for box in a.boxes)

    def meets(self, a: Region, b: Region) -> bool:
        """``a ∧ b ≠ 0`` by pairwise box overlap, stopping at the first
        common point; billed as the one ``meet`` it stands for."""
        self.ops.meet += 1
        for ba in a.boxes:
            for bb in b.boxes:
                if ba.overlaps(bb):
                    return True
        return False

    # -- one-box operands (BoundConstraint.select) ----------------------------------------
    # ``le``/``meets``/``complement`` with one operand the region of one nonempty
    # ``box`` of this dimension: decided on coordinates, nothing built, billed alike.

    def covers_box(self, a: Region, box: Box) -> bool:
        """``le(a, Region((box,)))``: every box of ``a`` inside ``box``."""
        self.ops.comparisons += 1
        self.ops.meet += 1
        lo, hi = box.lo, box.hi
        for b in a.boxes:  # lo ≤ b.lo and b.hi ≤ hi
            if not all(map(le, lo + b.hi, b.lo + hi)):
                return False
        return True

    def box_le(self, box: Box, b: Region) -> bool:
        """``le(Region((box,)), b)``."""
        self.ops.comparisons += 1
        self.ops.meet += 1
        if len(b.boxes) != 1:
            return not _cut(box, b.boxes)
        cover = b.boxes[0]  # cover.lo ≤ box.lo and box.hi ≤ cover.hi
        return all(map(le, cover.lo + box.hi, box.lo + cover.hi))

    def box_meets(self, box: Box, b: Region) -> bool:
        """``meets(Region((box,)), b)``."""
        self.ops.meet += 1
        lo, hi = box.lo, box.hi
        for c in b.boxes:  # each starts before the other ends
            if all(map(lt, c.lo + lo, hi + c.hi)):
                return True
        return False

    def box_complement(self, box: Box) -> Box:
        """``complement(Region((box,)))`` unbuilt: ``box``, for :meth:`outside_meets`."""
        self.ops.complement += 1
        self._check_box(box)
        return box

    def outside_meets(self, box: Box, b: Region) -> bool:
        """``meets(complement(Region((box,))), b)``: some box of ``b ∧ U`` is not in ``box``."""
        self.ops.meet += 1
        lo, hi = box.lo, box.hi
        ulo, uhi = self._universe.lo, self._universe.hi
        for c in b.boxes:
            cut_lo, cut_hi = tuple(map(max, c.lo, ulo)), tuple(map(min, c.hi, uhi))
            if all(map(lt, cut_lo, cut_hi)) and not all(map(le, lo + cut_hi, cut_lo + hi)):
                return True
        return False

    def eq(self, a: Region, b: Region) -> bool:
        self.ops.comparisons += 1
        return a == b

    # -- atomless interface -----------------------------------------------------------
    def is_atomless(self) -> bool:
        return True

    def split(self, a: Region) -> Tuple[Region, Region]:
        """Split a nonzero region into two disjoint nonzero parts.

        The first box is bisected along its widest dimension — the
        constructive atomlessness used by the Independence theorem.
        """
        if a.is_empty():
            raise ValueError("cannot split the zero element")
        first = a.boxes[0]
        sides = first.sides()
        d = sides.index(max(sides))
        mid = (first.lo[d] + first.hi[d]) / 2
        if not first.lo[d] < mid < first.hi[d]:  # pragma: no cover
            raise ArithmeticError("float underflow while splitting region")
        lo_hi = list(first.hi)
        lo_hi[d] = mid
        hi_lo = list(first.lo)
        hi_lo[d] = mid
        part1 = Region((Box(first.lo, lo_hi),))
        part2 = Region((Box(hi_lo, first.hi),) + a.boxes[1:])
        return part1, part2

    # -- convenience --------------------------------------------------------------------
    def region(self, *interval_lists: Sequence[Tuple[float, float]]) -> Region:
        """Build a region from per-box interval lists.

        ``alg.region([(0,1),(0,1)], [(2,3),(2,3)])`` is the union of two
        unit squares.
        """
        return Region.from_boxes(
            [Box.from_intervals(*ivs) for ivs in interval_lists]
        )

    def box_region(self, box: Box) -> Region:
        """A single-box region, checked against the universe."""
        out = Region.from_box(box.meet(self._universe))
        return out

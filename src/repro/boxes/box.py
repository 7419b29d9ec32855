"""Axis-parallel bounding boxes (Section 4 of the paper).

A *bounding box* is "a rectangular region with sides parallel to the
axes"; for a set ``r``, ``⌈r⌉`` denotes the minimal surrounding bounding
box.  Boxes form a lattice under

* ``⊓`` (:meth:`Box.meet`) — ordinary intersection, and
* ``⊔`` (:meth:`Box.enclose`) — the minimal enclosing box of the union
  (the paper stresses that ``⊔`` is *not* set union),

ordered by containment ``⊑`` (:meth:`Box.contains`/`le`).  The lattice is
complete once the empty box is adjoined as bottom; the top is unbounded
(or the universe box of the data set).

Boxes here are **half-open**: ``[lo_d, hi_d)`` per dimension, matching the
region algebra so that ``⌈·⌉`` is exact.  The empty box is a distinguished
singleton :data:`EMPTY_BOX` (dimension-polymorphic).

The box↔point mapping used by Figure 3 — representing rectangles of X^k
as points of X^2k so that combined containment/overlap constraints become
a single orthogonal range query — is :meth:`Box.to_point` /
:meth:`Box.from_point`.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import DimensionMismatchError


class Box:
    """A k-dimensional half-open axis-parallel box, possibly empty.

    ``Box(lo, hi)`` with ``lo``/``hi`` coordinate sequences; a box with
    ``lo_d >= hi_d`` in any dimension normalises to the empty box.  Boxes
    are immutable and hashable.
    """

    __slots__ = ("lo", "hi", "_empty")

    def __init__(self, lo: Sequence[float], hi: Sequence[float]):
        lo_t = tuple(float(v) for v in lo)
        hi_t = tuple(float(v) for v in hi)
        if len(lo_t) != len(hi_t):
            raise DimensionMismatchError(
                f"lo has {len(lo_t)} dims but hi has {len(hi_t)}"
            )
        # A zero-dimensional box is treated as empty for uniformity.
        empty = not lo_t or any(a >= b for a, b in zip(lo_t, hi_t))
        object.__setattr__(self, "lo", lo_t)
        object.__setattr__(self, "hi", hi_t)
        object.__setattr__(self, "_empty", empty)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Box is immutable")

    @classmethod
    def _trusted(
        cls,
        lo: Tuple[float, ...],
        hi: Tuple[float, ...],
        empty: Optional[bool] = None,
    ) -> "Box":
        """Construct from known-good equal-length float tuples.

        The snapshot load path materializes tens of thousands of boxes
        whose coordinates were dumped from live ``Box`` objects;
        skipping the per-coordinate conversion and the dimension check
        there is a measurable share of ``Database.open``.  Pass
        ``empty=False`` when the caller also knows the box is nonempty
        (e.g. it came out of a :class:`Region`, whose boxes always are).
        """
        box = cls.__new__(cls)
        object.__setattr__(box, "lo", lo)
        object.__setattr__(box, "hi", hi)
        if empty is None:
            empty = not lo or any(map(operator.ge, lo, hi))
        object.__setattr__(box, "_empty", empty)
        return box

    # -- identity ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, Box):
            return NotImplemented
        if self.is_empty() and other.is_empty():
            return True
        return (
            not self.is_empty()
            and not other.is_empty()
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self) -> int:
        if self.is_empty():
            return hash("Box.empty")
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        if self.is_empty():
            return "Box.empty"
        dims = ", ".join(f"[{a},{b})" for a, b in zip(self.lo, self.hi))
        return f"Box({dims})"

    # -- basic queries ----------------------------------------------------------------
    def is_empty(self) -> bool:
        """``True`` for the empty box."""
        return self._empty

    @property
    def dim(self) -> int:
        """Number of dimensions (0 for the polymorphic empty box)."""
        return len(self.lo)

    def volume(self) -> float:
        """Product of side lengths (0.0 when empty)."""
        if self.is_empty():
            return 0.0
        v = 1.0
        for a, b in zip(self.lo, self.hi):
            v *= b - a
        return v

    def sides(self) -> Tuple[float, ...]:
        """Side lengths per dimension."""
        if self.is_empty():
            return ()
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    def center(self) -> Tuple[float, ...]:
        """Center point (undefined — raises — for the empty box)."""
        if self.is_empty():
            raise ValueError("the empty box has no center")
        return tuple((a + b) / 2 for a, b in zip(self.lo, self.hi))

    def contains_point(self, point: Sequence[float]) -> bool:
        """Half-open membership test for a point."""
        if self.is_empty():
            return False
        if len(point) != self.dim:
            raise DimensionMismatchError("point/box dimension mismatch")
        return all(a <= p < b for p, a, b in zip(point, self.lo, self.hi))

    def _require_compatible(self, other: "Box") -> None:
        if (
            not self.is_empty()
            and not other.is_empty()
            and self.dim != other.dim
        ):
            raise DimensionMismatchError(
                f"{self.dim}-dim box combined with {other.dim}-dim box"
            )

    # -- the lattice (Section 4) ---------------------------------------------------------
    def meet(self, other: "Box") -> "Box":
        """``⊓`` — box intersection (equal to set intersection)."""
        if self._empty or other._empty:
            return EMPTY_BOX
        if len(self.lo) != len(other.lo):
            self._require_compatible(other)
        lo, hi = tuple(map(max, self.lo, other.lo)), tuple(map(min, self.hi, other.hi))
        return Box._trusted(lo, hi)  # floats already: only emptiness is open

    def enclose(self, other: "Box") -> "Box":
        """``⊔`` — minimal enclosing box of the union (not set union)."""
        self._require_compatible(other)
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        lo = tuple(min(a, c) for a, c in zip(self.lo, other.lo))
        hi = tuple(max(b, d) for b, d in zip(self.hi, other.hi))
        return Box._trusted(lo, hi, False)

    def le(self, other: "Box") -> bool:
        """``⊑`` — containment order of the bounding-box lattice."""
        if self._empty:
            return True
        if other._empty:
            return False
        if len(self.lo) != len(other.lo):
            self._require_compatible(other)
        for a, c in zip(self.lo, other.lo):
            if a < c:
                return False
        for b, d in zip(self.hi, other.hi):
            if b > d:
                return False
        return True

    def contains(self, other: "Box") -> bool:
        """``other ⊑ self``."""
        return other.le(self)

    def overlaps(self, other: "Box") -> bool:
        """``self ⊓ other != empty`` — the overlay predicate, decided on
        the coordinates: half-open sides share a point iff each starts
        before the other ends (no meet box is built)."""
        if self._empty or other._empty:
            return False
        if len(self.lo) != len(other.lo):
            self._require_compatible(other)
        for a, d in zip(self.lo, other.hi):
            if a >= d:
                return False
        for b, c in zip(self.hi, other.lo):
            if c >= b:
                return False
        return True

    # -- distance metrics (nearest-neighbor search) -----------------------------------------
    def mindist_point(self, point: Sequence[float]) -> float:
        """MINDIST: Euclidean distance from a point to the box.

        0.0 when the point lies inside (or on the boundary of) the box;
        ``inf`` for the empty box, which is at no finite distance from
        anything.  This is the classic optimistic bound of R-tree
        nearest-neighbor search (Roussopoulos et al.): no object inside
        the box can be closer than ``mindist``.
        """
        if self.is_empty():
            return float("inf")
        if len(point) != self.dim:
            raise DimensionMismatchError("point/box dimension mismatch")
        # d * d and math.sqrt, not ** — libm pow is off by one ulp from
        # the correctly-rounded multiply/sqrt the array kernels use, and
        # the backends must produce identical doubles (ties included).
        acc = 0.0
        for p, a, b in zip(point, self.lo, self.hi):
            if p < a:
                d = a - p
                acc += d * d
            elif p > b:
                d = p - b
                acc += d * d
        return math.sqrt(acc)

    def maxdist_point(self, point: Sequence[float]) -> float:
        """Distance from a point to the farthest corner of the box
        (``inf`` for the empty box)."""
        if self.is_empty():
            return float("inf")
        if len(point) != self.dim:
            raise DimensionMismatchError("point/box dimension mismatch")
        acc = 0.0
        for p, a, b in zip(point, self.lo, self.hi):
            d = max(abs(p - a), abs(p - b))
            acc += d * d
        return math.sqrt(acc)

    def minmaxdist_point(self, point: Sequence[float]) -> float:
        """MINMAXDIST (Roussopoulos et al.): a pessimistic bound for NN
        search over a *minimal* bounding box.

        Every face of an R-tree MBR touches at least one stored object,
        so some object lies within ``minmaxdist`` of the point: along
        one dimension go to the nearer face, along all others to the
        farther one, and take the best choice of dimension.  Subtrees
        whose ``mindist`` exceeds another subtree's ``minmaxdist``
        cannot hold the nearest object.  ``inf`` for the empty box.
        """
        if self.is_empty():
            return float("inf")
        if len(point) != self.dim:
            raise DimensionMismatchError("point/box dimension mismatch")
        return minmaxdist_edges(point, self.lo, self.hi)

    def mindist(self, other: "Box") -> float:
        """MINDIST between two boxes: the smallest distance between any
        pair of their points (0.0 when they overlap or touch; ``inf``
        when either is empty).

        As ``other`` shrinks to a point (``Box.point_box(p, eps)`` for
        small ``eps``) this converges to :meth:`mindist_point` — the
        metric the distance join and the box-anchored kNN probes share.
        (A zero-``eps`` point box is *empty* under half-open semantics,
        hence infinitely far like any empty box.)
        """
        self._require_compatible(other)
        if self.is_empty() or other.is_empty():
            return float("inf")
        acc = 0.0
        for a, b, c, d in zip(self.lo, self.hi, other.lo, other.hi):
            if c > b:
                gap = c - b
                acc += gap * gap
            elif a > d:
                gap = a - d
                acc += gap * gap
        return math.sqrt(acc)

    # -- operators -------------------------------------------------------------------------
    def __and__(self, other: "Box") -> "Box":
        return self.meet(other)

    def __or__(self, other: "Box") -> "Box":
        return self.enclose(other)

    def __le__(self, other: "Box") -> bool:
        return self.le(other)

    # -- the Figure 3 mapping -----------------------------------------------------------------
    def to_point(self) -> Tuple[float, ...]:
        """The 2k-dim point ``(lo_1..lo_k, hi_1..hi_k)`` representing the box.

        The paper (after [12]): "This is done by representing rectangles
        in a X^k as points in space X^2k and performing a range query on
        X^2k."  Only defined for non-empty boxes.
        """
        if self.is_empty():
            raise ValueError("the empty box has no point representation")
        return self.lo + self.hi

    @staticmethod
    def from_point(point: Sequence[float]) -> "Box":
        """Inverse of :meth:`to_point`."""
        if len(point) % 2:
            raise DimensionMismatchError("point must have even length")
        k = len(point) // 2
        return Box(tuple(point[:k]), tuple(point[k:]))

    # -- construction helpers ---------------------------------------------------------------
    @staticmethod
    def from_intervals(*intervals: Tuple[float, float]) -> "Box":
        """``Box.from_intervals((0, 2), (1, 3))`` — one pair per dimension."""
        if not intervals:
            return EMPTY_BOX
        lo, hi = zip(*intervals)
        return Box(lo, hi)

    @staticmethod
    def point_box(point: Sequence[float], eps: float = 0.0) -> "Box":
        """A degenerate (or ``eps``-inflated) box around a point."""
        return Box(
            tuple(p - eps for p in point), tuple(p + eps for p in point)
        )

    def inflate(self, amount: float) -> "Box":
        """Grow (or shrink, for negative ``amount``) every side."""
        if self.is_empty():
            return EMPTY_BOX
        return Box(
            tuple(a - amount for a in self.lo),
            tuple(b + amount for b in self.hi),
        )

    def translate(self, offset: Sequence[float]) -> "Box":
        """Shift by an offset vector."""
        if self.is_empty():
            return EMPTY_BOX
        if len(offset) != self.dim:
            raise DimensionMismatchError("offset/box dimension mismatch")
        return Box(
            tuple(a + o for a, o in zip(self.lo, offset)),
            tuple(b + o for b, o in zip(self.hi, offset)),
        )


#: The polymorphic empty box (bottom of the lattice in every dimension).
EMPTY_BOX = Box((), ())


def minmaxdist_edges(
    point: Sequence[float], lo: Sequence[float], hi: Sequence[float]
) -> float:
    """:meth:`Box.minmaxdist_point` of the nonempty box ``[lo, hi)`` of
    the point's dimension, given as its edges (an R-tree reads them off
    its columns)."""
    near_sq = []
    far_sq = []
    for p, a, b in zip(point, lo, hi):
        mid = (a + b) / 2
        near = a if p <= mid else b
        far = a if p >= mid else b
        near_sq.append((p - near) * (p - near))
        far_sq.append((p - far) * (p - far))
    total_far = sum(far_sq)
    best = min(
        total_far - f + n for n, f in zip(near_sq, far_sq)
    )
    return math.sqrt(best)


def enclose_all(boxes: Iterable[Box]) -> Box:
    """``⊔`` over an iterable (empty box for an empty iterable).

    One pass: per dimension, the ``min`` of the nonempty boxes' ``lo``
    and the ``max`` of their ``hi``, and one box built at the end — the
    coordinates a fold of :meth:`Box.enclose` arrives at (``min``/``max``
    keep the first of equals, as the fold does, so ``-0.0``/``0.0``
    come out the same) without a box per step.  Up to two nonempty
    boxes are the fold itself: one is returned as it is (and, of nothing
    but empty boxes, the last).
    """
    if not isinstance(boxes, (list, tuple)):
        boxes = list(boxes)
    live = [b for b in boxes if not b._empty]
    if len(live) < 3:
        if len(live) == 2:
            return live[0].enclose(live[1])
        return live[0] if live else boxes[-1] if boxes else EMPTY_BOX
    los = [b.lo for b in live]
    if len(set(map(len, los))) > 1:
        odd = next(b for b in live if len(b.lo) != len(los[0]))
        live[0]._require_compatible(odd)  # raises, naming both dimensions
    his = [b.hi for b in live]
    return Box._trusted(
        tuple(map(min, zip(*los))), tuple(map(max, zip(*his))), False
    )


def box_to_jsonable(box: Box) -> List[List[float]]:
    """``[lo, hi]`` coordinate lists for JSON serialization.

    Coordinates are dumped verbatim (an empty box keeps whatever lo/hi
    it was built with), so a dump → load → dump cycle is stable.
    """
    return [list(box.lo), list(box.hi)]


def box_from_jsonable(data: Sequence[Sequence[float]]) -> Box:
    """Inverse of :func:`box_to_jsonable`."""
    return Box(tuple(data[0]), tuple(data[1]))

"""Figure 3: one orthogonal range query per retrieval step.

The paper (Section 4, after [12]) reduces any conjunction of the three
bounding-box constraint forms on an unknown box ``⌈x⌉`` to a SINGLE
orthogonal range query, by representing each box ``[lo_1,hi_1) × … ×
[lo_k,hi_k)`` as the point ``(lo_1..lo_k, hi_1..hi_k)`` in ``X^2k``:

* ``⌈x⌉ ⊑ a``      ⇔  ``lo_d ≥ a.lo_d`` and ``hi_d ≤ a.hi_d``  per d;
* ``b ⊑ ⌈x⌉``      ⇔  ``lo_d ≤ b.lo_d`` and ``hi_d ≥ b.hi_d``  per d;
* ``⌈x⌉ ⊓ c ≠ ∅``  ⇔  ``lo_d < c.hi_d`` and ``hi_d > c.lo_d``  per d
  (open bounds because boxes are half-open).

Each is a per-coordinate interval constraint on the 2k-dim point, so
their conjunction is one axis-parallel rectangle in ``X^2k`` —
:func:`compile_range` computes it (with an epsilon fringe translating the
open bounds into the closed ranges indexes support).

Figure 3 itself is the 1-dimensional picture: the set of intervals
``{x : a ⊑ ⌈x⌉ ⊑ b, ⌈x⌉ ⊓ c ≠ ∅}`` drawn as a shaded rectangle in the
(start, end) plane; :func:`figure3_rectangle` reproduces the figure's
data for the docs and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from ..boxes.bconstraints import BoxQuery
from ..boxes.box import Box


#: Tolerance converting strict inequalities to closed index ranges.
#: Coordinates in the library are floats; OPEN_EPS must be below the
#: smallest coordinate distinction in the data set.
OPEN_EPS = 1e-9

_INF = float("inf")


@dataclass(frozen=True)
class PointRange:
    """A closed orthogonal range in ``X^{2k}`` (the Figure 3 rectangle)."""

    lo: Tuple[float, ...]
    hi: Tuple[float, ...]

    @property
    def dim(self) -> int:
        return len(self.lo)

    def is_empty(self) -> bool:
        """``True`` when no point can satisfy the range."""
        return any(a > b for a, b in zip(self.lo, self.hi))

    def contains(self, point: Sequence[float]) -> bool:
        """Closed-range membership."""
        return all(
            a <= p <= b for p, a, b in zip(point, self.lo, self.hi)
        )

    def clip_finite(self, universe: Box) -> "PointRange":
        """Replace infinities using a universe box (for finite indexes)."""
        k = universe.dim
        lo = list(self.lo)
        hi = list(self.hi)
        for d in range(k):
            lo[d] = max(lo[d], universe.lo[d] - 1.0)
            lo[k + d] = max(lo[k + d], universe.lo[d] - 1.0)
            hi[d] = min(hi[d], universe.hi[d] + 1.0)
            hi[k + d] = min(hi[k + d], universe.hi[d] + 1.0)
        return PointRange(tuple(lo), tuple(hi))


def compile_range(query: BoxQuery, k: int, eps: float = OPEN_EPS) -> PointRange:
    """Compile a :class:`BoxQuery` into ONE 2k-dimensional point range.

    This is the paper's headline reduction: however many constraints of
    the three forms the step accumulated, the index answers them with a
    single orthogonal range query.
    """
    lo = [-_INF] * (2 * k)
    hi = [_INF] * (2 * k)

    def tighten_lo(i: int, v: float) -> None:
        if v > lo[i]:
            lo[i] = v

    def tighten_hi(i: int, v: float) -> None:
        if v < hi[i]:
            hi[i] = v

    if query.inside is not None and not query.inside.is_empty():
        a = query.inside
        for d in range(k):
            tighten_lo(d, a.lo[d])  # lo_d >= a.lo_d
            tighten_hi(k + d, a.hi[d])  # hi_d <= a.hi_d
    elif query.inside is not None and query.inside.is_empty():
        return PointRange(tuple([1.0] * 2 * k), tuple([0.0] * 2 * k))

    if query.covers is not None and not query.covers.is_empty():
        b = query.covers
        for d in range(k):
            tighten_hi(d, b.lo[d])  # lo_d <= b.lo_d
            tighten_lo(k + d, b.hi[d])  # hi_d >= b.hi_d

    for c in query.overlap:
        if c.is_empty():
            return PointRange(tuple([1.0] * 2 * k), tuple([0.0] * 2 * k))
        for d in range(k):
            tighten_hi(d, c.hi[d] - eps)  # lo_d <  c.hi_d
            tighten_lo(k + d, c.lo[d] + eps)  # hi_d >  c.lo_d

    return PointRange(tuple(lo), tuple(hi))


# paper: Figure 3
def matches_via_point(query: BoxQuery, box: Box, eps: float = OPEN_EPS) -> bool:
    """Evaluate a BoxQuery through the point mapping (test oracle)."""
    if box.is_empty():
        return False
    pr = compile_range(query, box.dim, eps)
    return pr.contains(box.to_point())


def figure3_rectangle(
    a: Tuple[float, float],
    b: Tuple[float, float],
    c: Tuple[float, float],
    eps: float = OPEN_EPS,
) -> PointRange:
    """The shaded rectangle of the paper's Figure 3 (1-D case).

    Given intervals ``a ⊑ ⌈x⌉``, ``⌈x⌉ ⊑ b`` and ``⌈x⌉ ⊓ c ≠ ∅`` over the
    real line, return the rectangle in (start, end) space containing
    exactly the satisfying intervals.
    """
    query = BoxQuery(
        inside=Box((b[0],), (b[1],)),
        covers=Box((a[0],), (a[1],)),
        overlap=(Box((c[0],), (c[1],)),),
    )
    return compile_range(query, 1, eps)

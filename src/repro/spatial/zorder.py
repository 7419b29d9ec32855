"""Z-order (Morton) decomposition and the PROBE-style spatial join.

The paper's Section 1 compares against Orenstein & Manola's PROBE [10],
whose query language offers a binary *spatial join* (overlay) implemented
with z-order curves.  To run that comparison (benchmark E8) we implement
the essential machinery:

* a Morton code for grid cells with ``2^k`` branching per level;
* :func:`decompose` — cover a box by maximal z-order cells (each cell is
  one contiguous z-interval), down to a resolution limit;
* :class:`ZOrderIndex` — objects as sorted z-interval lists;
* :func:`zorder_join` — the sort-merge overlap join: two z-interval
  streams are swept in z-order, interval intersections produce candidate
  pairs, and an exact box test filters them.

Note the trade-off the paper points out: the z-order method natively
supports the binary *overlap* join, while the constraint compilation
supports arbitrary Boolean constraint systems; E8 measures the price on
the one query shape both can do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..boxes.box import Box
from ..errors import DimensionMismatchError


def interleave_batch(cells, bits: int):
    """Morton-interleave the rows of an ``(n, k)`` int64 array of
    ``bits``-bit cell coordinates.

    Callers must ensure ``k * bits <= 62`` (the int64 code width).
    """
    n, k = cells.shape
    out = np.zeros(n, dtype=np.int64)
    one = np.int64(1)
    for b in range(bits):
        for d in range(k):
            out |= ((cells[:, d] >> np.int64(b)) & one) << np.int64(
                b * k + d
            )
    return out


@dataclass(frozen=True)
class ZRange:
    """A contiguous z-code interval ``[lo, hi)`` tagged with its owner."""

    lo: int
    hi: int
    value: object = None

    def intersects(self, other: "ZRange") -> bool:
        return self.lo < other.hi and other.lo < self.hi


class ZGrid:
    """A fixed-resolution z-order grid over a universe box.

    ``levels`` quadtree levels (``2^levels`` cells per dimension); cells
    are addressed by Morton codes of ``k * levels`` bits.
    """

    def __init__(self, universe: Box, levels: int = 6):
        if universe.is_empty():
            raise ValueError("universe box must be non-empty")
        if not 1 <= levels <= 16:
            raise ValueError("levels must be in [1, 16]")
        self.universe = universe
        self.levels = levels
        self.k = universe.dim
        self._cells_per_dim = 1 << levels
        self._steps = tuple(
            (hi - lo) / self._cells_per_dim
            for lo, hi in zip(universe.lo, universe.hi)
        )

    def cell_count(self) -> int:
        """Total number of finest-level cells."""
        return self._cells_per_dim ** self.k

    def decompose(self, box: Box, max_ranges: Optional[int] = None) -> List[ZRange]:
        """Cover ``box ∩ universe`` with maximal z-order cell ranges.

        Recursive quadtree descent: a cell fully inside the box (or at
        the finest level) is emitted as one contiguous z-interval;
        adjacent intervals are coalesced.  ``max_ranges`` optionally caps
        the list by coarsening (emitting partially-covered cells whole),
        trading precision for size as PROBE does.
        """
        if box.is_empty():
            return []
        target = box.meet(self.universe)
        if target.is_empty():
            return []
        out: List[ZRange] = []

        def recurse(cell_lo: Tuple[int, ...], level: int, z_lo: int) -> None:
            size = 1 << (self.levels - level)
            cell_box = Box(
                tuple(
                    self.universe.lo[d] + cell_lo[d] * self._steps[d]
                    for d in range(self.k)
                ),
                tuple(
                    self.universe.lo[d]
                    + (cell_lo[d] + size) * self._steps[d]
                    for d in range(self.k)
                ),
            )
            inter = cell_box.meet(target)
            if inter.is_empty():
                return
            z_width = 1 << (self.k * (self.levels - level))
            if cell_box.le(target) or level == self.levels:
                out.append(ZRange(z_lo, z_lo + z_width))
                return
            if max_ranges is not None and len(out) >= max_ranges:
                out.append(ZRange(z_lo, z_lo + z_width))  # coarsen
                return
            child_width = z_width >> self.k
            half = size >> 1
            for child in range(1 << self.k):
                child_lo = tuple(
                    cell_lo[d] + (half if (child >> d) & 1 else 0)
                    for d in range(self.k)
                )
                recurse(child_lo, level + 1, z_lo + child * child_width)

        recurse(tuple([0] * self.k), 0, 0)
        out.sort(key=lambda r: r.lo)
        merged: List[ZRange] = []
        for r in out:
            if merged and merged[-1].hi == r.lo:
                merged[-1] = ZRange(merged[-1].lo, r.hi)
            else:
                merged.append(r)
        return merged


class ZOrderIndex:
    """Objects stored as z-interval lists, merged into one sorted stream."""

    def __init__(self, grid: ZGrid, max_ranges_per_object: int = 32):
        self.grid = grid
        self.max_ranges = max_ranges_per_object
        self._ranges: List[ZRange] = []
        self._boxes: Dict[object, Box] = {}
        self._sorted = True

    def insert(self, box: Box, value) -> None:
        """Insert an object by its bounding box."""
        if not box.is_empty() and box.dim != self.grid.k:
            raise DimensionMismatchError("box/grid dimension mismatch")
        self._boxes[value] = box
        for r in self.grid.decompose(box, self.max_ranges):
            self._ranges.append(ZRange(r.lo, r.hi, value))
        self._sorted = False

    def insert_batch(self, items: Sequence[Tuple[Box, object]]) -> None:
        """Insert many objects; identical stream to sequential inserts.

        The *single-cell* fast path is vectorized: boxes
        whose universe clip fits inside one finest-level cell decompose
        to exactly one unit z-interval, so their cell indices and Morton
        codes compute in one batch (:func:`interleave_batch`) instead of
        one recursive :meth:`ZGrid.decompose` descent each.  The cell
        bounds are recomputed with the exact float expressions of the
        descent and verified per box — any box that fails (or spans
        cells, or overflows the int64 code width) falls back to the
        scalar path, so the resulting ranges are always bit-identical.
        """
        grid = self.grid
        single_z: Dict[int, int] = {}
        if len(items) > 1 and grid.k * grid.levels <= 62:
            cand = [
                (n, box)
                for n, (box, _v) in enumerate(items)
                if not box.is_empty() and box.dim == grid.k
            ]
            if cand:
                k = grid.k
                ulo, uhi = grid.universe.lo, grid.universe.hi
                steps = grid._steps
                cells = grid._cells_per_dim
                lo = np.array([b.lo for _n, b in cand], dtype=np.float64)
                hi = np.array([b.hi for _n, b in cand], dtype=np.float64)
                cl_lo = np.maximum(lo, ulo)
                cl_hi = np.minimum(hi, uhi)
                # ok: clip nonempty and contained in cell idx's exact
                # float bounds (the decompose recursion's authority).
                ok = np.all(cl_lo < cl_hi, axis=1)
                idx = np.zeros((len(cand), k), dtype=np.int64)
                for d in range(k):
                    i = ((cl_lo[:, d] - ulo[d]) / steps[d]).astype(
                        np.int64
                    )
                    np.clip(i, 0, cells - 1, out=i)
                    idx[:, d] = i
                    cell_lo = ulo[d] + i * steps[d]
                    cell_hi = ulo[d] + (i + 1) * steps[d]
                    ok &= cell_lo <= cl_lo[:, d]
                    ok &= cl_hi[:, d] <= cell_hi
                codes = interleave_batch(idx, grid.levels)
                for pos, (n, _b) in enumerate(cand):
                    if ok[pos]:
                        single_z[n] = int(codes[pos])
        for n, (box, value) in enumerate(items):
            z = single_z.get(n)
            if z is None:
                self.insert(box, value)
            else:
                self._boxes[value] = box
                self._ranges.append(ZRange(z, z + 1, value))
                self._sorted = False

    def ranges(self) -> List[ZRange]:
        """The sorted z-interval stream."""
        if not self._sorted:
            self._ranges.sort(key=lambda r: (r.lo, r.hi))
            self._sorted = True
        return self._ranges

    def box_of(self, value) -> Box:
        """The stored bounding box of an object."""
        return self._boxes[value]

    def __len__(self) -> int:
        return len(self._boxes)


def zorder_join(
    left: ZOrderIndex, right: ZOrderIndex, exact: bool = True
) -> Iterator[Tuple[object, object]]:
    """Overlap join by merging two sorted z-interval streams.

    Classic sweep: advance through both streams in z order keeping the
    intervals that may still intersect later ones; every left/right
    interval intersection yields a candidate pair, deduplicated and then
    (optionally) verified with the exact box-overlap test.

    Yields pairs ``(left_value, right_value)``.
    """
    lr = left.ranges()
    rr = right.ranges()
    i = j = 0
    active_left: List[ZRange] = []
    active_right: List[ZRange] = []
    emitted: Set[Tuple[int, int]] = set()

    def emit(a: ZRange, b: ZRange) -> Iterator[Tuple[object, object]]:
        key = (id(a.value), id(b.value))
        if key in emitted:
            return
        emitted.add(key)
        if exact:
            if not left.box_of(a.value).overlaps(right.box_of(b.value)):
                return
        yield a.value, b.value

    while i < len(lr) or j < len(rr):
        take_left = j >= len(rr) or (i < len(lr) and lr[i].lo <= rr[j].lo)
        if take_left:
            cur = lr[i]
            i += 1
            active_right = [r for r in active_right if r.hi > cur.lo]
            for r in active_right:
                yield from emit(cur, r)
            active_left.append(cur)
        else:
            cur = rr[j]
            j += 1
            active_left = [r for r in active_left if r.hi > cur.lo]
            for r in active_left:
                yield from emit(r, cur)
            active_right.append(cur)

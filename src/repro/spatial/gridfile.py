"""A grid file for k-dimensional points (paper reference [9]).

Nievergelt/Hinterberger/Sevcik's "adaptable, symmetric multikey file
structure": a directory of grid cells defined by per-dimension *scales*
(split coordinates), each directory cell pointing to a data bucket.  When
a bucket overflows, a scale is extended (splitting a stripe of cells) or
cells start sharing buckets.

This implementation keeps the classic behaviour needed for the paper's
use case — orthogonal range queries over the 2k-dimensional *point*
representation of bounding boxes (Figure 3) — while staying compact:

* splits cycle through dimensions, cutting at the median of the
  overflowing bucket's points (one bucket per directory cell; the
  original's bucket sharing is traded for the simpler full refinement,
  which only affects directory size, not query results);
* :meth:`range_search` visits only directory cells intersecting the query
  rectangle; probe counts are recorded in ``stats``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import product
from typing import Dict, Iterator, List, Sequence, Tuple

from ..errors import DimensionMismatchError

Point = Tuple[float, ...]


@dataclass
class GridStats:
    """Probe counters for benchmarks.

    ``skipped_splits`` counts overflows where no scale coordinate could
    separate the bucket's points (e.g. all-duplicate points): the bucket
    is left oversized — queries stay correct, but the counter makes the
    degenerate growth visible instead of silent.
    """

    bucket_reads: int = 0
    cell_visits: int = 0
    splits: int = 0
    skipped_splits: int = 0

    def reset(self) -> None:
        self.bucket_reads = self.cell_visits = 0
        self.splits = self.skipped_splits = 0


class _Bucket:
    __slots__ = ("items",)

    def __init__(self):
        self.items: List[Tuple[Point, object]] = []


class GridFile:
    """A grid file over ``dim``-dimensional points.

    Parameters
    ----------
    dim:
        Point dimensionality (``2k`` for boxes of ``X^k``).
    bucket_capacity:
        Maximum entries per bucket before a split is attempted.
    """

    def __init__(self, dim: int, bucket_capacity: int = 16):
        if dim < 1:
            raise ValueError("dim must be positive")
        if bucket_capacity < 2:
            raise ValueError("bucket_capacity must be at least 2")
        self.dim = dim
        self.bucket_capacity = bucket_capacity
        # scales[d] is the sorted list of split coordinates in dimension d;
        # cell index i_d addresses the interval between consecutive splits.
        self._scales: List[List[float]] = [[] for _ in range(dim)]
        self._directory: Dict[Tuple[int, ...], _Bucket] = {
            tuple([0] * dim): _Bucket()
        }
        self._size = 0
        self._next_split_dim = 0
        self.stats = GridStats()

    def __len__(self) -> int:
        return self._size

    # -- addressing -----------------------------------------------------------
    def _cell_of(self, point: Point) -> Tuple[int, ...]:
        return tuple(
            bisect.bisect_right(self._scales[d], point[d])
            for d in range(self.dim)
        )

    # -- updates ----------------------------------------------------------------
    def insert(self, point: Sequence[float], value) -> None:
        """Insert a point with an associated value."""
        p = tuple(float(c) for c in point)
        if len(p) != self.dim:
            raise DimensionMismatchError(
                f"point has {len(p)} dims, grid file has {self.dim}"
            )
        cell = self._cell_of(p)
        bucket = self._directory[cell]
        bucket.items.append((p, value))
        self._size += 1
        if len(bucket.items) > self.bucket_capacity:
            self._split_bucket(cell, bucket)

    def _split_bucket(self, cell: Tuple[int, ...], bucket: _Bucket) -> None:
        """Split an overflowing bucket by extending one scale.

        Tries each dimension (starting from the rotation pointer) until a
        split coordinate actually separates the bucket's points; gives up
        (allowing oversized buckets of duplicate points, recorded in
        ``stats.skipped_splits``) otherwise.
        """
        for attempt in range(self.dim):
            d = (self._next_split_dim + attempt) % self.dim
            coords = sorted(p[d] for p, _v in bucket.items)
            median = coords[len(coords) // 2]
            if median == coords[0]:
                # Degenerate in this dimension; try a cut above the low run.
                higher = [c for c in coords if c > median]
                if not higher:
                    continue
                median = higher[0]
            if median in self._scales[d]:
                continue
            self._next_split_dim = (d + 1) % self.dim
            self._extend_scale(d, median)
            self.stats.splits += 1
            return
        self.stats.skipped_splits += 1

    def _extend_scale(self, d: int, coordinate: float) -> None:
        """Insert a split coordinate, refining the directory.

        Every cell stripe at the split position is duplicated; buckets
        are shared by the two halves, except the overflowing ones which
        are redistributed.
        """
        pos = bisect.bisect_right(self._scales[d], coordinate)
        self._scales[d].insert(pos, coordinate)
        old_dir = self._directory
        new_dir: Dict[Tuple[int, ...], _Bucket] = {}
        for cell, bucket in old_dir.items():
            if cell[d] < pos:
                new_dir[cell] = bucket
            elif cell[d] > pos:
                shifted = cell[:d] + (cell[d] + 1,) + cell[d + 1 :]
                new_dir[shifted] = bucket
            else:
                # The split stripe: redistribute this bucket's points.
                low_cell = cell
                high_cell = cell[:d] + (cell[d] + 1,) + cell[d + 1 :]
                low = _Bucket()
                high = _Bucket()
                # Points with p[d] < coordinate go low; >= goes high,
                # mirroring _cell_of's bisect_right addressing.
                low.items = [(p, v) for p, v in bucket.items if p[d] < coordinate]
                high.items = [(p, v) for p, v in bucket.items if p[d] >= coordinate]
                new_dir[low_cell] = low
                new_dir[high_cell] = high
        self._directory = new_dir

    def delete(self, point: Sequence[float], value) -> bool:
        """Remove one matching entry; True if found."""
        p = tuple(float(c) for c in point)
        bucket = self._directory[self._cell_of(p)]
        for k, (q, v) in enumerate(bucket.items):
            if q == p and v == value:
                del bucket.items[k]
                self._size -= 1
                return True
        return False

    # -- queries ------------------------------------------------------------------
    def exact_search(self, point: Sequence[float]) -> Iterator[object]:
        """Values stored at exactly this point."""
        p = tuple(float(c) for c in point)
        bucket = self._directory[self._cell_of(p)]
        self.stats.bucket_reads += 1
        for q, v in bucket.items:
            if q == p:
                yield v

    def range_search(
        self,
        lo: Sequence[float],
        hi: Sequence[float],
    ) -> Iterator[Tuple[Point, object]]:
        """All entries with ``lo[d] <= p[d] <= hi[d]`` in every dimension.

        The closed orthogonal range query of Figure 3.  Only directory
        cells intersecting the rectangle are visited; shared buckets are
        read once.
        """
        lo_t = tuple(float(c) for c in lo)
        hi_t = tuple(float(c) for c in hi)
        if len(lo_t) != self.dim or len(hi_t) != self.dim:
            raise DimensionMismatchError("query rectangle dimension mismatch")
        index_ranges = []
        for d in range(self.dim):
            first = bisect.bisect_right(self._scales[d], lo_t[d])
            # Cells are right-open at scale coordinates: the cell index of
            # a point equals bisect_right(scales, coord).
            last = bisect.bisect_right(self._scales[d], hi_t[d])
            index_ranges.append(range(first, last + 1))
        seen: set = set()
        for cell in product(*index_ranges):
            self.stats.cell_visits += 1
            bucket = self._directory.get(cell)
            if bucket is None or id(bucket) in seen:
                continue
            seen.add(id(bucket))
            self.stats.bucket_reads += 1
            for p, v in bucket.items:
                if all(lo_t[d] <= p[d] <= hi_t[d] for d in range(self.dim)):
                    yield p, v

    def all_entries(self) -> Iterator[Tuple[Point, object]]:
        """Every stored entry."""
        seen: set = set()
        for bucket in self._directory.values():
            if id(bucket) in seen:
                continue
            seen.add(id(bucket))
            yield from bucket.items

    # -- inspection ---------------------------------------------------------------
    def directory_shape(self) -> Tuple[int, ...]:
        """Number of cells per dimension."""
        return tuple(len(s) + 1 for s in self._scales)

    def check_invariants(self) -> None:
        """Every point lies in the bucket its cell addresses."""
        for cell, bucket in self._directory.items():
            for p, _v in bucket.items:
                assert self._cell_of(p) == cell, (cell, p)

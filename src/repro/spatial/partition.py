"""The PBSM join: a uniform tile grid and per-tile plane sweeps.

After Patel & DeWitt's partition-based spatial-merge join: a uniform
:class:`TileGrid` over the joint extent of both inputs, *replication*
of every box into each tile it overlaps, a per-tile **plane sweep**
(:func:`_sweep_tile`) producing candidate overlap pairs, and
**reference-point deduplication** — a pair is emitted only in the tile
containing the lower corner of the two boxes' intersection, so boundary
duplicates never leave their tile and no global "seen" set is needed.
The tiles are swept one after another and the pairs sorted, so
:func:`pbsm_join`'s answer is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..boxes.bconstraints import BoxQuery
from ..boxes.box import Box, enclose_all

#: Default PBSM tile target when no partition count is configured.
DEFAULT_TILES = 16


def probe_box(query: BoxQuery, extent: Box) -> Box:
    """A single box every ``query`` match must *overlap* (for pruning).

    Any row box matching the query overlaps each of its constraint boxes
    (a non-empty box inside ``a`` overlaps ``a``; one covering ``b``
    overlaps ``b``; overlap constraints by definition), so any one of
    them is a sound necessary-condition box; the smallest-volume one
    prunes best.  A query with no constraint boxes degrades to
    ``extent`` (no pruning).  The returned box may be empty — then no
    non-empty row box can match.
    """
    candidates: List[Box] = []
    if query.inside is not None:
        candidates.append(query.inside)
    if query.covers is not None and not query.covers.is_empty():
        candidates.append(query.covers)
    candidates.extend(query.overlap)
    if not candidates:
        return extent
    if any(c.is_empty() for c in candidates):
        return Box((), ())  # empty: nothing can match
    return min(candidates, key=lambda b: b.volume())


# -- the PBSM tile grid -------------------------------------------------------


@dataclass(frozen=True)
class TileGrid:
    """A uniform grid of half-open tiles over a joint extent.

    ``shape[d]`` tiles along dimension ``d``; tiles are addressed by a
    flat index.  Used by PBSM to co-partition both join inputs: a box is
    *replicated* into every tile it overlaps, and the reference-point
    rule (:func:`_sweep_tile`) ensures each result pair is emitted by
    exactly one tile.
    """

    extent: Box
    shape: Tuple[int, ...]
    steps: Tuple[float, ...] = ()

    def __post_init__(self):
        if not self.steps and not self.extent.is_empty():
            # Cached per-dimension tile widths: tile addressing runs in
            # the sweep's innermost loop (once per candidate pair).
            object.__setattr__(
                self,
                "steps",
                tuple(
                    (hi - lo) / s
                    for lo, hi, s in zip(
                        self.extent.lo, self.extent.hi, self.shape
                    )
                ),
            )

    @staticmethod
    def build(boxes: Iterable[Box], n_tiles: int) -> Optional["TileGrid"]:
        """Grid over the enclosing extent; ``None`` when no boxes."""
        extent = enclose_all(b for b in boxes if not b.is_empty())
        if extent.is_empty():
            return None
        return TileGrid(
            extent=extent,
            shape=TileGrid._shape_for(extent.dim, n_tiles),
        )

    @staticmethod
    def _shape_for(dim: int, n_tiles: int) -> Tuple[int, ...]:
        n = max(1, n_tiles)
        shape: List[int] = []
        remaining = n
        for d in range(dim):
            dims_left = dim - d
            s = max(1, round(remaining ** (1.0 / dims_left)))
            shape.append(s)
            remaining = max(1, math.ceil(remaining / s))
        return tuple(shape)

    @property
    def tile_count(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    def _flat(self, idx: Sequence[int]) -> int:
        out = 0
        for i, s in zip(idx, self.shape):
            out = out * s + i
        return out

    def tile_of_point(self, point: Sequence[float]) -> int:
        """Flat index of the tile containing ``point`` (edges clamped)."""
        idx = []
        for d, (p, lo, s) in enumerate(
            zip(point, self.extent.lo, self.steps)
        ):
            i = int((p - lo) / s) if s > 0 else 0
            idx.append(min(self.shape[d] - 1, max(0, i)))
        return self._flat(idx)

    def tiles_overlapping(self, box: Box) -> List[int]:
        """Flat indices of every tile the (half-open) box overlaps."""
        if box.is_empty():
            return []
        clipped = box.meet(self.extent)
        if clipped.is_empty():
            return []
        ranges = []
        for d, s in enumerate(self.steps):
            if s <= 0:
                ranges.append(range(0, 1))
                continue
            lo = self.extent.lo[d]
            first = int((clipped.lo[d] - lo) / s)
            last = math.ceil((clipped.hi[d] - lo) / s) - 1
            first = min(self.shape[d] - 1, max(0, first))
            last = min(self.shape[d] - 1, max(first, last))
            ranges.append(range(first, last + 1))
        return [self._flat(idx) for idx in product(*ranges)]


@dataclass
class JoinStats:
    """Counters for one PBSM join (the benchmark's cost model)."""

    tiles: int = 0  # tile tasks actually swept (both sides non-empty)
    replicated_left: int = 0  # extra tile copies beyond the first
    replicated_right: int = 0
    pair_tests: int = 0  # candidate box-overlap tests in the sweeps
    pairs: int = 0  # result pairs after dedup
    dedup_skipped: int = 0  # boundary duplicates suppressed

    def merge_tile(self, tests: int, dups: int) -> None:
        self.tiles += 1
        self.pair_tests += tests
        self.dedup_skipped += dups


#: A tile task: ``(grid, flat tile index, left entries, right entries)``
#: with entries ``(box, position)``.
_TileTask = Tuple[TileGrid, int, List[Tuple[Box, int]], List[Tuple[Box, int]]]


def _sweep_tile(task: _TileTask) -> Tuple[List[Tuple[int, int]], int, int]:
    """Plane-sweep one tile; returns ``(pairs, tests, dedup_skipped)``.

    A sweep along dimension 0 tests a pair exactly when the two boxes'
    dim-0 intervals strictly overlap (nonempty boxes have ``lo < hi``);
    this kernel counts that set with one comparison pass per left box,
    then finishes the overlap test on the remaining dimensions.  A pair
    whose boxes overlap is emitted only if the reference point (the
    lower corner of the intersection) falls in *this* tile.  Pair order
    within a tile is left-major; :func:`pbsm_join` sorts globally.
    """
    grid, tile, left, right = task
    dim = grid.extent.dim
    n_right = len(right)
    rlo = tuple(
        np.fromiter(
            (b.lo[d] for b, _t in right), dtype=np.float64, count=n_right
        )
        for d in range(dim)
    )
    rhi = tuple(
        np.fromiter(
            (b.hi[d] for b, _t in right), dtype=np.float64, count=n_right
        )
        for d in range(dim)
    )
    rtags = [t for _b, t in right]
    shape, elo, steps = grid.shape, grid.extent.lo, grid.steps
    pairs: List[Tuple[int, int]] = []
    tests = 0
    dups = 0
    for lbox, ltag in left:
        mask = (rlo[0] < lbox.hi[0]) & (rhi[0] > lbox.lo[0])
        tests += int(np.count_nonzero(mask))
        for d in range(1, dim):
            mask &= rlo[d] < lbox.hi[d]
            mask &= rhi[d] > lbox.lo[d]
        cand = np.nonzero(mask)[0]
        if not len(cand):
            continue
        # Reference point: the intersection's lower corner, addressed
        # with the exact float expressions of TileGrid.tile_of_point
        # (int() truncation == floor here: ref >= extent.lo).
        flat = np.zeros(len(cand), dtype=np.int64)
        for d in range(dim):
            ref = np.maximum(rlo[d][cand], lbox.lo[d])
            if steps[d] > 0:
                idx = ((ref - elo[d]) / steps[d]).astype(np.int64)
                np.clip(idx, 0, shape[d] - 1, out=idx)
            else:
                idx = np.zeros(len(cand), dtype=np.int64)
            flat = flat * shape[d] + idx
        hit = cand[flat == tile]
        dups += len(cand) - len(hit)
        pairs.extend((ltag, rtags[j]) for j in hit.tolist())
    return pairs, tests, dups


# -- the PBSM join ------------------------------------------------------------


def pbsm_join(
    left: Sequence[Tuple[Box, object]],
    right: Sequence[Tuple[Box, object]],
    n_tiles: int = DEFAULT_TILES,
    stats: Optional[JoinStats] = None,
) -> List[Tuple[object, object]]:
    """Partition-based spatial-merge overlap join of two box sequences.

    Co-partitions both inputs on a shared :class:`TileGrid` (boxes
    replicated into every tile they overlap), plane-sweeps each tile,
    and dedupes boundary duplicates with the reference-point rule.
    Returns ``(left_value, right_value)`` pairs whose boxes overlap,
    sorted by input positions, so the answer is deterministic.

    The grid has at most one tile per input box (or
    :data:`DEFAULT_TILES`, if more), whatever ``n_tiles`` asks for: past
    that, finer tiles save few pair tests while replication keeps
    growing with the tile count, so a caller-supplied target cannot make
    the join's work unbounded.
    """
    lefts = [(b, k) for k, (b, _v) in enumerate(left) if not b.is_empty()]
    rights = [(b, k) for k, (b, _v) in enumerate(right) if not b.is_empty()]
    if not lefts or not rights:
        return []
    grid = TileGrid.build(
        [*(b for b, _ in lefts), *(b for b, _ in rights)],
        min(n_tiles, max(DEFAULT_TILES, len(lefts) + len(rights))),
    )
    assert grid is not None  # non-empty inputs imply a non-empty extent
    repl_left = repl_right = 0
    buckets: Dict[int, Tuple[List, List]] = {}
    for b, k in lefts:
        tiles = grid.tiles_overlapping(b)
        repl_left += len(tiles) - 1
        for t in tiles:
            buckets.setdefault(t, ([], []))[0].append((b, k))
    for b, k in rights:
        tiles = grid.tiles_overlapping(b)
        repl_right += len(tiles) - 1
        for t in tiles:
            buckets.setdefault(t, ([], []))[1].append((b, k))
    tasks: List[_TileTask] = [
        (grid, t, ls, rs)
        for t, (ls, rs) in sorted(buckets.items())
        if ls and rs
    ]
    results = [_sweep_tile(t) for t in tasks]
    pairs: List[Tuple[int, int]] = []
    for tile_pairs, tests, dups in results:
        pairs.extend(tile_pairs)
        if stats is not None:
            stats.merge_tile(tests, dups)
    pairs.sort()
    if stats is not None:
        stats.replicated_left += repl_left
        stats.replicated_right += repl_right
        stats.pairs += len(pairs)
    return [(left[i][1], right[j][1]) for i, j in pairs]

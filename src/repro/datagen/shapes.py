"""Random region generators (seeded, deterministic).

All generators take an explicit :class:`random.Random` so benchmarks are
reproducible.  Regions are built from axis-parallel boxes, matching the
region algebra's carrier.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from ..algebra.regions import Region
from ..boxes.box import Box


def random_box(
    rng: random.Random,
    universe: Box,
    min_side: float = 0.5,
    max_side: float = 8.0,
) -> Box:
    """A random box inside ``universe`` with sides in the given range."""
    lo: List[float] = []
    hi: List[float] = []
    for d in range(universe.dim):
        span = universe.hi[d] - universe.lo[d]
        side = rng.uniform(min_side, min(max_side, span))
        start = rng.uniform(universe.lo[d], universe.hi[d] - side)
        lo.append(start)
        hi.append(start + side)
    return Box(tuple(lo), tuple(hi))


def random_box_cloud(
    rng: random.Random,
    universe: Box,
    count: int,
    min_side: float = 0.5,
    max_side: float = 8.0,
) -> List[Box]:
    """``count`` independent random boxes."""
    return [
        random_box(rng, universe, min_side, max_side) for _ in range(count)
    ]


def grid_partition(universe: Box, cells_per_dim: Sequence[int]) -> List[Region]:
    """Partition the universe box into an axis-aligned grid of regions.

    Used for the "states" of the smugglers scenario: the grid cells are
    pairwise disjoint and exactly cover the universe.
    """
    if len(cells_per_dim) != universe.dim:
        raise ValueError("cells_per_dim must match the universe dimension")
    regions: List[Region] = []

    def recurse(d: int, lo: List[float], hi: List[float]) -> None:
        if d == universe.dim:
            regions.append(Region.from_box(Box(tuple(lo), tuple(hi))))
            return
        n = cells_per_dim[d]
        span = (universe.hi[d] - universe.lo[d]) / n
        for i in range(n):
            lo2, hi2 = list(lo), list(hi)
            lo2.append(universe.lo[d] + i * span)
            hi2.append(universe.lo[d] + (i + 1) * span)
            recurse(d + 1, lo2, hi2)

    recurse(0, [], [])
    return regions


def thick_polyline(
    points: Sequence[Tuple[float, float]], thickness: float = 0.5
) -> Region:
    """An axis-aligned polyline thickened into a 2-D region.

    Consecutive points must differ in exactly one coordinate (the roads
    of the smugglers scenario are axis-aligned, like the region algebra).
    """
    boxes: List[Box] = []
    h = thickness / 2
    for (x1, y1), (x2, y2) in zip(points, points[1:]):
        if x1 != x2 and y1 != y2:
            raise ValueError(
                "polyline segments must be axis-aligned; "
                f"got {(x1, y1)} -> {(x2, y2)}"
            )
        lo = (min(x1, x2) - h, min(y1, y2) - h)
        hi = (max(x1, x2) + h, max(y1, y2) + h)
        boxes.append(Box(lo, hi))
    return Region.from_boxes(boxes)

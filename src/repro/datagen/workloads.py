"""Benchmark workload builders.

Each builder returns ready-to-run :class:`~repro.engine.query.
SpatialQuery` objects (and any ground-truth bookkeeping the benchmark
needs).  Centralising them keeps examples, benchmarks and tests on identical
workloads.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..algebra.regions import Region
from ..boxes.box import Box
from ..constraints.examples import SMUGGLERS_ORDER, smugglers_system
from ..constraints.system import (
    ConstraintSystem,
    nonempty,
    overlaps,
    subset,
)
from ..engine.query import SpatialQuery
from ..spatial.table import SpatialTable
from .maps import SmugglersMap, make_map
from .shapes import random_box_cloud


def _random_rows(
    rng: random.Random, count: int, universe: Box, *sides: float
) -> List[Tuple[int, Region]]:
    """``count`` random one-box rows numbered from 0, for
    ``bulk_insert``: the index is built once, STR-packed, over all of
    them."""
    boxes = random_box_cloud(rng, universe, count, *sides)
    return list(enumerate(map(Region.from_box, boxes)))


def smugglers_query(
    map_: Optional[SmugglersMap] = None,
    index: str = "rtree",
    seed: int = 0,
    node_capacity: int = 8,
    **map_kwargs,
) -> Tuple[SpatialQuery, SmugglersMap]:
    """The paper's Section 2 query over a generated map (E1/E5);
    ``node_capacity`` sizes the STR-packed r-tree's nodes."""
    if map_ is None:
        map_ = make_map(seed=seed, **map_kwargs)
    query = SpatialQuery(
        system=smugglers_system(),
        tables=map_.tables(index=index, node_capacity=node_capacity),
        bindings={"C": map_.country, "A": map_.area},
        order=list(SMUGGLERS_ORDER),
    )
    return query, map_


def overlay_query(
    n_left: int = 100,
    n_right: int = 100,
    seed: int = 0,
    index: str = "rtree",
    universe_side: float = 100.0,
) -> SpatialQuery:
    """A binary overlay join ``x ∧ y ≠ 0`` (the PROBE-comparable query, E8)."""
    rng = random.Random(seed)
    universe = Box((0.0, 0.0), (universe_side, universe_side))
    left = SpatialTable("left", 2, index=index, universe=universe)
    right = SpatialTable("right", 2, index=index, universe=universe)
    for table, count in ((left, n_left), (right, n_right)):
        table.bulk_insert(_random_rows(rng, count, universe))
    return SpatialQuery(
        system=ConstraintSystem.build(overlaps("x", "y")),
        tables={"x": left, "y": right},
        order=["x", "y"],
    )


def containment_chain_query(
    n_per_table: int = 60,
    depth: int = 3,
    seed: int = 0,
    index: str = "rtree",
    universe_side: float = 100.0,
) -> SpatialQuery:
    """A chain ``x_1 ⊆ x_2 ⊆ … ⊆ x_depth`` with nonempty x_1 (E9 ablation).

    Tables hold nested box populations so the chain has solutions; the
    retrieval order strongly affects intermediate sizes.
    """
    rng = random.Random(seed)
    universe = Box((0.0, 0.0), (universe_side, universe_side))
    tables: Dict[str, SpatialTable] = {}
    constraints = [nonempty("x1")]
    for level in range(1, depth + 1):
        name = f"x{level}"
        t = SpatialTable(name, 2, index=index, universe=universe)
        # Bigger boxes at higher levels so containments exist.
        min_side = 2.0 * level
        max_side = 6.0 * level
        t.bulk_insert(
            _random_rows(rng, n_per_table, universe, min_side, max_side)
        )
        tables[name] = t
        if level > 1:
            constraints.append(subset(f"x{level - 1}", f"x{level}"))
    return SpatialQuery(
        system=ConstraintSystem.build(*constraints),
        tables=tables,
    )


def sandwich_query(
    n_items: int = 80,
    seed: int = 0,
    index: str = "rtree",
    universe_side: float = 100.0,
) -> SpatialQuery:
    """``lo ⊆ x ⊆ hi`` with bound lo/hi regions — a pure range workload
    isolating the Schröder machinery (used by E3/E10)."""
    rng = random.Random(seed)
    universe = Box((0.0, 0.0), (universe_side, universe_side))
    t = SpatialTable("items", 2, index=index, universe=universe)
    t.bulk_insert(_random_rows(rng, n_items, universe, 2.0, 20.0))
    hi_box = Box((20.0, 20.0), (80.0, 80.0))
    lo_box = Box((45.0, 45.0), (50.0, 50.0))
    return SpatialQuery(
        system=ConstraintSystem.build(
            subset("LO", "x"), subset("x", "HI")
        ),
        tables={"x": t},
        bindings={
            "LO": Region.from_box(lo_box),
            "HI": Region.from_box(hi_box),
        },
        order=["x"],
    )

"""Synthetic maps for the smugglers scenario (paper Section 2).

The paper's motivating query runs over a geographic database: a country
``C``, internal states partitioning it, border towns, roads, and a
destination area ``A``.  :func:`make_map` generates such a world with
controllable sizes, as exact regions:

* the **country** is a rectangle strictly inside the universe (so there
  is an "outside" for border towns to straddle);
* **states** partition the country in a grid;
* **towns** are small boxes; a controllable fraction are *border towns*
  straddling the country boundary (the query's only valid T's);
* **roads** are thickened axis-aligned staircases; a controllable
  fraction connect a border town to the destination area while staying
  inside one state (the query's only valid R's), the rest are decoys;
* the **destination area** ``A`` sits inside one state.

The generator aims for *topological* control (which objects satisfy
which constraints) rather than cartographic realism — the optimizer only
ever sees containment/overlap structure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..algebra.regions import Region
from ..boxes.box import Box
from ..spatial.table import SpatialTable
from .shapes import grid_partition, random_box, thick_polyline


@dataclass
class SmugglersMap:
    """A generated world for the Section 2 query."""

    universe: Box
    country: Region
    area: Region
    states: List[Region]
    towns: List[Region]
    roads: List[Region]
    #: Indices of towns that straddle the border (ground truth).
    border_town_ids: List[int] = field(default_factory=list)
    #: Indices of roads engineered to be valid for some border town.
    good_road_ids: List[int] = field(default_factory=list)

    def tables(
        self, index: str = "rtree", node_capacity: int = 8
    ) -> Dict[str, SpatialTable]:
        """Build ``T``/``R``/``B`` tables with the chosen index backend
        (an r-tree is STR-packed with ``node_capacity`` entries a node)."""
        out: Dict[str, SpatialTable] = {}
        for key, name, regions in (
            ("T", "towns", self.towns),
            ("R", "roads", self.roads),
            ("B", "states", self.states),
        ):
            t = SpatialTable(
                name,
                2,
                index=index,
                universe=self.universe,
                node_capacity=node_capacity,
            )
            t.bulk_insert(list(enumerate(regions)))
            out[key] = t
        return out


def make_map(
    seed: int = 0,
    n_towns: int = 20,
    n_roads: int = 20,
    states_grid: Tuple[int, int] = (3, 3),
    border_fraction: float = 0.3,
    good_road_fraction: float = 0.25,
    universe_side: float = 100.0,
) -> SmugglersMap:
    """Generate a smugglers world.

    Parameters control the instance size and the selectivities the
    optimizer exploits (fraction of border towns, fraction of
    constraint-satisfying roads).
    """
    rng = random.Random(seed)
    universe = Box((0.0, 0.0), (universe_side, universe_side))
    margin = universe_side * 0.12
    country_box = Box(
        (margin, margin), (universe_side - margin, universe_side - margin)
    )
    country = Region.from_box(country_box)
    states = grid_partition(country_box, list(states_grid))

    # Destination area inside the last state, clear of its edges.
    target_state_box = states[-1].bounding_box()
    area_box = Box(
        tuple(l + (h - l) * 0.3 for l, h in zip(target_state_box.lo, target_state_box.hi)),
        tuple(l + (h - l) * 0.7 for l, h in zip(target_state_box.lo, target_state_box.hi)),
    )
    area = Region.from_box(area_box)

    towns: List[Region] = []
    border_ids: List[int] = []
    for i in range(n_towns):
        if rng.random() < border_fraction:
            # Straddle the border: center on a country edge.
            edge = rng.randrange(4)
            size = rng.uniform(1.5, 3.0)
            if edge == 0:  # west
                cx, cy = country_box.lo[0], rng.uniform(
                    country_box.lo[1] + 5, country_box.hi[1] - 5
                )
            elif edge == 1:  # east
                cx, cy = country_box.hi[0], rng.uniform(
                    country_box.lo[1] + 5, country_box.hi[1] - 5
                )
            elif edge == 2:  # south
                cx, cy = (
                    rng.uniform(country_box.lo[0] + 5, country_box.hi[0] - 5),
                    country_box.lo[1],
                )
            else:  # north
                cx, cy = (
                    rng.uniform(country_box.lo[0] + 5, country_box.hi[0] - 5),
                    country_box.hi[1],
                )
            box = Box(
                (cx - size / 2, cy - size / 2), (cx + size / 2, cy + size / 2)
            )
            border_ids.append(i)
        else:
            # Fully interior town.
            inner = country_box.inflate(-4.0)
            box = random_box(rng, inner, 1.0, 3.0)
        towns.append(Region.from_box(box.meet(universe)))

    roads: List[Region] = []
    good_ids: List[int] = []
    area_center = area_box.center()
    for j in range(n_roads):
        if border_ids and rng.random() < good_road_fraction:
            # A valid road: from a border town into the area, inside the
            # target state (pre-clipped to country ∩ state ∪ town ∪ area).
            t_id = rng.choice(border_ids)
            t_box = towns[t_id].bounding_box()
            start = t_box.center()
            # L-shaped path: horizontal then vertical.
            mid = (area_center[0], start[1])
            path = [start, mid, area_center]
            raw = thick_polyline(path, thickness=1.0)
            # Keep the road within town ∪ target-state ∪ area so the
            # containment constraint R ⊆ A∪B∪T can hold.
            from ..algebra.regions import RegionAlgebra

            alg = RegionAlgebra(universe)
            allowed = alg.join(
                alg.join(towns[t_id], states[-1]), area
            )
            road = alg.meet(raw, allowed)
            if not road.is_empty():
                good_ids.append(j)
            roads.append(road)
        else:
            # Decoy road: random staircase anywhere in the country.
            a = random_box(rng, country_box, 1.0, 2.0).center()
            b = random_box(rng, country_box, 1.0, 2.0).center()
            path = [a, (b[0], a[1]), b]
            roads.append(thick_polyline(path, thickness=1.0))

    return SmugglersMap(
        universe=universe,
        country=country,
        area=area,
        states=states,
        towns=towns,
        roads=roads,
        border_town_ids=border_ids,
        good_road_ids=good_ids,
    )

"""Shared test fixtures: the seeded differential-testing workload factory.

The differential property tests (``test_differential.py``,
``test_random_queries.py``) all need the same ingredients: random
constraint systems over a fixed variable vocabulary, random little
spatial databases, and random constant bindings — reproducible from a
seed so failures replay.  This module is the single home for those
generators (they used to live ad hoc inside ``test_random_queries.py``).

CI's property-test job runs the suite under a seed matrix: the
``REPRO_TEST_SEED`` environment variable shifts every factory seed, so
each matrix entry exercises a disjoint family of workloads while any
single failure stays reproducible by exporting the same value locally.
"""

import os
import random

from hypothesis import strategies as st

from repro.algebra.regions import Region
from repro.boxes.box import Box
from repro.boxes.bconstraints import BoxQuery
from repro.constraints.system import ConstraintSystem, nonempty, not_subset, overlaps, subset
from repro.spatial.table import SpatialTable

#: The shared universe of every generated workload.
UNIVERSE = Box((0.0, 0.0), (32.0, 32.0))

#: Unknown (table-backed) variables random systems draw from.
VARS = ("u", "v", "w")

#: Constant (bound) variables random systems draw from.
CONSTS = ("P", "Q")

#: CI seed-matrix shift: each matrix entry explores disjoint workloads.
SEED_OFFSET = int(os.environ.get("REPRO_TEST_SEED", "0")) * 10_007

#: True in CI's property-test job (it exports ``REPRO_TEST_SEED``): the
#: exhaustive products run their full budget there, tier-1 a thin one.
SEED_MATRIX = "REPRO_TEST_SEED" in os.environ

#: The ids of the retired columnar-backend axis: ``numpy``, the stdlib
#: ``array`` body and ``off`` (no pin: the platform's pick).  NumPy is
#: now the only backend, so every id runs the same kernels; the axis
#: stays so that each case keeps the test id it is known by.
BACKEND_IDS = ("numpy", "array", "off")

#: :data:`BACKEND_IDS` of the kernel tests, which never had ``off``.
KERNEL_IDS = BACKEND_IDS[:2]

#: Objects the collector tracks that one packed 2-d tree holds whatever
#: its size — the tree, its counters, its form, the form's ``array``
#: columns and its value list (14) — with some slack.
TRACKED_PER_TREE = 20

#: A duplicate-rich coordinate pool for edge-case boxes: repeated
#: values make degenerate sides and shared edges likely.
EDGE_COORDS = (0.0, 1.0, 1.0, 2.5, 2.5, 7.0, 16.0, 31.0, 32.0)


def shifted_seed(seed: int) -> int:
    """A test seed shifted by the CI matrix offset."""
    return seed + SEED_OFFSET


@st.composite
def constraint_systems(draw):
    """Random systems over u,v,w (unknowns) and P,Q (constants)."""
    names = list(VARS) + list(CONSTS)
    n = draw(st.integers(2, 5))
    constraints = []
    used = set()
    for _ in range(n):
        kind = draw(
            st.sampled_from(["subset", "overlap", "notsubset", "nonempty"])
        )
        a = draw(st.sampled_from(names))
        b = draw(st.sampled_from(names))
        if kind == "subset":
            constraints.append(subset(a, b))
        elif kind == "overlap":
            constraints.append(overlaps(a, b))
        elif kind == "notsubset":
            constraints.append(not_subset(a, b))
        else:
            constraints.append(nonempty(a))
        used.update({a, b} if kind != "nonempty" else {a})
    # Every unknown must appear somewhere; pad with nonempty.
    for v in VARS:
        if v not in used:
            constraints.append(nonempty(v))
    return ConstraintSystem.build(*constraints)


@st.composite
def edge_boxes(draw):
    """Boxes rich in kernel edge cases.

    Coordinates come from :data:`EDGE_COORDS`, so degenerate boxes
    (``lo == hi`` in some dimension — empty by the strict-properness
    invariant), inverted (empty) intervals, point-thin sides, and
    duplicated coordinates across boxes are all likely.
    """
    c = st.sampled_from(EDGE_COORDS)
    return Box((draw(c), draw(c)), (draw(c), draw(c)))


@st.composite
def edge_query_boxes(draw):
    """:func:`edge_boxes`, sometimes with unbounded (infinite) sides."""
    box = draw(edge_boxes())
    if draw(st.booleans()):
        lo = tuple(
            -float("inf") if draw(st.booleans()) else c for c in box.lo
        )
        hi = tuple(
            float("inf") if draw(st.booleans()) else c for c in box.hi
        )
        box = Box(lo, hi)
    return box


@st.composite
def edge_box_queries(draw):
    """Random :class:`BoxQuery` values over edge-case constraint boxes:
    absent/empty/unbounded sides in every combination."""
    inside = draw(st.one_of(st.none(), edge_query_boxes()))
    covers = draw(st.one_of(st.none(), edge_query_boxes()))
    overlap = tuple(draw(st.lists(edge_query_boxes(), max_size=2)))
    return BoxQuery(inside=inside, covers=covers, overlap=overlap)


def random_table(
    name: str,
    rng: random.Random,
    n_rows: int,
    index: str = "rtree",
) -> SpatialTable:
    """A little random table of box-shaped regions inside UNIVERSE,
    bulk-inserted: clean, its r-tree STR-packed."""
    rows = []
    for i in range(n_rows):
        lo = (rng.uniform(0, 28), rng.uniform(0, 28))
        size = (rng.uniform(1, 8), rng.uniform(1, 8))
        box = Box(lo, (lo[0] + size[0], lo[1] + size[1])).meet(UNIVERSE)
        rows.append((i, Region.from_box(box)))
    t = SpatialTable(name, 2, index=index, universe=UNIVERSE)
    t.bulk_insert(rows)
    return t


def random_binding(rng: random.Random) -> Region:
    """A random constant region (a box) for one of CONSTS."""
    lo = (rng.uniform(0, 24), rng.uniform(0, 24))
    return Region.from_box(
        Box(lo, (lo[0] + rng.uniform(2, 10), lo[1] + rng.uniform(2, 10)))
    )


def make_workload(seed: int, system=None, sizes=(2, 5), index="rtree"):
    """The seeded workload factory: ``(tables, bindings)``.

    Generates a table per unknown in :data:`VARS` (row count drawn from
    ``sizes``) and a binding per constant in :data:`CONSTS`, then — when
    a ``system`` is given — restricts both to the variables the system
    actually mentions (matching the historical ad-hoc generators).  The
    seed is shifted by the CI matrix offset, so the same test module
    covers a different workload family per matrix entry.
    """
    rng = random.Random(shifted_seed(seed))
    tables = {
        v: random_table(v, rng, rng.randint(*sizes), index=index)
        for v in VARS
    }
    bindings = {c: random_binding(rng) for c in CONSTS}
    if system is not None:
        sys_vars = system.variables()
        tables = {v: t for v, t in tables.items() if v in sys_vars}
        bindings = {c: r for c, r in bindings.items() if c in sys_vars}
    return tables, bindings

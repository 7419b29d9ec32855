"""Shared hypothesis strategies for algebra carriers, boxes and regions."""

from fractions import Fraction

from hypothesis import strategies as st

from repro.algebra.bitvec import BitVectorAlgebra
from repro.algebra.boolean2 import TwoValuedAlgebra
from repro.algebra.intervals import IntervalAlgebra
from repro.algebra.powerset import PowersetAlgebra
from repro.algebra.regions import Region, RegionAlgebra
from repro.boxes.box import Box

# ---------------------------------------------------------------------------
# Fixed algebra instances (hypothesis needs cheap, deterministic carriers)
# ---------------------------------------------------------------------------

B2 = TwoValuedAlgebra()
BITS8 = BitVectorAlgebra(8)
SETS = PowersetAlgebra(range(5))
LINE = IntervalAlgebra(0, 16)
PLANE = RegionAlgebra(Box((0.0, 0.0), (16.0, 16.0)))
SPACE3 = RegionAlgebra(Box((0.0, 0.0, 0.0), (8.0, 8.0, 8.0)))


def bitvec_elements(alg=BITS8):
    """Random elements of a bit-vector algebra."""
    return st.integers(min_value=0, max_value=alg.top)


def powerset_elements(alg=SETS):
    """Random elements of a powerset algebra."""
    return st.sets(st.sampled_from(sorted(alg.universe))).map(frozenset)


def interval_elements(alg=LINE, max_intervals=4):
    """Random interval sets with small rational endpoints."""
    lo, hi = alg.universe
    coord = st.integers(min_value=int(lo) * 4, max_value=int(hi) * 4).map(
        lambda n: Fraction(n, 4)
    )
    pair = st.tuples(coord, coord).map(lambda t: tuple(sorted(t)))
    return st.lists(pair, max_size=max_intervals).map(alg.from_pairs)


def boxes(dim=2, lo=0, hi=16, grid=4):
    """Random non-empty or empty boxes on a coarse rational grid."""
    coord = st.integers(min_value=lo * grid, max_value=hi * grid).map(
        lambda n: n / grid
    )

    def build(coords):
        los = coords[:dim]
        his = coords[dim:]
        return Box(
            tuple(min(a, b) for a, b in zip(los, his)),
            tuple(max(a, b) for a, b in zip(los, his)),
        )

    return st.lists(coord, min_size=2 * dim, max_size=2 * dim).map(build)


def nonempty_boxes(dim=2, lo=0, hi=16, grid=4):
    """Random boxes guaranteed non-empty."""
    return boxes(dim, lo, hi, grid).filter(lambda b: not b.is_empty())


def region_elements(alg=PLANE, max_boxes=3):
    """Random regions as unions of a few random boxes."""
    dim = alg.universe_box.dim
    lo = int(alg.universe_box.lo[0])
    hi = int(alg.universe_box.hi[0])
    return st.lists(boxes(dim, lo, hi), max_size=max_boxes).map(
        lambda bs: alg.meet(alg.top, Region.from_boxes(bs))
    )

"""The per-binding index probe and the region-materialising predicates
and kernels as they were before set-at-a-time probing — frozen.

``IndexProbe`` now pulls its input in groups and sends each group's
range queries through one R-tree traversal; ``RegionAlgebra.le`` /
``meets`` / ``meet`` / ``join`` and ``Box.meet`` / ``box_subtract`` /
``_difference`` decide overlap on the coordinates, build a box only for
a piece they return, and no longer validate or build what they can
decide or trust.  Both promise *identical* answers, answer order,
counters and boxes.  These are copies of the code they replaced: one
``range_query`` call per binding, no read-ahead; every box
through the validating ``Box(lo, hi)`` (the intersection of every pair
tried included), every region through ``Region(boxes)``, containment
and overlap decided by building the difference / the meet and asking
whether it is empty.  ``test_batched_probe.py`` and
``test_region_predicates.py`` hold the engine to them bit for bit.
"""

from typing import List

from repro.algebra.regions import Region
from repro.boxes.box import EMPTY_BOX, Box
from repro.engine.physical import IndexProbe


# -- engine/physical.py --------------------------------------------------------
class PerBindingIndexProbe(IndexProbe):
    """``IndexProbe`` probing binding by binding."""

    def _rows(self, ctx, binding):
        query = self.template.instantiate(ctx.box_env(binding), ctx.universe)
        self.stats.box_evals += 1
        self.stats.probes += 1
        before = self.table.index_read_count()
        mark = self._vectorized_mark()
        rows = self.table.range_query(query)
        self.stats.node_reads += self.table.index_read_count() - before
        self._vectorized_absorb(mark)
        return rows

    def iterate(self, ctx):
        """``ExtendStep.iterate`` before it grouped its input."""
        self.stats.executed = True
        for binding in self.child.iterate(ctx):
            self.stats.rows_in += 1
            for obj in self._rows(ctx, binding):
                extended = dict(binding)
                extended[self.variable] = obj
                self.stats.rows_out += 1
                yield extended


def probe_per_binding(plan):
    """Turn every ``IndexProbe`` of a built physical plan into the
    frozen per-binding one (in place); returns the plan."""
    for op in plan.operators():
        if type(op) is IndexProbe:
            op.__class__ = PerBindingIndexProbe
    return plan


# -- boxes/box.py ----------------------------------------------------------------
def reference_box_meet(a: Box, b: Box) -> Box:
    a._require_compatible(b)
    if a.is_empty() or b.is_empty():
        return EMPTY_BOX
    lo = tuple(max(p, q) for p, q in zip(a.lo, b.lo))
    hi = tuple(min(p, q) for p, q in zip(a.hi, b.hi))
    return Box(lo, hi)


def reference_box_enclose(a: Box, b: Box) -> Box:
    a._require_compatible(b)
    if a.is_empty():
        return b
    if b.is_empty():
        return a
    lo = tuple(min(p, q) for p, q in zip(a.lo, b.lo))
    hi = tuple(max(p, q) for p, q in zip(a.hi, b.hi))
    return Box(lo, hi)


# -- algebra/regions.py ------------------------------------------------------------
def reference_box_subtract(a: Box, b: Box) -> List[Box]:
    if a.is_empty():
        return []
    inter = reference_box_meet(a, b)
    if inter.is_empty():
        return [a]
    out: List[Box] = []
    lo = list(a.lo)
    hi = list(a.hi)
    for d in range(a.dim):
        if lo[d] < inter.lo[d]:
            piece_lo = list(lo)
            piece_hi = list(hi)
            piece_hi[d] = inter.lo[d]
            out.append(Box(piece_lo, piece_hi))
            lo[d] = inter.lo[d]
        if inter.hi[d] < hi[d]:
            piece_lo = list(lo)
            piece_hi = list(hi)
            piece_lo[d] = inter.hi[d]
            out.append(Box(piece_lo, piece_hi))
            hi[d] = inter.hi[d]
    return out


def reference_difference(a: Region, b: Region) -> Region:
    pieces: List[Box] = list(a.boxes)
    for cut in b.boxes:
        nxt: List[Box] = []
        for piece in pieces:
            nxt.extend(reference_box_subtract(piece, cut))
        pieces = nxt
        if not pieces:
            break
    return Region(pieces)


def reference_meet(algebra, a: Region, b: Region) -> Region:
    """``RegionAlgebra.meet``."""
    algebra.ops.meet += 1
    out: List[Box] = []
    for ba in a.boxes:
        for bb in b.boxes:
            inter = reference_box_meet(ba, bb)
            if not inter.is_empty():
                out.append(inter)
    return Region(out)


def reference_join(algebra, a: Region, b: Region) -> Region:
    """``RegionAlgebra.join``: ``a``'s boxes, then what ``a`` leaves of
    each of ``b``'s, through the validating ``Region(pieces)``."""
    algebra.ops.join += 1
    pieces: List[Box] = list(a.boxes)
    for new in b.boxes:
        fragments = [new]
        for existing in a.boxes:
            nxt: List[Box] = []
            for frag in fragments:
                nxt.extend(reference_box_subtract(frag, existing))
            fragments = nxt
            if not fragments:
                break
        pieces.extend(fragments)
    return Region(pieces)


def reference_le(algebra, a: Region, b: Region) -> bool:
    """``BooleanAlgebra.le`` over ``RegionAlgebra.diff``:
    ``is_zero(diff(a, b))``."""
    algebra.ops.comparisons += 1
    algebra.ops.meet += 1
    return algebra.is_zero(reference_difference(a, b))


def reference_meets(algebra, a: Region, b: Region) -> bool:
    """What ``BoundConstraint.holds`` asked: ``not is_zero(meet(a, b))``."""
    return not algebra.is_zero(reference_meet(algebra, a, b))

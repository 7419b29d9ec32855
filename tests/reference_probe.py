"""The per-binding index probe, the eagerly binding step filter and the
region-materialising predicates and kernels as they were before
set-at-a-time probing — frozen.

``IndexProbe`` now pulls its input in groups and sends each group's
range queries, packed by the step's compiled packer, through one R-tree
traversal; ``ExactFilter`` binds ``C_i`` only when a candidate needs
it; ``RegionAlgebra.le`` / ``meets`` / ``meet`` / ``join`` and
``Box.meet`` / ``box_subtract`` / ``_difference`` decide overlap on the
coordinates, build a box only for a piece they return, and no longer
validate or build what they can decide or trust.  All promise
*identical* answers, answer order, counters and boxes.  These are copies
of the code they replaced: ``template.instantiate`` and one
``range_query`` call per binding, no read-ahead; ``solved.bind`` at
every input binding; every box through the validating ``Box(lo, hi)``
(the intersection of every pair tried included), every region through
``Region(boxes)``, containment and overlap decided by building the
difference / the meet and asking whether it is empty.
``test_batched_probe.py``, ``test_template_packer.py`` and
``test_region_predicates.py`` hold the engine to them bit for bit.
"""

from typing import List

from repro.algebra.regions import Region
from repro.boxes.box import EMPTY_BOX, Box
from repro.engine.physical import ExactFilter, IndexProbe, _read_rows, _region


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


class EagerBindExactFilter(ExactFilter):
    """``ExactFilter`` binding ``C_i`` at every input binding (or once per
    distinct tuple of the rows it reads), before it knows whether a
    candidate needs it — the step filter before it bound lazily."""

    def iterate(self, ctx):
        if self.solved is None:
            yield from super().iterate(ctx)
            return
        self.stats.executed = True
        algebra = ctx.algebra
        ops, variable, extend, solved = algebra.ops, self.variable, self.child, self.solved
        decided = self.box_decided
        bound_to = None
        reads = []
        bound_by_rows = None  # {}: per binding
        for binding, rows in extend.candidate_lists(ctx):
            if binding is not bound_to:
                if bound_by_rows is None and bound_to is not None:
                    reads = sorted(solved.earlier_variables() - set(ctx.plan.query.bindings))
                    skips = len(binding) > len(reads)
                    bound_by_rows = {_read_rows(bound_to, reads): bound} if skips else {}
                bound_to = binding
                if bound_by_rows:
                    key = _read_rows(binding, reads)
                    if key not in bound_by_rows:
                        bound_by_rows[key] = solved.bind(
                            algebra, ctx.region_env(binding), box_decided=decided
                        )
                    bound = bound_by_rows[key]
                else:
                    bound = solved.bind(algebra, ctx.region_env(binding), box_decided=decided)
            taken = 0
            if bound.decides_one_box:
                for i, obj in enumerate(rows):
                    region = obj.region
                    if len(region.boxes) != 1:
                        before = ops.total
                        passes = bound.holds(region)
                        self.stats.region_ops += ops.total - before
                        if not passes:
                            continue
                    self.stats.rows_in += i + 1 - taken
                    extend.stats.rows_out += i + 1 - taken
                    taken = i + 1
                    extended = dict(binding)
                    extended[variable] = obj
                    self.stats.rows_out += 1
                    yield extended
                self.stats.rows_in += len(rows) - taken
                extend.stats.rows_out += len(rows) - taken
                continue
            before = ops.total
            for i in bound.select(map(_region, rows)):
                self.stats.region_ops += ops.total - before
                self.stats.rows_in += i + 1 - taken
                extend.stats.rows_out += i + 1 - taken
                taken = i + 1
                extended = dict(binding)
                extended[variable] = rows[i]
                self.stats.rows_out += 1
                yield extended
                before = ops.total
            self.stats.region_ops += ops.total - before
            self.stats.rows_in += len(rows) - taken
            extend.stats.rows_out += len(rows) - taken


def probe_per_binding(plan):
    """Turn every ``IndexProbe`` of a built physical plan into the
    frozen per-binding one and every ``ExactFilter`` into the frozen
    eager-binding one (in place); returns the plan."""
    for op in plan.operators():
        if type(op) is IndexProbe:
            op.__class__ = PerBindingIndexProbe
        elif type(op) is ExactFilter:
            op.__class__ = EagerBindExactFilter
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

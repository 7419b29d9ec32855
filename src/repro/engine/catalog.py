"""Table-statistics catalog for cost-based planning.

Relational optimizers choose join orders from per-table statistics
rather than raw sizes; the same applies to the paper's retrieval order
(Section 2 picks it "arbitrarily").  This module computes, per
:class:`~repro.spatial.table.SpatialTable`:

* object counts and the extent (MBR) of the stored boxes;
* per-dimension **equi-width histograms** of the box lo/hi edges, from
  which the selectivity of each of the three range-query constraint
  forms (``⊑ a``, ``b ⊑``, ``⊓ c ≠ ∅``) is estimated under a
  per-dimension independence assumption;
* a small **random sample** of stored rows, used both to cross-check
  the histogram estimates (sampled predicate selectivities) and to let
  the planner roll out candidate retrieval orders on representative
  objects.

Each table has one statistics set, made with :data:`DEFAULT_BINS`
buckets and a :data:`DEFAULT_SAMPLE_SIZE`-row sample: the planner reads
it through :meth:`repro.spatial.table.SpatialTable.statistics`, which
caches it per base version and adjusts it for a pending write delta
(:meth:`TableStatistics.apply_delta`).  :func:`collect_statistics`
still takes the bucket count, sample size and seed, for the tests that
hold its kernels to the per-object scan.  The statistics price
retrieval orders only; no access path is chosen from them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..boxes.bconstraints import BoxQuery
from ..boxes.box import (
    Box,
    EMPTY_BOX,
    box_from_jsonable,
    box_to_jsonable,
    enclose_all,
)
from ..spatial import columnar

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..algebra.regions import RegionAlgebra
    from ..constraints.solved import SolvedConstraint
    from ..spatial.table import SpatialObject, SpatialTable

DEFAULT_BINS = 16
DEFAULT_SAMPLE_SIZE = 24


@dataclass(frozen=True)
class Histogram:
    """An equi-width histogram over a one-dimensional population.

    ``counts[k]`` holds the number of values in bucket ``k`` of the
    range ``[lo, hi]``; a degenerate population (all values equal)
    collapses to a single bucket.
    """

    lo: float
    hi: float
    counts: Tuple[int, ...]
    total: int

    @staticmethod
    def from_values(
        values: Iterable[float], bins: int = DEFAULT_BINS
    ) -> "Histogram":
        """``lo``/``hi`` are the ``min``/``max`` of ``values`` (a
        coordinate column is read in place) and ``v`` counts in bucket
        ``min(bins - 1, int((v - lo) / width))`` — one
        :func:`~repro.spatial.columnar.equiwidth_counts` call."""
        vals = values if isinstance(values, Sequence) else list(values)
        if not vals:
            return Histogram(0.0, 0.0, (), 0)
        lo, hi, counts = columnar.equiwidth_counts(vals, bins)
        return Histogram(lo, hi, tuple(counts), len(vals))

    def fraction_below(self, x: float) -> float:
        """Estimated fraction of values ``< x`` (linear within buckets)."""
        if self.total == 0:
            return 0.0
        if x <= self.lo:
            return 0.0
        if self.hi <= self.lo:  # single-point population, x > lo here
            return 1.0
        if x >= self.hi:
            return 1.0
        width = (self.hi - self.lo) / len(self.counts)
        k = min(len(self.counts) - 1, int((x - self.lo) / width))
        below = sum(self.counts[:k])
        in_bucket = (x - (self.lo + k * width)) / width
        return (below + self.counts[k] * in_bucket) / self.total

    def fraction_at_most(self, x: float) -> float:
        """Estimated fraction of values ``<= x``.

        Coincides with :meth:`fraction_below` in the continuous
        approximation but treats point populations inclusively.
        """
        if self.total == 0 or x < self.lo:
            return 0.0
        if self.hi <= self.lo or x >= self.hi:
            return 1.0
        return self.fraction_below(x)

    def fraction_at_least(self, x: float) -> float:
        """Estimated fraction of values ``>= x``."""
        return 1.0 - self.fraction_below(x)

    def with_delta(
        self,
        added: Iterable[float],
        removed: Iterable[float],
        bins: int = DEFAULT_BINS,
    ) -> "Histogram":
        """Incrementally adjusted histogram: bucket counts for ``added``
        values go up and for ``removed`` values go down, without
        rescanning the population.

        The bucket range ``[lo, hi]`` is kept — values outside it clamp
        into the edge buckets (the estimates stay approximations, which
        is all the planner asks of them); removals floor at zero.  An
        empty histogram is rebuilt from the added values outright.
        """
        added = list(added)
        removed = list(removed)
        if not added and not removed:
            return self
        if self.total == 0:
            return Histogram.from_values(added, bins=bins)
        counts = list(self.counts)
        width = (
            (self.hi - self.lo) / len(counts) if self.hi > self.lo else 0.0
        )

        def bucket(v: float) -> int:
            if width == 0.0:
                return 0
            return max(0, min(len(counts) - 1, int((v - self.lo) / width)))

        for v in added:
            counts[bucket(v)] += 1
        for v in removed:
            b = bucket(v)
            if counts[b] > 0:
                counts[b] -= 1
        total = max(0, self.total + len(added) - len(removed))
        return Histogram(self.lo, self.hi, tuple(counts), total)

    def to_dict(self) -> dict:
        """JSON-serializable form (see :meth:`from_dict`)."""
        return {
            "lo": self.lo,
            "hi": self.hi,
            "counts": list(self.counts),
            "total": self.total,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        """Inverse of :meth:`to_dict`."""
        return cls(
            lo=float(data["lo"]),
            hi=float(data["hi"]),
            counts=tuple(int(c) for c in data["counts"]),
            total=int(data["total"]),
        )


def _clamp(p: float) -> float:
    return min(1.0, max(0.0, p))


@dataclass(frozen=True)
class TableStatistics:
    """Per-table statistics driving the cost-based planner.

    ``lo_hists[d]`` / ``hi_hists[d]`` are histograms of the stored
    boxes' lower/upper edges in dimension ``d``; ``sample`` is a
    uniform random sample of the rows themselves.
    """

    name: str
    dim: int
    count: int
    mbr: Box
    lo_hists: Tuple[Histogram, ...]
    hi_hists: Tuple[Histogram, ...]
    avg_sides: Tuple[float, ...]
    sample: Tuple["SpatialObject", ...]

    # -- per-constraint selectivity (histogram-based) -------------------------
    def sel_inside(self, a: Box) -> float:
        """Estimated fraction of boxes with ``box ⊑ a``."""
        if self.count == 0 or a.is_empty():
            return 0.0
        p = 1.0
        for d in range(self.dim):
            p *= self.lo_hists[d].fraction_at_least(a.lo[d])
            p *= self.hi_hists[d].fraction_at_most(a.hi[d])
        return _clamp(p)

    def sel_covers(self, b: Box) -> float:
        """Estimated fraction of boxes with ``b ⊑ box``."""
        if self.count == 0:
            return 0.0
        if b.is_empty():
            return 1.0
        p = 1.0
        for d in range(self.dim):
            p *= self.lo_hists[d].fraction_at_most(b.lo[d])
            p *= self.hi_hists[d].fraction_at_least(b.hi[d])
        return _clamp(p)

    def sel_overlap(self, c: Box) -> float:
        """Estimated fraction of boxes with ``box ⊓ c ≠ ∅``."""
        if self.count == 0 or c.is_empty():
            return 0.0
        p = 1.0
        for d in range(self.dim):
            # Overlap in dimension d means lo < c.hi and hi > c.lo;
            # {hi <= c.lo} nests inside {lo < c.hi}, so the difference
            # of the marginals is a direct estimate.
            admits = self.lo_hists[d].fraction_below(c.hi[d])
            excluded = self.hi_hists[d].fraction_at_most(c.lo[d])
            p *= max(0.0, admits - excluded)
        return _clamp(p)

    # -- whole-query selectivity ----------------------------------------------
    def sel_query(self, query: BoxQuery) -> float:
        """Histogram estimate of the fraction of rows matching ``query``.

        Conjunct selectivities multiply (attribute-value independence,
        the textbook assumption); the result is clamped to ``[0, 1]``.
        """
        if self.count == 0 or query.is_unsatisfiable():
            return 0.0
        p = 1.0
        if query.inside is not None:
            p *= self.sel_inside(query.inside)
        if query.covers is not None and not query.covers.is_empty():
            p *= self.sel_covers(query.covers)
        for c in query.overlap:
            p *= self.sel_overlap(c)
        return _clamp(p)

    def matching_sample(self, query: BoxQuery) -> List["SpatialObject"]:
        """The stored *sample* rows whose box matches ``query``."""
        if query.is_unsatisfiable():
            return []
        return [
            obj
            for obj in self.sample
            if not obj.box.is_empty() and query.matches(obj.box)
        ]

    def selectivity(
        self,
        query: BoxQuery,
        matching: Optional[Sequence["SpatialObject"]] = None,
    ) -> float:
        """Blended selectivity: histogram estimate averaged with the
        sampled predicate selectivity when a sample exists.

        ``matching`` is :meth:`matching_sample` of ``query`` when the
        caller already has it (the sample is scanned once, not twice).
        """
        hist = self.sel_query(query)
        if not self.sample:
            return hist
        if matching is None:
            matching = self.matching_sample(query)
        return _clamp((hist + len(matching) / len(self.sample)) / 2.0)

    # -- incremental maintenance ------------------------------------------------
    def apply_delta(
        self,
        inserted: Tuple["SpatialObject", ...],
        removed: Tuple["SpatialObject", ...],
    ) -> "TableStatistics":
        """Statistics adjusted for staged writes — O(delta), no rescan.

        Counts, edge histograms, average extents and the row sample are
        updated incrementally from the staged rows; the MBR grows to
        enclose inserted boxes but never shrinks on deletes (a sound
        over-approximation: re-tightening it would need a base rescan,
        which the repack does anyway).  The histograms keep their bucket
        count; over an empty base (no buckets yet) the staged rows fill
        :data:`DEFAULT_BINS` of them; the sample refills from the staged
        rows up to :data:`DEFAULT_SAMPLE_SIZE`.
        """
        if not inserted and not removed:
            return self
        ins_boxes = [o.box for o in inserted if not o.box.is_empty()]
        rem_boxes = [o.box for o in removed if not o.box.is_empty()]
        mbr = self.mbr
        if ins_boxes:
            mbr = enclose_all(
                ([mbr] if not mbr.is_empty() else []) + ins_boxes
            )
        bins = max((len(h.counts) for h in self.lo_hists), default=0) or DEFAULT_BINS
        lo_hists = []
        hi_hists = []
        avg_sides = []
        old_boxes = self.lo_hists[0].total if self.lo_hists else 0
        new_boxes = old_boxes + len(ins_boxes) - len(rem_boxes)
        for d in range(self.dim):
            lo_hists.append(
                self.lo_hists[d].with_delta(
                    (b.lo[d] for b in ins_boxes),
                    (b.lo[d] for b in rem_boxes),
                    bins=bins,
                )
            )
            hi_hists.append(
                self.hi_hists[d].with_delta(
                    (b.hi[d] for b in ins_boxes),
                    (b.hi[d] for b in rem_boxes),
                    bins=bins,
                )
            )
            if new_boxes > 0:
                side_sum = (
                    self.avg_sides[d] * old_boxes
                    + sum(b.hi[d] - b.lo[d] for b in ins_boxes)
                    - sum(b.hi[d] - b.lo[d] for b in rem_boxes)
                )
                avg_sides.append(max(0.0, side_sum / new_boxes))
            else:
                avg_sides.append(0.0)
        dead = {id(o) for o in removed}
        kept = tuple(o for o in self.sample if id(o) not in dead)
        fill = tuple(inserted)[: max(0, DEFAULT_SAMPLE_SIZE - len(kept))]
        from dataclasses import replace

        return replace(
            self,
            count=self.count + len(inserted) - len(removed),
            mbr=mbr,
            lo_hists=tuple(lo_hists),
            hi_hists=tuple(hi_hists),
            avg_sides=tuple(avg_sides),
            sample=kept + fill,
        )

    def exact_selectivity(
        self,
        solved: "SolvedConstraint",
        algebra: "RegionAlgebra",
        env: Dict[str, object],
        pool: Optional[Iterable["SpatialObject"]] = None,
    ) -> Tuple[float, Tuple["SpatialObject", ...]]:
        """Sampled selectivity of an exact solved constraint.

        Evaluates ``solved`` on ``pool`` (default: the stored row
        sample) with the regions in ``env`` bound; returns the
        satisfying fraction and the satisfying rows themselves (the
        planner's rollouts draw representative objects from them).  A
        row whose check needs a variable missing from ``env`` (one with
        no representative) counts as satisfying — the conservative
        choice for costing.
        """
        rows = tuple(pool) if pool is not None else self.sample
        if not rows:
            return 0.0, ()
        bound = solved.bind(algebra, env, accept_unbound=True)
        holding = tuple(rows[i] for i in bound.select([o.region for o in rows]))
        return len(holding) / len(rows), holding

    # -- snapshot serialization ------------------------------------------------
    def to_dict(self, row_index: dict) -> dict:
        """JSON-serializable form for snapshots.

        The random row sample is stored as *indices* into the table's
        saved row order (``row_index`` maps ``id(obj)`` to the index),
        so the loaded statistics reference the loaded table's own row
        objects instead of duplicating their regions.
        """
        return {
            "name": self.name,
            "dim": self.dim,
            "count": self.count,
            "mbr": box_to_jsonable(self.mbr),
            "lo_hists": [h.to_dict() for h in self.lo_hists],
            "hi_hists": [h.to_dict() for h in self.hi_hists],
            "avg_sides": list(self.avg_sides),
            "sample": [row_index[id(obj)] for obj in self.sample],
        }

    @classmethod
    def from_dict(
        cls, data: dict, rows: Sequence["SpatialObject"]
    ) -> "TableStatistics":
        """Inverse of :meth:`to_dict`; ``rows`` resolves sample indices."""
        return cls(
            name=str(data["name"]),
            dim=int(data["dim"]),
            count=int(data["count"]),
            mbr=box_from_jsonable(data["mbr"]),
            lo_hists=tuple(
                Histogram.from_dict(h) for h in data["lo_hists"]
            ),
            hi_hists=tuple(
                Histogram.from_dict(h) for h in data["hi_hists"]
            ),
            avg_sides=tuple(float(s) for s in data["avg_sides"]),
            sample=tuple(rows[int(i)] for i in data["sample"]),
        )


def collect_statistics(
    table: "SpatialTable",
    bins: int = DEFAULT_BINS,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    seed: int = 0,
    rows: Optional[Sequence["SpatialObject"]] = None,
    total: Optional[int] = None,
) -> TableStatistics:
    """Compute :class:`TableStatistics` for a table (one full scan).

    ``rows`` / ``total`` override the scanned population (non-empty
    rows and the raw row count): the incremental-maintenance path
    passes the *base* rows of a table whose live iterator would leak
    staged delta rows into what must remain base-only statistics.
    """
    dim = table.dim
    if rows is None and not table.delta_pending:
        # The population is the base rows: the table holds their columns.
        rows, lo, hi = table.packed_columns()
    else:
        if rows is None:
            rows = [obj for obj in table if not obj.box.is_empty()]
        lo = [[obj.box.lo[d] for obj in rows] for d in range(dim)]
        hi = [[obj.box.hi[d] for obj in rows] for d in range(dim)]
    if total is None:
        total = len(table)
    lo_hists = [Histogram.from_values(col, bins=bins) for col in lo]
    hi_hists = [Histogram.from_values(col, bins=bins) for col in hi]
    mbr = EMPTY_BOX
    avg_sides = [0.0] * dim
    if rows:
        # A histogram's range is its column's min and max, which is
        # what the enclosing box of the rows is made of.
        mbr = Box._trusted(
            tuple(h.lo for h in lo_hists), tuple(h.hi for h in hi_hists), False
        )
        avg_sides = [
            columnar.side_sum(lo[d], hi[d]) / len(rows) for d in range(dim)
        ]
    rng = random.Random(seed)
    if len(rows) <= sample_size:
        sample = tuple(rows)
    else:
        sample = tuple(rng.sample(list(rows), sample_size))
    return TableStatistics(
        name=table.name,
        dim=dim,
        count=total,
        mbr=mbr,
        lo_hists=tuple(lo_hists),
        hi_hists=tuple(hi_hists),
        avg_sides=tuple(avg_sides),
        sample=sample,
    )


"""Columnar struct-of-arrays storage and the vectorized spatial kernels.

Every hot inner loop of the engine — box intersection tests, the PBSM
plane sweep, z-order key computation, kNN distance metrics — evaluates a
fixed set of per-dimension float comparisons uniformly over many
candidate boxes.  That shape batches well: this module keeps a
:class:`ColumnStore` mirror of a table's bounding boxes as one
contiguous lo/hi coordinate array per dimension, evaluates compiled
:class:`~repro.boxes.bconstraints.BoxQuery` predicates (and the kNN
distance metrics) against whole index ranges at once, and packs the
R-tree, which is such columns too (STR orders are integer arrays).

One backend
-----------
The kernels are NumPy ufuncs over zero-copy views of the ``array('d')``
coordinate columns; NumPy is a required dependency.  A few kernels
still take a Python path, chosen by the *input*: NaN centres in
:func:`str_level_order`, NaN or ``-0.0`` coordinates in the ``min`` /
``max`` reductions, and the one-query :func:`scalar_mask` the R-tree's
single-query descent uses (its nodes are too small for a kernel call
to pay).

Bit identity
------------
The kernels are property-tested to match the per-object oracle exactly,
not approximately:

* predicate kernels use the same strict/weak comparisons as
  :meth:`Box.le <repro.boxes.box.Box.le>` / :meth:`Box.overlaps
  <repro.boxes.box.Box.overlaps>` — float comparisons have no rounding,
  so the kernels and the oracle trivially agree;
* distance kernels accumulate squared per-dimension contributions in
  dimension order (float addition is order-sensitive) and take one
  square root at the end.  Every path squares with a plain multiply and
  roots with ``sqrt`` (``math.sqrt`` scalar-side, ``numpy.sqrt``
  array-side) — both are single correctly-rounded IEEE operations, so
  the kernels and the oracle produce identical doubles, including the
  distance ties the kNN tie-break rule depends on.  ``x ** 2`` and
  ``x ** 0.5`` are **not** used: libm ``pow`` is off by one ulp from
  the fused forms on common platforms, which is exactly the kind of
  scalar/vectorized divergence the differential gates exist to catch.
"""

from __future__ import annotations

import math
import operator
import struct
from array import array
from itertools import chain, compress, repeat
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..boxes.bconstraints import BoxQuery, QueryShape, matches_empty, pack_query
from ..boxes.box import Box

__all__ = [
    "ColumnStore",
    "batch_mask",
    "box_le",
    "box_meets",
    "equiwidth_counts",
    "grouped_bounds",
    "pack_floats",
    "pack_query",
    "packed_matches",
    "scalar_mask",
    "side_sum",
    "str_level_order",
    "take",
    "unpack_floats",
]


# The only backend; the e2e benchmark's run metadata still reports it.
def active_backend() -> str:
    return "numpy"


# -- packed coordinate blobs ---------------------------------------------------
# Snapshots store box coordinates as packed little-endian doubles.
# Floats round-trip bit-exactly through struct, so boxes rebuilt from a
# snapshot are identical.

def pack_floats(values: Sequence[float]) -> bytes:
    """Pack floats as little-endian doubles (bit-exact round-trip)."""
    return struct.pack(f"<{len(values)}d", *values)


def unpack_floats(blob: bytes) -> Tuple[float, ...]:
    """Inverse of :func:`pack_floats`."""
    return struct.unpack(f"<{len(blob) // 8}d", blob)


# -- build kernels -------------------------------------------------------------
# What a packed build asks of a level's boxes, answered from their
# per-dimension lo/hi columns (NumPy reads ``array('d')`` in place): the
# STR order, each node's MBR, the statistics' histograms and side sums.
# Each agrees to the bit with the per-object build: the sorts are stable
# over the same center doubles, and ``min``/``max`` leave NumPy whenever
# the data could tell NumPy's reduction from Python's (below).

#: Per-dimension coordinate columns.
Columns = Sequence[Sequence[float]]


def _reduces_exactly(col: Any) -> bool:
    """Whether NumPy's ``min``/``max`` of ``col`` is Python's: no NaN
    (Python's answer depends on where it sits) and no ``-0.0`` (Python
    keeps the first of ``-0.0 == 0.0``, ``np.minimum`` either)."""
    return not (np.isnan(col).any() or np.signbit(col[col == 0.0]).any())


def str_level_order(lo: Columns, hi: Columns, cap: int) -> Tuple["array[int]", List[int]]:
    """One Sort-Tile-Recursive level as ``(perm, offsets)``: the slots
    in packed order, as an integer array, and the bounds in it of each
    node of up to ``cap`` (node ``g`` is ``perm[offsets[g] : offsets[g +
    1]]``).

    Slots are sorted by center ``(lo + hi) / 2`` along dimension 0 and
    cut into ``ceil(sqrt(nodes))`` slices; from two dimensions up each
    slice is sorted again along dimension 1; no node spans two slices.
    Both sorts are stable.  NaN centers (``(-inf + inf) / 2``), which
    NumPy and Python's comparison sort order differently, take the
    Python path; the NumPy centre computation makes them silently.
    """
    n = len(lo[0])
    if not n:
        return array("q"), [0]
    tiled = len(lo) >= 2
    per_slice = n
    if tiled:
        per_slice = math.ceil(n / math.ceil(math.sqrt(math.ceil(n / cap))))
    offsets = [
        start
        for cut in range(0, n, per_slice)
        for start in range(cut, min(cut + per_slice, n), cap)
    ] + [n]
    with np.errstate(invalid="ignore"):
        cols = [
            (np.asarray(lo[d], np.float64) + np.asarray(hi[d], np.float64)) / 2
            for d in range(2 if tiled else 1)
        ]
    if not any(np.isnan(col).any() for col in cols):
        order = np.argsort(cols[0], kind="stable")
        if tiled:
            second = cols[1][order]
            for cut in range(0, n, per_slice):
                part = slice(cut, cut + per_slice)
                order[part] = order[part][np.argsort(second[part], kind="stable")]
        return array("q", order.astype(np.int64, copy=False).tobytes()), offsets
    keys = [(a + b) / 2 for a, b in zip(lo[0], hi[0])]
    perm = sorted(range(n), key=keys.__getitem__)
    if tiled:
        keys = [(a + b) / 2 for a, b in zip(lo[1], hi[1])]
        for cut in range(0, n, per_slice):
            perm[cut : cut + per_slice] = sorted(
                perm[cut : cut + per_slice], key=keys.__getitem__
            )
    return array("q", perm), offsets


def take(cols: Columns, perm: Sequence[int]) -> List["array[float]"]:
    """Each column in ``perm`` order: one level's coordinates as the
    packed tree stores them (``array('d')``, which NumPy reads in
    place)."""
    idx = np.asarray(perm, np.intp)
    return [array("d", np.asarray(col, np.float64)[idx].tobytes()) for col in cols]


def grouped_bounds(
    lo: Columns, hi: Columns, offsets: Sequence[int]
) -> Tuple[List[List[float]], List[List[float]]]:
    """Each group's MBR, a column per dimension: the ``min`` of its
    ``lo`` and the ``max`` of its ``hi`` coordinates, where group ``g``
    is slots ``offsets[g] : offsets[g + 1]`` of the packed columns (all
    nonempty)."""
    cols = [np.asarray(col, np.float64) for col in (*lo, *hi)]
    if all(_reduces_exactly(col) for col in cols):
        cut = np.asarray(offsets[:-1], np.intp)
        dim = len(lo)
        return (
            [np.minimum.reduceat(col, cut).tolist() for col in cols[:dim]],
            [np.maximum.reduceat(col, cut).tolist() for col in cols[dim:]],
        )
    spans = list(zip(offsets, offsets[1:]))

    def fold(pick: Any, col: Sequence[float]) -> List[float]:
        return [pick(col[a:b]) for a, b in spans]

    return [fold(min, col) for col in lo], [fold(max, col) for col in hi]


def equiwidth_counts(
    values: Sequence[float], bins: int
) -> Tuple[float, float, List[int]]:
    """``(lo, hi, counts)`` of a nonempty population: its ``min`` and
    ``max``, and how many values fall in each of ``bins`` equal-width
    buckets of ``[lo, hi]`` — bucket ``min(bins - 1, int((v - lo) /
    width))``, i.e. a truncating cast and a ``bincount``; one bucket
    when all values are equal.  A width that is not positive and finite
    (an infinite edge) takes the Python loop, which raises on it."""
    arr = np.asarray(values, np.float64)
    exact = _reduces_exactly(arr)
    if exact:
        lo, hi = float(arr.min()), float(arr.max())
    else:
        lo, hi = min(values), max(values)
    if hi <= lo:
        return lo, lo, [len(values)]
    width = (hi - lo) / bins
    if exact and 0.0 < width < math.inf:
        buckets = np.minimum(((arr - lo) / width).astype(np.intp), bins - 1)
        return lo, hi, np.bincount(buckets, minlength=bins).tolist()
    counts = [0] * bins
    for v in values:
        counts[min(bins - 1, int((v - lo) / width))] += 1
    return lo, hi, counts


def side_sum(lo: Sequence[float], hi: Sequence[float]) -> float:
    """``sum(hi - lo)`` over the slots.  Only the subtraction is
    vectorized: the sum stays builtin ``sum``'s sequential fold, as over
    the ``Box`` objects (``np.sum`` adds pairwise: another last bit)."""
    return sum((np.asarray(hi, np.float64) - np.asarray(lo, np.float64)).tolist())


# -- predicate kernels -------------------------------------------------------------
# Shared by the ColumnStore and the R-tree's columns.  For NumPy a query
# is *packed* into a tuple of coordinates, so the same comparisons serve
# one query against many slots and, in the R-tree's batched traversal,
# many (query, entry) pairs at once: a whole level of the tree costs a
# fixed number of NumPy calls however many queries of one *shape* are in
# flight.  :func:`scalar_mask` is the one-query form for the R-tree's
# small nodes: one pass down a column per comparison.

#: A nonempty box as its ``(lo, hi)`` edge tuples.
Edges = Tuple[Sequence[float], Sequence[float]]


def box_le(a: Edges, b: Edges) -> bool:
    """``a ⊑ b`` for nonempty boxes: :meth:`Box.le`'s comparisons."""
    return not (any(map(operator.lt, a[0], b[0])) or any(map(operator.gt, a[1], b[1])))


def box_meets(a: Edges, b: Edges) -> bool:
    """``a ⊓ b ≠ ∅`` for nonempty boxes: :meth:`Box.overlaps`'s."""
    return not (any(map(operator.ge, a[0], b[1])) or any(map(operator.ge, b[0], a[1])))


def scalar_mask(
    lo: Columns, hi: Columns, nonempty: Sequence[int], query: BoxQuery, leaf: bool
) -> List[bool]:
    """:func:`batch_mask` of one query in Python, one pass down a column
    per comparison that :meth:`Box.le` / :meth:`Box.overlaps` make."""
    inside, covers, overlap = query.inside, query.covers, query.overlap
    if any(box.is_empty() for box in (inside, *overlap) if box is not None):
        return [False] * len(nonempty)
    # (comparison, slot columns, query coordinates): a slot fails where one holds.
    fails: List[Tuple[Any, Columns, Any]] = [(operator.ge, lo, c.hi) for c in overlap]
    fails += [(operator.le, hi, c.lo) for c in overlap]
    if covers is not None and not covers.is_empty():
        fails += [(operator.gt, lo, covers.lo), (operator.lt, hi, covers.hi)]
    if inside is not None:  # a leaf inside it, an inner MBR meeting it
        fails += [(operator.lt, lo, inside.lo), (operator.gt, hi, inside.hi)] if leaf else [
            (operator.ge, lo, inside.hi), (operator.le, hi, inside.lo)]
    if not (leaf or fails):
        return [True] * len(nonempty)
    bad = [not live for live in nonempty]
    for op, cols, coords in fails:
        for col, q in zip(cols, coords):
            bad = list(map(operator.or_, bad, map(op, col, repeat(q))))
    return [not b for b in bad]


def packed_matches(shape: QueryShape, coords: Sequence[float], box: Box) -> bool:
    """``query.matches(box)`` for the satisfiable query packed as
    ``(shape, coords)``: the comparisons of :func:`scalar_mask` on one
    slot, and the empty box by :func:`~repro.boxes.bconstraints.
    matches_empty` (what the delta overlay tests its staged rows with)."""
    if box.is_empty():
        return matches_empty(shape)
    lo, hi = box.lo, box.hi
    dim = len(lo)
    has_inside, has_covers, n_overlap = shape
    at = 0  # of the packed box under test: lo at at + d, hi dim further
    if has_inside:
        if any(map(operator.lt, lo, coords[at : at + dim])) or any(
            map(operator.gt, hi, coords[at + dim : at + 2 * dim])
        ):
            return False
        at += 2 * dim
    if has_covers:
        if any(map(operator.gt, lo, coords[at : at + dim])) or any(
            map(operator.lt, hi, coords[at + dim : at + 2 * dim])
        ):
            return False
        at += 2 * dim
    for _ in range(n_overlap):
        if any(map(operator.ge, lo, coords[at + dim : at + 2 * dim])) or any(
            map(operator.le, hi, coords[at : at + dim])
        ):
            return False
        at += 2 * dim
    return True


def batch_mask(
    lo: Any, hi: Any, nonempty: Any, shape: QueryShape, coords: Any, leaf: bool
) -> Any:
    """Boolean mask over slots: does the slot's box satisfy its query?

    Slot ``t`` is the box ``[lo[d][t], hi[d][t])`` (``nonempty[t]``)
    against the query whose :func:`pack_query` coordinates are
    ``coords[:, t]`` — or, one query against every slot, the plain tuple
    ``coords``.  With ``leaf`` the test
    is ``not box.is_empty() and query.matches(box)``: the comparisons
    are Box.le / Box.overlaps for nonempty operands (overlap simplifies
    to two strict comparisons under the mask).  Without, it is the
    R-tree's descent test for an inner node's MBR: ``inside`` need only
    be overlapped, and a query with no constraint box at all descends
    everything — empty MBRs included.
    """
    has_inside, has_covers, n_overlap = shape
    if not (leaf or has_inside or has_covers or n_overlap):
        return np.ones(len(nonempty), dtype=bool)
    mask = nonempty.copy()
    dim = len(lo)
    row = 0  # of the packed box under test: lo at row + d, hi dim further
    if has_inside:
        for d in range(dim):
            if leaf:
                mask &= lo[d] >= coords[row + d]
                mask &= hi[d] <= coords[row + dim + d]
            else:
                mask &= lo[d] < coords[row + dim + d]
                mask &= hi[d] > coords[row + d]
        row += 2 * dim
    if has_covers:
        for d in range(dim):
            mask &= lo[d] <= coords[row + d]
            mask &= hi[d] >= coords[row + dim + d]
        row += 2 * dim
    for _ in range(n_overlap):
        for d in range(dim):
            mask &= lo[d] < coords[row + dim + d]
            mask &= hi[d] > coords[row + d]
        row += 2 * dim
    return mask


class ColumnStore:
    """Struct-of-arrays mirror of a table's bounding boxes.

    One contiguous ``array('d')`` of lo and of hi edge coordinates per
    dimension, plus a nonempty flag per row and the aligned row payloads
    — the in-memory twin of the snapshot format's packed coordinate
    blobs, and what the build path (STR load, repack, statistics) reads
    instead of the row objects.  A store is filled once (:meth:`bulk`)
    and never changed; its slots are aligned with the owning table's
    base row order, so "store position" and "scan position" are the
    same number, and a repack builds the next store from this one's
    columns.

    Empty boxes occupy a placeholder slot (zeros, flag 0): the kernels
    pass over them and rank them at infinite distance.  Their rows are
    also kept apart, in slot order, as :attr:`empty_rows`: a box query
    with no ``covers`` and no ``overlap`` admits them (see
    :meth:`SpatialTable.range_query_batch
    <repro.spatial.table.SpatialTable.range_query_batch>`).
    """

    __slots__ = ("dim", "rows", "_lo", "_hi", "_nonempty", "empty_rows")

    def __init__(self, dim: int) -> None:
        self.dim = dim
        #: Aligned row payloads (the table's ``SpatialObject``\ s).
        self.rows: List[object] = []
        self._lo = tuple(array("d") for _ in range(dim))
        self._hi = tuple(array("d") for _ in range(dim))
        self._nonempty = array("B")
        #: The rows of the empty slots, in slot order.
        self.empty_rows: List[object] = []

    def __len__(self) -> int:
        return len(self._nonempty)

    # -- building ----------------------------------------------------------------
    @classmethod
    def bulk(
        cls,
        dim: int,
        boxes: Sequence[Box],
        rows: Sequence[object],
        base: Optional["ColumnStore"] = None,
        drop: Sequence[int] = (),
    ) -> "ColumnStore":
        """A store filled a column at a time: ``base``'s slots minus
        those at the ascending positions ``drop`` (copied and closed
        up, not re-derived from the rows), then one slot per ``(box,
        row)`` — the constructor of bulk inserts, repacks and snapshot
        loads."""
        store = cls(dim)
        if base is not None:
            columns: List[Any] = [store.rows, store._nonempty, *store._lo, *store._hi]
            sources: List[Any] = [base.rows, base._nonempty, *base._lo, *base._hi]
            for column, source in zip(columns, sources):
                column.extend(source)
                for slot in reversed(drop):
                    del column[slot]
        blank = (0.0,) * dim
        live = [not box.is_empty() for box in boxes]
        for cols, edges in (
            (store._lo, [box.lo for box in boxes]),
            (store._hi, [box.hi for box in boxes]),
        ):
            # Row-major coordinates, cut into columns by stride.
            flat = array("d", chain.from_iterable(
                [edge if ok else blank for edge, ok in zip(edges, live)]
            ))
            for d in range(dim):
                cols[d].extend(flat[d::dim])
        store._nonempty.extend(array("B", live))
        store.rows.extend(rows)
        if 0 in store._nonempty.tobytes():
            store.empty_rows = list(
                compress(store.rows, map(operator.not_, store._nonempty))
            )
        return store

    def nonempty_columns(self) -> Tuple[List[Any], Columns, Columns]:
        """``(rows, lo, hi)`` of the nonempty slots in slot order — the
        build kernels' input (an R-tree's leaves name these rows by
        position).  The store's own lists and arrays, not copies, when
        no slot is empty: read-only."""
        if not self.empty_rows:
            return self.rows, self._lo, self._hi
        live = self._nonempty
        return (
            list(compress(self.rows, live)),
            tuple(array("d", compress(col, live)) for col in self._lo),
            tuple(array("d", compress(col, live)) for col in self._hi),
        )

    # -- views -------------------------------------------------------------------
    def _views(self) -> Tuple[Any, Any, Any]:
        """Zero-copy float64 views of the coordinate columns.

        Rebuilt per call: ``array`` reallocation on append would leave a
        cached view pointing at freed memory, and ``frombuffer`` is
        cheap relative to any kernel that follows.
        """
        lo = tuple(np.frombuffer(c, dtype=np.float64) for c in self._lo)
        hi = tuple(np.frombuffer(c, dtype=np.float64) for c in self._hi)
        flags = np.frombuffer(self._nonempty, dtype=np.uint8)
        return lo, hi, flags

    # -- the batched box-predicate kernel -----------------------------------------
    def match_positions(
        self,
        query: BoxQuery,
        candidates: Optional[Sequence[int]] = None,
    ) -> List[int]:
        """Positions of rows whose nonempty box satisfies ``query``.

        With ``candidates`` (store indices), only those rows are tested
        and the returned values are positions *into the candidates
        sequence*, in candidate order; without it, every row is tested
        and store indices come back ascending.  Either way the admitted
        set is exactly ``{i : not box_i.is_empty() and
        query.matches(box_i)}`` — the scan predicate of
        :meth:`SpatialTable.range_query
        <repro.spatial.table.SpatialTable.range_query>`.
        """
        lo, hi, flags = self._views()
        if candidates is not None:
            idx = np.asarray(candidates, dtype=np.intp)
            lo = tuple(c[idx] for c in lo)
            hi = tuple(c[idx] for c in hi)
            flags = flags[idx]
        mask = batch_mask(lo, hi, flags != 0, *pack_query(query, self.dim), True)
        return np.nonzero(mask)[0].tolist()

    def match_rows(self, query: BoxQuery) -> List[object]:
        """The matching rows themselves, in store (= insertion) order."""
        return self.match_packed(*pack_query(query, self.dim))

    def match_packed(self, shape: QueryShape, coords: Sequence[float]) -> List[object]:
        """:meth:`match_rows` of the query packed as ``(shape, coords)``
        (:func:`pack_query`): the scan table's probe."""
        lo, hi, flags = self._views()
        mask = batch_mask(lo, hi, flags != 0, shape, coords, True)
        return [self.rows[i] for i in np.nonzero(mask)[0].tolist()]

    # -- batched kNN distance kernels ----------------------------------------------
    # The whole-store scans (the R-tree's best-first browse computes the
    # same recipe in a scalar loop: its nodes are too small for a kernel
    # call to pay).  Both return one distance per row (``inf`` at empty
    # rows), accumulating squared per-dimension contributions in
    # dimension order and rooting once — the exact float recipe of the
    # Box methods, so ranking (ties included) matches the oracle.  A
    # square past the largest double is ``inf`` in both, silently: NumPy
    # is told not to warn of the overflow Python's float multiply does
    # not report either.

    def mindist_point(self, point: Sequence[float]) -> Any:
        """Per-row :meth:`Box.mindist_point
        <repro.boxes.box.Box.mindist_point>` distances to ``point``."""
        lo, hi, flags = self._views()
        acc = np.zeros(len(flags), dtype=np.float64)
        for d in range(self.dim):
            p = float(point[d])
            with np.errstate(over="ignore"):
                below = lo[d] - p
                above = p - hi[d]
                acc += np.where(
                    p < lo[d],
                    below * below,
                    np.where(p > hi[d], above * above, 0.0),
                )
        dist = np.sqrt(acc)
        dist[flags == 0] = np.inf
        return dist

    def mindist_box(self, anchor: Box) -> Any:
        """Per-row :meth:`Box.mindist <repro.boxes.box.Box.mindist>`
        distances to ``anchor`` (all ``inf`` for an empty anchor)."""
        lo, hi, flags = self._views()
        if anchor.is_empty():
            return np.full(len(flags), np.inf)
        acc = np.zeros(len(flags), dtype=np.float64)
        for d in range(self.dim):
            c, e = float(anchor.lo[d]), float(anchor.hi[d])
            with np.errstate(over="ignore"):
                below = c - hi[d]
                above = lo[d] - e
                acc += np.where(
                    c > hi[d],
                    below * below,
                    np.where(lo[d] > e, above * above, 0.0),
                )
        dist = np.sqrt(acc)
        dist[flags == 0] = np.inf
        return dist

    def distances_to(self, anchor: Any) -> Any:
        """Dispatch on the anchor kind (a :class:`Box` or a point)."""
        if isinstance(anchor, Box):
            return self.mindist_box(anchor)
        return self.mindist_point(anchor)

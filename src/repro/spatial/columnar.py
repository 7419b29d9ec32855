"""Columnar struct-of-arrays storage and the vectorized spatial kernels.

Every hot inner loop of the engine — box intersection tests, the PBSM
plane sweep, z-order key computation, kNN distance metrics — evaluates a
fixed set of per-dimension float comparisons uniformly over many
candidate boxes.  That shape batches well: this module keeps a
:class:`ColumnStore` mirror of a table's bounding boxes as one
contiguous lo/hi coordinate array per dimension and evaluates compiled
:class:`~repro.boxes.bconstraints.BoxQuery` predicates (and the kNN
distance metrics) against whole index ranges at once.

Backends
--------
Three backends, selected by :func:`active_backend`:

``"numpy"``
    NumPy ufuncs over zero-copy views of the coordinate arrays — the
    fast path, used whenever :mod:`numpy` imports (install the
    ``repro-helm-pods[accel]`` extra).
``"array"``
    The stdlib :mod:`array` fallback: the same columnar layout walked by
    scalar Python loops.  Bit-identical results — the expressions are
    the exact per-dimension comparisons and accumulations
    :class:`~repro.boxes.box.Box` uses, in the same order — just
    without the constant-factor win.
``"off"``
    Disable the vectorized paths entirely; every caller falls back to
    the per-object oracle code.

The default is ``"numpy"`` when available, else ``"array"``.  The
``REPRO_COLUMNAR`` environment variable overrides it (``numpy`` quietly
degrades to ``array`` when NumPy is missing, so one setting works
everywhere); tests pin a backend with :func:`forced_backend`.

Bit identity
------------
The kernels are property-tested to match the per-object oracle exactly,
not approximately:

* predicate kernels use the same strict/weak comparisons as
  :meth:`Box.le <repro.boxes.box.Box.le>` / :meth:`Box.overlaps
  <repro.boxes.box.Box.overlaps>` — float comparisons have no rounding,
  so the backends trivially agree;
* distance kernels accumulate squared per-dimension contributions in
  dimension order (float addition is order-sensitive) and take one
  square root at the end.  Every path squares with a plain multiply and
  roots with ``sqrt`` (``math.sqrt`` scalar-side, ``numpy.sqrt``
  array-side) — both are single correctly-rounded IEEE operations, so
  the backends and the oracle produce identical doubles, including the
  distance ties the kNN tie-break rule depends on.  ``x ** 2`` and
  ``x ** 0.5`` are **not** used: libm ``pow`` is off by one ulp from
  the fused forms on common platforms, which is exactly the kind of
  scalar/vectorized divergence the differential gates exist to catch.
"""

from __future__ import annotations

import math
import os
import struct
from array import array
from contextlib import contextmanager
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from ..boxes.bconstraints import BoxQuery
from ..boxes.box import Box

try:  # pragma: no cover - exercised via both CI jobs
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - the no-numpy CI job
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

__all__ = [
    "BACKENDS",
    "HAVE_NUMPY",
    "ColumnStore",
    "active_backend",
    "argsort_by_center",
    "batch_mask",
    "enabled",
    "forced_backend",
    "mindist_box_arrays",
    "mindist_point_arrays",
    "minmaxdist_point_arrays",
    "pack_floats",
    "pack_query",
    "resolve",
    "unpack_floats",
]

#: Recognised backend names (see module docstring).
BACKENDS = ("numpy", "array", "off")

#: Test override installed by :func:`forced_backend`; ``None`` defers to
#: the environment / availability default.
_FORCED: Optional[str] = None


def active_backend() -> str:
    """The backend the kernels will use right now.

    Precedence: :func:`forced_backend` override, then the
    ``REPRO_COLUMNAR`` environment variable, then ``"numpy"`` when
    available and ``"array"`` otherwise.  A ``numpy`` request without
    NumPy installed degrades to ``"array"``.
    """
    name = _FORCED
    if name is None:
        env = os.environ.get("REPRO_COLUMNAR", "").strip().lower()
        name = env if env in BACKENDS else None
    if name is None:
        name = "numpy" if HAVE_NUMPY else "array"
    if name == "numpy" and not HAVE_NUMPY:
        return "array"
    return name


def enabled() -> bool:
    """Whether any vectorized path may run (backend not ``"off"``)."""
    return active_backend() != "off"


def resolve(vectorize: Optional[bool]) -> bool:
    """Fold a per-plan ``vectorize`` option into the global switch.

    ``None`` means "use the vectorized path when a backend is enabled";
    an explicit ``False`` always wins, and an explicit ``True`` still
    respects ``REPRO_COLUMNAR=off`` (the global kill switch).
    """
    if vectorize is None:
        return enabled()
    return bool(vectorize) and enabled()


@contextmanager
def forced_backend(name: Optional[str]) -> Iterator[None]:
    """Pin the backend for the duration of a ``with`` block (tests).

    ``name`` must be one of :data:`BACKENDS` or ``None`` (restore the
    default resolution).  Forcing ``"numpy"`` without NumPy installed
    raises — a test that asks for the fast path should fail loudly, not
    silently measure the fallback.
    """
    # The module-level switch is the point of this helper: it pins the
    # backend process-wide so every kernel dispatch in the block agrees.
    global _FORCED  # noqa: PLW0603
    if name is not None and name not in BACKENDS:
        raise ValueError(
            f"unknown columnar backend {name!r}; expected one of {BACKENDS}"
        )
    if name == "numpy" and not HAVE_NUMPY:
        raise ValueError("cannot force the numpy backend: numpy is not installed")
    previous = _FORCED
    _FORCED = name
    try:
        yield
    finally:
        _FORCED = previous


# -- packed coordinate blobs ---------------------------------------------------
# Snapshots store box coordinates as packed little-endian doubles; the
# process-pool Exchange ships tile payloads the same way (one bytes blob
# instead of a pickled object graph per box).  Floats round-trip
# bit-exactly through struct, so rebuilt boxes are identical.

def pack_floats(values: Sequence[float]) -> bytes:
    """Pack floats as little-endian doubles (bit-exact round-trip)."""
    return struct.pack(f"<{len(values)}d", *values)


def unpack_floats(blob: bytes) -> Tuple[float, ...]:
    """Inverse of :func:`pack_floats`."""
    return struct.unpack(f"<{len(blob) // 8}d", blob)


# -- STR sort keys -------------------------------------------------------------
# The Sort-Tile-Recursive build (R-tree bulk load, table partitioning,
# shard splitting) repeatedly sorts boxes by per-dimension centers.  The
# center key is the same IEEE double whether computed per-object or in
# bulk, and a *stable* argsort of identical keys is the same permutation
# as a stable sort — so the vectorized build packs bit-identical trees.

def argsort_by_center(
    los: Sequence[float], his: Sequence[float]
) -> List[int]:
    """Stable permutation sorting slots by center ``(lo + hi) / 2``.

    Equivalent to ``sorted(range(n), key=lambda i: (los[i] + his[i]) / 2)``
    — Timsort is stable and so is the numpy path (``kind="stable"``), so
    both backends return the identical permutation.  Non-finite centers
    (``(-inf + inf) / 2`` is NaN, which numpy orders differently from
    Python's comparison-based sort) fall back to the Python path.
    """
    keys = [(lo + hi) / 2 for lo, hi in zip(los, his)]
    if active_backend() == "numpy" and keys:
        arr = np.asarray(keys, dtype=np.float64)
        if not np.isnan(arr).any():
            return np.argsort(arr, kind="stable").tolist()
    return sorted(range(len(keys)), key=keys.__getitem__)


# -- array-level predicate kernels (numpy backend only) ------------------------
# Shared by the ColumnStore and the R-tree's node-entry mirror: evaluate
# box queries over coordinate arrays.  A query is *packed* into a tuple
# of coordinates, so the same comparisons serve one query against many
# slots and, in the R-tree's batched traversal, many (query, entry)
# pairs at once: queries of one *shape* pack equally long, and a whole
# level of the tree costs a fixed number of NumPy calls however many
# queries are in flight.

#: Which constraint boxes a query carries: ``(has inside, has nonempty
#: covers, number of overlap boxes)``.
QueryShape = Tuple[bool, bool, int]


def pack_query(query: BoxQuery, dim: int) -> Tuple[QueryShape, Tuple[float, ...]]:
    """The query's shape and the ``lo`` then ``hi`` coordinates of its
    inside, covers and overlap boxes, in that order.  An empty inside or
    overlap box packs as ``[+inf, -inf)``, which no box fits inside or
    overlaps."""
    boxes = [] if query.inside is None else [query.inside]
    covers = query.covers is not None and not query.covers.is_empty()
    if covers:
        boxes.append(query.covers)
    boxes.extend(query.overlap)
    row: Tuple[float, ...] = ()
    for box in boxes:
        if box.is_empty():
            row += (math.inf,) * dim + (-math.inf,) * dim
        else:
            row += box.lo[:dim] + box.hi[:dim]
    return (query.inside is not None, covers, len(query.overlap)), row


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
    to two strict comparisons under the mask).  Without, it is
    :meth:`RTree._node_may_match
    <repro.spatial.rtree.RTree._node_may_match>` for an inner node's
    MBR: ``inside`` need only be overlapped, and a query with no
    constraint box at all descends everything — empty MBRs included.
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


# -- array-level distance kernels (numpy backend only) -------------------------
# Shared by the ColumnStore and the R-tree's best-first traversal.  All
# three return one distance per slot (``inf`` at empty slots),
# accumulating squared per-dimension contributions in dimension order
# and rooting once — the exact float recipe of the Box methods, so
# ranking (ties included) matches the per-object oracle.

def mindist_point_arrays(
    lo: Any, hi: Any, nonempty: Any, point: Sequence[float]
) -> Any:
    """Per-slot :meth:`Box.mindist_point
    <repro.boxes.box.Box.mindist_point>` distances to ``point``."""
    acc = np.zeros(len(nonempty), dtype=np.float64)
    for d in range(len(lo)):
        p = float(point[d])
        below = lo[d] - p
        above = p - hi[d]
        acc += np.where(
            p < lo[d],
            below * below,
            np.where(p > hi[d], above * above, 0.0),
        )
    dist = np.sqrt(acc)
    dist[~nonempty] = np.inf
    return dist


def mindist_box_arrays(lo: Any, hi: Any, nonempty: Any, anchor: Box) -> Any:
    """Per-slot :meth:`Box.mindist <repro.boxes.box.Box.mindist>`
    distances to ``anchor`` (all ``inf`` for an empty anchor)."""
    n = len(nonempty)
    if anchor.is_empty():
        return np.full(n, np.inf)
    acc = np.zeros(n, dtype=np.float64)
    for d in range(len(lo)):
        c, e = float(anchor.lo[d]), float(anchor.hi[d])
        below = c - hi[d]
        above = lo[d] - e
        acc += np.where(
            c > hi[d],
            below * below,
            np.where(lo[d] > e, above * above, 0.0),
        )
    dist = np.sqrt(acc)
    dist[~nonempty] = np.inf
    return dist


def minmaxdist_point_arrays(
    lo: Any, hi: Any, nonempty: Any, point: Sequence[float]
) -> Any:
    """Per-slot :meth:`Box.minmaxdist_point
    <repro.boxes.box.Box.minmaxdist_point>` distances to ``point``."""
    dim = len(lo)
    n = len(nonempty)
    total_far = np.zeros(n, dtype=np.float64)
    near_sq = []
    far_sq = []
    for d in range(dim):
        p = float(point[d])
        mid = (lo[d] + hi[d]) / 2
        near = np.where(p <= mid, lo[d], hi[d])
        far = np.where(p >= mid, lo[d], hi[d])
        n_sq = (p - near) ** 2
        f_sq = (p - far) ** 2
        near_sq.append(n_sq)
        far_sq.append(f_sq)
        total_far += f_sq
    best = total_far - far_sq[0] + near_sq[0]
    for d in range(1, dim):
        np.minimum(best, total_far - far_sq[d] + near_sq[d], out=best)
    dist = np.sqrt(best)
    dist[~nonempty] = np.inf
    return dist


class ColumnStore:
    """Struct-of-arrays mirror of a table's bounding boxes.

    One contiguous ``array('d')`` of lo and of hi edge coordinates per
    dimension, plus a nonempty flag per row and the aligned row payloads
    — the in-memory twin of the snapshot format's packed coordinate
    blobs.  Rows are append-only and index-aligned with the owning
    table's insertion order, so "store position" and "scan position" are
    the same number everywhere.

    Empty boxes occupy a placeholder slot (zeros, flag 0): they match no
    box query and are at infinite distance, exactly like the per-object
    code treats them.
    """

    __slots__ = ("dim", "rows", "_lo", "_hi", "_nonempty")

    def __init__(self, dim: int) -> None:
        self.dim = dim
        #: Aligned row payloads (the table's ``SpatialObject``\ s).
        self.rows: List[object] = []
        self._lo = tuple(array("d") for _ in range(dim))
        self._hi = tuple(array("d") for _ in range(dim))
        self._nonempty = array("B")

    def __len__(self) -> int:
        return len(self._nonempty)

    # -- building ----------------------------------------------------------------
    def append(self, box: Box, row: object) -> None:
        """Append one row's bounding box (empty boxes take a placeholder)."""
        if box.is_empty():
            for d in range(self.dim):
                self._lo[d].append(0.0)
                self._hi[d].append(0.0)
            self._nonempty.append(0)
        else:
            for d in range(self.dim):
                self._lo[d].append(box.lo[d])
                self._hi[d].append(box.hi[d])
            self._nonempty.append(1)
        self.rows.append(row)

    def append_coords(
        self, lo: Sequence[float], hi: Sequence[float], row: object
    ) -> None:
        """Append a nonempty box straight from coordinate sequences.

        The snapshot loader's path: columns fill directly from the
        packed payload, no intermediate ``Box`` required.
        """
        for d in range(self.dim):
            self._lo[d].append(lo[d])
            self._hi[d].append(hi[d])
        self._nonempty.append(1)
        self.rows.append(row)

    # -- numpy views -------------------------------------------------------------
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
        if active_backend() == "numpy":
            return self._match_positions_numpy(query, candidates)
        return self._match_positions_scalar(query, candidates)

    def _match_positions_numpy(
        self, query: BoxQuery, candidates: Optional[Sequence[int]]
    ) -> List[int]:
        lo, hi, flags = self._views()
        if candidates is not None:
            idx = np.asarray(candidates, dtype=np.intp)
            lo = tuple(c[idx] for c in lo)
            hi = tuple(c[idx] for c in hi)
            flags = flags[idx]
        mask = batch_mask(lo, hi, flags != 0, *pack_query(query, self.dim), True)
        return np.nonzero(mask)[0].tolist()

    def _match_positions_scalar(
        self, query: BoxQuery, candidates: Optional[Sequence[int]]
    ) -> List[int]:
        lo, hi, flags = self._lo, self._hi, self._nonempty
        inside = query.inside
        covers = query.covers
        if covers is not None and covers.is_empty():
            covers = None
        dead = (inside is not None and inside.is_empty()) or any(
            c.is_empty() for c in query.overlap
        )
        if dead:
            return []
        out: List[int] = []
        indices = range(len(flags)) if candidates is None else candidates
        for pos, i in enumerate(indices):
            if not flags[i]:
                continue
            ok = True
            if inside is not None:
                for d in range(self.dim):
                    if lo[d][i] < inside.lo[d] or hi[d][i] > inside.hi[d]:
                        ok = False
                        break
            if ok and covers is not None:
                for d in range(self.dim):
                    if lo[d][i] > covers.lo[d] or hi[d][i] < covers.hi[d]:
                        ok = False
                        break
            if ok:
                for c in query.overlap:
                    for d in range(self.dim):
                        if not (lo[d][i] < c.hi[d] and hi[d][i] > c.lo[d]):
                            ok = False
                            break
                    if not ok:
                        break
            if ok:
                out.append(pos if candidates is not None else i)
        return out

    def match_rows(self, query: BoxQuery) -> List[object]:
        """The matching rows themselves, in store (= insertion) order."""
        return [self.rows[i] for i in self.match_positions(query)]

    def argsort_by_center(
        self, d: int, candidates: Optional[Sequence[int]] = None
    ) -> List[int]:
        """Stable center-sort of store slots along dimension ``d``.

        Returns ``candidates`` (or all slots) permuted by
        :func:`argsort_by_center`; empty rows sort by their placeholder
        zeros, exactly like the per-object code sees when it never asks
        (callers only pass nonempty slots).
        """
        lo, hi = self._lo[d], self._hi[d]
        if candidates is None:
            perm = argsort_by_center(lo, hi)
            return perm
        los = [lo[i] for i in candidates]
        his = [hi[i] for i in candidates]
        return [candidates[p] for p in argsort_by_center(los, his)]

    # -- batched kNN distance kernels ----------------------------------------------
    # All three return one distance per row (``inf`` at empty rows),
    # accumulating squared per-dimension contributions in dimension
    # order and rooting once — the exact float recipe of the Box
    # methods, so ranking (ties included) matches the oracle.

    def mindist_point(self, point: Sequence[float]) -> Sequence[float]:
        """Per-row :meth:`Box.mindist_point
        <repro.boxes.box.Box.mindist_point>` distances to ``point``."""
        if active_backend() == "numpy":
            lo, hi, flags = self._views()
            return mindist_point_arrays(lo, hi, flags != 0, point)
        inf = float("inf")
        lo, hi, flags = self._lo, self._hi, self._nonempty
        out = []
        for i in range(len(flags)):
            if not flags[i]:
                out.append(inf)
                continue
            acc = 0.0
            for d in range(self.dim):
                p, a, b = point[d], lo[d][i], hi[d][i]
                if p < a:
                    gap = a - p
                    acc += gap * gap
                elif p > b:
                    gap = p - b
                    acc += gap * gap
            out.append(math.sqrt(acc))
        return out

    def mindist_box(self, anchor: Box) -> Sequence[float]:
        """Per-row :meth:`Box.mindist <repro.boxes.box.Box.mindist>`
        distances to ``anchor`` (all ``inf`` for an empty anchor)."""
        inf = float("inf")
        if active_backend() == "numpy":
            lo, hi, flags = self._views()
            return mindist_box_arrays(lo, hi, flags != 0, anchor)
        if anchor.is_empty():
            return [inf] * len(self)
        lo, hi, flags = self._lo, self._hi, self._nonempty
        out = []
        for i in range(len(flags)):
            if not flags[i]:
                out.append(inf)
                continue
            acc = 0.0
            for d in range(self.dim):
                a, b = lo[d][i], hi[d][i]
                c, e = anchor.lo[d], anchor.hi[d]
                if c > b:
                    gap = c - b
                    acc += gap * gap
                elif a > e:
                    gap = a - e
                    acc += gap * gap
            out.append(math.sqrt(acc))
        return out

    def distances_to(self, anchor: Any) -> Sequence[float]:
        """Dispatch on the anchor kind (a :class:`Box` or a point)."""
        if isinstance(anchor, Box):
            return self.mindist_box(anchor)
        return self.mindist_point(anchor)

    def minmaxdist_point(self, point: Sequence[float]) -> Sequence[float]:
        """Per-row :meth:`Box.minmaxdist_point
        <repro.boxes.box.Box.minmaxdist_point>` distances to ``point``."""
        if active_backend() == "numpy":
            lo, hi, flags = self._views()
            return minmaxdist_point_arrays(lo, hi, flags != 0, point)
        inf = float("inf")
        lo, hi, flags = self._lo, self._hi, self._nonempty
        out = []
        for i in range(len(flags)):
            if not flags[i]:
                out.append(inf)
                continue
            near_sq = []
            far_sq = []
            for d in range(self.dim):
                p, a, b = point[d], lo[d][i], hi[d][i]
                mid = (a + b) / 2
                near = a if p <= mid else b
                far = a if p >= mid else b
                near_sq.append((p - near) * (p - near))
                far_sq.append((p - far) * (p - far))
            total_far = sum(far_sq)
            best = min(
                total_far - f + n for n, f in zip(near_sq, far_sq)
            )
            out.append(math.sqrt(best))
        return out

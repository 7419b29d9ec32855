"""Spatial tables: the database the query engine retrieves from.

A :class:`SpatialTable` stores identified :class:`~repro.algebra.regions.
Region` rows and maintains a derived index over their bounding boxes.
Two interchangeable index backends implement the same range-query
contract (and are property-tested to agree):

* ``"rtree"`` — :class:`repro.spatial.rtree.RTree` over the boxes;
* ``"scan"`` — sequential scan (the baseline every bench compares to).

The table records probe statistics uniformly so benchmarks can compare
backends.  The table's mutation counter invalidates its statistics
cache.  Every probe reads the index: there is no result cache.

One write path (MVCC-lite): every write *stages*.
:meth:`SpatialTable.insert` / :meth:`SpatialTable.delete` (the same as
:meth:`SpatialTable.stage_insert` / :meth:`SpatialTable.stage_delete`)
land in the table's :class:`~repro.spatial.delta.TableDelta` and the
packed base structures stay frozen; every read path merges the delta
transparently.  ``(base_version, delta_watermark)`` identifies the
logical snapshot, and :meth:`SpatialTable.repack` folds the delta into
freshly built base structures (bumping the base version) — the one way
rows reach the base, which :meth:`SpatialTable.bulk_insert` takes for
many rows at once.  The r-tree is always STR-packed and never edited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..algebra.regions import Region
from ..boxes.bconstraints import BoxQuery
from ..boxes.box import Box
from ..errors import AnchorError, DimensionMismatchError, OptionError
from . import columnar
from .columnar import ColumnStore
from .delta import TableDelta
from .rtree import RTree

#: Staged mutations past which an (unshared) table repacks itself inline.
#: The query service repacks off-thread instead (see repro.service).
DEFAULT_DELTA_THRESHOLD = 64


@dataclass(frozen=True)
class SpatialObject:
    """One row: an identifier, its exact region, and the derived box."""

    oid: object
    region: Region
    box: Box

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"SpatialObject({self.oid!r})"


class SpatialTable:
    """A named collection of regions with a box index.

    Parameters
    ----------
    name:
        Table name (used in plans and stats).
    dim:
        Dimensionality of the stored regions.
    index:
        ``"rtree"`` (default) or ``"scan"``.
    universe:
        Universe box, recommended (the planner uses it as the region
        algebra's universe).
    node_capacity:
        R-tree node capacity ``M``.
    delta_threshold:
        Staged mutations past which the table repacks itself inline
        (see :meth:`repack`); shared-base clones never self-repack.
    """

    VALID_INDEXES = ("rtree", "scan")

    def __init__(
        self,
        name: str,
        dim: int,
        index: str = "rtree",
        universe: Optional[Box] = None,
        node_capacity: int = 8,
        delta_threshold: int = DEFAULT_DELTA_THRESHOLD,
    ):
        if index not in self.VALID_INDEXES:
            raise ValueError(
                f"unknown index {index!r}; expected one of {self.VALID_INDEXES}"
            )
        self.name = name
        self.dim = dim
        self.index_kind = index
        self.universe = universe
        self.node_capacity = node_capacity
        self._objects: Dict[object, SpatialObject] = {}
        self._rtree: Optional[RTree] = (
            RTree(max_entries=node_capacity) if index == "rtree" else None
        )
        # Struct-of-arrays mirror of the base rows' bounding boxes, kept
        # index-aligned with the row order (the batched kernels' input;
        # see repro.spatial.columnar).
        self._columns = ColumnStore(dim)
        self.probes = 0
        self.candidates_returned = 0
        # How often a vectorized kernel ran, and how many candidate
        # rows/entries it evaluated (reported via ExecutionStats).
        self.vectorized_batches = 0
        self.vectorized_candidates = 0
        # Delta overlay counters: how often a read path merged staged
        # rows, and how many repacks folded a delta into fresh bases.
        self.delta_probes = 0
        self.repacks = 0
        # Base version; invalidates the cached statistics below.
        self._version = 0
        # Per-parameter statistics cache for the current version, keyed
        # on ``(bins, sample_size, seed)``.
        self._stats_cache: Dict[Tuple, object] = {}
        self._stats_version: Optional[int] = None
        # LSM-style write delta: every write lands here (usually empty).
        self._delta = TableDelta()
        self.delta_threshold = delta_threshold
        # True on with_staged() clones: the packed base structures are
        # shared with the parent, and the clone never self-repacks — the
        # service layer orchestrates its repacks off-thread.
        self._shares_base = False
        # Merged (base + delta) statistics, keyed by watermark + params.
        self._delta_stats_cache: Dict[Tuple, object] = {}

    def __len__(self) -> int:
        d = self._delta
        # Tombstones only ever name base rows, so this is exact.
        return len(self._objects) - len(d.tombstones) + len(d.inserts)

    def __iter__(self) -> Iterator[SpatialObject]:
        """Live rows: base order minus tombstones, then staged rows."""
        d = self._delta
        if not d.pending_ops:
            return iter(self._objects.values())
        return self._live_iter(d)

    def _live_iter(self, d: TableDelta) -> Iterator[SpatialObject]:
        tomb = d.tombstones
        for oid, obj in self._objects.items():
            if oid not in tomb:
                yield obj
        yield from d.inserts.values()

    # -- delta / MVCC-lite --------------------------------------------------------
    @property
    def delta_pending(self) -> bool:
        """Whether any staged mutation awaits a repack."""
        return self._delta.pending_ops > 0

    @property
    def delta_pending_ops(self) -> int:
        """Staged mutations awaiting a repack."""
        return self._delta.pending_ops

    @property
    def delta_watermark(self) -> int:
        """Staged-mutation counter since the last repack (0 when clean)."""
        return self._delta.watermark

    @property
    def mvcc_token(self) -> Tuple[int, int]:
        """The ``(base_version, delta_watermark)`` snapshot identity.

        The base version bumps only when the base is rebuilt — at a
        repack, a :meth:`bulk_insert` and a :meth:`pack`; the watermark
        bumps once per staged mutation.  Two equal tokens on the same
        table object denote bit-identical query answers.
        """
        return (self._version, self.delta_watermark)

    def delta_stats(self) -> dict:
        """Delta/MVCC counters for reporting."""
        d = self._delta
        return {
            "pending_inserts": len(d.inserts),
            "tombstones": len(d.tombstones),
            "watermark": d.watermark,
            "base_version": self._version,
            "threshold": self.delta_threshold,
            "repacks": self.repacks,
            "delta_probes": self.delta_probes,
        }

    # -- updates -----------------------------------------------------------------
    def _new_row(self, oid, region: Region) -> SpatialObject:
        """The row ``(oid, region)`` becomes, once checked: the region
        has this table's dimension and ``oid`` names no live row."""
        if region.dim is not None and region.dim != self.dim:
            raise DimensionMismatchError(
                f"region is {region.dim}-dim, table {self.name!r} is "
                f"{self.dim}-dim"
            )
        d = self._delta
        if oid in d.inserts or (
            oid in self._objects and oid not in d.tombstones
        ):
            raise ValueError(f"duplicate oid {oid!r} in table {self.name!r}")
        return SpatialObject(oid=oid, region=region, box=region.bounding_box())

    def stage_insert(self, oid, region: Region) -> SpatialObject:
        """Insert a row; the bounding box is derived and, at the next
        repack, indexed.

        The write stages in the delta — O(delta), no base touch.  The
        row is immediately visible to every read path (the delta is
        merged transparently); the packed base structures and the base
        version stay untouched, so the base statistics survive.  Past
        ``delta_threshold`` staged mutations an unshared table repacks
        itself inline.
        """
        obj = self._new_row(oid, region)
        self._delta.stage_insert(obj)
        self._maybe_repack()
        return obj

    #: Every write stages: ``insert`` is :meth:`stage_insert`.
    insert = stage_insert

    def stage_delete(self, oid) -> bool:
        """Stage a delete; returns False when ``oid`` is not live.

        A staged insert is unstaged outright; a base row gains a
        tombstone (the base structures keep the row until the next
        repack, every read path filters it).
        """
        ok = self._delta.stage_delete(oid, base_has=oid in self._objects)
        if ok:
            self._maybe_repack()
        return ok

    def delete(self, oid) -> None:
        """:meth:`stage_delete`, raising KeyError when ``oid`` is absent."""
        if not self.stage_delete(oid):
            raise KeyError(oid)

    def _maybe_repack(self) -> None:
        if (
            not self._shares_base
            and self._delta.pending_ops >= self.delta_threshold
        ):
            self.repack()

    def repack(self) -> bool:
        """Fold the write delta into freshly packed base structures.

        Builds a new row map, column store and index beside the old
        ones and publishes them by plain attribute assignment — a
        reader holding references to the old structures finishes
        against a consistent snapshot.  Nothing is re-derived row by
        row: the new store is the old one's columns, tombstoned slots
        closed up and staged rows appended (:meth:`ColumnStore.bulk`),
        and the r-tree STR-loads from those columns
        (:meth:`RTree.bulk_load_columns`) — the structures a fresh
        :meth:`bulk_insert` of the live rows builds.  The base version
        bump invalidates the base statistics.

        Returns True when anything was folded (no-op on a clean table).
        """
        if not self._fold():
            return False
        self.repacks += 1
        return True

    def _fold(self) -> bool:
        """:meth:`repack` without the count: False, and a fresh delta,
        when nothing is staged."""
        d = self._delta
        if not d.pending_ops:
            self._delta = TableDelta()
            return False
        tomb = d.tombstones
        # repr-sort: oids may mix types; a deterministic order keeps the
        # incremental statistics' float folds reproducible across runs.
        removed = [
            self._objects[oid]
            for oid in sorted(tomb, key=repr)
            if oid in self._objects
        ]
        slots = enumerate(self._objects) if removed else ()
        dead = [slot for slot, oid in slots if oid in tomb]
        new_objects = dict(self._objects)
        for obj in removed:
            del new_objects[obj.oid]
        new_objects.update(d.inserts)
        staged = list(d.inserts.values())
        columns = ColumnStore.bulk(
            self.dim, [obj.box for obj in staged], staged, self._columns, dead
        )
        rtree = None if self._rtree is None else self._packed_rtree(columns)
        self._objects = new_objects
        self._columns = columns
        self._rtree = rtree
        self._delta_stats_cache = {}
        self._shares_base = False
        self._version += 1
        self._delta = TableDelta()
        return True

    def _packed_rtree(self, columns: ColumnStore) -> RTree:
        """The STR-packed r-tree over a store's nonempty rows, loaded
        from the store's own coordinate columns."""
        return RTree.bulk_load_columns(
            *columns.nonempty_columns(), max_entries=self.node_capacity
        )

    def with_staged(
        self,
        inserts: Sequence[Tuple[object, Region]] = (),
        deletes: Sequence[object] = (),
    ) -> "SpatialTable":
        """An O(delta) MVCC clone with the given writes staged.

        The clone shares the immutable packed base structures (row map,
        r-tree, column store) and the base statistics cache with
        this table and stages the writes in its own copied delta —
        building one costs O(staged mutations), never O(table), and
        reading one builds nothing either: its probes read the shared
        base and scan the staged rows.  The query service's mutation
        endpoints publish such clones through the snapshot store's
        atomic swap: readers pinned to the old snapshot are never
        blocked or perturbed.

        The clone is marked shared-base: it never repacks in place and
        never self-repacks on threshold (its owner orchestrates that).
        """
        clone = SpatialTable.__new__(SpatialTable)
        clone.name = self.name
        clone.dim = self.dim
        clone.index_kind = self.index_kind
        clone.universe = self.universe
        clone.node_capacity = self.node_capacity
        clone.delta_threshold = self.delta_threshold
        clone._objects = self._objects
        clone._rtree = self._rtree
        clone._columns = self._columns
        clone.probes = 0
        clone.candidates_returned = 0
        clone.vectorized_batches = 0
        clone.vectorized_candidates = 0
        clone.delta_probes = self.delta_probes
        clone.repacks = self.repacks
        clone._version = self._version
        clone._stats_cache = dict(self._stats_cache)
        clone._stats_version = self._stats_version
        clone._delta_stats_cache = {}
        clone._delta = self._delta.clone()
        clone._shares_base = True
        for oid, region in inserts:
            clone.stage_insert(oid, region)
        for oid in deletes:
            clone.delete(oid)
        return clone

    def bulk_insert(
        self, rows: Sequence[Tuple[object, Region]], pack: bool = True
    ) -> None:
        """Insert many rows and fold them into the base at once.

        Each row is checked as :meth:`stage_insert` checks it, then all
        of them — with any writes staged before — fold like a
        :meth:`repack`: one column store, one STR-packed r-tree (on the
        r-tree backend), one base-version bump.  No op-log entry is made
        per row and no threshold is checked on the way.  A failing row stops the
        load, but the rows before it are folded all the same, so the
        index covers whatever made it in.

        ``pack`` stays for callers that pass ``pack=True``: every
        r-tree is STR-packed, and ``pack=False`` raises
        :class:`ValueError`.
        """
        if not pack:
            raise ValueError(
                "pack=False is gone: every r-tree is STR-packed, so "
                "bulk_insert takes pack=True or no pack argument"
            )
        staged = self._delta.inserts
        try:
            for oid, region in rows:
                obj = self._new_row(oid, region)
                staged[oid] = obj
        finally:
            self._fold()

    def pack(self) -> None:
        """Fold any staged writes, then STR-load the r-tree again over
        the base rows: the tree :meth:`repack` builds, rebuilt even on a
        clean table, with fresh index counters (as after
        :meth:`reset_stats`) and a base-version bump.  On the scan
        backend this is :meth:`repack`.
        """
        if self.repack() or self._rtree is None:
            return
        self._rtree = self._packed_rtree(self._columns)
        self._version += 1

    def get(self, oid) -> SpatialObject:
        """Row lookup by id (the live view: staged rows are found,
        tombstoned rows raise KeyError)."""
        d = self._delta
        obj = d.inserts.get(oid)
        if obj is not None:
            return obj
        if oid in d.tombstones:
            raise KeyError(oid)
        return self._objects[oid]

    # -- queries --------------------------------------------------------------------
    def column_store(self) -> Optional[ColumnStore]:
        """The table's :class:`ColumnStore`, or ``None`` while a write
        delta is pending: the column slots mirror the *base* rows, so
        they misalign with the live view (tombstones, staged rows) —
        external batch consumers must fall back to their scalar paths
        until the next repack realigns them.  The table's own read
        paths merge the delta internally instead.
        """
        return None if self.delta_pending else self._columns

    def packed_columns(
        self,
    ) -> Tuple[List[SpatialObject], columnar.Columns, columnar.Columns]:
        """``(rows, lo, hi)``: the nonempty *base* rows and their
        coordinate columns on any backend setting, read-only — what the
        statistics scan reads (:meth:`ColumnStore.nonempty_columns`)."""
        return self._columns.nonempty_columns()

    def batches_probes(self) -> bool:
        """Whether the R-tree's NumPy kernels serve this table's probes,
        so :meth:`range_query_batch` reads the index once per batch."""
        return self._rtree is not None

    def range_query(self, query: BoxQuery) -> List[SpatialObject]:
        """All rows whose bounding box satisfies ``query``.

        One index probe per call — the paper's "every retrieval step is a
        single range query".  While a write delta is pending the base
        probe result is overlaid with it (tombstoned rows filtered,
        matching staged rows appended), billed as one ``delta_probe``.
        """
        return self.range_query_batch([query])[0]

    def range_query_batch(
        self, queries: Sequence[BoxQuery]
    ) -> List[List[SpatialObject]]:
        """:meth:`range_query` of each query, the index read
        set-at-a-time: on an r-tree table every satisfiable query shares
        ONE traversal (:meth:`RTree.search_batch`), a scan table runs
        one column kernel per query.  Rows, row order and every counter
        (table, R-tree) are those of calling :meth:`range_query` query
        after query; an unsatisfiable query is billed as a probe and
        reads nothing."""
        live = [not query.is_unsatisfiable() for query in queries]
        self.probes += len(queries)
        self.vectorized_batches += sum(live)
        if self._rtree is None:
            self.vectorized_candidates += sum(live) * len(self._columns)
            found = [
                self._columns.match_rows(query) if ok else []
                for query, ok in zip(queries, live)
            ]
        else:
            before = self._rtree.stats.entry_tests
            found = self._rtree.search_batch(queries)
            self.vectorized_candidates += self._rtree.stats.entry_tests - before
        d = self._delta
        for i, ok in enumerate(live):
            if ok:
                if d.pending_ops:
                    found[i] = self._overlay_rows(found[i], queries[i], d)
                self.candidates_returned += len(found[i])
        return found

    def _overlay_rows(
        self,
        base_rows: List[SpatialObject],
        query: BoxQuery,
        d: TableDelta,
    ) -> List[SpatialObject]:
        """Merge the write delta into a base probe result, a list of
        the probe's own: drop tombstoned rows, append matching staged
        rows in insertion order (deterministic, and exactly the
        live-scan order relative to the base stream)."""
        self.delta_probes += 1
        tomb = d.tombstones
        rows = [obj for obj in base_rows if obj.oid not in tomb] if tomb else base_rows
        rows.extend(d.matches(query))
        return rows

    # -- nearest neighbors --------------------------------------------------------
    def _checked_anchor(self, anchor):
        """``anchor`` as every kNN path may take it: a box, or a point
        as a tuple of finite floats, of this table's dimension.  (The
        empty box fits any dimension; a box may be unbounded.)"""
        if isinstance(anchor, Box):
            if anchor.is_empty():
                return anchor
            dim = anchor.dim
            finite = not any(c != c for c in anchor.lo + anchor.hi)
        else:
            try:
                anchor = tuple(map(float, anchor))
            except (TypeError, ValueError) as exc:
                raise AnchorError(f"kNN anchor {anchor!r}: {exc}") from None
            dim = len(anchor)
            finite = all(map(math.isfinite, anchor))
        if dim != self.dim:
            raise DimensionMismatchError(
                f"kNN anchor is {dim}-dim, table {self.name!r} is {self.dim}-dim"
            )
        if not finite:
            raise AnchorError(f"kNN anchor {anchor!r} has a non-finite coordinate")
        return anchor

    def nearest(
        self, anchor, k: int, access: str = "auto"
    ) -> List[Tuple[float, SpatialObject]]:
        """The ``k`` rows nearest to ``anchor`` (a point or a box).

        Distances are bounding-box MINDISTs; rows are returned in
        nondecreasing distance with ties at the ``k``-th distance broken
        by ``repr(oid)``, so every access path returns the *same* list
        (property-tested against :meth:`nearest_bruteforce`):

        * ``"bestfirst"`` — the R-tree's incremental best-first browse
          (r-tree backend only), a scalar walk of the tree's array
          form.  A pending write delta rides it:
          staged rows are queued at their distances beside the root,
          tombstoned rows are passed over, and the browse ends at the
          ``k``-th *live* row;
        * ``"scan"`` — one columnar distance kernel call over the base
          rows, then a sort of the nearest few and the staged rows;
        * ``"auto"`` — best-first on the r-tree backend, scan on the
          scan backend.

        The options and the anchor are checked once, here, for every
        path: ``k`` an ``int`` (not a ``bool``) and ``access`` one this
        table can run (:class:`~repro.errors.OptionError`), this table's
        dimension (:class:`~repro.errors.DimensionMismatchError`) and,
        a point, finite numbers (:class:`~repro.errors.AnchorError`).
        Counts one probe, like a range query.
        """
        if isinstance(k, bool) or not isinstance(k, int):
            raise OptionError(f"k must be an integer, not {k!r}")
        if access not in ("auto", "bestfirst", "scan"):
            raise OptionError(
                f"unknown kNN access {access!r}; expected 'auto', "
                f"'bestfirst' or 'scan'"
            )
        if access == "bestfirst" and self._rtree is None:
            raise OptionError(
                f"best-first kNN needs the rtree backend; table "
                f"{self.name!r} uses {self.index_kind!r}"
            )
        if k <= 0:
            return []
        anchor = self._checked_anchor(anchor)
        self.probes += 1
        d = self._delta if self.delta_pending else None
        if d is not None:
            self.delta_probes += 1
        if self._rtree is not None and access != "scan":
            seeds = () if d is None else d.distances(anchor)
            dead = d.buries if d is not None and d.tombstones else None
            out = self._rtree.nearest(
                anchor, k, lambda obj: repr(obj.oid), seeds, dead
            )
        else:
            out = self._nearest_columnar(anchor, k, d)
            self.vectorized_batches += 1
            self.vectorized_candidates += len(self._columns)
        self.candidates_returned += len(out)
        return out

    def nearest_bruteforce(
        self, anchor, k: int
    ) -> List[Tuple[float, SpatialObject]]:
        """Brute-force kNN reference: scan every row, sort, cut.

        The differential-testing oracle for :meth:`nearest` — same
        anchor check, same distance metric, same deterministic
        tie-break, no index.  Counts one probe (a full scan).
        """
        if k <= 0:
            return []
        anchor = self._checked_anchor(anchor)
        self.probes += 1
        if self.delta_pending:
            self.delta_probes += 1
        out = self._nearest_scan(anchor, k)
        self.candidates_returned += len(out)
        return out

    def _nearest_scan(
        self, anchor, k: int
    ) -> List[Tuple[float, SpatialObject]]:
        # Iterates the live view (`self`), so staged rows rank and
        # tombstoned rows do not — the delta oracle for free.
        metric = Box.mindist if isinstance(anchor, Box) else Box.mindist_point
        ranked = sorted(
            (
                (metric(obj.box, anchor), obj)
                for obj in self
                if not obj.box.is_empty()
            ),
            key=lambda pair: (pair[0], repr(pair[1].oid)),
        )
        return ranked[:k]

    def _nearest_columnar(
        self, anchor, k: int, d: Optional[TableDelta]
    ) -> List[Tuple[float, SpatialObject]]:
        """:meth:`_nearest_scan` over the columnar distance kernel.

        One batched MINDIST evaluation replaces the per-object distance
        calls on the base rows; the kernel produces the exact same
        doubles.  Only base rows at or below the ``k + len(tombstones)``-th
        smallest distance can rank (``k`` of those are live), so only
        they — every tie at that distance included — are sorted, with
        the delta ``d``'s staged rows, by the oracle's key."""
        store = self._columns
        tomb = d.tombstones if d is not None else ()
        dist = store.distances_to(anchor)
        want = k + len(tomb)
        if want < len(dist):
            slots = np.flatnonzero(dist <= np.partition(dist, want - 1)[want - 1])
        else:
            slots = np.arange(len(dist))
        rows = store.rows
        pairs = [
            (near, rows[slot])
            for slot, near in zip(slots.tolist(), dist[slots].tolist())
            if not rows[slot].box.is_empty() and rows[slot].oid not in tomb
        ]
        if d is not None:
            pairs.extend(d.distances(anchor))
        pairs.sort(key=lambda pair: (pair[0], repr(pair[1].oid)))
        return pairs[:k]

    # -- counting aggregation ------------------------------------------------------
    def count_range(self, query: BoxQuery) -> int:
        """``len(self.range_query(query))`` without materialising rows.

        On the r-tree backend this is the COUNT pushdown: subtrees whose
        MBR is fully inside a pure containment query contribute their
        cached entry counts without being read (see
        :meth:`repro.spatial.rtree.RTree.count`).  The scan backend
        counts the range query's result.
        """
        if query.is_unsatisfiable():
            self.probes += 1
            return 0
        d = self._delta
        if self._rtree is not None:
            self.probes += 1
            total = self._rtree.count(query)
            if d.pending_ops:
                # The pushdown counted tombstoned base rows too; back
                # them out individually (tombstone sets are small) and
                # add the staged matches.
                self.delta_probes += 1
                for oid in d.tombstones:
                    obj = self._objects.get(oid)
                    if (
                        obj is not None
                        and not obj.box.is_empty()
                        and query.matches(obj.box)
                    ):
                        total -= 1
                total += d.count(query)
            return total
        return len(self.range_query(query))

    def scan(self) -> List[SpatialObject]:
        """All live rows (the naive executor's access path)."""
        self.probes += 1
        d = self._delta
        if d.pending_ops:
            self.delta_probes += 1
            out = list(self._live_iter(d))
        else:
            out = list(self._objects.values())
        self.candidates_returned += len(out)
        return out

    def reset_stats(self) -> None:
        """Zero the probe counters (index-internal counters too)."""
        self.probes = 0
        self.candidates_returned = 0
        self.vectorized_batches = 0
        self.vectorized_candidates = 0
        self.delta_probes = 0
        self.repacks = 0
        if self._rtree is not None:
            self._rtree.stats.reset()

    def index_read_count(self) -> int:
        """Backend-neutral cumulative read counter (r-tree node reads;
        0 for the scan backend)."""
        if self._rtree is not None:
            return self._rtree.stats.node_reads
        return 0

    def index_stats(self) -> dict:
        """Backend-specific counters for reporting."""
        if self._rtree is not None:
            return {
                "kind": "rtree",
                "node_reads": self._rtree.stats.node_reads,
                "height": self._rtree.height(),
            }
        return {"kind": "scan"}

    # -- statistics (cost-based planning) -----------------------------------------
    def statistics(
        self,
        bins: int = 16,
        sample_size: int = 24,
        seed: int = 0,
    ):
        """Table statistics for the cost-based planner, cached here.

        Any base rebuild invalidates the cache (it is keyed on the base
        version); within one version, each distinct parameter set is
        computed once.  See :mod:`repro.engine.catalog` for the
        statistics' contents.

        While a write delta is pending the base statistics are *not*
        resampled: the cached base entry (computed over base rows only,
        still keyed by the base version) is adjusted incrementally from
        the staged rows via
        :meth:`~repro.engine.catalog.TableStatistics.apply_delta` —
        count, histograms, average extents and the sample update in
        O(delta), and the result carries ``delta_count`` so the planner
        can price the overlay.  Merged statistics cache per watermark.
        """
        if self._stats_version != self._version:
            self._stats_cache = {}
            self._delta_stats_cache = {}
            self._stats_version = self._version
        from ..engine.catalog import collect_statistics

        d = self._delta
        key = (bins, sample_size, seed)
        if not d.pending_ops:
            if key not in self._stats_cache:
                self._stats_cache[key] = collect_statistics(
                    self, bins=bins, sample_size=sample_size, seed=seed
                )
            return self._stats_cache[key]
        # Base statistics come from the base rows alone (the live
        # iterator would leak staged rows into them).
        if key not in self._stats_cache:
            self._stats_cache[key] = collect_statistics(
                self,
                bins=bins,
                sample_size=sample_size,
                seed=seed,
                rows=self.packed_columns()[0],
                total=len(self._objects),
            )
        base = self._stats_cache[key]
        dkey = (d.watermark, *key)
        if dkey not in self._delta_stats_cache:
            removed = [
                self._objects[oid]
                for oid in sorted(d.tombstones, key=repr)
                if oid in self._objects
            ]
            stats = base.apply_delta(
                inserted=tuple(d.inserts.values()),
                removed=tuple(removed),
                sample_size=sample_size,
                bins=bins,
            )
            self._delta_stats_cache[dkey] = stats
        return self._delta_stats_cache[dkey]

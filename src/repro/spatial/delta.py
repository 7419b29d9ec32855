"""LSM-style in-memory write delta for a :class:`~repro.spatial.table.SpatialTable`.

The packed base structures (STR r-tree, grid file, column store) are
expensive to build and cheap to query; point mutations are the opposite.
A :class:`TableDelta` stages inserts and deletes without touching the
base: inserted rows live in a small insertion-ordered memo, deletes of
base rows become *tombstones* keyed by oid, and a delete of a row that
was itself staged simply unstages it.  Every table read path merges the
delta transparently — filter tombstoned base rows, append matching
staged rows — so readers observe the live table while the base stays
immutable until a *repack* folds the delta in and rebuilds the packed
structures.

MVCC-lite: a ``(base_version, watermark)`` pair identifies a logical
snapshot.  The watermark bumps once per staged mutation; the base
version only bumps at repack.  Cached artifacts keyed by the base
version alone (probe-cache entries over base rows, base statistics)
therefore survive delta-only writes, while artifacts that must see the
live rows (partitionings, merged statistics) key on the pair.

Cost model: with only a handful of staged rows a probe brute-forces the
memo; past :data:`INDEX_THRESHOLD` staged inserts an insertion-built
r-tree over the staged boxes prunes the (comparatively expensive)
geometry tests, and a cheap insertion-order sweep restores deterministic
output order.  The index is maintained incrementally on insert and
dropped on unstage; it rebuilds lazily at the next probe.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Iterator, List, Optional, Set, Tuple

from ..boxes.bconstraints import BoxQuery
from ..boxes.box import Box
from .rtree import RTree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .table import SpatialObject

#: Staged-insert count past which probes go through an insertion r-tree
#: instead of brute-forcing the memo.
INDEX_THRESHOLD = 16


class TableDelta:
    """Staged mutations against one immutable table base.

    Not thread-safe on its own; the owning table (or the service layer
    above it) serialises writers, and readers only ever see a delta via
    a table object they hold a reference to.
    """

    __slots__ = (
        "base_version",
        "watermark",
        "inserts",
        "tombstones",
        "ops",
        "node_capacity",
        "split_method",
        "_index",
        "_indexed",
    )

    def __init__(
        self,
        base_version: int,
        node_capacity: int = 8,
        split_method: str = "quadratic",
    ) -> None:
        self.base_version = base_version
        #: Bumps once per staged mutation (insert, delete, unstage).
        self.watermark = 0
        #: Staged rows in insertion order, keyed by oid.
        self.inserts: "OrderedDict[object, SpatialObject]" = OrderedDict()
        #: Oids of *base* rows deleted since the last repack.
        self.tombstones: Set[object] = set()
        #: Replayable mutation log (``("insert", obj)`` / ``("delete", oid)``)
        #: in staging order; the service repack worker replays the suffix
        #: staged after its build snapshot onto the freshly packed table.
        self.ops: List[Tuple[str, object]] = []
        self.node_capacity = node_capacity
        self.split_method = split_method
        self._index: Optional[RTree] = None
        self._indexed = 0

    # -- staging -----------------------------------------------------------

    @property
    def pending_ops(self) -> int:
        """Staged mutations still awaiting a repack."""
        return len(self.inserts) + len(self.tombstones)

    def stage_insert(self, obj: "SpatialObject") -> None:
        """Stage a new row (caller has checked the oid is free)."""
        self.inserts[obj.oid] = obj
        self.ops.append(("insert", obj))
        self.watermark += 1
        if self._index is not None:
            if not obj.box.is_empty():
                self._index.insert(obj.box, obj)
            self._indexed += 1

    def stage_delete(self, oid: object, base_has: bool) -> bool:
        """Stage a delete; returns False when ``oid`` is not live.

        A staged insert is unstaged outright; a base row (``base_has``
        and not already tombstoned) gains a tombstone.
        """
        if oid in self.inserts:
            del self.inserts[oid]
            # The index cannot cheaply evict one entry; rebuild lazily.
            self._index = None
            self._indexed = 0
        elif base_has and oid not in self.tombstones:
            self.tombstones.add(oid)
        else:
            return False
        self.ops.append(("delete", oid))
        self.watermark += 1
        return True

    def buries(self, obj: "SpatialObject") -> bool:
        """Whether ``obj`` is a base row this delta has deleted (its
        oid may be live again on a staged row, which is not)."""
        return obj.oid in self.tombstones and self.inserts.get(obj.oid) is not obj

    def clone(self) -> "TableDelta":
        """An independent copy sharing the (immutable) staged rows."""
        twin = TableDelta(
            self.base_version,
            node_capacity=self.node_capacity,
            split_method=self.split_method,
        )
        twin.watermark = self.watermark
        twin.inserts = OrderedDict(self.inserts)
        twin.tombstones = set(self.tombstones)
        twin.ops = list(self.ops)
        return twin

    # -- probing -----------------------------------------------------------

    @property
    def indexed(self) -> bool:
        """Whether the next probe will go through the insertion r-tree."""
        return len(self.inserts) >= INDEX_THRESHOLD

    def _probe_index(self) -> RTree:
        if self._index is None or self._indexed != len(self.inserts):
            index = RTree(
                max_entries=self.node_capacity, split_method=self.split_method
            )
            for obj in self.inserts.values():
                if not obj.box.is_empty():
                    index.insert(obj.box, obj)
            self._index = index
            self._indexed = len(self.inserts)
        return self._index

    def matches(self, query: BoxQuery) -> List["SpatialObject"]:
        """Staged rows matching ``query``, in insertion order."""
        if not self.inserts or query.is_unsatisfiable():
            return []
        if self.indexed:
            hit = {id(obj) for _box, obj in self._probe_index().search(query)}
            # Cheap identity sweep restores insertion order after the
            # index pruned the expensive geometry tests.
            return [obj for obj in self.inserts.values() if id(obj) in hit]
        return [
            obj
            for obj in self.inserts.values()
            if not obj.box.is_empty() and query.matches(obj.box)
        ]

    def count(self, query: BoxQuery) -> int:
        """Number of staged rows matching ``query``."""
        if not self.inserts or query.is_unsatisfiable():
            return 0
        if self.indexed:
            return self._probe_index().count(query)
        return sum(
            1
            for obj in self.inserts.values()
            if not obj.box.is_empty() and query.matches(obj.box)
        )

    def distances(self, anchor: object) -> List[Tuple[float, Box, "SpatialObject"]]:
        """``(MINDIST, box, row)`` of each nonempty staged row from
        ``anchor`` (a box or a point): the delta's share of a kNN."""
        metric = Box.mindist if isinstance(anchor, Box) else Box.mindist_point
        return [
            (metric(obj.box, anchor), obj.box, obj)
            for obj in self.inserts.values()
            if not obj.box.is_empty()
        ]

    def staged_rows(self) -> Iterator["SpatialObject"]:
        """The staged rows in insertion order."""
        return iter(self.inserts.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TableDelta(base_version={self.base_version}, "
            f"watermark={self.watermark}, inserts={len(self.inserts)}, "
            f"tombstones={len(self.tombstones)})"
        )

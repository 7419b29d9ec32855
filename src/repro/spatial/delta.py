"""LSM-style in-memory write delta for a :class:`~repro.spatial.table.SpatialTable`.

The packed base structures (STR r-tree, column store) are
expensive to build and cheap to query; point mutations are the opposite.
A :class:`TableDelta` stages inserts and deletes without touching the
base: inserted rows live in a small insertion-ordered memo, deletes of
base rows become *tombstones* keyed by oid, and a delete of a row that
was itself staged simply unstages it.  Every table read path merges the
delta transparently — filter tombstoned base rows, append matching
staged rows — so readers observe the live table while the base stays
immutable until a *repack* folds the delta in and rebuilds the packed
structures.

MVCC-lite: the table's ``(base_version, watermark)`` pair identifies a
logical snapshot.  The watermark bumps once per staged mutation; the
base version only bumps when the base is rebuilt.  The base statistics,
keyed by the base version alone, therefore survive delta-only writes,
while the merged statistics, which must see the live rows, key on the
pair.

A probe scans the staged rows in insertion order: a repack folds them
into the base once a threshold's worth have staged (64 by default), and
scanning that many boxes costs less than indexing them would
(``benchmarks/results/pr24_one_tree.md``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Set, Tuple

from ..boxes.bconstraints import QueryShape
from ..boxes.box import Box
from .columnar import packed_matches

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .table import SpatialObject


class TableDelta:
    """Staged mutations against one immutable table base.

    Not thread-safe on its own; the owning table (or the service layer
    above it) serialises writers, and readers only ever see a delta via
    a table object they hold a reference to.
    """

    __slots__ = ("watermark", "inserts", "tombstones", "ops")

    def __init__(self) -> None:
        #: Bumps once per staged mutation (insert, delete, unstage).
        self.watermark = 0
        #: Staged rows in insertion order, keyed by oid.
        self.inserts: Dict[object, "SpatialObject"] = {}
        #: Oids of *base* rows deleted since the last repack.
        self.tombstones: Set[object] = set()
        #: Replayable mutation log (``("insert", obj)`` / ``("delete", oid)``)
        #: in staging order; the service repack worker replays the suffix
        #: staged after its build snapshot onto the freshly packed table.
        self.ops: List[Tuple[str, object]] = []

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

    def stage_delete(self, oid: object, base_has: bool) -> bool:
        """Stage a delete; returns False when ``oid`` is not live.

        A staged insert is unstaged outright; a base row (``base_has``
        and not already tombstoned) gains a tombstone.
        """
        if oid in self.inserts:
            del self.inserts[oid]
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
        twin = TableDelta()
        twin.watermark = self.watermark
        twin.inserts = dict(self.inserts)
        twin.tombstones = set(self.tombstones)
        twin.ops = list(self.ops)
        return twin

    # -- probing -----------------------------------------------------------

    def matches(self, shape: QueryShape, coords: Sequence[float]) -> List["SpatialObject"]:
        """Staged rows matching the satisfiable query packed as
        ``(shape, coords)`` (:func:`~repro.spatial.columnar.pack_query`),
        in insertion order (a row whose region is empty where an empty
        box satisfies the query)."""
        return [obj for obj in self.inserts.values() if packed_matches(shape, coords, obj.box)]

    def distances(self, anchor: object) -> List[Tuple[float, "SpatialObject"]]:
        """``(MINDIST, row)`` of each nonempty staged row from
        ``anchor`` (a box or a point): the delta's share of a kNN."""
        metric = Box.mindist if isinstance(anchor, Box) else Box.mindist_point
        return [
            (metric(obj.box, anchor), obj)
            for obj in self.inserts.values()
            if not obj.box.is_empty()
        ]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TableDelta(watermark={self.watermark}, inserts={len(self.inserts)}, "
            f"tombstones={len(self.tombstones)})"
        )

"""Sharded tables: STR shards, shared-memory columns, a coordinator join.

Scale-out execution (ROADMAP item 5) splits a :class:`SpatialTable`
into disjoint **shards** — each owning its own packed R-tree, its own
:class:`~repro.spatial.columnar.ColumnStore` mirror and its own partial
statistics — plus a **coordinator** that plans against the per-shard
statistics and prunes work before any shard is touched:

* :class:`ShardedTable` STR-tiles the rows (the same
  :func:`~repro.spatial.partition._str_tiles` recursion partitioning
  uses, so shard membership is deterministic and bit-identical across
  columnar backends) and builds one :class:`TableShard` per tile
  through the trusted sub-table path — the shards share the parent's
  ``SpatialObject`` instances, so rows emitted from a shard are *the*
  parent rows, not copies.

* the **MBR semi-join** (:meth:`ShardedTable.join_pairs`): a probe box
  can only match a row whose box it overlaps, and every row box lies
  inside its shard's MBR — so a probe that misses the shard MBR is
  never shipped to that shard.  Shards exchange exactly the candidates
  that can possibly match.

* **shared-memory column publication**: on a process
  :class:`~repro.spatial.partition.Exchange`, each shard's coordinate
  columns are published *once* per sharding into a
  ``multiprocessing.shared_memory`` segment
  (:class:`ShardColumnBlock`); worker tasks carry only the segment name
  and the probe payload instead of re-pickled coordinate blobs per
  task.  Workers attach lazily and cache the decoded boxes per segment,
  so repeated queries pay zero shard-side serialization.  Environments
  without shared memory fall back to inline packed blobs — same
  results, counted in :attr:`ShardedTable.shm_failed`.

Per-shard sweeps reuse the PBSM plane sweep with a single-tile grid:
with one tile the reference-point rule is vacuous, and shard row sets
are disjoint, so each result pair is found exactly once with no global
dedup.  The coordinator merges per-shard pair lists; the engine's bulk
join sorts globally, so sharded answers are bit-identical to serial
ones for every shard count, exchange kind and worker count.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..boxes.bconstraints import BoxQuery
from ..boxes.box import Box, enclose_all
from .columnar import ColumnStore, pack_floats, unpack_floats
from .partition import (
    Exchange,
    TileGrid,
    TileSpill,
    _str_tiles,
    _sweep_tile,
    mbr_may_match,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.catalog import TableStatistics
    from .table import SpatialObject, SpatialTable

__all__ = [
    "ShardColumnBlock",
    "ShardJoinStats",
    "ShardedTable",
    "TableShard",
]


@dataclass
class ShardJoinStats:
    """Counters for one coordinator join over a sharded table."""

    shards: int = 0  # shards in the sharding
    visited: int = 0  # shards swept (semi-join survivors)
    pruned: int = 0  # shards skipped entirely by the MBR semi-join
    semi_join_tests: int = 0  # probe x shard-MBR overlap tests
    probes_shipped: int = 0  # probe copies sent to shards (post-prune)
    pair_tests: int = 0  # candidate tests inside the shard sweeps
    dedup_skipped: int = 0  # always 0 (single-tile grids; kept for parity)
    pairs: int = 0  # result pairs across all shards
    shm_tasks: int = 0  # tasks that referenced a shared-memory block
    packed_tasks: int = 0  # tasks that shipped inline coordinate blobs
    spilled_entries: int = 0  # probe entries written to spill files
    spill_flushes: int = 0


class ShardColumnBlock:
    """One shard's coordinate columns in a shared-memory segment.

    The payload is the packed-float codec's layout — per row ``lo`` then
    ``hi`` coordinates as little-endian doubles — so boxes rebuilt on
    the worker side are bit-identical to the shard's own.  The creating
    side owns the segment: :meth:`close` unlinks it.
    """

    def __init__(self, shm: Any, count: int, dim: int) -> None:
        self._shm = shm
        self.name = shm.name
        self.count = count
        self.dim = dim
        self.nbytes = count * 2 * dim * 8
        # Segments outlive Python objects unless unlinked; make sure a
        # sharding dropped without close() still releases its memory.
        self._finalizer = weakref.finalize(self, _release_segment, shm)

    @classmethod
    def create(cls, boxes: Sequence[Box], dim: int) -> "ShardColumnBlock":
        from multiprocessing import shared_memory

        coords: List[float] = []
        for b in boxes:
            coords.extend(b.lo)
            coords.extend(b.hi)
        blob = pack_floats(coords)
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, len(blob))
        )
        shm.buf[: len(blob)] = blob
        return cls(shm, len(boxes), dim)

    def close(self) -> None:
        """Release and unlink the segment (idempotent)."""
        shm, self._shm = self._shm, None
        if shm is None:
            return
        self._finalizer.detach()
        _release_segment(shm)


def _release_segment(shm: Any) -> None:
    """Best-effort close + unlink of a creator-owned segment."""
    try:
        shm.close()
        shm.unlink()
    except Exception:  # pragma: no cover - best-effort teardown
        pass


#: Worker-side cache: segment name -> (shm handle, decoded boxes).
#: Shards are immutable for a sharding's lifetime and segment names are
#: unique per publication, so entries never go stale; they are released
#: when the worker process exits.
_ATTACHED: Dict[str, Tuple[object, Tuple[Box, ...]]] = {}


def _attach_boxes(name: str, count: int, dim: int) -> Tuple[Box, ...]:
    """Attach a published segment and decode its boxes (cached)."""
    cached = _ATTACHED.get(name)
    if cached is not None:
        return cached[1]
    from multiprocessing import shared_memory

    try:
        # Python 3.13+: opt out of resource tracking on attach.
        shm = shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        # 3.10-3.12 register attached segments with the resource
        # tracker, which would unlink them when this worker exits (and,
        # under the fork start method, corrupt the tracker the creator
        # shares).  The creator owns the segment — suppress the
        # attach-side registration instead.
        from multiprocessing import resource_tracker

        original = resource_tracker.register

        def _no_track(path: str, rtype: str) -> None:  # pragma: no cover - 3.13 skips this
            if rtype != "shared_memory":
                original(path, rtype)

        resource_tracker.register = _no_track
        try:
            shm = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original
    coords = unpack_floats(bytes(shm.buf[: count * 2 * dim * 8]))
    step = 2 * dim
    boxes = tuple(
        Box._trusted(
            coords[p : p + dim], coords[p + dim : p + step], empty=False
        )
        for p in range(0, count * step, step)
    )
    _ATTACHED[name] = (shm, boxes)
    return boxes


#: A picklable per-shard sweep task: the single-tile grid extent, a
#: shard-side reference — ``("shm", name, count, tags)`` or
#: ``("blob", coords, tags)`` — and the probe tags + packed probe
#: coordinates.
_ShardTask = Tuple[
    Tuple[float, ...],  # extent lo
    Tuple[float, ...],  # extent hi
    Tuple,  # shard side reference (see above)
    Tuple[int, ...],  # probe tags
    bytes,  # probe coords (lo then hi per box)
]


def _pack_probe_blob(probes: Sequence[Tuple[Box, int]]) -> bytes:
    coords: List[float] = []
    for b, _t in probes:
        coords.extend(b.lo)
        coords.extend(b.hi)
    return pack_floats(coords)


def _unpack_entries(
    tags: Sequence[int], blob: bytes, dim: int
) -> List[Tuple[Box, int]]:
    coords = unpack_floats(blob)
    step = 2 * dim
    out: List[Tuple[Box, int]] = []
    pos = 0
    for tag in tags:
        out.append(
            (
                Box._trusted(
                    coords[pos : pos + dim],
                    coords[pos + dim : pos + step],
                    empty=False,
                ),
                tag,
            )
        )
        pos += step
    return out


def _sweep_shard_task(
    payload: _ShardTask,
) -> Tuple[List[Tuple[int, int]], int, int]:
    """Worker: rebuild one shard sweep task and plane-sweep it.

    The single-tile grid makes the reference-point rule vacuous, so the
    sweep returns every overlapping (probe, row) pair once — identical
    to the serial in-process sweep over the same entries.
    """
    elo, ehi, shard_ref, ptags, pblob = payload
    dim = len(elo)
    grid = TileGrid(
        extent=Box._trusted(tuple(elo), tuple(ehi), empty=False),
        shape=(1,) * dim,
    )
    if shard_ref[0] == "shm":
        _kind, name, count, tags = shard_ref
        boxes = _attach_boxes(name, count, dim)
        rows = list(zip(boxes, tags))
    else:
        _kind, blob, tags = shard_ref
        rows = _unpack_entries(tags, blob, dim)
    probes = _unpack_entries(ptags, pblob, dim)
    return _sweep_tile((grid, 0, probes, rows))


@dataclass(frozen=True)
class TableShard:
    """One shard: a disjoint row subset with its own index and stats.

    ``table`` is a full :class:`~repro.spatial.table.SpatialTable`
    built through the trusted path over the *parent's*
    ``SpatialObject`` instances — its packed R-tree, columnar mirror,
    statistics cache and query methods all work per shard, and rows it
    returns are identical objects to the parent's.  ``tags`` are the
    members' positions in the parent's nonempty-row insertion sequence
    (exactly the row indices the engine's bulk joins use), in shard row
    order.
    """

    sid: int
    mbr: Box
    table: "SpatialTable"
    tags: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.tags)

    def statistics(self, **kwargs: Any) -> "TableStatistics":
        """The shard's own :class:`TableStatistics` (cached on it)."""
        return self.table.statistics(**kwargs)


def _build_subtable(
    parent: "SpatialTable", sid: int, rows: Sequence["SpatialObject"]
) -> "SpatialTable":
    """A shard sub-table sharing the parent's row objects.

    The snapshot loader's trusted-construction idiom: rows are attached
    directly (no region re-validation, no new ``SpatialObject``
    instances) and the shard's R-tree is STR bulk-loaded.  Shards index
    with an R-tree regardless of the parent backend — the shard layer
    *is* the index for scan/grid parents.
    """
    from .table import SpatialTable

    sub = SpatialTable(
        name=f"{parent.name}/s{sid}",
        dim=parent.dim,
        index="rtree",
        universe=parent.universe,
        split_method=parent.split_method,
        node_capacity=parent.node_capacity,
    )
    sub._objects = {obj.oid: obj for obj in rows}
    sub._columns = ColumnStore.bulk(parent.dim, [obj.box for obj in rows], rows)
    sub.reindex(pack=True)
    return sub


class ShardedTable:
    """A table STR-split into shards plus the coordinator state.

    Built by :meth:`build` (cached on the table by
    :meth:`repro.spatial.table.SpatialTable.sharding`, keyed on the
    mutation counter).  Owns the shards' shared-memory publications;
    :meth:`close` releases them — a superseded sharding must be closed,
    which the table cache does.
    """

    def __init__(
        self,
        table_name: str,
        dim: int,
        version: int,
        target: int,
        shards: Tuple[TableShard, ...],
        seq: Dict[int, int],
    ) -> None:
        self.table_name = table_name
        self.dim = dim
        self.version = version
        self.target = target
        self.shards = shards
        self._seq = seq
        # One sharding serves every concurrent reader of its table, so
        # publish() races: without the lock two readers could both miss
        # the cache and publish the same shard's shared-memory block,
        # leaking whichever one loses the dict store.
        self._lock = threading.Lock()
        self._blocks: Dict[int, Optional[ShardColumnBlock]] = {}  # guarded-by: _lock
        self.closed = False  # guarded-by: _lock
        self.shm_published = 0  # guarded-by: _lock
        self.shm_bytes = 0  # guarded-by: _lock
        self.shm_failed = 0  # guarded-by: _lock

    @classmethod
    def build(
        cls, table: "SpatialTable", n_shards: int
    ) -> "ShardedTable":
        """STR-split ``table`` into ~``n_shards`` disjoint shards."""
        if n_shards < 1:
            raise ValueError(
                f"n_shards must be positive, got {n_shards}"
            )
        rows = [obj for obj in table if not obj.box.is_empty()]
        seq = {id(obj): i for i, obj in enumerate(rows)}
        tiles = _str_tiles(rows, n_shards, table.dim) if rows else []
        shards: List[TableShard] = []
        for tile in tiles:
            if not tile:
                continue
            sid = len(shards)
            shards.append(
                TableShard(
                    sid=sid,
                    mbr=enclose_all(o.box for o in tile),
                    table=_build_subtable(table, sid, tile),
                    tags=tuple(seq[id(o)] for o in tile),
                )
            )
        return cls(
            table_name=table.name,
            dim=table.dim,
            version=table._version,
            target=n_shards,
            shards=tuple(shards),
            seq=seq,
        )

    @classmethod
    def from_row_groups(
        cls,
        table: "SpatialTable",
        target: int,
        groups: Sequence[Sequence["SpatialObject"]],
    ) -> "ShardedTable":
        """Rebuild a sharding from persisted per-shard row groups.

        The snapshot loader's path: ``groups`` holds each shard's
        member rows (the parent table's own instances, shard row order)
        as saved, so no STR re-sort happens and the rebuilt shards are
        identical to the ones that were persisted.
        """
        rows = [obj for obj in table if not obj.box.is_empty()]
        seq = {id(obj): i for i, obj in enumerate(rows)}
        shards: List[TableShard] = []
        for group in groups:
            if not group:
                continue
            sid = len(shards)
            shards.append(
                TableShard(
                    sid=sid,
                    mbr=enclose_all(o.box for o in group),
                    table=_build_subtable(table, sid, group),
                    tags=tuple(seq[id(o)] for o in group),
                )
            )
        return cls(
            table_name=table.name,
            dim=table.dim,
            version=table._version,
            target=target,
            shards=tuple(shards),
            seq=seq,
        )

    def __len__(self) -> int:
        return len(self.shards)

    @property
    def total_rows(self) -> int:
        return sum(len(s) for s in self.shards)

    def describe(self) -> str:
        return f"{self.table_name}[{len(self.shards)} shards]"

    def seq_of(self, obj: "SpatialObject") -> int:
        """A row's position in the parent's nonempty insertion order."""
        return self._seq[id(obj)]

    # -- coordinator pruning -----------------------------------------------------
    def prune(self, query: BoxQuery) -> List[TableShard]:
        """Shards whose MBR could contain a row matching ``query``."""
        if query.is_unsatisfiable():
            return []
        return [s for s in self.shards if mbr_may_match(s.mbr, query)]

    # -- shared-memory publication -------------------------------------------------
    def publish(self, shard: TableShard) -> Optional[ShardColumnBlock]:
        """The shard's coordinate block, created once per sharding.

        ``None`` when shared memory is unavailable in this environment
        (counted in :attr:`shm_failed`); callers then ship inline
        packed blobs — results are identical either way.
        """
        with self._lock:
            if self.closed:
                raise RuntimeError("ShardedTable is closed")
            if shard.sid in self._blocks:
                return self._blocks[shard.sid]
            boxes = [obj.box for obj in shard.table]
            try:
                block = ShardColumnBlock.create(boxes, self.dim)
                self.shm_published += 1
                self.shm_bytes += block.nbytes
            except (ImportError, OSError, PermissionError, ValueError):
                block = None
                self.shm_failed += 1
            self._blocks[shard.sid] = block
            return block

    def close(self) -> None:
        """Unlink every published shared-memory block (idempotent)."""
        with self._lock:
            blocks, self._blocks = list(self._blocks.values()), {}
            self.closed = True
        for block in blocks:
            if block is not None:
                block.close()

    def __enter__(self) -> "ShardedTable":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- the coordinator join ------------------------------------------------------
    def join_pairs(
        self,
        probes: Sequence[Tuple[int, Box]],
        exchange: Optional[Exchange] = None,
        stats: Optional[ShardJoinStats] = None,
        spill: Optional[int] = None,
    ) -> List[Tuple[int, int]]:
        """All ``(probe tag, row seq)`` pairs whose boxes overlap.

        The MBR semi-join routes each probe only to shards whose MBR it
        overlaps; each surviving shard is plane-swept independently
        (one task per shard on the ``exchange``).  Shard row sets are
        disjoint, so the merged pair list has no duplicates; callers
        sort it for a deterministic global order.  ``spill=N`` bounds
        the resident replicated-probe memory exactly like
        :func:`~repro.spatial.partition.pbsm_join`'s out-of-core path.
        """
        st = stats if stats is not None else ShardJoinStats()
        st.shards += len(self.shards)
        exchange = exchange or Exchange()
        if not probes or not self.shards:
            st.pruned += len(self.shards)
            return []
        if spill is not None and spill > 0:
            pairs = self._join_spilled(probes, exchange, st, spill)
        else:
            buckets: List[List[Tuple[Box, int]]] = []
            for shard in self.shards:
                cand = []
                for i, box in probes:
                    st.semi_join_tests += 1
                    if box.overlaps(shard.mbr):
                        cand.append((box, i))
                buckets.append(cand)
            pairs = self._sweep_buckets(
                [
                    (shard, cand)
                    for shard, cand in zip(self.shards, buckets)
                    if cand
                ],
                exchange,
                st,
            )
            st.pruned += sum(1 for cand in buckets if not cand)
        st.pairs += len(pairs)
        return pairs

    def _join_spilled(
        self,
        probes: Sequence[Tuple[int, Box]],
        exchange: Exchange,
        st: ShardJoinStats,
        spill: int,
    ) -> List[Tuple[int, int]]:
        """The out-of-core semi-join: probe buckets spill to disk."""
        pairs: List[Tuple[int, int]] = []
        hit: List[bool] = [False] * len(self.shards)
        with TileSpill(dim=self.dim) as store:
            for i, box in probes:
                for shard in self.shards:
                    st.semi_join_tests += 1
                    if box.overlaps(shard.mbr):
                        hit[shard.sid] = True
                        store.add(shard.sid, 0, box, i)
                        if store.buffered >= spill:
                            store.flush()
            st.pruned += sum(1 for h in hit if not h)
            chunk = max(1, exchange.workers or 1)
            live = [s for s in self.shards if hit[s.sid]]
            for start in range(0, len(live), chunk):
                tasks = [
                    (shard, store.load(shard.sid, 0))
                    for shard in live[start : start + chunk]
                ]
                pairs.extend(self._sweep_buckets(tasks, exchange, st))
            st.spilled_entries += store.spilled_entries
            st.spill_flushes += store.flushes
        return pairs

    def _sweep_buckets(
        self,
        buckets: Sequence[Tuple[TableShard, List[Tuple[Box, int]]]],
        exchange: Exchange,
        st: ShardJoinStats,
    ) -> List[Tuple[int, int]]:
        """Sweep ``(shard, candidate probes)`` buckets on the exchange.

        Candidate probes are ``(box, tag)`` sweep entries, in probe
        order — the order :class:`TileSpill` buckets round-trip, so the
        spilled and in-memory paths sweep identical inputs.
        """
        if not buckets:
            return []
        st.visited += len(buckets)
        st.probes_shipped += sum(len(cand) for _s, cand in buckets)
        if exchange.uses_processes(len(buckets)):
            payloads = []
            for shard, cand in buckets:
                extent = enclose_all(
                    [shard.mbr, *(b for b, _t in cand)]
                )
                block = self.publish(shard)
                if block is not None:
                    ref: Tuple = (
                        "shm",
                        block.name,
                        block.count,
                        shard.tags,
                    )
                    st.shm_tasks += 1
                else:
                    coords: List[float] = []
                    for obj in shard.table:
                        coords.extend(obj.box.lo)
                        coords.extend(obj.box.hi)
                    ref = ("blob", pack_floats(coords), shard.tags)
                    st.packed_tasks += 1
                payloads.append(
                    (
                        extent.lo,
                        extent.hi,
                        ref,
                        tuple(t for _b, t in cand),
                        _pack_probe_blob(cand),
                    )
                )
            results = exchange.run(_sweep_shard_task, payloads)
        else:
            tasks = []
            for shard, cand in buckets:
                extent = enclose_all(
                    [shard.mbr, *(b for b, _t in cand)]
                )
                grid = TileGrid(extent=extent, shape=(1,) * self.dim)
                rows = [
                    (obj.box, tag)
                    for obj, tag in zip(shard.table, shard.tags)
                ]
                tasks.append((grid, 0, cand, rows))
            results = exchange.run(_sweep_tile, tasks)
        pairs: List[Tuple[int, int]] = []
        for tile_pairs, tests, dups in results:
            pairs.extend(tile_pairs)
            st.pair_tests += tests
            st.dedup_skipped += dups
        return pairs

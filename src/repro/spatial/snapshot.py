"""Versioned on-disk snapshots of spatial databases.

A process serving the paper's queries should not pay a full STR build
and statistics scan on every start.  This module serializes everything
a warm :class:`~repro.spatial.table.SpatialTable` holds — rows, the
packed R-tree (as flat node arrays, *not* a pickled object graph) and
the :class:`~repro.engine.catalog.TableStatistics` cache — into one
JSON file, and loads it back without re-running either build:

* rows are stored in insertion order; regions dump their exact disjoint
  box representation, so the loaded rows are bit-identical;
* the R-tree is dumped with
  :meth:`~repro.spatial.rtree.RTree.to_node_arrays` (preorder node
  arrays whose leaf values are row indices) and reattached node-for-
  node on load — no STR sort, identical structure, identical node-read
  counts;
* a scan table has no index to restore: its column store is refilled
  from the rows in saved order, as on every backend;
* a table entry whose ``index`` is not ``"rtree"`` or ``"scan"`` (the
  retired ``"grid"`` included), or an r-tree table without its node
  arrays, raises :class:`~repro.errors.SnapshotError`;
* cached statistics reference their row sample by index, so the
  loaded table answers :meth:`statistics` from the snapshot; a damaged
  statistics block raises :class:`~repro.errors.SnapshotError`.  Table,
  node-array and statistics keys this build does not read (optional
  caches, the STR partitioning and the insertion-tree settings of older
  builds) are ignored.

Writes are atomic: the file is written to a sibling temporary path and
moved into place with ``os.replace``, so a crashed save never leaves a
truncated snapshot where a good one was.

The format is versioned (:data:`FORMAT_VERSION`); loading a snapshot
with an unknown format name or newer version raises
:class:`~repro.errors.SnapshotError` instead of misparsing it.
"""

from __future__ import annotations

import base64
import json
import os
import struct
from typing import Dict, List, Optional, Sequence, Tuple

from ..algebra.regions import Region
from ..boxes.box import Box, box_from_jsonable, box_to_jsonable, enclose_all
from ..errors import SnapshotError
from .columnar import ColumnStore, pack_floats, unpack_floats
from .rtree import RTree
from .table import SpatialObject, SpatialTable

#: Format magic: identifies the file as one of ours.
FORMAT_NAME = "repro-snapshot"

#: Current format version; bump on incompatible layout changes.
FORMAT_VERSION = 1


# -- oid encoding --------------------------------------------------------------
# Row identifiers are arbitrary hashables in memory; on disk we support
# the JSON scalars plus tuples (tagged, so a list-valued payload cannot
# collide with a tuple oid).

def _encode_oid(oid: object) -> object:
    if oid is None or isinstance(oid, (bool, int, float, str)):
        return oid
    if isinstance(oid, tuple):
        return {"tuple": [_encode_oid(item) for item in oid]}
    raise SnapshotError(
        f"cannot serialize oid {oid!r} of type {type(oid).__name__}; "
        f"snapshots support JSON scalars and tuples of them"
    )


def _decode_oid(data: object) -> object:
    if isinstance(data, dict):
        return tuple(_decode_oid(item) for item in data["tuple"])
    return data


# -- packed float arrays -------------------------------------------------------
# The bulk of a snapshot is box coordinates: every row's region boxes
# plus every r-tree node entry.  Dumped as JSON number lists they
# dominate the load's parse time; packed as little-endian doubles in a
# base64 string they parse in one ``struct.unpack`` call and round-trip
# bit-exactly.  Everything else (oids, counts, statistics) stays plain
# JSON.  The raw packing lives in
# :mod:`repro.spatial.columnar`; here it is base64-armored for JSON.

def _pack_floats(values: Sequence[float]) -> str:
    return base64.b64encode(pack_floats(values)).decode("ascii")


def _unpack_floats(blob: str) -> Tuple[float, ...]:
    try:
        return unpack_floats(base64.b64decode(blob))
    except (TypeError, ValueError, struct.error) as exc:  # binascii.Error is a ValueError
        raise SnapshotError(f"damaged packed floats: {exc!r}") from exc


def region_to_jsonable(region: Region) -> List[List[List[float]]]:
    """The region's exact disjoint-box representation as JSON lists."""
    return [box_to_jsonable(b) for b in region.boxes]


def region_from_jsonable(data: Sequence) -> Region:
    """Inverse of :func:`region_to_jsonable` (boxes already disjoint)."""
    return Region(tuple(box_from_jsonable(b) for b in data))


# -- table serialization -------------------------------------------------------
def table_to_jsonable(table: SpatialTable) -> dict:
    """Everything needed to reconstruct a warm table, as JSON data."""
    # Snapshots serialize only packed base structures, so a pending
    # write delta is folded in first; the loaded table starts clean.
    table.repack()
    rows = list(table)
    row_index = {id(obj): i for i, obj in enumerate(rows)}
    coords: List[float] = []
    box_counts: List[int] = []
    for obj in rows:
        box_counts.append(len(obj.region.boxes))
        for b in obj.region.boxes:
            coords.extend(b.lo)
            coords.extend(b.hi)
    data: dict = {
        "name": table.name,
        "dim": table.dim,
        "index": table.index_kind,
        "universe": (
            box_to_jsonable(table.universe)
            if table.universe is not None
            else None
        ),
        "node_capacity": table.node_capacity,
        "table_version": table._version,
        # Columnar rows: oids + per-row box counts + one packed
        # coordinate blob (lo then hi per box, row-major).
        "rows": {
            "oids": [_encode_oid(obj.oid) for obj in rows],
            "box_counts": box_counts,
            "coords": _pack_floats(coords),
        },
    }
    if table.index_kind == "rtree":
        arrays = table._rtree.to_node_arrays(
            lambda obj: row_index[id(obj)]
        )
        arrays["bounds"] = _pack_floats(arrays["bounds"])
        data["rtree"] = arrays
    if table._stats_version == table._version:
        data["statistics"] = [
            {"key": list(key), "stats": stats.to_dict(row_index)}
            for key, stats in table._stats_cache.items()
        ]
    return data


def table_from_jsonable(data: dict) -> SpatialTable:
    """Rebuild a warm table from :func:`table_to_jsonable` output.

    Rows are installed directly (no staging, no fold), the
    R-tree is reattached from its node arrays, and the statistics cache
    is re-seeded, so the loaded table plans and probes exactly like the
    one that was saved.
    """
    from ..engine.catalog import TableStatistics

    name = str(data["name"])
    index = data.get("index")
    if index not in SpatialTable.VALID_INDEXES:
        raise SnapshotError(
            f"table {name!r} has index {index!r}; this build reads "
            f"{SpatialTable.VALID_INDEXES}"
        )
    if index == "rtree" and not isinstance(data.get("rtree"), dict):
        raise SnapshotError(f"r-tree table {name!r} has no node arrays")
    universe = (
        box_from_jsonable(data["universe"])
        if data.get("universe") is not None
        else None
    )
    table = SpatialTable(
        name,
        int(data["dim"]),
        index=index,
        universe=universe,
        node_capacity=int(data["node_capacity"]),
    )
    dim = int(data["dim"])
    rows_data = data["rows"]
    coords = _unpack_floats(rows_data["coords"])
    rows: List[SpatialObject] = []
    objects: Dict[object, SpatialObject] = {}
    pos = 0
    for oid_data, nboxes in zip(
        rows_data["oids"], rows_data["box_counts"]
    ):
        boxes = []
        for _ in range(nboxes):
            # Region boxes are nonempty by invariant — no per-box check.
            boxes.append(
                Box._trusted(
                    coords[pos : pos + dim],
                    coords[pos + dim : pos + 2 * dim],
                    empty=False,
                )
            )
            pos += 2 * dim
        region = Region._trusted(tuple(boxes))
        bbox = boxes[0] if nboxes == 1 else enclose_all(boxes)
        obj = SpatialObject(
            oid=_decode_oid(oid_data), region=region, box=bbox
        )
        rows.append(obj)
        objects[obj.oid] = obj
    table._objects = objects
    # Rows bypass bulk_insert() here: the columnar mirror is filled in one
    # go, a column at a time (same coords, same order).
    table._columns = ColumnStore.bulk(dim, [obj.box for obj in rows], rows)
    table._version = int(data["table_version"])
    if table.index_kind == "rtree":
        arrays = dict(data["rtree"])
        arrays["bounds"] = _unpack_floats(arrays.get("bounds"))
        table._rtree = RTree.from_node_arrays(arrays, table._columns)
    if "statistics" in data:
        try:
            # Older files key by (bins, sample_size, seed, partitions) and
            # carry per-partition summaries; both are dropped unread.
            table._stats_cache = {
                tuple(entry["key"][:3]): TableStatistics.from_dict(
                    entry["stats"], rows
                )
                for entry in data["statistics"]
            }
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise SnapshotError(
                f"damaged statistics of table {table.name!r}: {exc!r}"
            ) from exc
        table._stats_version = table._version
    return table


# -- database files ------------------------------------------------------------
def write_snapshot(
    path: str,
    tables: Dict[str, SpatialTable],
    bindings: Optional[Dict[str, Region]] = None,
) -> None:
    """Atomically write a snapshot file for named tables and bindings.

    ``tables`` is keyed the way queries reference them (variable names);
    ``bindings`` are named constant regions.  The file appears complete
    or not at all (tmp file + ``os.replace``).
    """
    payload = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "tables": {
            str(key): table_to_jsonable(t) for key, t in tables.items()
        },
        "bindings": {
            str(name): region_to_jsonable(r)
            for name, r in (bindings or {}).items()
        },
    }
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # pragma: no cover - crash cleanup
            os.unlink(tmp)


def read_snapshot(
    path: str,
) -> Tuple[Dict[str, SpatialTable], Dict[str, Region]]:
    """Load ``(tables, bindings)`` from a snapshot file.

    Raises :class:`~repro.errors.SnapshotError` for a missing file,
    malformed JSON, a foreign file, a newer format version, or a table
    entry :func:`table_from_jsonable` rejects.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SnapshotError(
            f"snapshot {path!r} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(payload, dict) or payload.get("format") != FORMAT_NAME:
        raise SnapshotError(
            f"{path!r} is not a {FORMAT_NAME} file"
        )
    version = payload.get("version")
    if not isinstance(version, int) or version > FORMAT_VERSION:
        raise SnapshotError(
            f"snapshot {path!r} has format version {version!r}; this "
            f"build reads up to {FORMAT_VERSION}"
        )
    tables = {
        key: table_from_jsonable(data)
        for key, data in payload["tables"].items()
    }
    bindings = {
        name: region_from_jsonable(data)
        for name, data in payload.get("bindings", {}).items()
    }
    return tables, bindings

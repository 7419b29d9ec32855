"""Versioned on-disk snapshots of spatial databases.

A snapshot is one JSON file holding what a warm
:class:`~repro.spatial.table.SpatialTable` keeps that its rows do not
determine — the rows themselves, the table's settings and the
:class:`~repro.engine.catalog.TableStatistics` cache:

* rows are stored in insertion order, their regions as exact disjoint
  boxes, so the loaded rows are bit-identical; the loader checks the
  rows block (:func:`_checked_rows`) before it makes a row;
* the R-tree is not stored: the loader STR-packs it from the loaded
  rows, as every fold does — the same tree, node for node;
* a version-1 file stored each r-tree's node arrays
  (:meth:`~repro.spatial.rtree.RTree.to_node_arrays`); they must equal
  the packed tree's, so such a file opens as that tree or not at all;
* an ``index`` other than ``"rtree"`` or ``"scan"`` (the retired
  ``"grid"`` included) is refused;
* cached statistics name their row sample by index, so the loaded table
  answers :meth:`statistics` from the snapshot.  Keys this build does
  not read (optional caches, the STR partitioning and insertion-tree
  settings of older builds) are ignored.

Every refusal — damaged rows, node arrays or statistics, a foreign
file, a newer :data:`FORMAT_VERSION`, bytes that are not UTF-8 JSON — is
a :class:`~repro.errors.SnapshotError`.  Writes are atomic: a sibling
temporary file moved into place with ``os.replace``.
"""

from __future__ import annotations

import base64
import json
import os
import struct
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..algebra.regions import Region
from ..boxes.box import Box, box_from_jsonable, box_to_jsonable, enclose_all
from ..errors import SnapshotError
from .columnar import ColumnStore, pack_floats, unpack_floats
from .table import SpatialObject, SpatialTable

#: Format magic: identifies the file as one of ours.
FORMAT_NAME = "repro-snapshot"

#: Current format version; bump on incompatible layout changes.  Version
#: 2 stores no r-tree node arrays (version 1 did).
FORMAT_VERSION = 2


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
# The bulk of a snapshot is box coordinates: every row's region boxes.
# Dumped as JSON number lists they dominate the load's parse time;
# packed as little-endian doubles in a base64 string they parse in one
# ``struct.unpack`` call and round-trip bit-exactly.  Everything else
# (oids, counts, statistics) stays plain JSON.  The raw packing lives in
# :mod:`repro.spatial.columnar`; here it is base64-armored for JSON.

def _pack_floats(values: Sequence[float]) -> str:
    return base64.b64encode(pack_floats(values)).decode("ascii")


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
    if table._stats_version == table._version:
        row_index = {id(obj): i for i, obj in enumerate(rows)}
        data["statistics"] = [
            {"key": list(key), "stats": stats.to_dict(row_index)}
            for key, stats in table._stats_cache.items()
        ]
    return data


def _checked_rows(
    name: str, block: dict, dim: int
) -> Tuple[List[object], List[int], Tuple[float, ...]]:
    """A rows block's decoded oids, box counts and coordinates, once
    they agree: as many oids as counts, each count an ``int`` ≥ 0,
    ``2·dim`` coordinates per box, ``lo < hi`` on every axis of every
    box (so NaN fails) and no oid twice.  Checked before any row is
    made, so a count no coordinates back costs nothing."""

    def damaged(why: str) -> SnapshotError:
        return SnapshotError(f"damaged rows of table {name!r}: {why}")

    try:
        oids, counts = block["oids"], block["box_counts"]
        raw = base64.b64decode(block["coords"])
        coords = unpack_floats(raw)
    except (KeyError, TypeError, ValueError, struct.error) as exc:  # binascii.Error is a ValueError
        raise damaged(repr(exc)) from exc
    if not isinstance(oids, list) or not isinstance(counts, list) or len(oids) != len(counts):
        raise damaged("oids and box_counts are not two lists of one length")
    if not all(type(count) is int and count >= 0 for count in counts):
        raise damaged("a box count is not a non-negative int")
    if dim < 1 or sum(counts) * 2 * dim != len(coords):
        raise damaged(f"{len(coords)} coordinates for {sum(counts)} {dim}-dim boxes")
    edges = np.frombuffer(raw, "<f8").reshape(-1, 2, dim)
    if not (edges[:, 0] < edges[:, 1]).all():
        raise damaged("a box has lo >= hi (or NaN) on some axis")
    try:
        oids = [_decode_oid(oid) for oid in oids]
        repeated = len(set(oids)) != len(oids)
    except (KeyError, TypeError) as exc:  # an untagged list, a dict without "tuple"
        raise damaged(f"an oid is not a JSON scalar or tagged tuple: {exc!r}") from exc
    if repeated:
        raise damaged("an oid repeats")
    return oids, counts, coords


def _check_saved_tree(saved: object, table: SpatialTable) -> None:
    """A version-1 entry's node arrays, held to the tree the table's
    rows pack into: field by field, the bounds as their packed base64
    text; keys the old writer did not write are ignored."""
    slot = {id(obj): i for i, obj in enumerate(table)}
    built = table._rtree.to_node_arrays(lambda obj: slot[id(obj)])
    built["bounds"] = _pack_floats(built["bounds"])
    if not isinstance(saved, dict) or any(saved.get(k) != v for k, v in built.items()):
        raise SnapshotError(
            f"r-tree table {table.name!r}: the saved node arrays are not the "
            f"tree its rows' bounds pack into"
        )


def _checked_settings(data: dict) -> Tuple[str, str, int, int, Optional[Box]]:
    """A table entry's name, index, dim, node capacity and universe,
    once each has its type (and ``table_version`` is an ``int`` ≥ 0),
    checked before any row is made."""
    name = data.get("name")
    if not isinstance(name, str):
        raise SnapshotError(f"a table entry's name {name!r} is not a string")
    index = data.get("index")
    if index not in SpatialTable.VALID_INDEXES:
        raise SnapshotError(
            f"table {name!r} has index {index!r}; this build reads "
            f"{SpatialTable.VALID_INDEXES}"
        )
    least = {"dim": 1, "node_capacity": 2 if index == "rtree" else 1, "table_version": 0}
    for key, low in least.items():
        value = data.get(key)
        if type(value) is not int or value < low:
            raise SnapshotError(f"table {name!r}: {key} {value!r} is not an int >= {low}")
    universe = data.get("universe")
    if universe is not None:
        try:
            universe = box_from_jsonable(universe)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise SnapshotError(f"table {name!r}: damaged universe: {exc!r}") from exc
    return name, index, data["dim"], data["node_capacity"], universe


def table_from_jsonable(data: dict) -> SpatialTable:
    """Rebuild a warm table from :func:`table_to_jsonable` output.

    The rows block is checked (:func:`_checked_rows`) and its rows
    installed directly (no staging, no fold); an r-tree table's tree is
    STR-packed from the loaded column store, the build every fold and
    :meth:`~SpatialTable.pack` makes; and the statistics cache is
    re-seeded, so the loaded table plans and probes exactly like the one
    that was saved.  A version-1 entry's node arrays must be that tree's.
    """
    from ..engine.catalog import TableStatistics

    name, index, dim, node_capacity, universe = _checked_settings(data)
    oids, counts, coords = _checked_rows(name, data.get("rows"), dim)
    table = SpatialTable(
        name,
        dim,
        index=index,
        universe=universe,
        node_capacity=node_capacity,
    )
    rows: List[SpatialObject] = []
    objects: Dict[object, SpatialObject] = {}
    pos = 0
    for oid, nboxes in zip(oids, counts):
        boxes = []
        for _ in range(nboxes):
            # Checked nonempty above — no per-box check.
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
        obj = SpatialObject(oid=oid, region=region, box=bbox)
        rows.append(obj)
        objects[oid] = obj
    table._objects = objects
    # Rows bypass bulk_insert() here: the columnar mirror is filled in one
    # go, a column at a time (same coords, same order).
    table._columns = ColumnStore.bulk(dim, [obj.box for obj in rows], rows)
    table._version = data["table_version"]
    if table._rtree is not None:
        table._rtree = table._packed_rtree(table._columns)
        if "rtree" in data:
            _check_saved_tree(data["rtree"], table)
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
    malformed UTF-8 or JSON, a foreign file, a newer format version, a
    version-1 r-tree entry without its node arrays, or a table entry
    :func:`table_from_jsonable` rejects.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path!r}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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
    entries, saved_bindings = payload.get("tables"), payload.get("bindings", {})
    if not isinstance(entries, dict) or not isinstance(saved_bindings, dict):
        raise SnapshotError(
            f"snapshot {path!r}: 'tables' and 'bindings' must be JSON objects"
        )
    for key, data in entries.items():
        if not isinstance(data, dict):
            raise SnapshotError(f"table {key!r} of {path!r} is {data!r}, not an object")
    tables = {}
    for key, data in entries.items():
        if version < 2 and data.get("index") == "rtree" and "rtree" not in data:
            # Every version-1 writer stored an r-tree's node arrays.
            raise SnapshotError(
                f"r-tree table {data.get('name')!r} of a version-1 file "
                f"has no node arrays"
            )
        tables[key] = table_from_jsonable(data)
    bindings = {
        name: region_from_jsonable(data) for name, data in saved_bindings.items()
    }
    return tables, bindings

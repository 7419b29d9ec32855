"""The per-object table build as it was before the build path read the
coordinate columns — frozen.

``RTree.bulk_load`` now packs each STR level from per-dimension lo/hi
columns (a stable argsort of the centers, a grouped min/max for the node
MBRs), ``enclose_all`` is one pass, ``Histogram.from_values`` counts its
buckets in one kernel, ``collect_statistics`` reads the table's
``ColumnStore`` and ``SpatialTable.repack`` compacts that store instead
of refilling it row by row.  All of them promise *bit-identical*
results.  These are copies of the code they replaced — one ``Box`` per
``enclose`` step, one ``sorted`` per tile over per-object center keys,
one Python loop iteration per histogram value, one ``ColumnStore.append``
per row — with the NumPy shortcut of the old center sort left out, so
the oracle is the same on every backend.  ``test_bulk_build.py`` holds
the engine to them.
"""

import math
import random
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.boxes.box import EMPTY_BOX, Box
from repro.engine.catalog import Histogram, TableStatistics
from reference_rtree import _Node, flatten
from repro.spatial.columnar import ColumnStore
from repro.spatial.rtree import RTree
from repro.spatial.table import SpatialObject, SpatialTable


# -- boxes/box.py --------------------------------------------------------------
def enclose_all(boxes: Iterable[Box]) -> Box:
    """``⊔`` as a fold of pairwise ``Box.enclose``."""
    out = EMPTY_BOX
    for b in boxes:
        out = out.enclose(b)
    return out


# -- spatial/rtree.py ----------------------------------------------------------
def _node_mbr(node: _Node) -> Box:
    return enclose_all(box for box, _ in node.entries)


def bulk_load(entries: Sequence[Tuple[Box, object]], max_entries: int = 8) -> RTree:
    """``RTree.bulk_load`` with its ``pack_level`` / ``sort_by_center``
    closures and one ``_Node.mbr()`` per packed node.  Empty-box entries
    are left out, as the engine now leaves them out (it used to insert
    them after the pack)."""
    tree = RTree(max_entries=max_entries)
    items = [(b, v) for b, v in entries if not b.is_empty()]
    if not items:
        return tree
    dim = items[0][0].dim

    def sort_by_center(level_items, d):
        keys = [(e[0].lo[d] + e[0].hi[d]) / 2 for e in level_items]
        perm = sorted(range(len(keys)), key=keys.__getitem__)
        return [level_items[i] for i in perm]

    def pack_level(level_items, leaf: bool) -> List[_Node]:
        n = len(level_items)
        cap = max_entries
        n_nodes = math.ceil(n / cap)
        level_items = sort_by_center(level_items, 0)
        nodes: List[_Node] = []
        if dim >= 2:
            slices = math.ceil(math.sqrt(n_nodes))
            per_slice = math.ceil(n / slices)
            chunks = [
                sort_by_center(level_items[i : i + per_slice], 1)
                for i in range(0, n, per_slice)
            ]
        else:
            chunks = [level_items]
        for chunk in chunks:
            for i in range(0, len(chunk), cap):
                node = _Node(leaf=leaf)
                node.entries = list(chunk[i : i + cap])
                nodes.append(node)
        return nodes

    nodes = pack_level(items, leaf=True)
    while len(nodes) > 1:
        parents = pack_level([(_node_mbr(n), n) for n in nodes], leaf=False)
        for p in parents:
            for _b, child in p.entries:
                child.parent = p
        nodes = parents
    # The oracle's nodes are the truth: the array form is walked from them.
    tree._flat = flatten(nodes[0])
    tree._size = len(items)
    return tree


# -- engine/catalog.py ---------------------------------------------------------
def histogram(values: Iterable[float], bins: int = 16) -> Histogram:
    """``Histogram.from_values`` with its per-value bucket loop."""
    vals = list(values)
    if not vals:
        return Histogram(0.0, 0.0, (), 0)
    lo, hi = min(vals), max(vals)
    if hi <= lo:
        return Histogram(lo, lo, (len(vals),), len(vals))
    counts = [0] * bins
    width = (hi - lo) / bins
    for v in vals:
        counts[min(bins - 1, int((v - lo) / width))] += 1
    return Histogram(lo, hi, tuple(counts), len(vals))


def collect_statistics(
    table: SpatialTable,
    bins: int = 16,
    sample_size: int = 24,
    seed: int = 0,
    rows: Optional[Sequence[SpatialObject]] = None,
    total: Optional[int] = None,
) -> TableStatistics:
    """``collect_statistics`` scanning the row objects."""
    if rows is None:
        rows = [obj for obj in table if not obj.box.is_empty()]
    if total is None:
        total = len(table)
    boxes = [obj.box for obj in rows]
    mbr = enclose_all(boxes) if boxes else EMPTY_BOX
    dim = table.dim
    lo_hists = []
    hi_hists = []
    avg_sides = []
    for d in range(dim):
        lo_hists.append(histogram((b.lo[d] for b in boxes), bins=bins))
        hi_hists.append(histogram((b.hi[d] for b in boxes), bins=bins))
        if boxes:
            avg_sides.append(sum(b.hi[d] - b.lo[d] for b in boxes) / len(boxes))
        else:
            avg_sides.append(0.0)
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


# -- spatial/table.py ----------------------------------------------------------
def packed_table(
    name: str, dim: int, rows: Sequence[Tuple[object, object]], **table_kwargs
) -> SpatialTable:
    """A packed r-tree table as ``bulk_insert(rows)`` followed by a cold
    ``statistics()`` left it: the store filled by one
    (former) ``ColumnStore.append`` per row, the tree by :func:`bulk_load` over
    ``[(obj.box, obj) ...]``, the default statistics by
    :func:`collect_statistics`; one version bump for the fold (there
    used to be one per row and one for the pack)."""
    table = SpatialTable(name, dim, **table_kwargs)
    columns = ColumnStore(dim)
    for oid, region in rows:
        obj = SpatialObject(oid=oid, region=region, box=region.bounding_box())
        table._objects[oid] = obj
        # ColumnStore.append, as it was: an empty box takes zeros.
        box, live = obj.box, not obj.box.is_empty()
        for d in range(dim):
            columns._lo[d].append(box.lo[d] if live else 0.0)
            columns._hi[d].append(box.hi[d] if live else 0.0)
        columns._nonempty.append(int(live))
        columns.rows.append(obj)
    table._columns = columns
    table._rtree = bulk_load(
        [(obj.box, obj) for obj in table._objects.values() if not obj.box.is_empty()],
        max_entries=table.node_capacity,
    )
    table._version = 1 if rows else 0
    table._stats = collect_statistics(table)
    table._stats_version = table._version
    return table

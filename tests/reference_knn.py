"""The ``_Node`` best-first kNN and the two-source delta merge as they
were before the browse moved onto the tree's array form — frozen.

``RTree.nearest`` and ``RTree.distance_browse`` are now one scalar loop
over the flat columns a packed build emits, and a table's pending write
delta rides that loop (staged rows seeded on the heap, tombstoned rows
passed over) instead of widening the browse to ``k + len(tombstones)``
and merging afterwards.  Both promise *identical* answers — content,
distances as the same doubles, sequence, ties — and, on a clean table,
identical ``node_reads`` / ``entry_tests`` / ``pruned_subtrees`` per
probe; with a delta the base tree may only be read less.  These are
copies of the code they replaced, walking ``_Node`` objects
(``reference_rtree.root_of``: thawed from the tree's form) and
billing ``tree.stats``: one ``Box.mindist*`` call per entry, one ``repr`` sort
per accepted entry.  The per-node NumPy kernel branch of the old
``nearest`` (``vectorize=True``, bit-identical by its own tests) is
left out, so the oracle is the same on every backend.
``test_flat_knn.py`` holds the engine to them.
"""

import heapq
from typing import Callable, Iterator, List, Optional, Tuple

from reference_rtree import _Node, root_of
from repro.boxes.box import Box
from repro.spatial.rtree import RTree
from repro.spatial.table import SpatialObject, SpatialTable


# -- spatial/rtree.py ----------------------------------------------------------
def _entry_dist(box: Box, anchor) -> float:
    """Distance from ``anchor`` (a point or a box) to ``box``."""
    if isinstance(anchor, Box):
        return box.mindist(anchor)
    return box.mindist_point(anchor)


def distance_browse(tree: RTree, anchor) -> Iterator[Tuple[float, Box, object]]:
    """``RTree.distance_browse`` over the ``_Node`` objects."""
    # Heap items: (dist, tiebreak counter, is_entry, payload).
    counter = 0
    heap: List[Tuple[float, int, bool, object]] = [(0.0, 0, False, root_of(tree))]
    while heap:
        dist, _seq, is_entry, payload = heapq.heappop(heap)
        if is_entry:
            box, value = payload  # type: ignore[misc]
            yield dist, box, value
            continue
        node: _Node = payload  # type: ignore[assignment]
        tree.stats.node_reads += 1
        for box, child in node.entries:
            tree.stats.entry_tests += 1
            d = _entry_dist(box, anchor)
            if d == float("inf"):
                continue  # empty boxes match no distance query
            counter += 1
            if node.leaf:
                heapq.heappush(heap, (d, counter, True, (box, child)))
            else:
                heapq.heappush(heap, (max(d, dist), counter, False, child))


def nearest(
    tree: RTree,
    anchor,
    k: int = 1,
    tie_key: Optional[Callable[[object], object]] = None,
) -> List[Tuple[float, Box, object]]:
    """``RTree.nearest`` over the ``_Node`` objects (scalar branch)."""
    if k <= 0:
        return []
    key = tie_key if tie_key is not None else repr
    # For k == 1 with a point anchor, MINMAXDIST of any visited node
    # is a sound upper bound on the nearest distance (a minimal MBR
    # guarantees an object within it); track it to skip pushes.
    use_minmax = k == 1 and not isinstance(anchor, Box)
    bound = float("inf")
    counter = 0
    heap: List[Tuple[float, int, bool, object]] = [(0.0, 0, False, root_of(tree))]
    found: List[Tuple[float, Box, object]] = []
    while heap:
        dist, _seq, is_entry, payload = heap[0]
        if len(found) >= k and dist > found[k - 1][0]:
            break  # nothing queued can affect the result set
        heapq.heappop(heap)
        if is_entry:
            box, value = payload  # type: ignore[misc]
            found.append((dist, box, value))
            found.sort(key=lambda e: (e[0], key(e[2])))
            continue
        node: _Node = payload  # type: ignore[assignment]
        tree.stats.node_reads += 1
        for box, child in node.entries:
            tree.stats.entry_tests += 1
            d = _entry_dist(box, anchor)
            if d == float("inf"):
                continue
            if not node.leaf and d > bound:
                tree.stats.pruned_subtrees += 1
                continue
            if use_minmax and not node.leaf:
                bound = min(bound, box.minmaxdist_point(anchor))
            counter += 1
            if node.leaf:
                heapq.heappush(heap, (d, counter, True, (box, child)))
            else:
                heapq.heappush(heap, (max(d, dist), counter, False, child))
    tree.stats.pruned_subtrees += sum(
        1 for _d, _s, is_entry, _p in heap if not is_entry
    )
    return found[:k]


# -- spatial/table.py ----------------------------------------------------------
def _distance_to(obj: SpatialObject, anchor) -> float:
    if isinstance(anchor, Box):
        return obj.box.mindist(anchor)
    return obj.box.mindist_point(anchor)


def nearest_delta_merge(
    table: SpatialTable, anchor, k: int
) -> List[Tuple[float, SpatialObject]]:
    """``SpatialTable._nearest_delta_merge``: the packed base's browse
    widened to ``k + len(tombstones)``, a ranked sweep of the staged
    rows, and a merge — every step sorted by ``(distance, repr(oid))``."""
    d = table._delta
    k_base = k + len(d.tombstones)
    base = [
        (dist, obj)
        for dist, _box, obj in nearest(
            table._rtree, anchor, k_base, tie_key=lambda obj: repr(obj.oid)
        )
    ]
    tomb = d.tombstones
    live = [pair for pair in base if pair[1].oid not in tomb][:k]
    staged = sorted(
        (
            (_distance_to(obj, anchor), obj)
            for obj in d.inserts.values()
            if not obj.box.is_empty()
        ),
        key=lambda pair: (pair[0], repr(pair[1].oid)),
    )[:k]
    merged = sorted(live + staged, key=lambda pair: (pair[0], repr(pair[1].oid)))
    return merged[:k]


def table_nearest(
    table: SpatialTable, anchor, k: int
) -> List[Tuple[float, SpatialObject]]:
    """The R-tree branch of ``SpatialTable.nearest``: the merge above
    with a pending delta, the plain browse without."""
    if k <= 0:
        return []
    if table.delta_pending:
        return nearest_delta_merge(table, anchor, k)
    return [
        (dist, obj)
        for dist, _box, obj in nearest(
            table._rtree, anchor, k, tie_key=lambda obj: repr(obj.oid)
        )
    ]

"""The ``_Node`` walkers as they were before every reader moved onto the
tree's array form — frozen, with the node class they walk.

``RTree.search``, ``count``, ``to_node_arrays``, ``check_invariants``,
``height`` and ``all_entries`` now read ``_FlatTree`` columns
— edges, nonempty flags and ``ref`` numbers, no object per entry — and
the engine no longer has node objects at all.  They promise *identical*
values in the same sequence, identical snapshot arrays and identical
``node_reads`` / ``entry_tests`` / ``pruned_subtrees``.  These are
copies of the code they replaced, walking ``_Node`` objects of
``(box, value)`` / ``(mbr, child)`` entries and billing ``tree.stats``;
the nodes are the tree's columns thawed into this module's own frozen
``_Node`` class (:func:`thaw`, one ``Box`` per entry made from its
edges), and :func:`flatten` walks them back into columns.  Where the
engine now hands out values, the walkers still hand out ``(box,
value)``; the tests compare the values.  The subtree-count map is rebuilt on every call — it was
never billed.  ``test_rtree_reference.py`` holds the engine to them.
"""

from array import array
from itertools import chain
from operator import lt
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.boxes.bconstraints import BoxQuery
from repro.boxes.box import Box, enclose_all
from repro.spatial.rtree import RTree, _FlatTree


class _Node:
    """An R-tree node; leaves hold ``(box, value)``, inner nodes hold
    ``(box, child)``."""

    __slots__ = ("leaf", "entries", "parent")

    def __init__(self, leaf: bool):
        self.leaf = leaf
        self.entries: List[Tuple[Box, object]] = []
        self.parent: Optional["_Node"] = None

    def mbr(self) -> Box:
        return enclose_all(box for box, _ in self.entries)


def thaw(flat: _FlatTree) -> _Node:
    """The form as ``_Node`` objects, parents linked; returns the root.
    Each entry's box is made from its edge columns and nonempty flag; a
    leaf entry's value is the one its ``ref`` names."""
    nodes = [_Node(leaf=bool(flag)) for flag in flat.leaf]
    for n, node in enumerate(nodes):
        span = range(flat.offsets[n], flat.offsets[n] + flat.counts[n])
        boxes = [
            Box._trusted(
                tuple(c[e] for c in flat.lo), tuple(c[e] for c in flat.hi), not flat.nonempty[e]
            )
            for e in span
        ]
        refs = [flat.ref[e] for e in span]
        if node.leaf:
            node.entries = [(box, flat.values[r]) for box, r in zip(boxes, refs)]
        else:
            node.entries = [(box, nodes[r]) for box, r in zip(boxes, refs)]
            for _mbr, child in node.entries:
                child.parent = node
    return nodes[0]


def flatten(root: _Node) -> _FlatTree:
    """The form of ``_Node`` objects, by walking them: nodes numbered
    breadth first, leaf values listed in that order."""
    nodes = [root]
    first: List[int] = []  # per node, the number of its first child
    for node in nodes:  # grows as it goes
        first.append(len(nodes))
        if not node.leaf:
            nodes.extend(child for _mbr, child in node.entries)
    boxes = [box for node in nodes for box, _ in node.entries]
    dim = next((box.dim for box in boxes if not box.is_empty()), 0)
    flat = _FlatTree(dim)
    flat.add_nodes([n.leaf for n in nodes], [len(n.entries) for n in nodes])
    values: List[object] = []
    for node, start in zip(nodes, first):
        if node.leaf:
            flat.ref.extend(range(len(values), len(values) + len(node.entries)))
            values.extend(value for _box, value in node.entries)
        else:
            flat.ref.extend(range(start, start + len(node.entries)))
    flat.values = values
    # The columns from the entries' lo + hi end to end (zeros for an
    # empty box), each box with lo >= hi on some axis flagged empty.
    blank = (0.0,) * (2 * dim)
    coords = array("d", chain.from_iterable(
        blank if box.is_empty() else box.lo + box.hi for box in boxes
    ))
    flat.lo = [coords[d :: 2 * dim] for d in range(dim)]
    flat.hi = [coords[dim + d :: 2 * dim] for d in range(dim)]
    flat.nonempty = array(
        "B", [all(map(lt, lo, hi)) for lo, hi in zip(zip(*flat.lo), zip(*flat.hi))]
    )
    return flat


def root_of(tree: RTree) -> _Node:
    """The tree as ``_Node`` objects: its form, thawed."""
    return thaw(tree._flat)


# -- spatial/rtree.py ----------------------------------------------------------
def _node_may_match(mbr: Box, query: BoxQuery) -> bool:
    if query.inside is not None and not mbr.overlaps(query.inside):
        return False
    if (
        query.covers is not None
        and not query.covers.is_empty()
        and not query.covers.le(mbr)
    ):
        return False
    return all(mbr.overlaps(c) for c in query.overlap)


def search(tree: RTree, query: BoxQuery) -> Iterator[Tuple[Box, object]]:
    """``RTree.search`` over the ``_Node`` objects."""
    if query.is_unsatisfiable():
        return
    stack = [root_of(tree)]
    while stack:
        node = stack.pop()
        tree.stats.node_reads += 1
        if node.leaf:
            for box, value in node.entries:
                tree.stats.entry_tests += 1
                if not box.is_empty() and query.matches(box):
                    yield box, value
        else:
            for mbr, child in node.entries:
                tree.stats.entry_tests += 1
                if _node_may_match(mbr, query):
                    stack.append(child)


def subtree_count_map(root: _Node) -> Dict[int, int]:
    """``RTree._subtree_count_map``: per-node counts of non-empty-box
    entries below, keyed by ``id(node)``."""
    counts: Dict[int, int] = {}

    def walk(node: _Node) -> int:
        if node.leaf:
            n = sum(1 for box, _v in node.entries if not box.is_empty())
        else:
            n = sum(walk(child) for _b, child in node.entries)
        counts[id(node)] = n
        return n

    walk(root)
    return counts


def count(tree: RTree, query: BoxQuery) -> int:
    """``RTree.count`` over the ``_Node`` objects."""
    if query.is_unsatisfiable():
        return 0
    inside_only = (
        query.inside is not None
        and not query.overlap
        and (query.covers is None or query.covers.is_empty())
    )
    root = root_of(tree)
    counts = subtree_count_map(root) if inside_only else None
    total = 0
    stack = [root]
    while stack:
        node = stack.pop()
        if counts is not None and node.mbr().le(query.inside):
            total += counts[id(node)]
            tree.stats.pruned_subtrees += 1
            continue
        tree.stats.node_reads += 1
        if node.leaf:
            for box, _value in node.entries:
                tree.stats.entry_tests += 1
                if not box.is_empty() and query.matches(box):
                    total += 1
        else:
            for mbr, child in node.entries:
                tree.stats.entry_tests += 1
                if _node_may_match(mbr, query):
                    stack.append(child)
    return total


def height(tree: RTree) -> int:
    """``RTree.height`` over the ``_Node`` objects."""
    h = 1
    node = root_of(tree)
    while not node.leaf:
        h += 1
        node = node.entries[0][1]
    return h


def all_entries(tree: RTree) -> Iterator[Tuple[Box, object]]:
    """``RTree.all_entries`` over the ``_Node`` objects."""
    stack = [root_of(tree)]
    while stack:
        node = stack.pop()
        if node.leaf:
            yield from node.entries
        else:
            stack.extend(child for _b, child in node.entries)


def to_node_arrays(
    tree: RTree, value_key: Callable[[object], int]
) -> Dict[str, object]:
    """``RTree.to_node_arrays`` over the ``_Node`` objects."""
    order: List[_Node] = []
    index: Dict[int, int] = {}
    stack = [root_of(tree)]
    while stack:
        node = stack.pop()
        index[id(node)] = len(order)
        order.append(node)
        if not node.leaf:
            stack.extend(child for _b, child in reversed(node.entries))
    dim = 0
    for node in order:
        for box, _value in node.entries:
            if not box.is_empty():
                dim = box.dim
                break
        if dim:
            break
    leaf_flags: List[int] = []
    counts: List[int] = []
    bounds: List[float] = []
    values: List[int] = []
    for node in order:
        leaf_flags.append(1 if node.leaf else 0)
        counts.append(len(node.entries))
        for box, value in node.entries:
            if box.is_empty():
                bounds.extend([0.0] * (2 * dim))
            else:
                bounds.extend(box.lo)
                bounds.extend(box.hi)
            if node.leaf:
                values.append(value_key(value))
            else:
                values.append(index[id(value)])
    return {
        "dim": dim,
        "max_entries": tree.max_entries,
        "leaf": leaf_flags,
        "counts": counts,
        "bounds": bounds,
        "values": values,
    }


def check_invariants(tree: RTree) -> None:
    """``RTree.check_invariants`` over the ``_Node`` objects."""
    root = root_of(tree)

    def walk(node: _Node, depth: int, leaf_depths: List[int]) -> None:
        if node is not root:
            assert 1 <= len(node.entries) <= tree.max_entries
        if node.leaf:
            leaf_depths.append(depth)
            return
        for mbr, child in node.entries:
            assert child.parent is node
            actual = child.mbr()
            assert actual.le(mbr), "child MBR exceeds stored MBR"
            walk(child, depth + 1, leaf_depths)

    leaf_depths: List[int] = []
    walk(root, 0, leaf_depths)
    assert len(set(leaf_depths)) <= 1, "leaves at different depths"

"""Spatial join algorithms over R-trees.

Two classic algorithms for the binary overlap join the paper's related
work discusses, complementing the z-order merge of
:mod:`repro.spatial.zorder`:

* :func:`index_nested_loop_join` — probe one index per outer row (what
  the compiled box plan effectively does for a 2-variable overlap
  query);
* :func:`synchronized_rtree_join` — Brinkhoff-style simultaneous
  depth-first traversal of two R-trees, pruning pairs of subtrees whose
  MBRs do not intersect.  Asymptotically superior when both sides are
  indexed.

Both return exact results when given the objects' true boxes; callers
holding regions follow up with an exact region-overlap filter.
"""

from __future__ import annotations

from typing import Iterator, List, MutableMapping, Optional, Tuple

from ..boxes.bconstraints import BoxQuery
from ..boxes.box import Box
from .columnar import Edges, box_meets
from .rtree import RTree, _FlatTree


def index_nested_loop_join(
    outer: List[Tuple[Box, object]],
    inner: RTree,
    cache: Optional[MutableMapping[BoxQuery, List[object]]] = None,
) -> Iterator[Tuple[object, object]]:
    """Overlap join: one index probe per outer entry.

    ``cache`` (any mutable mapping, e.g. a plain dict shared across
    calls) memoises probe results by box query, so duplicate outer boxes
    cost a single traversal of ``inner``.
    """
    for box, value in outer:
        if box.is_empty():
            continue
        query = BoxQuery(overlap=(box,))
        if cache is not None and query in cache:
            matches = cache[query]
        else:
            matches = list(inner.search(query))
            if cache is not None:
                cache[query] = matches
        for other in matches:
            yield value, other


def synchronized_rtree_join(
    left: RTree, right: RTree
) -> Iterator[Tuple[object, object]]:
    """Overlap join by synchronized traversal of two R-trees.

    Recursively pairs nodes whose MBRs intersect, read off the edge
    columns; a leaf/inner mismatch descends the inner side only.  Every
    reported pair's boxes overlap.
    """
    flat_a, flat_b = left._flat, right._flat

    def meets(a: Optional[Edges], b: Optional[Edges]) -> bool:
        return a is not None and b is not None and box_meets(a, b)

    def entries(flat: _FlatTree, n: int) -> List[Tuple[Optional[Edges], int]]:
        span = flat.span(n)
        return list(zip(map(flat.edges, range(span.start, span.stop)), flat.ref[span]))

    def recurse(a: int, b: int) -> Iterator[Tuple[object, object]]:
        left.stats.node_reads += 1
        right.stats.node_reads += 1
        a_leaf, b_leaf = flat_a.leaf[a], flat_b.leaf[b]
        a_entries, b_entries = entries(flat_a, a), entries(flat_b, b)
        if a_leaf and b_leaf:
            for abox, aref in a_entries:
                for bbox, bref in b_entries:
                    if meets(abox, bbox):
                        yield flat_a.values[aref], flat_b.values[bref]
        elif a_leaf:
            a_mbr = flat_a.mbr(a)
            for bbox, bchild in b_entries:
                if meets(a_mbr, bbox):
                    yield from recurse(a, bchild)
        elif b_leaf:
            b_mbr = flat_b.mbr(b)
            for abox, achild in a_entries:
                if meets(abox, b_mbr):
                    yield from recurse(achild, b)
        else:
            for abox, achild in a_entries:
                for bbox, bchild in b_entries:
                    if meets(abox, bbox):
                        yield from recurse(achild, bchild)

    if flat_a.counts[0] and flat_b.counts[0]:
        yield from recurse(0, 0)

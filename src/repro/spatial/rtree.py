"""R-tree over bounding boxes (paper reference [6]), STR-packed.

A from-scratch R-tree, built once by Sort-Tile-Recursive packing and
immutable after that, held as nothing but arrays (:class:`_FlatTree`:
per entry its box's edges and one integer, no object).  It supports the
combined predicate search the paper's Section 4 needs: given a
:class:`repro.boxes.bconstraints.BoxQuery` (a conjunction of ``⊑ a``,
``b ⊑`` and ``⊓ c ≠ ∅`` constraints), find all stored values whose box
satisfies it — descending only into subtrees whose MBR could contain a
match:

* an entry with ``e ⊑ a`` can only live under a node with ``N ⊓ a ≠ ∅``
  (indeed ``e ⊑ N`` and ``e ⊑ a`` force a common point);
* an entry with ``b ⊑ e`` only under a node with ``b ⊑ N``;
* an entry with ``e ⊓ c ≠ ∅`` only under a node with ``N ⊓ c ≠ ∅``.

Readers decide on the edge columns and hand out the stored values (a
table's rows: a caller that needs a leaf's box reads ``row.box``).
Node accesses are counted (``stats``) so the benchmarks can report probe
costs.  A table never edits its tree: writes stage in the table's delta
and a repack packs a new tree beside the old one
(:mod:`repro.spatial.table`).
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from array import array
from dataclasses import dataclass
from itertools import accumulate, chain, compress
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional
from typing import Sequence, Tuple, Union

import numpy as np

from ..boxes.bconstraints import BoxQuery, PackedQuery
from ..boxes.box import Box, minmaxdist_edges
from ..errors import DimensionMismatchError
from . import columnar
from .columnar import Edges, box_le

#: Anchor of a distance traversal: a point (coordinate sequence) or a
#: box (box-to-box MINDIST — what the distance join uses).
DistanceAnchor = Union[Sequence[float], Box]

#: Most node entries :meth:`RTree.search_batch` tests in one kernel call
#: (a few MB of transient arrays); a wider frontier is walked in halves.
_FRONTIER_SLOTS = 1 << 16

_IOTA: List[Any] = []


def _iota(n: int) -> Any:
    """``np.arange(n)``, cut from one shared array.  ``arange`` and 2-D
    fancy indexing release the GIL however little they have to do, and
    in the threaded query service a probe that lets go of it waits for
    whichever thread picked it up: measured beside one writing client,
    a 2.5 ms ``/run`` took 0.1 ms longer with ``arange`` in the walk
    and 0.25 ms longer with the 2-D gathers
    (benchmarks/results/pr14_batched_probe.md)."""
    if n > _FRONTIER_SLOTS:
        return np.arange(n)
    if not _IOTA:
        _IOTA.append(np.arange(_FRONTIER_SLOTS))
    return _IOTA[0][:n]


@dataclass
class RTreeStats:
    """Mutable counters for index instrumentation.

    ``entry_tests`` counts per-entry box tests during search (leaf
    entries matched against the query plus inner entries tested for
    descent) — the R-tree's share of "exact box tests", comparable to a
    spatial join's candidate-pair tests.  Distance traversals
    (:meth:`RTree.nearest` / :meth:`RTree.distance_browse`) count their
    per-entry distance computations there too.  ``pruned_subtrees``
    records subtrees a nearest-neighbor bound or a COUNT shortcut
    discarded without reading — the savings the kNN/aggregation
    benchmarks gate on.
    """

    node_reads: int = 0
    entry_tests: int = 0
    pruned_subtrees: int = 0

    def reset(self) -> None:
        self.node_reads = self.entry_tests = self.pruned_subtrees = 0

    def to_dict(self) -> Dict[str, int]:
        """JSON-serializable counter snapshot (see :meth:`from_dict`)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "RTreeStats":
        """Inverse of :meth:`to_dict`; ignores unknown keys."""
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: int(v) for k, v in data.items() if k in known})


class _FlatTree:
    """The tree: parallel columns, read by every search, count, browse,
    join and dump.

    Nodes are numbered from the root, which is node 0, and a child's
    number is greater than its parent's; node ``n`` owns entries
    ``offsets[n] : offsets[n] + counts[n]``.  An entry is a position in
    the columns: its box's edges (``lo[d][e]``/``hi[d][e]``; zeros under
    an empty box, flagged in ``nonempty``) and ``ref[e]`` — in a leaf its
    value's slot in ``values``, in an inner node its child's number.
    The columns are stdlib arrays, which NumPy reads in place.  Nothing
    is cyclic: a dropped tree is freed by reference counting alone.
    """

    __slots__ = ("lo", "hi", "nonempty", "ref", "values", "offsets", "counts", "leaf", "_below")

    def __init__(self, dim: int) -> None:
        self.lo = [array("d") for _ in range(dim)]
        self.hi = [array("d") for _ in range(dim)]
        self.nonempty = array("B")
        self.ref = array("q")
        self.values: Sequence[object] = ()
        self.offsets = array("q")
        self.counts = array("q")
        self.leaf = array("B")
        self._below: Optional[array] = None

    def add_nodes(self, leaf: Iterable[bool], counts: Sequence[int]) -> None:
        """Append nodes, given each one's leaf flag and entry count;
        their entries are appended next, in the same order."""
        self.offsets.extend(accumulate(counts[:-1], initial=len(self.ref)))
        self.counts.extend(counts)
        self.leaf.extend(leaf)

    def span(self, n: int) -> slice:
        """Node ``n``'s entries, as a slice of the columns."""
        off = self.offsets[n]
        return slice(off, off + self.counts[n])

    def edges(self, e: int) -> Optional[Edges]:
        """Entry ``e``'s box as ``(lo, hi)``, ``None`` when empty."""
        live = self.nonempty[e]
        return (tuple(c[e] for c in self.lo), tuple(c[e] for c in self.hi)) if live else None

    def mbr(self, n: int) -> Optional[Edges]:
        """The box enclosing node ``n``'s entries (``None`` when all are
        empty): :func:`~repro.boxes.box.enclose_all`'s ``min``/``max``."""
        span = self.span(n)
        live = self.nonempty[span]
        if not any(live):
            return None
        return (
            tuple(min(compress(c[span], live)) for c in self.lo),
            tuple(max(compress(c[span], live)) for c in self.hi),
        )

    def encloses(self, e: int) -> bool:
        """Whether inner entry ``e``'s box encloses its child's entries."""
        mbr, stored = self.mbr(self.ref[e]), self.edges(e)
        return mbr is None or (stored is not None and box_le(mbr, stored))

    def live_below(self) -> Sequence[int]:
        """Per node, the nonempty-box entries in its subtree — what a
        COUNT adds for a subtree it need not read.  Filled on first use
        by one sweep from the last node to the root (children are
        numbered after their parent), not billed to any ``stats``."""
        if self._below is None:
            below = array("q", [0]) * len(self.offsets)
            for n in range(len(below) - 1, -1, -1):
                span = self.span(n)
                if self.leaf[n]:
                    below[n] = sum(self.nonempty[span])
                else:
                    below[n] = sum(map(below.__getitem__, self.ref[span]))
            self._below = below
        return self._below


class RTree:
    """A packed R-tree held as flat arrays (:class:`_FlatTree`), which
    every reader reads.  Only a packed build (:meth:`bulk_load`,
    :meth:`bulk_load_columns`) makes a non-empty tree — a snapshot
    stores no tree, its loader packs one from the rows — and nothing
    edits it afterwards: readers never coordinate with a writer.

    Parameters
    ----------
    max_entries:
        Node capacity ``M`` (default 8).
    """

    def __init__(self, max_entries: int = 8):
        if max_entries < 2:
            raise ValueError("max_entries must be at least 2")
        self.max_entries = max_entries
        self._size = 0
        self.stats = RTreeStats()
        # The tree: an empty leaf until a build replaces it.
        self._flat = _FlatTree(0)
        self._flat.add_nodes([True], [0])

    # -- bulk loading (STR) ---------------------------------------------------
    @classmethod
    def bulk_load(
        cls, entries: Sequence[Tuple[Box, object]], max_entries: int = 8
    ) -> "RTree":
        """Build a packed R-tree with Sort-Tile-Recursive loading.

        STR (Leutenegger et al.) sorts entries by the first coordinate
        of their centers, slices into vertical tiles, sorts each tile by
        the second coordinate, and packs leaves at full fanout; upper
        levels are packed recursively, for near-100% node utilisation.

        The coordinates are gathered into columns once and
        :meth:`bulk_load_columns` packs.  Only nonempty-box entries are
        kept: an empty box matches no query and is at no finite distance.
        """
        items = [e for e in entries if not e[0].is_empty()]
        if len({box.dim for box, _value in items}) > 1:
            raise DimensionMismatchError("bulk load of mixed-dimension boxes")
        return cls.bulk_load_columns(
            [value for _box, value in items],
            list(zip(*[box.lo for box, _value in items])),
            list(zip(*[box.hi for box, _value in items])),
            max_entries=max_entries,
        )

    @classmethod
    def bulk_load_columns(
        cls,
        values: Sequence[object],
        lo: columnar.Columns,
        hi: columnar.Columns,
        max_entries: int = 8,
    ) -> "RTree":
        """:meth:`bulk_load` of ``values`` whose nonempty boxes' edges
        the caller holds as columns (``lo[d][i]``/``hi[d][i]`` for
        ``values[i]`` — a table passes its ``ColumnStore``'s).

        Level by level on the columns alone:
        :func:`~repro.spatial.columnar.str_level_order` gives the packed
        order (an integer array) and node boundaries, ``take`` the
        level's columns in that order, ``grouped_bounds`` the nodes'
        MBRs — the next level's columns.  Root level first, the levels'
        columns *are* the tree's and their orders its ``ref`` column
        (value slots in leaves, child numbers above): no object per entry.
        """
        tree = cls(max_entries=max_entries)
        if not len(values):
            return tree
        flat = _FlatTree(len(lo))
        levels: List[Tuple[Any, ...]] = []
        while True:
            perm, offsets = columnar.str_level_order(lo, hi, max_entries)
            packed = columnar.take((*lo, *hi), perm)
            lo, hi = packed[: len(lo)], packed[len(lo) :]
            levels.append((perm, offsets, packed))
            if len(offsets) == 2:
                break  # one node: the root
            lo, hi = columnar.grouped_bounds(lo, hi, offsets)
        for depth, (perm, offsets, packed) in enumerate(reversed(levels)):
            counts = list(map(int.__sub__, offsets[1:], offsets))
            leaf = depth == len(levels) - 1
            flat.add_nodes(array("B", [leaf]) * len(counts), counts)
            # The node of the level below, whose first is numbered next.
            flat.ref.extend(perm if leaf else map(len(flat.offsets).__add__, perm))
            for column, part in zip((*flat.lo, *flat.hi), packed):
                column.extend(part)
        flat.nonempty.frombytes(b"\x01" * len(flat.ref))
        flat.values, tree._flat, tree._size = values, flat, len(values)
        return tree

    def __len__(self) -> int:
        return self._size

    # -- search ------------------------------------------------------------------
    def search(self, query: BoxQuery) -> Iterator[object]:
        """Every value whose box satisfies ``query``: the paper's single
        range query, its three constraint forms evaluated in one descent."""
        return self._descend(query, None)

    def _descend(
        self, query: BoxQuery, covered: Optional[Callable[[_FlatTree, int], bool]]
    ) -> Iterator[object]:
        """The scalar descent behind :meth:`search` and :meth:`count`: a
        node that ``covered`` answers for is passed over unread."""
        if query.is_unsatisfiable():
            return
        flat = self._flat
        stack = [0]
        while stack:
            node = stack.pop()
            if covered is not None and covered(flat, node):
                continue
            self.stats.node_reads += 1
            leaf, span = flat.leaf[node], flat.span(node)
            lo, hi = ([c[span] for c in cols] for cols in (flat.lo, flat.hi))
            mask = columnar.scalar_mask(lo, hi, flat.nonempty[span], query, leaf)
            for ok, ref in zip(mask, flat.ref[span]):
                self.stats.entry_tests += 1
                if ok:
                    if leaf:
                        yield flat.values[ref]
                    else:
                        stack.append(ref)

    def search_batch(self, queries: Sequence[BoxQuery]) -> List[List[object]]:
        """:meth:`search` of every query, in one traversal on the NumPy
        kernels — of one query too: this is the vectorized search.

        ``result[i]`` equals ``list(self.search(queries[i]))`` — same
        values, same sequence — and the counters advance by the same
        totals (nothing is deduplicated).  The queries are packed
        (:func:`~repro.spatial.columnar.pack_query`) and walked by
        :meth:`search_packed`."""
        dim = len(self._flat.lo)
        return self.search_packed(
            [None if q.is_unsatisfiable() else columnar.pack_query(q, dim) for q in queries]
        )

    def search_packed(self, packed: Sequence[Optional[PackedQuery]]) -> List[List[object]]:
        """:meth:`search_batch` of queries already packed, ``None`` for
        an unsatisfiable one (passed over, its list empty).

        The queries are grouped by shape, ``{shape: (members,
        coordinates)}``, and each group walks level-synchronously: a
        *frontier* holds the ``(query, node)`` pairs alive at one depth,
        one :func:`~repro.spatial.columnar.batch_mask` tests all their
        entries, and the surviving ``(query, child)`` pairs are the next
        frontier — a fixed number of NumPy calls per level.  Children are
        expanded in *reverse* entry order, as a single query's stack pops
        them, so each query meets its leaves in its own depth-first
        sequence; a frontier of more than ``_FRONTIER_SLOTS`` entries is
        halved and the front half walked first, which keeps that sequence
        and bounds the transient arrays.
        """
        flat = self._flat
        dim = len(flat.lo)
        values = flat.values
        # Zero-copy views, made per call like ColumnStore._views.
        all_bounds = [np.frombuffer(col, np.float64) for col in (*flat.lo, *flat.hi)]
        nonempty = np.frombuffer(flat.nonempty, np.uint8).view(bool)
        ints = (flat.ref, flat.offsets, flat.counts)
        ref, node_offsets, node_counts = (np.frombuffer(col, np.int64) for col in ints)
        out: List[List[object]] = [[] for _ in packed]
        by_shape: Dict[columnar.QueryShape, Tuple[List[int], List[tuple]]] = {}
        for i, packed_query in enumerate(packed):
            if packed_query is not None:
                members, rows = by_shape.setdefault(packed_query[0], ([], []))
                members.append(i)
                rows.append(packed_query[1])
        for shape, (members, rows) in by_shape.items():
            # One column of packed coordinates per query of this shape.
            coords = np.array(rows, dtype=np.float64).reshape(len(rows), -1).T
            # Frontiers still to walk, the next one last.  Each is sorted
            # by query and, within a query, in the order its own walk
            # reaches the nodes; expanding and halving keep both.
            work = [(_iota(len(members)), np.zeros(len(members), dtype=np.intp))]
            while work:
                pair_query, pair_node = work.pop()
                counts = node_counts[pair_node]
                total = int(counts.sum())
                if total > _FRONTIER_SLOTS and len(pair_node) > 1:
                    half = len(pair_node) // 2
                    work.append((pair_query[half:], pair_node[half:]))
                    work.append((pair_query[:half], pair_node[:half]))
                    continue
                self.stats.node_reads += len(pair_node)
                self.stats.entry_tests += total
                leaf = bool(flat.leaf[pair_node[0]])
                # One slot per (pair, entry); ``rank`` numbers a pair's
                # entries forwards in leaves (the order rows are yielded
                # in), backwards above (the order children are popped).
                rank = _iota(total) - (counts.cumsum() - counts).repeat(counts)
                if not leaf:
                    rank = (counts - 1).repeat(counts) - rank
                entry = node_offsets[pair_node].repeat(counts) + rank
                query = pair_query.repeat(counts)
                # Row by row: one 2-D gather would drop the GIL (see _iota).
                bounds = [row[entry] for row in all_bounds]
                mask = columnar.batch_mask(
                    bounds[:dim], bounds[dim:], nonempty[entry],
                    shape, [row[query] for row in coords], leaf,
                )
                pair_query, entry = query[mask], entry[mask]
                if leaf:
                    for q, r in zip(pair_query.tolist(), ref[entry].tolist()):
                        out[members[q]].append(values[r])
                elif len(entry):
                    work.append((pair_query, ref[entry]))
        return out

    # -- distance browsing / nearest neighbors --------------------------------
    def distance_browse(
        self,
        anchor: "DistanceAnchor",
        k: Optional[int] = None,
        seeds: Sequence[Tuple[float, object]] = (),
        dead: Optional[Callable[[object], bool]] = None,
    ) -> Iterator[Tuple[float, object]]:
        """Incremental best-first distance browsing (Hjaltason–Samet).

        Yields ``(distance, value)`` in nondecreasing distance from
        ``anchor`` — a point (coordinate sequence) or a :class:`Box`
        (box-to-box MINDIST).  One heap of ``(distance, sequence, kind,
        payload)`` holds node numbers (kind 0), leaf value slots (1: a
        row is looked up, its memory touched, only if it surfaces) and
        outside values (2); a node is read only when it reaches the
        front, so the first few results touch a small neighborhood of
        the tree.  Empty-box entries are never yielded.

        Reading a node is a scalar loop over its slice of the edge
        columns: squared gaps added in dimension order, one root — the
        recipe of :meth:`Box.mindist` and, a point being the box ``[p,
        p]``, of :meth:`Box.mindist_point`, so distances and ties are the
        per-object doubles (a node cannot repay a NumPy call).

        For :meth:`nearest`: ``seeds`` are outside ``(distance, value)``
        pairs queued at their known finite distances; ``dead`` values
        are passed over; with ``k`` the loop ends once ``k`` values are
        out and the next distance exceeds the ``k``-th's, billing the
        subtrees still queued to ``stats.pruned_subtrees``; ``k == 1``
        for a point (and no ``dead``) also skips inner entries beyond
        the smallest MINMAXDIST seen, read off the edge columns.
        """
        flat = self._flat
        stats = self.stats
        if isinstance(anchor, Box):
            if anchor.is_empty():
                # At no finite distance from anything: the root's
                # entries are tested, none queues.
                stats.node_reads += 1
                stats.entry_tests += flat.counts[0]
                return
            alo, ahi = anchor.lo, anchor.hi
        else:
            alo = ahi = anchor
        if flat.lo and len(alo) != len(flat.lo):
            raise DimensionMismatchError(
                f"{len(alo)}-dim anchor on a {len(flat.lo)}-dim tree"
            )
        # MINMAXDIST of a visited MBR bounds the nearest distance from
        # above: a minimal MBR has an object within it (a live one, if
        # none is dead).
        minmax = k == 1 and alo is ahi and dead is None
        bound = kth = math.inf
        accepted = 0
        heap: List[Tuple[float, int, int, Any]] = [
            (dist, seq, 2, value) for seq, (dist, value) in enumerate(seeds, 1)
        ]
        counter = len(heap)
        heap.append((0.0, 0, 0, 0))
        heapq.heapify(heap)
        columns = list(zip(alo, ahi, flat.lo, flat.hi))
        offsets, counts, nonempty = flat.offsets, flat.counts, flat.nonempty
        refs, values = flat.ref, flat.values
        push, sqrt = heapq.heappush, math.sqrt
        while heap:
            dist, _seq, kind, payload = heap[0]
            if dist > kth:
                break  # nothing queued can affect the result set
            heapq.heappop(heap)
            if kind:
                value = values[payload] if kind == 1 else payload
                if dead is None or not dead(value):
                    accepted += 1
                    if accepted == k:
                        kth = dist
                    yield dist, value
                continue
            off = offsets[payload]
            end = off + counts[payload]
            stats.node_reads += 1
            stats.entry_tests += end - off
            squares = [0.0] * (end - off)
            for c, e, lo, hi in columns:
                i = 0
                for a, b in zip(lo[off:end], hi[off:end]):
                    if c > b:
                        gap = c - b
                        squares[i] += gap * gap
                    elif a > e:
                        gap = a - e
                        squares[i] += gap * gap
                    i += 1
            if flat.leaf[payload]:
                for square, live, ref in zip(squares, nonempty[off:end], refs[off:end]):
                    if live:  # empty boxes match no distance query
                        counter += 1
                        push(heap, (sqrt(square), counter, 1, ref))
                continue
            for entry, square, live in zip(range(off, end), squares, nonempty[off:end]):
                if not live:
                    continue
                d = sqrt(square)
                if d > bound:
                    stats.pruned_subtrees += 1
                    continue
                if minmax:
                    bound = min(bound, minmaxdist_edges(alo, *flat.edges(entry)))
                counter += 1
                push(heap, (d if d > dist else dist, counter, 0, refs[entry]))
        stats.pruned_subtrees += [item[2] for item in heap].count(0)

    def nearest(
        self,
        anchor: "DistanceAnchor",
        k: int = 1,
        tie_key: Optional[Callable[[object], object]] = None,
        seeds: Sequence[Tuple[float, object]] = (),
        dead: Optional[Callable[[object], bool]] = None,
    ) -> List[Tuple[float, object]]:
        """The ``k`` nearest ``(distance, value)`` pairs: the first ``k``
        of :meth:`distance_browse`, which stops reading at the ``k``-th.

        Equivalent to (and property-tested against) sorting all entries
        by ``(distance, tie_key(value))`` and taking the first ``k`` —
        ties at the ``k``-th distance are broken by ``tie_key``
        (default: ``repr`` of the stored value), so the result matches
        a brute-force reference exactly (the browse yields every entry
        tied with the ``k``-th, so the tie-break is one sort at the end).
        With ``seeds`` (a table's staged rows) and ``dead`` (its
        tombstone test) the result is the ``k`` nearest of the live
        union, for no more node reads than that takes.
        """
        if k <= 0:
            return []
        key = tie_key if tie_key is not None else repr
        found = list(self.distance_browse(anchor, k, seeds, dead))
        found.sort(key=lambda e: (e[0], key(e[1])))
        return found[:k]

    # -- counting (aggregation pushdown) --------------------------------------
    def node_count(self) -> int:
        """Total number of nodes — the reads a full traversal costs."""
        return len(self._flat.offsets)

    def count(self, query: BoxQuery) -> int:
        """``len(list(self.search(query)))`` without materialising rows.

        The aggregation pushdown: when the query is a pure containment
        template (only an ``inside`` constraint), a node whose MBR lies
        inside the query box contributes its subtree's entry count
        (:meth:`_FlatTree.live_below`) without being descended into
        (``stats.pruned_subtrees``) — every entry below is contained in
        the node's MBR and hence in the query box.  Other constraint
        forms cannot shortcut this way (an MBR overlapping ``c`` says
        nothing about its entries), so they descend normally.
        """
        inside = query.inside
        inside_only = (
            inside is not None
            and not query.overlap
            and (query.covers is None or query.covers.is_empty())
        )
        shortcut = 0

        def covered(flat: _FlatTree, node: int) -> bool:
            nonlocal shortcut
            mbr = flat.mbr(node)
            if mbr is not None and (inside.is_empty() or not box_le(mbr, (inside.lo, inside.hi))):
                return False
            shortcut += flat.live_below()[node]
            self.stats.pruned_subtrees += 1
            return True

        read = sum(1 for _ in self._descend(query, covered if inside_only else None))
        return read + shortcut

    # -- inspection ------------------------------------------------------------------
    def height(self) -> int:
        """Tree height (1 for a single leaf)."""
        flat = self._flat
        h = 1
        node = 0
        while not flat.leaf[node]:
            h += 1
            node = flat.ref[flat.offsets[node]]
        return h

    def all_entries(self) -> Iterator[object]:
        """Every stored value (no filtering), leaf by leaf depth first."""
        flat = self._flat
        stack = [0]
        while stack:
            node = stack.pop()
            refs = flat.ref[flat.span(node)]
            if flat.leaf[node]:
                yield from map(flat.values.__getitem__, refs)
            else:
                stack.extend(refs)

    # -- dump ---------------------------------------------------------------------
    def to_node_arrays(
        self, value_key: Callable[[object], int]
    ) -> Dict[str, object]:
        """Flatten the tree into parallel node arrays (what version-1
        snapshots stored, and what tests compare trees by).

        Nodes are listed in preorder (root first).  Per node, ``leaf``
        holds a 0/1 flag and ``counts`` its entry count; entries
        contribute, in entry order, ``2 * dim`` floats to ``bounds``
        (lo coordinates then hi; empty boxes as all zeros) and one int
        to ``values`` — ``value_key(value)`` for leaf entries, the
        child's node index for inner entries.  Stored MBRs are dumped
        verbatim: two trees are the same tree exactly when their dumps
        are equal (a version-1 snapshot's node arrays are checked so).
        """
        flat = self._flat
        order: List[int] = []  # the form's node numbers, in preorder
        stack = [0]
        while stack:
            node = stack.pop()
            order.append(node)
            if not flat.leaf[node]:
                stack.extend(reversed(flat.ref[flat.span(node)]))
        index = [0] * len(order)
        for position, node in enumerate(order):
            index[node] = position
        bounds: List[float] = []
        values: List[int] = []
        for node in order:
            span = flat.span(node)
            bounds.extend(chain.from_iterable(zip(*(col[span] for col in (*flat.lo, *flat.hi)))))
            if flat.leaf[node]:
                values.extend(value_key(flat.values[r]) for r in flat.ref[span])
            else:
                values.extend(map(index.__getitem__, flat.ref[span]))
        return {
            "dim": len(flat.lo),
            "max_entries": self.max_entries,
            "leaf": [flat.leaf[node] for node in order],
            "counts": [flat.counts[node] for node in order],
            "bounds": bounds,
            "values": values,
        }

    def check_invariants(self) -> None:
        """Validate structural invariants (tests call this after builds)."""
        flat = self._flat
        leaf_depths = set()
        stack = [(0, 0)]
        while stack:
            node, depth = stack.pop()
            if node:
                assert 1 <= flat.counts[node] <= self.max_entries
            if flat.leaf[node]:
                leaf_depths.add(depth)
                continue
            span = flat.span(node)
            for entry, child in zip(range(span.start, span.stop), flat.ref[span]):
                assert child > node, "child numbered before its parent"
                assert flat.encloses(entry), "child MBR exceeds stored MBR"
                stack.append((child, depth + 1))
        assert len(leaf_depths) <= 1, "leaves at different depths"


"""R-tree over bounding boxes (paper reference [6]), STR-packed.

A from-scratch R-tree, built once by Sort-Tile-Recursive packing and
immutable after that, held as flat arrays (:class:`_FlatTree`) and
supporting the combined predicate search the paper's Section 4 needs:
given a :class:`repro.boxes.bconstraints.BoxQuery` (a conjunction of
``⊑ a``, ``b ⊑`` and ``⊓ c ≠ ∅`` constraints), find all stored entries
whose box satisfies it — descending only into subtrees whose MBR could
contain a match:

* an entry with ``e ⊑ a`` can only live under a node with ``N ⊓ a ≠ ∅``
  (indeed ``e ⊑ N`` and ``e ⊑ a`` force a common point);
* an entry with ``b ⊑ e`` only under a node with ``b ⊑ N``;
* an entry with ``e ⊓ c ≠ ∅`` only under a node with ``N ⊓ c ≠ ∅``.

Node accesses are counted (``stats``) so the benchmarks can report probe
costs.  A table never edits its tree: writes stage in the table's delta
and a repack packs a new tree beside the old one
(:mod:`repro.spatial.table`).
"""

from __future__ import annotations

import dataclasses
import gc
import heapq
import math
from array import array
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional
from typing import Sequence, Tuple, Union

from ..boxes.bconstraints import BoxQuery
from ..boxes.box import Box, enclose_all
from ..errors import DimensionMismatchError, SnapshotError
from . import columnar

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
        return columnar.np.arange(n)
    if not _IOTA:
        _IOTA.append(columnar.np.arange(_FRONTIER_SLOTS))
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
    ``offsets[n] : offsets[n] + counts[n]``, in its entry order.
    Per entry: its box's edges (``lo[d][e]``/``hi[d][e]``; zeros under
    an empty box, flagged in ``nonempty``), the ``(box, value)`` tuple a
    leaf holds or the ``(mbr, child number)`` of an inner node, and the
    child's number again in ``child`` (0 in leaves).  The columns are
    stdlib arrays, so the form exists without NumPy, which reads them in
    place (``frombuffer``).  Nothing points upwards and nothing is
    cyclic: a dropped tree is freed by reference counting alone.
    """

    __slots__ = ("lo", "hi", "nonempty", "entries", "child", "offsets", "counts", "leaf", "_below")

    def __init__(self, dim: int) -> None:
        self.lo = [array("d") for _ in range(dim)]
        self.hi = [array("d") for _ in range(dim)]
        self.nonempty = array("B")
        self.entries: List[Tuple[Box, Any]] = []
        self.child = array("q")
        self.offsets = array("q")
        self.counts = array("q")
        self.leaf = array("B")
        self._below: Optional[array] = None

    def add_nodes(self, leaf: Iterable[bool], counts: Sequence[int]) -> None:
        """Append nodes, given each one's leaf flag and entry count;
        their entries are appended next, in the same order."""
        self.offsets.extend(accumulate(counts[:-1], initial=len(self.entries)))
        self.counts.extend(counts)
        self.leaf.extend(leaf)

    def set_bounds(self, rows: Iterable[float]) -> None:
        """Fill the coordinate columns from the entries' ``lo + hi``
        coordinates end to end (zeros for an empty box)."""
        coords = array("d", rows)
        dim = len(self.lo)
        self.lo = [coords[d :: 2 * dim] for d in range(dim)]
        self.hi = [coords[dim + d :: 2 * dim] for d in range(dim)]

    def node(self, n: int) -> List[Tuple[Box, Any]]:
        """Node ``n``'s entries, in entry order."""
        off = self.offsets[n]
        return self.entries[off : off + self.counts[n]]

    def mbr(self, n: int) -> Box:
        """The box enclosing node ``n``'s entries."""
        return enclose_all([box for box, _ in self.node(n)])

    def live_below(self) -> Sequence[int]:
        """Per node, the nonempty-box entries in its subtree — what a
        COUNT adds for a subtree it need not read.  Filled on first use
        by one sweep from the last node to the root (children are
        numbered after their parent), not billed to any ``stats``."""
        if self._below is None:
            below = array("q", [0]) * len(self.offsets)
            for n in range(len(below) - 1, -1, -1):
                off = self.offsets[n]
                end = off + self.counts[n]
                if self.leaf[n]:
                    below[n] = sum(self.nonempty[off:end])
                else:
                    below[n] = sum(map(below.__getitem__, self.child[off:end]))
            self._below = below
        return self._below

    @classmethod
    def from_levels(cls, levels: Sequence[Tuple[Any, ...]]) -> "_FlatTree":
        """The form of a tree packed level by level.  Each level, root
        level first, is ``(ordered, perm, offsets, lo, hi)``: in packed
        order the leaf level's ``(box, value)`` entries or an upper
        level's MBRs, and their (nonempty) boxes' columns; the node
        boundaries in them; and where each sat in the level's input —
        an MBR's child is that node of the level below."""
        flat = cls(len(levels[0][3]))
        for depth, (ordered, perm, offsets, lo, hi) in enumerate(levels):
            leaf = depth == len(levels) - 1
            counts = list(map(int.__sub__, offsets[1:], offsets))
            flat.add_nodes([leaf] * len(counts), counts)
            below = len(flat.offsets)  # number of the level below's first node
            if leaf:
                flat.child.frombytes(bytes(flat.child.itemsize * len(perm)))
                flat.entries.extend(ordered)
            else:
                children = list(map(below.__add__, perm))
                flat.child.extend(children)
                flat.entries.extend(zip(ordered, children))
            for column, part in zip((*flat.lo, *flat.hi), (*lo, *hi)):
                column.extend(part)
        flat.nonempty.frombytes(b"\x01" * len(flat.entries))
        return flat


class RTree:
    """A packed R-tree held as flat arrays (:class:`_FlatTree`).

    Every reader — :meth:`search`, :meth:`search_batch`, :meth:`count`,
    :meth:`nearest`, the snapshot dump, the synchronized join — reads
    that one form.  Only a packed build (:meth:`bulk_load`,
    :meth:`bulk_load_columns`) or a snapshot load
    (:meth:`from_node_arrays`) makes a non-empty tree, and nothing edits
    it afterwards: readers never coordinate with a writer.

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
        los = [box.lo for box, _value in items]
        if len(set(map(len, los))) > 1:
            raise DimensionMismatchError("bulk load of mixed-dimension boxes")
        return cls.bulk_load_columns(
            items,
            list(zip(*los)),
            list(zip(*[box.hi for box, _value in items])),
            max_entries=max_entries,
        )

    @classmethod
    def bulk_load_columns(
        cls,
        entries: Sequence[Tuple[Box, object]],
        lo: columnar.Columns,
        hi: columnar.Columns,
        max_entries: int = 8,
    ) -> "RTree":
        """:meth:`bulk_load` of nonempty-box ``entries`` whose edges the
        caller holds as per-dimension columns (``lo[d][i]``/``hi[d][i]``
        for entry ``i`` — a table passes its ``ColumnStore``'s).

        Level by level on the columns alone:
        :func:`~repro.spatial.columnar.str_level_order` gives the packed
        order and node boundaries, :func:`~repro.spatial.columnar.take`
        the level's columns in that order,
        :func:`~repro.spatial.columnar.grouped_bounds` the nodes' MBRs —
        the next level's columns.  No per-entry box arithmetic, one
        ``Box`` per inner entry; leaves hold the ``entries`` tuples.
        The levels' packed columns, root level first, *are* the tree
        (:class:`_FlatTree`).
        """
        tree = cls(max_entries=max_entries)
        if not entries:
            return tree
        # Leaf entries first, then each upper level's MBRs.
        level: Sequence[Any] = entries
        levels: List[Tuple[Any, ...]] = []
        # No cyclic-GC pass inside the build: it frees nothing, so the
        # young passes it sets off are wasted, and a full pass that has
        # come due lands in it — 100–170 ms inside a 60 ms repack of 50k
        # rows, up to one repack in two (results/pr18_flat_knn.md).
        collecting = gc.isenabled()
        gc.disable()
        try:
            while True:
                perm, offsets = columnar.str_level_order(lo, hi, max_entries)
                packed = columnar.take((*lo, *hi), perm)
                lo, hi = packed[: len(lo)], packed[len(lo) :]
                levels.append(([level[i] for i in perm], perm, offsets, lo, hi))
                if len(offsets) == 2:
                    break  # one node: the root
                lo, hi = columnar.grouped_bounds(lo, hi, offsets)
                level = [
                    Box._trusted(node_lo, node_hi, False)
                    for node_lo, node_hi in zip(zip(*lo), zip(*hi))
                ]
            tree._flat = _FlatTree.from_levels(levels[::-1])
        finally:
            if collecting:
                gc.enable()
        tree._size = len(entries)
        return tree

    def __len__(self) -> int:
        return self._size

    # -- search ------------------------------------------------------------------
    def search(self, query: BoxQuery) -> Iterator[Tuple[Box, object]]:
        """All entries whose box satisfies ``query`` (single traversal).

        This is the paper's single range query: the conjunction of all
        three constraint forms is evaluated in one descent.
        """
        return self._descend(query, None)

    def _descend(
        self, query: BoxQuery, covered: Optional[Callable[[_FlatTree, int], bool]]
    ) -> Iterator[Tuple[Box, object]]:
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
            if flat.leaf[node]:
                for box, value in flat.node(node):
                    self.stats.entry_tests += 1
                    if not box.is_empty() and query.matches(box):
                        yield box, value
            else:
                for mbr, child in flat.node(node):
                    self.stats.entry_tests += 1
                    if self._node_may_match(mbr, query):
                        stack.append(child)

    def search_batch(
        self, queries: Sequence[BoxQuery]
    ) -> List[List[Tuple[Box, object]]]:
        """:meth:`search` of every query, in one traversal on the NumPy
        kernels — of one query too: this is the vectorized search.

        ``result[i]`` equals ``list(self.search(queries[i]))`` — same
        rows, same sequence — and the counters advance by the same
        totals: one node read and ``len(node.entries)`` entry tests per
        (query, node) visit; nothing is deduplicated.  The walk is
        level-synchronous: a *frontier* holds ``(query, node)`` pairs
        still alive at one depth, one
        :func:`~repro.spatial.columnar.batch_mask` tests all their
        entries, and the surviving ``(query, child)`` pairs are the next
        frontier — a fixed number of NumPy calls per level, not per
        query and node.  A pair expands its children in *reverse* entry
        order, the order a single query's stack pops them in, and leaves
        all lie at one depth, so each query meets its leaves in its own
        depth-first sequence.  A frontier with more than
        ``_FRONTIER_SLOTS`` entries to test is halved and the front half
        walked to the leaves first, which keeps that sequence and bounds
        the transient arrays whatever the batch matches.  Without NumPy
        this is a loop over :meth:`search`.
        """
        if not columnar.HAVE_NUMPY:
            return [list(self.search(query)) for query in queries]
        np = columnar.np
        flat = self._flat
        dim = len(flat.lo)
        # Zero-copy views, made per call like ColumnStore._views.
        all_bounds = [np.frombuffer(col, np.float64) for col in (*flat.lo, *flat.hi)]
        nonempty = np.frombuffer(flat.nonempty, np.uint8).view(bool)
        ints = (flat.child, flat.offsets, flat.counts)
        child, node_offsets, node_counts = (np.frombuffer(col, np.int64) for col in ints)
        out: List[List[Tuple[Box, object]]] = [[] for _ in queries]
        by_shape: Dict[columnar.QueryShape, Tuple[List[int], List[tuple]]] = {}
        for i, query in enumerate(queries):
            if not query.is_unsatisfiable():
                shape, row = columnar.pack_query(query, dim)
                members, rows = by_shape.setdefault(shape, ([], []))
                members.append(i)
                rows.append(row)
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
                    for q, e in zip(pair_query.tolist(), entry.tolist()):
                        out[members[q]].append(flat.entries[e])
                elif len(entry):
                    work.append((pair_query, child[entry]))
        return out

    # -- distance browsing / nearest neighbors --------------------------------
    def distance_browse(
        self,
        anchor: "DistanceAnchor",
        k: Optional[int] = None,
        seeds: Sequence[Tuple[float, Box, object]] = (),
        dead: Optional[Callable[[object], bool]] = None,
    ) -> Iterator[Tuple[float, Box, object]]:
        """Incremental best-first distance browsing (Hjaltason–Samet).

        Yields ``(distance, box, value)`` in nondecreasing distance from
        ``anchor`` — a point (coordinate sequence) or a :class:`Box`
        (box-to-box MINDIST).  One heap of ``(distance, sequence, is
        entry, payload)`` holds node numbers and entries keyed by
        MINDIST; a node is read only when it reaches the front, so the
        first few results touch a small neighborhood of the tree.
        Empty-box entries are at infinite distance and never yielded.

        The walk reads the array form (:class:`_FlatTree`).  Reading a
        node is a scalar loop over its slice of the coordinate columns:
        squared gaps added in dimension order, one root — the recipe of
        :meth:`Box.mindist` and, a point being the box ``[p, p]``, of
        :meth:`Box.mindist_point`, so distances and ties are the
        per-object doubles.  (A node's few entries cannot repay a NumPy
        call per node: there is no kernel branch.)

        For :meth:`nearest`: ``seeds`` are outside entries queued at
        their known finite distances; ``dead`` values are passed over;
        with ``k`` the loop ends once ``k`` entries are out and the next
        distance exceeds the ``k``-th's, billing the subtrees still
        queued to ``stats.pruned_subtrees``; ``k == 1`` for a point (and
        no ``dead``) also skips inner entries beyond the smallest
        MINMAXDIST seen.
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
        heap: List[Tuple[float, int, bool, Any]] = [
            (dist, seq, True, (box, value))
            for seq, (dist, box, value) in enumerate(seeds, 1)
        ]
        counter = len(heap)
        heap.append((0.0, 0, False, 0))
        heapq.heapify(heap)
        columns = list(zip(alo, ahi, flat.lo, flat.hi))
        offsets, counts, nonempty = flat.offsets, flat.counts, flat.nonempty
        push, sqrt = heapq.heappush, math.sqrt
        while heap:
            dist, _seq, is_entry, payload = heap[0]
            if dist > kth:
                break  # nothing queued can affect the result set
            heapq.heappop(heap)
            if is_entry:
                if dead is None or not dead(payload[1]):
                    accepted += 1
                    if accepted == k:
                        kth = dist
                    yield dist, payload[0], payload[1]
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
            leaf = flat.leaf[payload]
            for square, live, entry in zip(squares, nonempty[off:end], flat.entries[off:end]):
                if not live:
                    continue  # empty boxes match no distance query
                d = sqrt(square)
                if leaf:
                    counter += 1
                    push(heap, (d, counter, True, entry))
                elif d > bound:
                    stats.pruned_subtrees += 1
                else:
                    if minmax:
                        bound = min(bound, entry[0].minmaxdist_point(alo))
                    counter += 1
                    push(heap, (d if d > dist else dist, counter, False, entry[1]))
        stats.pruned_subtrees += [item[2] for item in heap].count(False)

    def nearest(
        self,
        anchor: "DistanceAnchor",
        k: int = 1,
        tie_key: Optional[Callable[[object], object]] = None,
        seeds: Sequence[Tuple[float, Box, object]] = (),
        dead: Optional[Callable[[object], bool]] = None,
    ) -> List[Tuple[float, Box, object]]:
        """The ``k`` entries nearest to ``anchor``: the first ``k`` of
        :meth:`distance_browse`, which stops reading at the ``k``-th.

        Equivalent to (and property-tested against) sorting all entries
        by ``(distance, tie_key(value))`` and taking the first ``k`` —
        ties at the ``k``-th distance are broken by ``tie_key``
        (default: ``repr`` of the stored value), so the result matches
        a brute-force reference exactly.  The browse yields every entry
        tied with the ``k``-th, nearest first, so the tie-break is one
        sort at the end.  With ``seeds`` (a table's staged rows, as
        ``(distance, box, value)``) and ``dead`` (the test for its
        tombstoned rows) the result is the ``k`` nearest of the live
        union, for no more node reads than that takes.
        """
        if k <= 0:
            return []
        key = tie_key if tie_key is not None else repr
        found = list(self.distance_browse(anchor, k, seeds, dead))
        found.sort(key=lambda e: (e[0], key(e[2])))
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
        inside_only = (
            query.inside is not None
            and not query.overlap
            and (query.covers is None or query.covers.is_empty())
        )
        shortcut = 0

        def covered(flat: _FlatTree, node: int) -> bool:
            nonlocal shortcut
            if not flat.mbr(node).le(query.inside):
                return False
            shortcut += flat.live_below()[node]
            self.stats.pruned_subtrees += 1
            return True

        read = sum(1 for _ in self._descend(query, covered if inside_only else None))
        return read + shortcut

    @staticmethod
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

    # -- inspection ------------------------------------------------------------------
    def height(self) -> int:
        """Tree height (1 for a single leaf)."""
        flat = self._flat
        h = 1
        node = 0
        while not flat.leaf[node]:
            h += 1
            node = flat.child[flat.offsets[node]]
        return h

    def all_entries(self) -> Iterator[Tuple[Box, object]]:
        """Every stored entry (no filtering)."""
        flat = self._flat
        stack = [0]
        while stack:
            node = stack.pop()
            if flat.leaf[node]:
                yield from flat.node(node)
            else:
                stack.extend(child for _mbr, child in flat.node(node))

    # -- snapshot serialization -----------------------------------------------
    def to_node_arrays(
        self, value_key: Callable[[object], int]
    ) -> Dict[str, object]:
        """Flatten the tree into parallel node arrays for serialization.

        Nodes are listed in preorder (root first).  Per node, ``leaf``
        holds a 0/1 flag and ``counts`` its entry count; entries
        contribute, in entry order, ``2 * dim`` floats to ``bounds``
        (lo coordinates then hi; empty boxes as all zeros) and one int
        to ``values`` — ``value_key(value)`` for leaf entries, the
        child's node index for inner entries.  Stored MBRs are dumped
        verbatim, so :meth:`from_node_arrays` reproduces the structure
        bit-identically instead of approximately.
        """
        flat = self._flat
        order: List[int] = []  # the form's node numbers, in preorder
        stack = [0]
        while stack:
            node = stack.pop()
            order.append(node)
            if not flat.leaf[node]:
                stack.extend(child for _mbr, child in reversed(flat.node(node)))
        index = [0] * len(order)
        for position, node in enumerate(order):
            index[node] = position
        bounds: List[float] = []
        values: List[int] = []
        for node in order:
            span = slice(flat.offsets[node], flat.offsets[node] + flat.counts[node])
            bounds.extend(chain.from_iterable(zip(*(col[span] for col in (*flat.lo, *flat.hi)))))
            if flat.leaf[node]:
                values.extend(value_key(value) for _box, value in flat.entries[span])
            else:
                values.extend(index[child] for _mbr, child in flat.entries[span])
        return {
            "dim": len(flat.lo),
            "max_entries": self.max_entries,
            "leaf": [flat.leaf[node] for node in order],
            "counts": [flat.counts[node] for node in order],
            "bounds": bounds,
            "values": values,
        }

    @classmethod
    def from_node_arrays(
        cls, data: Dict[str, object], values: Sequence[object]
    ) -> "RTree":
        """Rebuild a tree from :meth:`to_node_arrays` output.

        ``values`` resolves leaf-entry indices back to stored objects
        (typically the table's rows in saved order).  No STR sort
        happens: the dump, already nodes numbered from the
        root with their entries end to end, is adopted as the tree's
        array form (:class:`_FlatTree`).  It comes from a file, so it is
        checked on the way — array lengths, row and child references
        (each child numbered after its parent and named once, so every
        walk ends), leaves at one depth — and a dump that fails raises
        :class:`~repro.errors.SnapshotError`.  Keys this build does not
        read (the insertion settings older dumps carry) are ignored.
        """

        def damaged(why: object) -> SnapshotError:
            return SnapshotError(f"damaged r-tree node arrays: {why}")

        try:
            tree = cls(max_entries=int(data["max_entries"]))
            dim = int(data["dim"])
            leaf = array("B", map(bool, data["leaf"]))
            counts = array("q", data["counts"])
            refs = array("q", data["values"])
            coords = array("d", data["bounds"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise damaged(repr(exc)) from exc
        n_nodes, n_entries = len(leaf), len(refs)
        if not leaf or len(counts) != n_nodes or min(counts) < 0 or sum(counts) != n_entries:
            raise damaged(f"{n_nodes} nodes, {len(counts)} counts, {n_entries} entries")
        if dim < 0 or len(coords) != n_entries * 2 * dim:
            raise damaged(f"{len(coords)} bounds for {n_entries} {dim}-dim entries")
        flat = _FlatTree(dim)
        flat.add_nodes(leaf, counts)
        flat.set_bounds(coords)
        los = list(zip(*flat.lo)) or [()] * n_entries
        his = list(zip(*flat.hi)) or [()] * n_entries
        depth = [0] * n_nodes
        leaf_depths = set()
        for n, (off, count) in enumerate(zip(flat.offsets, counts)):
            span = refs[off : off + count]
            boxes = zip(los[off : off + count], his[off : off + count], span)
            if leaf[n]:
                leaf_depths.add(depth[n])
                if count and not 0 <= min(span) <= max(span) < len(values):
                    raise damaged(f"leaf {n} names a row outside the {len(values)} saved")
                for lo, hi, ref in boxes:
                    # In a built tree a leaf entry's box *is* its row's
                    # box: share it again when the coordinates agree.
                    value = values[ref]
                    box = getattr(value, "box", None)
                    if not isinstance(box, Box) or box.lo != lo or box.hi != hi:
                        box = Box._trusted(lo, hi)
                    flat.entries.append((box, value))
                flat.child.frombytes(bytes(flat.child.itemsize * count))
                tree._size += count
            else:
                for child in span:
                    if not n < child < n_nodes or depth[child]:
                        raise damaged(f"node {n} names child {child}")
                    depth[child] = depth[n] + 1
                flat.entries.extend((Box._trusted(lo, hi), child) for lo, hi, child in boxes)
                flat.child.extend(span)
        if 0 in depth[1:] or len(leaf_depths) > 1:
            raise damaged("unreachable nodes or leaves at different depths")
        flat.nonempty.extend(not box.is_empty() for box, _ in flat.entries)
        tree._flat = flat
        return tree

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
            for mbr, child in flat.node(node):
                assert child > node, "child numbered before its parent"
                assert flat.mbr(child).le(mbr), "child MBR exceeds stored MBR"
                stack.append((child, depth + 1))
        assert len(leaf_depths) <= 1, "leaves at different depths"

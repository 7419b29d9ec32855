"""kNN differential: the one best-first browse over the tree's array
form against the frozen ``_Node`` walk and delta merge
(``reference_knn.py``), and the rule that a build *is* that form: one
build makes one form, and no read after it makes another.

Answers are compared *to the bit* — distances as doubles, rows by
identity, in sequence, so a tie broken differently fails — and on clean
tables the three traversal counters per probe must be equal; over a
pending delta the base tree may only be read less.  The parametrised
cases are tier-1's thin diagonal; the Hypothesis product at the end
runs a handful of examples there and the full budget in CI's
seed-matrix job.
"""

import gc
import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_knn as ref
from conftest import BACKEND_IDS, SEED_MATRIX, TRACKED_PER_TREE, shifted_seed
from repro.database import Database, Session
from repro.algebra.regions import Region
from repro.boxes.bconstraints import BoxQuery
from repro.boxes.box import Box
from repro.errors import AnchorError, DimensionMismatchError, ReproError, ServiceError
from repro.service.client import ServiceClient
from repro.service.server import QueryService, serve_in_thread
from repro.spatial.rtree import RTree
from repro.spatial.table import SpatialTable
from repro.spatial.rtree import _FlatTree
from reference_rtree import flatten, thaw

KS = (1, 2, 10, 10_000)
INF = math.inf


# -- helpers ---------------------------------------------------------------------
def grid_box(rng: random.Random, dim: int) -> Box:
    """A box on a half-unit grid: duplicate boxes and equidistant rows
    are common, so the ``repr`` tie-break is on trial."""
    lo = tuple(rng.randrange(0, 40) / 2 for _ in range(dim))
    return Box(lo, tuple(a + rng.choice((0.5, 0.5, 1.0, 2.5)) for a in lo))


def mixed_oid(i: int):
    """Ints, strings and tuples: only ``repr`` orders them."""
    return (i, str(i), (i, "t"))[i % 3]


def rows_for(rng: random.Random, n: int, dim: int):
    rows = [(mixed_oid(i), Region.from_box(grid_box(rng, dim))) for i in range(n)]
    rows += [(f"void{i}", Region.empty()) for i in range(min(n, 3))]
    rng.shuffle(rows)
    return rows


def anchors_for(rng: random.Random, dim: int, n: int = 6):
    out = []
    for i in range(n):
        if i % 3 == 0:  # on the grid: exact ties
            out.append(tuple(rng.randrange(-4, 44) / 2 for _ in range(dim)))
        elif i % 3 == 1:
            out.append(tuple(rng.uniform(-3.0, 23.0) for _ in range(dim)))
        else:
            out.append(grid_box(rng, dim))
    return out


def counters(tree: RTree):
    stats = tree.stats
    return stats.node_reads, stats.entry_tests, stats.pruned_subtrees


def billed(tree: RTree, call):
    tree.stats.reset()
    out = call()
    return out, counters(tree)


def exact(ranked):
    return [(dist, id(obj)) for dist, obj in ranked]


def hold_table_to_oracle(table: SpatialTable, anchors, ks=KS):
    tree = table._rtree
    for anchor in anchors:
        for k in ks:
            got, mine = billed(tree, lambda: table.nearest(anchor, k))
            want, theirs = billed(tree, lambda: ref.table_nearest(table, anchor, k))
            assert exact(got) == exact(want), (anchor, k)
            assert exact(got) == exact(table.nearest_bruteforce(anchor, k)), (anchor, k)
            assert exact(got) == exact(table.nearest(anchor, k, access="scan")), (anchor, k)
            if table.delta_pending:
                assert mine[0] <= theirs[0] and mine[1] <= theirs[1], (anchor, k)
            else:
                assert mine == theirs, (anchor, k)


def hold_tree_to_oracle(tree: RTree, anchors, ks=KS):
    """The raw tree API: default ``repr(value)`` tie-break, the
    incremental browse prefix by prefix."""
    for anchor in anchors:
        for k in ks:
            got, mine = billed(tree, lambda: tree.nearest(anchor, k))
            want, theirs = billed(tree, lambda: ref.nearest(tree, anchor, k))
            assert exact(got) == [(d, id(v)) for d, _b, v in want]
            assert mine == theirs, (anchor, k)
        mine_it, theirs_it = tree.distance_browse(anchor), ref.distance_browse(tree, anchor)
        for _ in range(len(tree) + 1):
            got, mine = billed(tree, lambda: next(mine_it, None))
            want, theirs = billed(tree, lambda: next(theirs_it, None))
            assert (got is None) == (want is None) and mine == theirs
            if got is not None:
                assert (got[0], id(got[1])) == (want[0], id(want[2]))


#: ``insert-*``: a table grown row by row through ``insert`` (staging,
#: inline repacks every ``INSERTED[build]`` rows), folded clean.  The
#: suffixes are the retired split methods' names, kept so the test ids
#: stay stable.
INSERTED = {"insert-quadratic": 8, "insert-linear": 20, "insert-rstar": 64}


def built_table(build: str, dim: int, n: int, seed: int, tmp_path=None) -> SpatialTable:
    rng = random.Random(shifted_seed(seed))
    rows = rows_for(rng, n, dim)
    table = SpatialTable("t", dim, delta_threshold=INSERTED.get(build, 64))
    if build in INSERTED:
        for oid, region in rows:
            table.insert(oid, region)
        table.repack()
    else:
        table.bulk_insert(rows)
    if build == "deleted":  # a pure-delete delta, folded
        for oid, _region in rows[:: max(9, n // 4)]:
            table.stage_delete(oid)
        table.repack()
    elif build == "snapshot":
        path = str(tmp_path / "db.json")
        Database(tables={"t": table}).save(path)
        table = Database.open(path).table("t")
    return table


BUILDS = ("bulk", *INSERTED, "deleted", "snapshot")


# -- clean tables: answers, ties and counters -------------------------------------------
@pytest.mark.parametrize("backend", BACKEND_IDS)
@pytest.mark.parametrize("build,dim,n", [
    ("bulk", 1, 60), ("bulk", 2, 300), ("bulk", 3, 90), ("bulk", 2, 0), ("bulk", 2, 1),
    ("insert-quadratic", 2, 120), ("insert-linear", 3, 70), ("insert-rstar", 1, 80),
    ("deleted", 2, 150), ("snapshot", 2, 200), ("snapshot", 3, 40),
])
def test_clean_table_equals_frozen_walk(build, dim, n, tmp_path, backend):
    table = built_table(build, dim, n, seed=n + dim, tmp_path=tmp_path)
    rng = random.Random(shifted_seed(7 * n + dim))
    hold_table_to_oracle(table, anchors_for(rng, dim))
    hold_tree_to_oracle(table._rtree, anchors_for(rng, dim, 3), ks=(1, 3))


@pytest.mark.parametrize("dim", (1, 2, 3))
def test_tree_with_empty_entries_and_empty_anchor(dim):
    """Raw ``RTree``: empty-box entries are left out of the build (at
    infinite distance, they are never yielded) and the empty box is a
    legal anchor."""
    rng = random.Random(shifted_seed(dim))
    entries = [(grid_box(rng, dim), mixed_oid(i)) for i in range(80)]
    entries += [(Box((0.0,) * dim, (0.0,) * dim), f"void{i}") for i in range(5)]
    rng.shuffle(entries)
    tree = RTree.bulk_load(entries, max_entries=4)
    assert len(tree) == 80
    anchors = [*anchors_for(rng, dim), Box((1.0,) * dim, (1.0,) * dim)]
    hold_tree_to_oracle(tree, anchors)
    fewer = RTree.bulk_load([e for i, e in enumerate(entries) if i % 3], max_entries=4)
    hold_tree_to_oracle(fewer, anchors, ks=(1, 5))
    with pytest.raises(DimensionMismatchError):
        tree.nearest((1.0,) * (dim + 1), 2)


# -- a pending delta rides the same browse ------------------------------------------------
def delta_table(case: str, dim: int, seed: int) -> SpatialTable:
    rng = random.Random(shifted_seed(seed))
    rows = rows_for(rng, 200, dim)
    table = SpatialTable("t", dim, delta_threshold=10_000)
    table.bulk_insert(rows)
    center = (10.0,) * dim
    near = [obj.oid for _d, obj in table.nearest(center, 12)]
    if case == "staged-nearest":  # staged rows nearer than every base row
        for i in range(5):
            lo = tuple(c - 0.25 + i / 64 for c in center)
            table.stage_insert(f"s{i}", Region.from_box(Box(lo, tuple(a + 0.25 for a in lo))))
    elif case == "nearest-tombstoned":
        for oid in near:
            table.stage_delete(oid)
    elif case == "unstaged":
        for i in range(20):
            table.stage_insert(f"s{i}", Region.from_box(grid_box(rng, dim)))
        for i in range(0, 20, 2):
            table.stage_delete(f"s{i}")
        table.stage_insert("void-staged", Region.empty())
    elif case == "oid-reused":  # tombstoned base oids live again on staged rows
        for oid in near[:6]:
            table.stage_delete(oid)
            table.stage_insert(oid, Region.from_box(grid_box(rng, dim)))
    elif case == "few-live":  # k > live rows
        for oid, _region in rows[5:]:
            table.stage_delete(oid)
    elif case == "indexed-delta":  # 40 staged rows (the delta once indexed them)
        for i in range(40):
            table.stage_insert(f"s{i}", Region.from_box(grid_box(rng, dim)))
        for oid, _region in rows[::7]:
            table.stage_delete(oid)
    assert table.delta_pending
    return table


DELTA_CASES = (
    "staged-nearest", "nearest-tombstoned", "unstaged", "oid-reused", "few-live", "indexed-delta",
)


@pytest.mark.parametrize("case,dim", list(zip(DELTA_CASES, (2, 2, 1, 3, 2, 2))))
def test_delta_rides_the_browse(case, dim):
    table = delta_table(case, dim, seed=len(case))
    rng = random.Random(shifted_seed(len(case)))
    anchors = [(10.0,) * dim, *anchors_for(rng, dim)]
    hold_table_to_oracle(table, anchors)
    before = table.delta_probes
    table.nearest(anchors[0], 3)
    assert table.delta_probes == before + 1


def test_tombstoned_neighbourhood_reads_less_than_the_widened_merge():
    """The frozen merge browsed ``k + len(tombstones)`` deep; the live
    browse stops at the ``k``-th live row."""
    table = delta_table("indexed-delta", 2, seed=3)
    tree = table._rtree
    point = (3.0, 17.0)
    _got, mine = billed(tree, lambda: table.nearest(point, 2))
    _want, theirs = billed(tree, lambda: ref.table_nearest(table, point, 2))
    assert mine[0] < theirs[0] and mine[1] < theirs[1]


def test_with_staged_clones_share_a_base():
    rng = random.Random(shifted_seed(11))
    parent = SpatialTable("t", 2)
    parent.bulk_insert(rows_for(rng, 150, 2))
    flat = parent._rtree._flat
    one = parent.with_staged(
        inserts=[("a", Region.from_box(Box((10.0, 10.0), (10.5, 10.5))))]
    )
    victim = parent.nearest((10.0, 10.0), 1)[0][1].oid
    two = one.with_staged(deletes=[victim])
    anchors = [(10.0, 10.0), *anchors_for(rng, 2)]
    for table in (parent, one, two):
        hold_table_to_oracle(table, anchors, ks=(1, 4, 10_000))
        assert table._rtree._flat is flat  # one base, one form
    assert not parent.delta_pending
    assert "a" in {obj.oid for _d, obj in one.nearest((10.0, 10.0), 200)}
    assert victim not in {obj.oid for _d, obj in two.nearest((10.0, 10.0), 200)}


def test_rtree_knn_bills_no_kernel():
    rng = random.Random(shifted_seed(2))
    table = SpatialTable("t", 2)
    table.bulk_insert(rows_for(rng, 50, 2))
    table.nearest((3.0, 3.0), 4)
    table.stage_insert("s", Region.from_box(Box((1.0, 1.0), (2.0, 2.0))))
    table.nearest((3.0, 3.0), 4)
    assert (table.vectorized_batches, table.vectorized_candidates) == (0, 0)


def test_scan_knn_keeps_every_tie_at_the_kth_distance():
    """The scan path sorts only the base rows at or below the
    ``k + len(tombstones)``-th smallest distance.  Here dozens of rows
    tie at each distance, a pending delta buries some tied rows (and
    stages others, some under a buried oid, at the same distances), and
    every ``k`` still gets the brute-force answer to the bit."""
    rng = random.Random(shifted_seed(13))
    # Unit squares on a ring of offsets: each offset's copies tie.
    offsets = [(0.0, 0.0), (2.0, 0.0), (0.0, -2.0), (3.0, 3.0), (0.5, 0.0)]
    rows = [
        (mixed_oid(i), Region.from_box(Box((10.0 + dx, 10.0 + dy), (11.0 + dx, 11.0 + dy))))
        for i, (dx, dy) in enumerate(offsets[i % len(offsets)] for i in range(300))
    ]
    rows += [(f"void{i}", Region.empty()) for i in range(4)]
    table = SpatialTable("t", 2, index="scan", delta_threshold=10**9)
    table.bulk_insert(rows)
    buried = rng.sample([oid for oid, region in rows[:300]], 40)
    for oid in buried:
        assert table.stage_delete(oid)
    for i, (dx, dy) in enumerate(offsets * 3):
        box = Box((10.0 + dx, 10.0 + dy), (11.0 + dx, 11.0 + dy))
        table.stage_insert(buried[i] if i % 4 == 0 else f"s{i}", Region.from_box(box))
    assert table.delta_pending
    anchors = [(10.5, 10.5), (9.0, 12.0), Box((12.0, 10.0), (12.5, 10.5))]
    for anchor in anchors:
        for k in (1, 5, 59, 60, 61, 120, 301, 10_000):
            want = exact(table.nearest_bruteforce(anchor, k))
            assert exact(table.nearest(anchor, k)) == want, (anchor, k)


# -- born flat: a build is the form; no read makes another --------------------------------
@pytest.fixture
def forms(monkeypatch):
    """Every array form made, as a list (of their dimensions): a spy on
    ``_FlatTree`` construction."""
    made = []
    init = _FlatTree.__init__

    def spy(self, dim):
        made.append(dim)
        init(self, dim)

    monkeypatch.setattr(_FlatTree, "__init__", spy)
    return made


def first_reads(table: SpatialTable, forms) -> None:
    """Every reader once — browse, batched and scalar search, COUNT,
    the dump's walk, the inspection helpers — and none makes a form."""
    before = len(forms)
    window = BoxQuery(overlap=(Box((2.0, 2.0), (9.0, 9.0)),))
    assert table.nearest((5.0, 5.0), 3)
    assert table.range_query_batch([window, window])[0]
    assert list(table._rtree.search(window))
    assert table.count_range(BoxQuery(inside=Box((0.0, 0.0), (30.0, 30.0))))
    tree = table._rtree
    tree.check_invariants()
    assert tree.height() > 1 and tree.node_count() > 1 and list(tree.all_entries())
    assert tree.to_node_arrays(id)["values"]
    assert len(forms) == before


def test_no_packed_build_nor_read_after_it_makes_a_node(forms, tmp_path):
    rng = random.Random(shifted_seed(4))
    table = SpatialTable("t", 2, delta_threshold=6)
    table.bulk_insert(rows_for(rng, 400, 2))
    first_reads(table, forms)
    for i in range(3):
        table.stage_insert(f"s{i}", Region.from_box(grid_box(rng, 2)))
        table.stage_delete(mixed_oid(3 * i))
    assert table.repacks == 1 and not table.delta_pending  # inline, at the threshold
    first_reads(table, forms)
    table.stage_insert("late", Region.from_box(grid_box(rng, 2)))
    assert table.repack()
    first_reads(table, forms)
    table.stage_delete(mixed_oid(30))  # a pure-delete delta folds the same way
    assert table.repack()
    first_reads(table, forms)
    table.pack()
    first_reads(table, forms)
    path = str(tmp_path / "db.json")
    Database(tables={"t": table}).save(path)
    first_reads(Database.open(path).table("t"), forms)


def test_a_dropped_packed_tree_needs_no_collector():
    """Nothing in a packed tree is cyclic: with the collector off,
    dropping one — read through every path — gives back every
    container it allocated.  There are few: the tree is columns, so a
    20 000-entry build adds a handful of tracked objects, not one per
    entry."""
    rng = random.Random(shifted_seed(14))
    entries = [(grid_box(rng, 2), i) for i in range(20_000)]
    window = BoxQuery(inside=Box((2.0, 2.0), (9.0, 9.0)))
    RTree.bulk_load(entries[:64]).search_batch([window])  # module-level scratch, once
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        tree = RTree.bulk_load(entries)
        assert 0 < len(gc.get_objects()) - before <= TRACKED_PER_TREE
        assert tree.count(window) == len(list(tree.search(window)))
        assert tree.search_batch([window]) and tree.nearest((5.0, 5.0), 3)
        del tree
        assert len(gc.get_objects()) == before
    finally:
        gc.enable()


def test_background_repack_publishes_a_flat_tree(forms):
    rng = random.Random(shifted_seed(6))
    table = SpatialTable("t", 2)
    table.bulk_insert(rows_for(rng, 300, 2))
    service = QueryService(Database(tables={"t": table}))
    service.repack_threshold = 4
    for i in range(4):
        service.apply_insert("t", [(f"s{i}", Region.from_box(grid_box(rng, 2)))])
    service.drain_repacks()
    assert service.repacks == 1
    served = service.store.current()[0].table("t")
    assert not served.delta_pending and served is not table
    first_reads(served, forms)


def test_staged_clone_reads_build_no_tree(monkeypatch):
    """A ``with_staged`` clone answers range, batch and COUNT probes
    from the shared packed base and a scan of its staged rows: no
    ``RTree`` is made (the delta used to build an insertion tree over
    16 or more staged rows at the first probe).  Its rows are those of
    the same table repacked, in sequence, and so are the probes' rows."""
    rng = random.Random(shifted_seed(15))
    base = SpatialTable("t", 2)
    base.bulk_insert([(i, Region.from_box(grid_box(rng, 2))) for i in range(5000)])
    staged = [(f"s{i}", Region.from_box(grid_box(rng, 2))) for i in range(40)]
    clone = base.with_staged(inserts=staged)
    queries = [BoxQuery(overlap=(grid_box(rng, 2),)) for _ in range(6)]
    queries += [BoxQuery(inside=Box((0.0, 0.0), (9.0, 9.0))), BoxQuery()]
    made = []
    init = RTree.__init__

    def spy(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RTree, "__init__", spy)
    rows = [clone.range_query(q) for q in queries]
    batch = clone.range_query_batch(queries)
    counts = [clone.count_range(q) for q in queries]
    assert made == [] and batch == rows
    assert counts == [len(found) for found in rows]
    monkeypatch.undo()
    packed = base.with_staged(inserts=staged)
    assert packed.repack()
    assert [o.oid for o in clone] == [o.oid for o in packed]
    for found, query in zip(rows, queries):
        assert sorted(map(repr, (o.oid for o in found))) == sorted(
            map(repr, (o.oid for o in packed.range_query(query)))
        )


NASTY = (-INF, -2.0, -0.0, 0.0, 0.0, 1.0, 2.5, 7.0, INF)


@pytest.mark.parametrize("backend", BACKEND_IDS)
@pytest.mark.parametrize("nasty", [False, True], ids=["plain", "nan-and-minus-zero"])
def test_emitted_form_equals_walked_form(backend, nasty):
    """Same tree, as built and as walked back from frozen nodes
    (``reference_rtree``): same columns entry for entry (node numbering
    aside), so ``search_batch`` and ``nearest`` cannot tell.
    Infinite and ``-0.0`` edges push ``str_level_order`` (NaN centers)
    and ``grouped_bounds`` onto their Python branches."""
    rng = random.Random(shifted_seed(12))
    if nasty:
        boxes = []
        while len(boxes) < 150:
            lo, hi = rng.sample(NASTY, 2), rng.sample(NASTY, 2)
            box = Box(lo, hi)
            if not box.is_empty():
                boxes.append(box)
    else:
        boxes = [grid_box(rng, 2) for _ in range(150)]
    tree = RTree.bulk_load([(box, i) for i, box in enumerate(boxes)], max_entries=4)
    emitted = tree._flat
    walked = flatten(thaw(emitted))  # thawed, then flattened again

    def per_node(flat):
        """Each node's columns and children, keyed by the identities of
        the values below it: what the form says, node and value
        numbering aside."""

        def span(node):
            return slice(flat.offsets[node], flat.offsets[node] + flat.counts[node])

        def key(node):
            refs = flat.ref[span(node)]
            if flat.leaf[node]:
                return tuple(id(flat.values[r]) for r in refs)
            return tuple(map(key, refs))

        return {
            key(node): (
                bool(flat.leaf[node]),
                [repr(list(col[span(node)])) for col in (*flat.lo, *flat.hi)],
                list(flat.nonempty[span(node)]),
                None if flat.leaf[node] else [key(c) for c in flat.ref[span(node)]],
            )
            for node in range(len(flat.offsets))
        }

    assert per_node(emitted) == per_node(walked)
    queries = [
        BoxQuery(overlap=(Box((2.0, 2.0), (9.0, 9.0)),)),
        BoxQuery(inside=Box((-3.0, -3.0), (8.0, 30.0))),
        BoxQuery(),
    ]
    anchors = [(1.0, 1.0), (2.25, 6.5), Box((0.0, 0.0), (2.0, 2.0))]
    results = []
    for flat in (emitted, walked):
        tree._flat = flat
        run = []
        rows, cost = billed(tree, lambda: tree.search_batch(queries))
        run.append(([[id(v) for v in found] for found in rows], cost))
        for anchor in anchors:
            for k in (1, 7):
                got, cost = billed(tree, lambda: tree.nearest(anchor, k))
                run.append((exact(got), cost))
        results.append(run)
    assert results[0] == results[1]


# -- anchors are checked once, for every path ----------------------------------------------
BAD_ANCHORS = [
    ((1.0, 2.0, 3.0), DimensionMismatchError),
    ((1.0,), DimensionMismatchError),
    (Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), DimensionMismatchError),
    ((math.nan, 5.0), AnchorError),
    ((1.0, INF), AnchorError),
    (("a", "b"), AnchorError),
    ((None, 1.0), AnchorError),
    (7, AnchorError),
    (Box._trusted((math.nan, 0.0), (1.0, 1.0), False), AnchorError),
]


@pytest.mark.parametrize("index", SpatialTable.VALID_INDEXES)
@pytest.mark.parametrize("anchor,error", BAD_ANCHORS)
def test_bad_anchor_fails_alike_on_every_path(index, anchor, error):
    rng = random.Random(shifted_seed(1))
    table = SpatialTable("t", 2, index=index, universe=Box((0.0, 0.0), (32.0, 32.0)))
    table.bulk_insert(rows_for(rng, 30, 2))
    session = Session(db=Database(tables={"t": table}))
    for staged in (False, True):
        if staged:
            table.stage_insert("s", Region.from_box(Box((1.0, 1.0), (2.0, 2.0))))
        probes = table.probes
        with pytest.raises(error):
            table.nearest(anchor, 3)
        with pytest.raises(error):
            table.nearest(anchor, 3, access="scan")
        with pytest.raises(error):
            table.nearest_bruteforce(anchor, 3)
        with pytest.raises(ReproError):
            session.nearest("t", anchor, 3)
        assert table.probes == probes  # rejected before anything is read


def test_good_anchors_are_normalised_not_rejected():
    table = SpatialTable("t", 2)
    table.bulk_insert(rows_for(random.Random(3), 30, 2))
    want = exact(table.nearest((4.0, 5.0), 5))
    assert exact(table.nearest([4, 5], 5)) == want  # a list of ints
    assert exact(table.nearest(("4", "5.0"), 5)) == want  # what float() takes
    unbounded = Box((-INF, 2.0), (INF, 3.0))
    assert exact(table.nearest(unbounded, 5)) == exact(table.nearest_bruteforce(unbounded, 5))
    assert table.nearest(Box((1.0, 1.0), (1.0, 1.0)), 5) == []  # empty: nothing is near


def test_bad_anchor_over_the_wire_is_a_400():
    table = SpatialTable("t", 2)
    table.bulk_insert(rows_for(random.Random(5), 30, 2))
    handle = serve_in_thread(QueryService(Database(tables={"t": table})))
    try:
        client = ServiceClient(*handle.address, timeout=30.0)
        for payload in (
            {"point": [1.0, 2.0, 3.0]},
            {"point": [1.0]},
            {"point": [math.nan, 5.0]},  # JSON NaN reaches the server
            {"point": ["a", "b"]},
            {"box": [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]},
        ):
            with pytest.raises(ServiceError) as caught:
                client.nearest("t", k=3, **payload)
            assert caught.value.status == 400, payload
        reply = client.nearest("t", k=3, point=[4, 5])
        assert [r["distance"] for r in reply["results"]] == [
            d for d, _obj in table.nearest((4.0, 5.0), 3)
        ]
    finally:
        handle.stop()


# -- the Hypothesis product ------------------------------------------------------------------
@given(
    seed=st.integers(0, 10_000),
    dim=st.integers(1, 3),
    n=st.sampled_from((0, 1, 7, 8, 9, 65, 240)),
    build=st.sampled_from(BUILDS[:-1]),
    delta=st.sampled_from((None, *DELTA_CASES[:2], "indexed-delta")),
)
@settings(
    max_examples=400 if SEED_MATRIX else 6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_knn_product(seed, dim, n, build, delta):
    rng = random.Random(shifted_seed(seed))
    table = built_table(build, dim, n, seed)
    if delta is not None and n:
        live = [obj.oid for obj in table]
        for i in range(rng.randrange(1, 24)):
            table.stage_insert(f"s{i}", Region.from_box(grid_box(rng, dim)))
        for oid in rng.sample(live, min(len(live), rng.randrange(0, 12))):
            table.stage_delete(oid)
            if rng.random() < 0.3:
                table.stage_insert(oid, Region.from_box(grid_box(rng, dim)))
    hold_table_to_oracle(table, anchors_for(rng, dim, 4))

"""Build differential: the columnar table build against the frozen
per-object one (``reference_build.py``).

The build path — STR bulk load, repack, statistics, snapshot bytes —
reads coordinate columns through the ``repro.spatial.columnar`` build
kernels; the oracle does what the code did before, object by object.
Everything here is compared *to the bit*: floats through ``repr`` (so
``-0.0`` is not ``0.0``), trees as their preorder node arrays
(``to_node_arrays``), leaf values by identity or oid.
"""

import gc
import math
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_build as ref
from conftest import BACKEND_IDS, TRACKED_PER_TREE, shifted_seed
from repro.database import Database
from repro.algebra.regions import Region
from repro.boxes.box import EMPTY_BOX, Box, enclose_all
from repro.engine.catalog import Histogram, collect_statistics
from repro.errors import DimensionMismatchError
from repro.spatial.rtree import RTree
from repro.spatial.table import SpatialTable

SIZES = (0, 1, 7, 8, 9, 64, 65, 1_000, 20_000)
INF = math.inf


# -- helpers ---------------------------------------------------------------------
def tree_dump(tree: RTree, value_key=id):
    """The tree's preorder node arrays (``to_node_arrays``): each
    entry's exact coordinates (``repr``) and, in a leaf, ``value_key``
    of its value — by default its identity."""
    dump = tree.to_node_arrays(value_key)
    dump["bounds"] = [repr(c) for c in dump["bounds"]]
    return dump


def oid_dump(tree: RTree):
    """:func:`tree_dump` of a table's tree, rows by oid (row identity
    differs between tables)."""
    return tree_dump(tree, lambda obj: obj.oid)


def slot_dump(table: SpatialTable):
    """:func:`tree_dump` of a table's tree, rows by their slot in the
    table."""
    slot = {id(obj): i for i, obj in enumerate(table)}
    return tree_dump(table._rtree, lambda obj: slot[id(obj)])


def values_are_rows(table: SpatialTable) -> bool:
    """Whether the tree's values are the table's nonempty rows, each
    once: a leaf holds no copy of its row or its box."""
    live = [obj for obj in table if not obj.box.is_empty()]
    return sorted(map(id, table._rtree.all_entries())) == sorted(map(id, live))


def store_dump(store):
    return (
        [repr(list(col)) for col in store._lo],
        [repr(list(col)) for col in store._hi],
        list(store._nonempty),
        [id(row) for row in store.rows],
    )


def stats_dump(table: SpatialTable, stats) -> str:
    index = {id(obj): i for i, obj in enumerate(table)}
    return repr(stats.to_dict(index))


@lru_cache(maxsize=None)
def random_boxes(n: int, dim: int):
    """``n`` boxes on a half-unit grid (equal centers are common, so the
    sorts' stability is on trial) with a few point-thin sides."""
    rng = random.Random(shifted_seed(1000 * dim + n))
    out = []
    for _ in range(n):
        lo = tuple(rng.randrange(0, 120) / 2 for _ in range(dim))
        hi = tuple(a + rng.choice((0.5, 0.5, 1.0, 2.5, 7.0)) for a in lo)
        out.append(Box(lo, hi))
    return tuple(out)


#: The order the entries reach the build in: STR's sorts are stable, so
#: ties break by input order.  The keys are the retired split methods'
#: names, kept as the matrix's ids so its test ids stay stable (a packed
#: build never read the split method).
INPUT_ORDERS = {
    "quadratic": lambda boxes: boxes,  # as generated
    "linear": lambda boxes: boxes[::-1],  # reversed
    "rstar": lambda boxes: boxes[::2] + boxes[1::2],  # evens, then odds
}


@lru_cache(maxsize=None)
def ordered_boxes(n: int, dim: int, order: str):
    return INPUT_ORDERS[order](random_boxes(n, dim))


@lru_cache(maxsize=None)
def oracle_dump(n: int, dim: int, cap: int, order: str = "quadratic"):
    boxes = ordered_boxes(n, dim, order)
    return tree_dump(ref.bulk_load(list(zip(boxes, boxes)), max_entries=cap))


# -- the matrix --------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKEND_IDS)
@pytest.mark.parametrize("order", INPUT_ORDERS)
@pytest.mark.parametrize("cap", (4, 8, 16))
@pytest.mark.parametrize("dim", (1, 2, 3))
@pytest.mark.parametrize("n", SIZES)
def test_bulk_load_equals_per_object_build(n, dim, cap, order, backend):
    # Each entry's value is its box, so the oracle's and the build's
    # leaf identities (box and value) compare across the two trees.
    boxes = ordered_boxes(n, dim, order)
    tree = RTree.bulk_load(list(zip(boxes, boxes)), max_entries=cap)
    assert tree_dump(tree) == oracle_dump(n, dim, cap, order)
    assert len(tree) == n
    tree.check_invariants()


# -- edge cases ---------------------------------------------------------------------
#: Coordinates that make the kernels' special cases likely: repeats
#: (ties), both zeros, infinities (``(-inf + inf) / 2`` is a NaN center).
EDGE = (-INF, -2.0, -0.0, 0.0, 0.0, 1.0, 1.0, 2.5, 7.0, INF)


@st.composite
def edge_boxes(draw, dim=2):
    """Boxes over :data:`EDGE`: empty (inverted or point) ones included."""
    c = st.sampled_from(EDGE)
    return Box(
        tuple(draw(c) for _ in range(dim)), tuple(draw(c) for _ in range(dim))
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=120, deadline=None)
@given(
    st.lists(edge_boxes(), max_size=40),
    st.sampled_from((2, 4)),
)
def test_bulk_load_edge_boxes(boxes, cap):
    """Ties, empty boxes (left out), ``-0.0`` against
    ``0.0`` (the first of equals wins the min/max, as in Python) and
    infinite edges all come out as the per-object build had them —
    NaN centres included, without a NumPy warning."""
    entries = list(zip(boxes, boxes))
    expect = tree_dump(ref.bulk_load(entries, max_entries=cap))
    tree = RTree.bulk_load(entries, max_entries=cap)
    assert tree_dump(tree) == expect
    tree.check_invariants()


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(edge_boxes(), edge_boxes(dim=1)), max_size=12))
def test_enclose_all_equals_pairwise_fold(boxes):
    try:
        expect = ref.enclose_all(boxes)
    except DimensionMismatchError as exc:
        with pytest.raises(DimensionMismatchError) as got:
            enclose_all(boxes)
        assert str(got.value) == str(exc)
        return
    out = enclose_all(iter(boxes))
    assert (repr(out.lo), repr(out.hi), out.is_empty()) == (
        repr(expect.lo), repr(expect.hi), expect.is_empty()
    )
    live = [b for b in boxes if not b.is_empty()]
    if len(live) == 1:
        assert out is live[0]
    if not live:
        assert out is (boxes[-1] if boxes else EMPTY_BOX)


FINITE = tuple(c for c in EDGE if abs(c) != INF) + (3.0, 6.999999999999999)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(FINITE), max_size=30),
    st.sampled_from((1, 4, 16)),
)
def test_histogram_equals_loop(values, bins):
    """Values equal to ``hi`` land in the last bucket; equal populations
    collapse to one; ``lo``/``hi`` keep the sign of the first zero."""
    expect = ref.histogram(values, bins=bins)
    assert repr(Histogram.from_values(values, bins=bins)) == repr(expect)
    assert repr(Histogram.from_values(iter(values), bins=bins)) == repr(expect)


@pytest.mark.parametrize("backend", BACKEND_IDS)
def test_histogram_of_infinite_values_still_raises(backend):
    values = [0.0, 1.0, INF]
    with pytest.raises(ValueError):
        ref.histogram(values)
    with pytest.raises(ValueError):
        Histogram.from_values(values)


# -- tables: statistics, repack, snapshots ---------------------------------------------
def table_rows(rng: random.Random, n: int, first_oid: int = 0):
    """Rows of 1-3 box regions, an empty region now and then."""
    rows = []
    for i in range(n):
        boxes = []
        for _ in range(rng.choice((0, 1, 1, 1, 1, 2, 3)) if i % 17 == 5 else 1):
            lo = (rng.randrange(0, 56) / 2, rng.randrange(0, 56) / 2)
            boxes.append(
                Box(lo, (lo[0] + rng.uniform(0.5, 4.0), lo[1] + rng.uniform(0.5, 4.0)))
            )
        rows.append((first_oid + i, Region.from_boxes(boxes)))
    return rows


@pytest.mark.parametrize("backend", BACKEND_IDS)
@pytest.mark.parametrize("n", (0, 1, 30, 700))
def test_statistics_equal_per_object_scan(n, backend):
    rows = table_rows(random.Random(shifted_seed(n)), n)
    table = SpatialTable("t", 2)
    table.bulk_insert(rows)
    for kwargs in ({}, {"bins": 5, "sample_size": 7, "seed": 3}):
        got = collect_statistics(table, **kwargs)
        expect = ref.collect_statistics(table, **kwargs)
        assert stats_dump(table, got) == stats_dump(table, expect)
        assert all(a is b for a, b in zip(got.sample, expect.sample))
    # A pending delta: live rows (explicit or not) are still scanned.
    table.stage_insert("new", Region.from_box(Box((1.0, 1.0), (40.0, 2.0))))
    if n:
        table.stage_delete(0)
    assert stats_dump(table, collect_statistics(table)) == stats_dump(
        table, ref.collect_statistics(table)
    )
    assert stats_dump(table, table.statistics()) == stats_dump(
        table,
        ref.collect_statistics(
            table,
            rows=[o for o in table._objects.values() if not o.box.is_empty()],
            total=len(table._objects),
        ).apply_delta(
            tuple(table._delta.inserts.values()),
            tuple(table._objects[oid] for oid in table._delta.tombstones),
        ),
    )


@pytest.mark.parametrize("backend", BACKEND_IDS)
@pytest.mark.parametrize("seed", range(6))
def test_repack_equals_fresh_bulk_insert(seed, backend):
    """Random insert/delete deltas folded by ``repack()``: columns, tree
    and statistics are those of a fresh ``bulk_insert`` of the live rows
    — and of the per-object build of them."""
    rng = random.Random(shifted_seed(40 + seed))
    table = SpatialTable("t", 2, delta_threshold=10_000)
    table.bulk_insert(table_rows(rng, rng.choice((0, 3, 90))))
    next_oid = len(table)
    for _round in range(3):
        # At least one staged insert per round.
        for op in range(1 + rng.randrange(0, 30)):
            live = [obj.oid for obj in table]
            if op and live and rng.random() < 0.4:
                table.delete(rng.choice(live))
            else:
                ((oid, region),) = table_rows(rng, 1, next_oid)
                if rng.random() < 0.1:
                    region = Region.from_boxes([])
                table.stage_insert(oid, region)
                next_oid += 1
        table.repack()
        assert not table.delta_pending
        rows = [(obj.oid, obj.region) for obj in table]
        fresh = SpatialTable("t", 2)
        fresh.bulk_insert(rows)
        oracle = ref.packed_table("t", 2, rows)

        def shape(t):
            # Row identity differs between tables: compare by oid.
            oid_of = {id(obj): obj.oid for obj in t}
            lo, hi, flags, ids = store_dump(t._columns)
            return lo, hi, flags, [oid_of[i] for i in ids], oid_dump(t._rtree), stats_dump(
                t, t.statistics()
            )

        assert shape(table) == shape(fresh) == shape(oracle)
        assert values_are_rows(table)
        table._rtree.check_invariants()


@pytest.mark.parametrize("backend", BACKEND_IDS)
def test_snapshot_bytes_equal_per_object_build(backend, tmp_path):
    rows = table_rows(random.Random(shifted_seed(77)), 400)
    table = SpatialTable("t", 2, universe=Box((0.0, 0.0), (64.0, 64.0)))
    table.bulk_insert(rows)
    new_path, ref_path = tmp_path / "new.json", tmp_path / "ref.json"
    Database(tables={"t": table}).save(str(new_path))
    oracle = ref.packed_table(
        "t", 2, rows, universe=Box((0.0, 0.0), (64.0, 64.0))
    )
    Database(tables={"t": oracle}).save(str(ref_path))
    assert new_path.read_bytes() == ref_path.read_bytes()
    # The loader fills its store through the same bulk constructor.
    loaded = Database.open(str(new_path)).table("t")
    assert store_dump(loaded._columns)[:3] == store_dump(table._columns)[:3]
    # It packs the built table's tree, node array for node array, its
    # leaves naming the same rows by slot.
    assert slot_dump(loaded) == slot_dump(table)
    assert values_are_rows(loaded) and oid_dump(loaded._rtree) == oid_dump(table._rtree)


# -- one fold, one build ------------------------------------------------------------------
@pytest.fixture
def builds(monkeypatch):
    """Every packed build, by name, as a list."""
    calls = []
    for name in ("bulk_load", "bulk_load_columns"):
        original = getattr(RTree, name).__func__

        def spy(cls, *args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(cls, *args, **kwargs)

        monkeypatch.setattr(RTree, name, classmethod(spy))
    return calls


def test_reindex_with_pending_delta_builds_the_tree_once(builds):
    """``pack()`` — which ``reindex()`` folded into — over a pending
    delta used to bulk-load twice (``repack()``'s tree was thrown away);
    it folds once, and on a clean table builds once more."""
    table = SpatialTable("t", 2)
    table.bulk_insert(table_rows(random.Random(5), 50))
    version = table._version
    builds.clear()
    table.stage_insert("a", Region.from_box(Box((0.0, 0.0), (1.0, 1.0))))
    table.stage_delete(3)
    table.pack()
    assert builds == ["bulk_load_columns"]
    # One fold, one version bump (snapshots store it).
    assert table._version == version + 1 and table.repacks == 1
    assert not table.delta_pending and len(table) == 50
    assert {obj.oid for obj in table._rtree.all_entries()} == {
        obj.oid for obj in table if not obj.box.is_empty()
    }
    tree = table._rtree
    table.pack()
    assert builds == ["bulk_load_columns"] * 2 and table._rtree is not tree
    assert tree_dump(table._rtree) == tree_dump(tree)
    assert table._version == version + 2 and table.repacks == 1


@pytest.mark.parametrize("backend", BACKEND_IDS)
def test_bulk_insert_builds_one_tree_equal_to_the_per_object_build(builds, backend):
    """``bulk_insert`` checks its rows and folds them once: one STR
    build, no op-log entry, no inline repack however many rows — and
    the tree is the per-object build's, row for row."""
    rows = table_rows(random.Random(shifted_seed(9)), 300)
    table = SpatialTable("t", 2, delta_threshold=8)
    table.bulk_insert(rows)
    assert builds == ["bulk_load_columns"]
    assert (table._version, table.repacks, table.delta_watermark) == (1, 0, 0)
    assert not table._delta.ops and not table.delta_pending
    oracle = ref.packed_table("t", 2, rows)
    assert oid_dump(table._rtree) == oid_dump(oracle._rtree)
    assert values_are_rows(table)


# -- no object per row -------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKEND_IDS)
def test_build_and_inline_repack_add_no_object_per_row(backend):
    """The tree is columns: ``bulk_load_columns`` over a 20 000-row
    store, and the inline repack a 64th staged write sets off on a
    20 000-row table, each leave a bounded number of new tracked
    objects — no ``(box, row)`` tuple per row, no ``Box`` per inner
    entry (about 30 000 of them before), whatever the table's size.
    The structures the repack replaces stay pinned, as by a reader in
    flight, so what it frees cannot hide what it makes."""
    rng = random.Random(shifted_seed(20))
    table = SpatialTable("t", 2)
    table.bulk_insert(table_rows(rng, 20_000))
    columns = table._columns.nonempty_columns()
    RTree.bulk_load_columns(*columns)  # warm whatever the kernels cache
    staged = table_rows(rng, 40, first_oid=20_000)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        tree = RTree.bulk_load_columns(*columns)
        built = len(gc.get_objects()) - before
        for oid, region in staged:
            table.stage_insert(oid, region)
        for oid in range(23):
            table.stage_delete(oid)
        pinned_base = (table._rtree, table._columns, table._objects)
        before = len(gc.get_objects())
        table.stage_delete(100)  # the 64th staged write: inline repack
        repacked = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert len(tree) == len(columns[0]) and table.repacks == 1
    assert table._rtree is not pinned_base[0] and len(table) == 20_000 + 40 - 24
    assert built <= TRACKED_PER_TREE and repacked <= 2 * TRACKED_PER_TREE

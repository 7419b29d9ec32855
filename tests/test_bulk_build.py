"""Build differential: the columnar table build against the frozen
per-object one (``reference_build.py``).

The build path — STR bulk load, repack, statistics, snapshot bytes —
reads coordinate columns through the ``repro.spatial.columnar`` build
kernels; the oracle does what the code did before, object by object.
Everything here is compared *to the bit*: floats through ``repr`` (so
``-0.0`` is not ``0.0``), trees node by node in preorder, leaf entries
by identity.
"""

import math
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_build as ref
from reference_rtree import root_of
from conftest import BACKEND_MATRIX as BACKENDS, pinned, shifted_seed
from repro import Database
from repro.algebra import Region
from repro.boxes import Box, EMPTY_BOX, enclose_all
from repro.engine.catalog import Histogram, collect_statistics
from repro.errors import DimensionMismatchError
from repro.spatial import RTree, SpatialTable

SIZES = (0, 1, 7, 8, 9, 64, 65, 1_000, 20_000)
INF = math.inf


# -- helpers ---------------------------------------------------------------------
def tree_dump(tree: RTree):
    """Preorder ``(leaf, entries)`` per node; an entry is its box's exact
    coordinates plus, in a leaf, the identity of box and value."""
    out = []
    stack = [root_of(tree)]
    while stack:
        node = stack.pop()
        out.append(
            (
                node.leaf,
                [
                    (repr(box.lo), repr(box.hi), box.is_empty())
                    + ((id(box), id(value)) if node.leaf else ())
                    for box, value in node.entries
                ],
            )
        )
        if not node.leaf:
            for _mbr, child in reversed(node.entries):
                assert child.parent is node
                stack.append(child)
    return out


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
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("order", INPUT_ORDERS)
@pytest.mark.parametrize("cap", (4, 8, 16))
@pytest.mark.parametrize("dim", (1, 2, 3))
@pytest.mark.parametrize("n", SIZES)
def test_bulk_load_equals_per_object_build(n, dim, cap, order, backend):
    # Each entry's value is its box, so the oracle's and the build's
    # leaf identities (box and value) compare across the two trees.
    boxes = ordered_boxes(n, dim, order)
    with pinned(backend):
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


@settings(max_examples=120, deadline=None)
@given(
    st.lists(edge_boxes(), max_size=40),
    st.sampled_from((2, 4)),
    st.sampled_from(BACKENDS),
)
def test_bulk_load_edge_boxes(boxes, cap, backend):
    """Ties, empty boxes (left out), ``-0.0`` against
    ``0.0`` (the first of equals wins the min/max, as in Python) and
    infinite edges all come out as the per-object build had them."""
    entries = list(zip(boxes, boxes))
    expect = tree_dump(ref.bulk_load(entries, max_entries=cap))
    with pinned(backend):
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
    st.sampled_from(BACKENDS),
)
def test_histogram_equals_loop(values, bins, backend):
    """Values equal to ``hi`` land in the last bucket; equal populations
    collapse to one; ``lo``/``hi`` keep the sign of the first zero."""
    expect = ref.histogram(values, bins=bins)
    with pinned(backend):
        assert repr(Histogram.from_values(values, bins=bins)) == repr(expect)
        assert repr(Histogram.from_values(iter(values), bins=bins)) == repr(expect)


@pytest.mark.parametrize("backend", BACKENDS)
def test_histogram_of_infinite_values_still_raises(backend):
    values = [0.0, 1.0, INF]
    with pytest.raises(ValueError):
        ref.histogram(values)
    with pinned(backend), pytest.raises(ValueError):
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


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n", (0, 1, 30, 700))
def test_statistics_equal_per_object_scan(n, backend):
    rows = table_rows(random.Random(shifted_seed(n)), n)
    with pinned(backend):
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


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", range(6))
def test_repack_equals_fresh_bulk_insert(seed, backend):
    """Random insert/delete deltas folded by ``repack()``: columns, tree
    and statistics are those of a fresh ``bulk_insert`` of the live rows
    — and of the per-object build of them."""
    rng = random.Random(shifted_seed(40 + seed))
    with pinned(backend):
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
                dump = [
                    (leaf, [e[:3] + tuple(oid_of.get(i, i) for i in e[4:]) for e in entries])
                    for leaf, entries in tree_dump(t._rtree)
                ]
                return lo, hi, flags, [oid_of[i] for i in ids], dump, stats_dump(
                    t, t.statistics()
                )

            assert shape(table) == shape(fresh) == shape(oracle)
            for box, obj in table._rtree.all_entries():
                assert box is obj.box
            table._rtree.check_invariants()


@pytest.mark.parametrize("backend", BACKENDS)
def test_snapshot_bytes_equal_per_object_build(backend, tmp_path):
    rows = table_rows(random.Random(shifted_seed(77)), 400)
    with pinned(backend):
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
        for box, obj in loaded._rtree.all_entries():
            assert box is obj.box


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
    assert {obj.oid for _b, obj in table._rtree.all_entries()} == {
        obj.oid for obj in table if not obj.box.is_empty()
    }
    tree = table._rtree
    table.pack()
    assert builds == ["bulk_load_columns"] * 2 and table._rtree is not tree
    assert tree_dump(table._rtree) == tree_dump(tree)
    assert table._version == version + 2 and table.repacks == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_bulk_insert_builds_one_tree_equal_to_the_per_object_build(builds, backend):
    """``bulk_insert`` checks its rows and folds them once: one STR
    build, no op-log entry, no inline repack however many rows — and
    the tree is the per-object build's, row for row."""
    rows = table_rows(random.Random(shifted_seed(9)), 300)
    with pinned(backend):
        table = SpatialTable("t", 2, delta_threshold=8)
        table.bulk_insert(rows)
    assert builds == ["bulk_load_columns"]
    assert (table._version, table.repacks, table.delta_watermark) == (1, 0, 0)
    assert not table._delta.ops and not table.delta_pending
    oracle = ref.packed_table("t", 2, rows)
    oid_of = {id(obj): obj.oid for t in (table, oracle) for obj in t}

    def by_oid(tree):
        return [
            (leaf, [e[:3] + tuple(oid_of.get(i, i) for i in e[4:]) for e in entries])
            for leaf, entries in tree_dump(tree)
        ]

    assert by_oid(table._rtree) == by_oid(oracle._rtree)
    for box, obj in table._rtree.all_entries():
        assert box is obj.box

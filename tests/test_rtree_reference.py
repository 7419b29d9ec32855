"""Reader differential: every reader of the tree's array form against
the frozen ``_Node`` walkers (``reference_rtree.py``).

``search``, ``count``, ``to_node_arrays`` and ``check_invariants``
must return the same rows in the same sequence (by identity) and bill the same ``node_reads`` /
``entry_tests`` / ``pruned_subtrees``, however the tree came to be:
packed, packed from a snapshot's rows as ``Database.open`` does, or the
tree a table's one write path (staging, inline and explicit repacks)
leaves behind.  The parametrised
cases are tier-1's thin diagonal; the Hypothesis product at the end
runs a handful of examples there and the full budget in CI's
seed-matrix job.
"""

import random
from itertools import islice

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_rtree as ref
from conftest import (
    BACKEND_IDS, SEED_MATRIX, edge_box_queries, edge_boxes, shifted_seed,
)
from repro.algebra.regions import Region
from repro.boxes.bconstraints import BoxQuery
from repro.boxes.box import EMPTY_BOX, Box
from repro.spatial.columnar import ColumnStore
from repro.spatial.rtree import RTree
from repro.spatial.table import SpatialTable

#: ``grown-*``: a table grown row by row through ``insert``, repacking
#: inline every ``GROWN[kind]`` rows; the names are the retired split
#: methods' (the insertion trees they built are gone), kept so the test
#: ids stay stable.
GROWN = {"grown-quadratic": 4, "grown-linear": 16, "grown-rstar": 64}
BUILDS = (
    "packed",
    "loaded",
    *GROWN,
    "packed+insert",
    "packed+delete",
    "empty-boxes",
    "empty",
)
SHAPES = ("inside", "covers", "overlap1", "overlap2", "overlap3", "mixed", "all", "unsat")


# -- helpers ---------------------------------------------------------------------
def grid_box(rng: random.Random, dim: int, reach: float = 2.5) -> Box:
    """A box on a half-unit grid: shared edges and duplicates are common."""
    lo = tuple(rng.randrange(0, 40) / 2 for _ in range(dim))
    return Box(lo, tuple(a + rng.choice((0.5, 1.0, reach)) for a in lo))


def table_tree(kind: str, entries, capacity: int) -> RTree:
    """The tree of a table whose rows are ``entries`` (oid = value),
    written the ``kind`` way and repacked clean."""
    rows = [(value, Region.from_box(box)) for box, value in entries]
    table = SpatialTable("t", entries[0][0].dim, node_capacity=capacity,
                         delta_threshold=GROWN.get(kind, 10**9))
    if kind in GROWN:
        for oid, region in rows:
            table.insert(oid, region)
    elif kind == "packed+insert":
        table.bulk_insert(rows[::2])
        for oid, region in rows[1::2]:
            table.insert(oid, region)
    else:  # packed+delete: extra rows, deleted again before the repack
        extra = [(("x", oid), Region.from_box(box)) for (box, oid) in entries[::3]]
        table.bulk_insert(rows + extra)
        for oid, _region in extra:
            table.delete(oid)
        assert not table.stage_delete(extra[0][0])  # a miss stages nothing
    table.repack()
    assert len(table._rtree) == len(entries)
    return table._rtree


def build(kind: str, entries, capacity: int = 4) -> RTree:
    """A tree over ``entries`` that came to be the ``kind`` way; through
    a table, its leaf values are the rows standing for them."""
    if kind == "empty":
        return RTree(max_entries=capacity)
    if kind in GROWN or kind.startswith("packed+"):
        return table_tree(kind, entries, capacity)
    if kind == "loaded":  # the tree Database.open packs from a snapshot's rows
        store = ColumnStore.bulk(
            entries[0][0].dim, [box for box, _value in entries], [value for _box, value in entries]
        )
        return RTree.bulk_load_columns(*store.nonempty_columns(), max_entries=capacity)
    if kind == "empty-boxes":  # left out of the build
        entries = entries + [(EMPTY_BOX, f"void{i}") for i in range(5)]
    return RTree.bulk_load(entries, max_entries=capacity)


def queries(rng: random.Random, dim: int):
    """A few queries of every shape, by shape name."""
    def box(reach):
        return grid_box(rng, dim, reach)

    everything = Box((-1.0,) * dim, (50.0,) * dim)
    return {
        "inside": [BoxQuery(inside=box(12.0)), BoxQuery(inside=everything)],
        "covers": [BoxQuery(covers=box(0.5)), BoxQuery(covers=EMPTY_BOX)],
        "overlap1": [BoxQuery(overlap=(box(6.0),))],
        "overlap2": [BoxQuery(overlap=(box(9.0), box(9.0)))],
        "overlap3": [BoxQuery(overlap=(box(12.0), box(12.0), everything))],
        "mixed": [
            BoxQuery(inside=everything, covers=box(0.5), overlap=(box(6.0),)),
            BoxQuery(inside=box(15.0), covers=EMPTY_BOX),  # still the COUNT shortcut
        ],
        "all": [BoxQuery()],
        "unsat": [BoxQuery(overlap=(EMPTY_BOX,)), BoxQuery(inside=EMPTY_BOX, covers=box(1.0))],
    }


def billed(tree: RTree, call):
    tree.stats.reset()
    result = call()
    stats = tree.stats
    return result, (stats.node_reads, stats.entry_tests, stats.pruned_subtrees)


def ids(values):
    """The identities of values — as the engine's readers hand them out."""
    return [id(value) for value in values]


def oracle_ids(pairs):
    """The identities of the values in the walkers' ``(box, value)``."""
    return [id(value) for _box, value in pairs]


def hold_readers_to_oracle(tree: RTree, probes) -> None:
    for query in probes:
        got, mine = billed(tree, lambda: ids(tree.search(query)))
        want, theirs = billed(tree, lambda: oracle_ids(ref.search(tree, query)))
        assert got == want and mine == theirs, query
        # A consumer that stops early is billed for what it pulled.
        got, mine = billed(tree, lambda: ids(islice(tree.search(query), 1)))
        want, theirs = billed(tree, lambda: oracle_ids(islice(ref.search(tree, query), 1)))
        assert got == want and mine == theirs, query
        got, mine = billed(tree, lambda: tree.count(query))
        want, theirs = billed(tree, lambda: ref.count(tree, query))
        assert got == want and mine == theirs, query
        assert ids(tree.search_batch([query])[0]) == oracle_ids(ref.search(tree, query))
    assert ids(tree.all_entries()) == oracle_ids(ref.all_entries(tree))
    index = {id(value): i for i, value in enumerate(tree.all_entries())}
    dump = tree.to_node_arrays(lambda value: index[id(value)])
    assert dump == ref.to_node_arrays(tree, lambda value: index[id(value)])
    assert repr(dump["bounds"]) == repr(  # -0.0 is not 0.0
        ref.to_node_arrays(tree, lambda value: index[id(value)])["bounds"]
    )
    assert tree.height() == ref.height(tree)
    assert tree.node_count() == len(dump["leaf"]) and len(tree) == len(index)
    tree.check_invariants()
    ref.check_invariants(tree)


def entries_for(rng: random.Random, n: int, dim: int):
    return [(grid_box(rng, dim), (i, str(i))[i % 2]) for i in range(n)]


# -- the thin diagonal -------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKEND_IDS)
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("kind", BUILDS)
def test_readers_equal_the_node_walkers(kind, dim, backend):
    rng = random.Random(shifted_seed(100 * dim + BUILDS.index(kind)))
    entries = entries_for(rng, 150, dim)
    tree = build(kind, entries)
    by_shape = queries(rng, dim)
    assert set(by_shape) == set(SHAPES)
    hold_readers_to_oracle(tree, [q for shape in SHAPES for q in by_shape[shape]])


def test_readers_pin_the_form_they_started_on():
    """A search in flight keeps the tree it began with; a write and a
    repack in between show only to the next reader, on a new tree."""
    rng = random.Random(shifted_seed(3))
    entries = entries_for(rng, 60, 2)
    table = SpatialTable("t", 2, node_capacity=4)
    table.bulk_insert([(value, Region.from_box(box)) for box, value in entries])
    tree = table._rtree
    everything = BoxQuery()
    walk = tree.search(everything)
    first = next(walk)
    table.insert("late", Region.from_box(Box((1.0, 1.0), (2.0, 2.0))))
    assert table.repack() and table._rtree is not tree
    assert len([first, *walk]) == 60
    assert len(list(table._rtree.search(everything))) == 61
    hold_readers_to_oracle(tree, [everything])
    hold_readers_to_oracle(table._rtree, [everything])


# -- the product -------------------------------------------------------------------
@st.composite
def edited_trees(draw):
    """Edge-case boxes (empty ones too) and a few edits to that entry
    list, packed: ``(tree, live entries)`` — empty boxes are left out."""
    boxes = draw(st.lists(edge_boxes(), max_size=40))
    live = [(box, i) for i, box in enumerate(boxes)]
    capacity = draw(st.integers(2, 6))
    for step in range(draw(st.integers(0, 6))):
        if live and draw(st.booleans()):
            live.pop(draw(st.integers(0, len(live) - 1)))
        else:
            live.append((draw(edge_boxes()), f"new{step}"))
    tree = RTree.bulk_load(live, max_entries=capacity)
    return tree, [(box, value) for box, value in live if not box.is_empty()]


@settings(
    max_examples=300 if SEED_MATRIX else 12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(edited_trees(), st.lists(edge_box_queries(), min_size=1, max_size=4))
def test_readers_equal_the_node_walkers_on_edge_cases(built, probes):
    tree, live = built
    assert sorted(ids(tree.all_entries())) == sorted(oracle_ids(live))
    hold_readers_to_oracle(tree, probes)

"""Snapshot save/load round-trips.

Every backend must round-trip bit-identically: answer sets and catalog
statistics equal to the freshly built table's — and
for the r-tree, the tree the loader packs from the rows is compared
node-for-node with the built one (so node-read counts match too, not
just answers).  Damaged rows blocks, and version-1 files whose stored
node arrays are not that tree, raise ``SnapshotError``.
"""

import base64
import json
import os
import re
import struct
import threading

import pytest

from conftest import KERNEL_IDS
from repro.algebra.regions import Region
from repro.boxes.box import Box
from repro.boxes.bconstraints import BoxQuery
from repro.database import Database
from repro.engine.compiler import compile_query
from repro.engine.executor import answers_as_oid_tuples, execute
from repro.engine.query import SpatialQuery
from repro.errors import SnapshotError
from repro.spatial.table import SpatialTable
from repro.spatial.snapshot import (
    FORMAT_VERSION,
    read_snapshot,
    table_from_jsonable,
    table_to_jsonable,
    write_snapshot,
)

from repro.datagen.workloads import overlay_query, smugglers_query

INDEXES = ("rtree", "scan")


def _saved_loaded(tmp_path, index, seed=3):
    query, _map = smugglers_query(index=index, seed=seed)
    for table in query.tables.values():
        table.statistics()
    path = str(tmp_path / "db.json")
    write_snapshot(path, query.tables, query.bindings)
    tables, bindings = read_snapshot(path)
    return query, tables, bindings, path


@pytest.mark.parametrize("index", INDEXES)
class TestRoundTrip:
    def test_rows_bit_identical(self, tmp_path, index):
        query, tables, _b, _p = _saved_loaded(tmp_path, index)
        for key, orig in query.tables.items():
            loaded = tables[key]
            assert [o.oid for o in orig] == [o.oid for o in loaded]
            # Exact region representation, not merely set equality.
            assert [o.region.boxes for o in orig] == [
                o.region.boxes for o in loaded
            ]
            assert len(orig) == len(loaded)
            assert loaded.universe == orig.universe
            assert loaded._version == orig._version

    def test_answers_bit_identical(self, tmp_path, index):
        query, tables, bindings, _p = _saved_loaded(tmp_path, index)
        plan = compile_query(query)
        baseline, base_stats = execute(plan, "boxplan")
        reloaded = SpatialQuery(
            system=query.system,
            tables=tables,
            bindings=bindings,
            order=query.order,
        )
        answers, stats = execute(compile_query(reloaded), "boxplan")
        assert answers_as_oid_tuples(answers, plan.order) == (
            answers_as_oid_tuples(baseline, plan.order)
        )
        # Warm-index parity: the reloaded index costs exactly the same
        # probes and node reads as the freshly built one.
        assert stats.to_dict() == base_stats.to_dict()

    def test_statistics_bit_identical(self, tmp_path, index):
        query, tables, _b, _p = _saved_loaded(tmp_path, index)
        for key, orig in query.tables.items():
            # Served from the snapshot's cache — and equal to the
            # original's (TableStatistics compares histograms, MBR
            # and sample rows).
            assert tables[key].statistics() == orig.statistics()


def test_open_answers_and_resaves_like_the_built_database(tmp_path):
    """``Database.open`` of a saved smugglers database answers its query
    as the built one does — same answers, same ``ExecutionStats`` (node
    reads included) — and saving it again writes the same bytes, node
    arrays and all."""
    query, _world = smugglers_query(seed=7, n_towns=256, n_roads=256, states_grid=(6, 6))
    built = Database.from_query(query)
    path, again = str(tmp_path / "db.json"), str(tmp_path / "again.json")
    built.save(path)
    opened = Database.open(path)
    system = str(query.system)
    want, got = built.session().run(system), opened.session().run(system)
    assert got.oid_tuples() == want.oid_tuples() and got.oid_tuples()
    assert got.stats.to_dict() == want.stats.to_dict()
    opened.save(again)
    with open(path, "rb") as fh, open(again, "rb") as gh:
        assert fh.read() == gh.read()


def test_saved_file_stores_rows_not_the_tree(tmp_path):
    """A version-2 file holds no node arrays: the loader packs the tree."""
    query, _tables, _b, path = _saved_loaded(tmp_path, "rtree")
    assert FORMAT_VERSION == 2
    with open(path) as fh:
        payload = json.load(fh)
    assert payload["version"] == FORMAT_VERSION and len(payload["tables"]) == len(query.tables)
    assert not any("rtree" in entry for entry in payload["tables"].values())


def test_rtree_node_arrays_identical(tmp_path):
    """The reloaded tree is the same tree, node for node."""
    query, tables, _b, _p = _saved_loaded(tmp_path, "rtree")
    for key, orig in query.tables.items():
        loaded = tables[key]
        orig_rows = {id(o): i for i, o in enumerate(orig)}
        loaded_rows = {id(o): i for i, o in enumerate(loaded)}
        assert orig._rtree.to_node_arrays(
            lambda o: orig_rows[id(o)]
        ) == loaded._rtree.to_node_arrays(lambda o: loaded_rows[id(o)])


def test_loaded_table_accepts_mutation(tmp_path):
    _query, tables, _b, _p = _saved_loaded(tmp_path, "rtree")
    table = tables["T"]
    version = table._version
    obj = table.insert("new-town", Region.from_box(Box((1, 1), (2, 2))))
    assert table.mvcc_token == (version, 1)  # staged, like every write
    q = BoxQuery(overlap=(Box((0, 0), (3, 3)),))
    assert obj in table.range_query(q)


def test_oid_types_round_trip(tmp_path):
    t = SpatialTable("mixed", 2, index="scan")
    oids = ["a", 7, 2.5, ("pair", 3), None]
    for i, oid in enumerate(oids):
        t.insert(oid, Region.from_box(Box((i, i), (i + 1, i + 1))))
    path = str(tmp_path / "mixed.json")
    write_snapshot(path, {"m": t})
    loaded = read_snapshot(path)[0]["m"]
    assert [o.oid for o in loaded] == oids
    # A tuple oid stays a tuple (hashable), not a JSON list.
    assert loaded.get(("pair", 3)).oid == ("pair", 3)


def test_unserializable_oid_raises():
    t = SpatialTable("bad", 2, index="scan")
    t.insert(frozenset({1}), Region.from_box(Box((0, 0), (1, 1))))
    with pytest.raises(SnapshotError, match="oid"):
        table_to_jsonable(t)


def test_missing_file_raises(tmp_path):
    with pytest.raises(SnapshotError, match="cannot read"):
        read_snapshot(str(tmp_path / "nope.json"))


def test_malformed_json_raises(tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text('{"format": "repro-snapsho')
    with pytest.raises(SnapshotError, match="not valid JSON"):
        read_snapshot(str(path))


def test_non_utf8_byte_raises_snapshot_error(tmp_path):
    path = tmp_path / "latin.json"
    path.write_bytes(b'{"format": "repro-snapshot", "version": 2, "tables": {"\xff": {}}}')
    with pytest.raises(SnapshotError, match="not valid JSON"):
        read_snapshot(str(path))


def test_foreign_file_raises(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"hello": "world"}))
    with pytest.raises(SnapshotError, match="is not a repro-snapshot"):
        read_snapshot(str(path))


def test_future_version_raises(tmp_path):
    path = tmp_path / "future.json"
    path.write_text(
        json.dumps(
            {
                "format": "repro-snapshot",
                "version": FORMAT_VERSION + 1,
                "tables": {},
            }
        )
    )
    with pytest.raises(SnapshotError, match="format version"):
        read_snapshot(str(path))


def test_write_is_atomic_no_tmp_left(tmp_path):
    query, _map = smugglers_query(seed=1)
    path = str(tmp_path / "db.json")
    write_snapshot(path, query.tables, query.bindings)
    write_snapshot(path, query.tables, query.bindings)  # overwrite OK
    assert os.listdir(tmp_path) == ["db.json"]


def test_empty_table_round_trip(tmp_path):
    for index in INDEXES:
        t = SpatialTable(
            "empty", 2, index=index, universe=Box((0, 0), (10, 10))
        )
        data = table_to_jsonable(t)
        loaded = table_from_jsonable(json.loads(json.dumps(data)))
        assert len(loaded) == 0
        assert loaded.index_kind == index


def _version_1_arrays(table):
    """The node arrays a version-1 writer stored for ``table``:
    ``to_node_arrays`` with rows by slot, the bounds packed."""
    slot = {id(obj): i for i, obj in enumerate(table)}
    arrays = table._rtree.to_node_arrays(lambda obj: slot[id(obj)])
    bounds = struct.pack(f"<{len(arrays['bounds'])}d", *arrays["bounds"])
    arrays["bounds"] = base64.b64encode(bounds).decode("ascii")
    return arrays


def _as_version_1(path, tables):
    """The snapshot at ``path`` of ``tables``, rewritten as a version-1
    writer wrote it — each r-tree table with its node arrays — and
    returned as the parsed payload."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["version"] = 1
    for key, table in tables.items():
        if table.index_kind == "rtree":
            payload["tables"][key]["rtree"] = _version_1_arrays(table)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return payload


#: Table entries a loader must refuse, each as an edit of a saved
#: version-1 one: no index, an unknown one, the retired grid file (whose
#: entries carry no node arrays), and an r-tree table without its node
#: arrays (every version-1 writer stored them).
MALFORMED_TABLES = {
    "missing": lambda entry: entry.pop("index"),
    "bogus": lambda entry: entry.update(index="bogus"),
    "7": lambda entry: entry.update(index=7),
    "grid": lambda entry: (entry.pop("rtree"), entry.update(index="grid")),
    "rtree-without-arrays": lambda entry: entry.pop("rtree"),
}


@pytest.mark.parametrize("case", MALFORMED_TABLES)
def test_malformed_table_entry_raises_snapshot_error(tmp_path, case):
    query, _map = smugglers_query(seed=3)
    path = str(tmp_path / "db.json")
    write_snapshot(path, query.tables, query.bindings)
    payload = _as_version_1(path, query.tables)
    entry = payload["tables"]["T"]
    MALFORMED_TABLES[case](entry)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    with pytest.raises(SnapshotError, match=repr(entry["name"])) as err:
        read_snapshot(path)
    if case == "grid":
        assert "'grid'" in str(err.value)


#: Version-2 payload edits that once escaped ``read_snapshot`` as bare
#: ``AttributeError``/``TypeError``/``KeyError``/``ValueError``s, each
#: with the text its ``SnapshotError`` must name.
MALFORMED_ENTRIES = {
    "tables-list": (lambda payload: payload.update(tables=[]), "'tables'"),
    "entry-7": (lambda payload: payload["tables"].update(T=7), "table 'T'"),
    "no-dim": (lambda payload: payload["tables"]["T"].pop("dim"), "table 'towns'"),
    "dim-x": (lambda payload: payload["tables"]["T"].update(dim="x"), "table 'towns'"),
    "bindings-list": (lambda payload: payload.update(bindings=[]), "'bindings'"),
}


@pytest.mark.parametrize("case", MALFORMED_ENTRIES)
def test_malformed_version_2_entry_raises_snapshot_error(tmp_path, case, monkeypatch):
    """Each is refused before a single row is made."""
    query, _map = smugglers_query(seed=3)
    path = str(tmp_path / "db.json")
    write_snapshot(path, query.tables, query.bindings)
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["version"] == 2 and payload["tables"]["T"]["name"] == "towns"
    edit, named = MALFORMED_ENTRIES[case]
    edit(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    monkeypatch.setattr(SpatialTable, "__init__", lambda *a, **k: pytest.fail("a table was made"))
    with pytest.raises(SnapshotError, match=re.escape(named)):
        read_snapshot(path)


def test_database_open_matches_save(tmp_path):
    query, _map = smugglers_query(seed=5)
    db = Database(tables=query.tables, bindings=query.bindings)
    path = str(tmp_path / "db.json")
    db.save(path)
    reopened = Database.open(path)
    assert set(reopened.tables) == set(db.tables)
    assert set(reopened.bindings) == set(db.bindings)
    # save() pre-warmed the statistics: the reopened tables answer
    # without recomputation (cache keys match).
    for key, table in reopened.tables.items():
        assert table._stats_version == table._version
        assert table.statistics() == db.tables[key].statistics()


# -- damaged r-tree node arrays ------------------------------------------------------
def _packed_rows(n=60):
    table = SpatialTable("t", 2, node_capacity=4)
    table.bulk_insert(
        [(i, Region.from_box(Box((i % 8, i // 8), (i % 8 + 1.5, i // 8 + 1.5)))) for i in range(n)]
    )
    assert table._rtree.height() == 3
    return table


def _first(flags, wanted, start=0):
    return next(i for i in range(start, len(flags)) if flags[i] == wanted)


def _entry_of(rtree, node):
    """Index (into ``values``) of ``node``'s first entry."""
    return sum(rtree["counts"][:node])


def _set(key, index, value):
    def damage(rtree):
        rtree[key][index] = value
    return damage


def _set_first_ref(wanted_leaf, value, nth_node=0):
    """Overwrite the first ref of an inner (0) or leaf (1) node."""
    def damage(rtree):
        node = _first(rtree["leaf"], wanted_leaf, nth_node)
        rtree["values"][_entry_of(rtree, node)] = value(rtree, node)
    return damage


def _reblob(rtree, change):
    """Apply ``change`` to the raw bytes under the bounds' base64."""
    raw = base64.b64decode(rtree["bounds"])
    rtree["bounds"] = base64.b64encode(change(raw)).decode("ascii")


def _rebound(entry, change, wanted_leaf=None):
    """Apply ``change`` to one entry's ``[lo..., hi...]`` floats: entry
    ``entry`` of the tree, or of its first leaf with ``wanted_leaf``."""

    def damage(rtree):
        first = 0 if wanted_leaf is None else _entry_of(rtree, _first(rtree["leaf"], wanted_leaf))
        floats = list(struct.unpack(f"<{len(base64.b64decode(rtree['bounds'])) // 8}d",
                                    base64.b64decode(rtree["bounds"])))
        width = 2 * rtree["dim"]
        at = (first + entry) * width
        floats[at : at + width] = change(floats[at : at + width])
        _reblob(rtree, lambda raw: struct.pack(f"<{len(floats)}d", *floats))

    return damage


DAMAGE = {
    "leaf: one flag short": lambda r: r["leaf"].pop(),
    "leaf: one flag extra": lambda r: r["leaf"].append(1),
    "leaf: root says leaf": _set("leaf", 0, 1),
    "leaf: a leaf says inner": lambda r: _set("leaf", _first(r["leaf"], 1), 0)(r),
    "leaf: not a list": lambda r: r.update(leaf=7),
    "leaf: no node at all": lambda r: r.update(leaf=[], counts=[], values=[], bounds=""),
    "counts: one short": lambda r: r["counts"].pop(),
    "counts: one entry more": _set("counts", 1, 5),
    "counts: negative": _set("counts", 1, -1),
    "counts: a string": _set("counts", 1, "4"),
    "counts: beyond 64 bits": _set("counts", 1, 2**70),
    "bounds: one float short": lambda r: _reblob(r, lambda raw: raw[:-8]),
    "bounds: half a float short": lambda r: _reblob(r, lambda raw: raw[:-4]),
    "bounds: one entry extra": lambda r: _reblob(r, lambda raw: raw + raw[:32]),
    "bounds: bad padding": lambda r: r.update(bounds=r["bounds"][:-3]),
    "bounds: not a string": lambda r: r.update(bounds=None),
    "bounds: missing": lambda r: r.pop("bounds"),
    "values: one short": lambda r: r["values"].pop(),
    "values: a float": _set("values", 0, 1.5),
    "values: null": _set("values", 3, None),
    "values: row past the end": _set_first_ref(1, lambda r, n: 60),
    "values: negative row": _set_first_ref(1, lambda r, n: -1),
    "values: child is the root": _set_first_ref(0, lambda r, n: 0, nth_node=1),
    "values: child is itself": _set_first_ref(0, lambda r, n: n, nth_node=1),
    "values: child past the end": _set_first_ref(0, lambda r, n: len(r["leaf"])),
    "values: child named twice": lambda r: _set("values", 0, r["values"][1])(r),
    "dim: three": lambda r: r.update(dim=3),
    "dim: zero": lambda r: r.update(dim=0),
    "dim: negative": lambda r: r.update(dim=-2),
    "dim: null": lambda r: r.update(dim=None),
    "max_entries: one": lambda r: r.update(max_entries=1),
}


def _finishes(call, seconds=30):
    """What ``call`` raised (or None), from a thread that may not hang."""
    outcome = []

    def run():
        try:
            call()
            outcome.append(None)
        except BaseException as exc:  # reported to the asserting thread
            outcome.append(exc)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), "the load did not end"
    return outcome[0]


def _damaged_file(tmp_path, table, damage):
    """A version-1 snapshot of ``table`` whose r-tree arrays ``damage``
    changed."""
    path = str(tmp_path / "db.json")
    write_snapshot(path, {"t": table})
    payload = _as_version_1(path, {"t": table})
    rtree = payload["tables"]["t"]["rtree"]
    before = json.dumps(rtree, sort_keys=True)
    damage(rtree)
    assert json.dumps(rtree, sort_keys=True) != before
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


@pytest.mark.parametrize("name", DAMAGE)
def test_damaged_rtree_arrays_raise_snapshot_error(tmp_path, name):
    """A version-1 snapshot's node arrays are outside input: each array
    damaged in turn ends in ``SnapshotError`` — they are not the tree
    the rows pack into — and the load ends."""
    path = _damaged_file(tmp_path, _packed_rows(), DAMAGE[name])
    raised = _finishes(lambda: read_snapshot(path))
    assert type(raised) is SnapshotError, (name, raised)


#: Bounds a search decides by, changed.  A moved leaf hides its row and a
#: shrunk MBR the rows below it: both used to load and answer wrong.  A
#: grown MBR (an insertion-grown tree's are wider than minimal) only
#: cost reads and used to open; it is not the tree the rows pack into
#: either, so it is refused too.
BOUNDS = {
    "a leaf entry moved": _rebound(0, lambda c: [c[0] + 0.25, c[1], c[2] + 0.25, c[3]], 1),
    "the root's first MBR shrunk": _rebound(0, lambda c: [*c[:2], c[0] + 1.0, c[1] + 1.0]),
    "the root's first MBR grown": _rebound(
        0, lambda c: [c[0] - 1.0, c[1] - 1.0, c[2] + 1.0, c[3] + 1.0]
    ),
}


@pytest.mark.parametrize("backend", KERNEL_IDS)
@pytest.mark.parametrize("name", BOUNDS)
def test_loaded_bounds_enclose_or_raise(tmp_path, name, backend):
    """A version-1 file's stored bounds must be, bit for bit, those of
    the tree its rows pack into: any other raises, naming the table."""
    path = _damaged_file(tmp_path, _packed_rows(), BOUNDS[name])
    with pytest.raises(SnapshotError, match="'t'.*bounds"):
        read_snapshot(path)


def _recoord(row, change):
    """Apply ``change`` to row ``row``'s ``[lo..., hi...]`` floats (one
    2-dim box per row)."""

    def damage(rows):
        raw = base64.b64decode(rows["coords"])
        floats = list(struct.unpack(f"<{len(raw) // 8}d", raw))
        floats[4 * row : 4 * row + 4] = change(floats[4 * row : 4 * row + 4])
        rows["coords"] = base64.b64encode(struct.pack(f"<{len(floats)}d", *floats)).decode("ascii")

    return damage


def _recount(row, change):
    def damage(rows):
        rows["box_counts"][row] = change(rows["box_counts"][row])
    return damage


#: Damage to a saved rows block (60 one-box rows), each of which must
#: end in ``SnapshotError`` before the load allocates rows.
ROWS_DAMAGE = {
    "a count one short": _recount(5, lambda n: n - 1),
    "a count one too big": _recount(5, lambda n: n + 1),
    "a negative count": _recount(5, lambda n: -1),
    "a count of 2**40": _recount(5, lambda n: 2**40),
    "a repeated oid": lambda rows: rows["oids"].__setitem__(1, rows["oids"][0]),
    "a box with lo >= hi": _recoord(3, lambda c: [c[2], c[1], *c[2:]]),
    "a NaN coordinate": _recoord(3, lambda c: [c[0], float("nan"), *c[2:]]),
}


@pytest.mark.parametrize("name", ROWS_DAMAGE)
def test_damaged_rows_raise_snapshot_error(tmp_path, name):
    """The rows block is checked before any row is made: counts against
    oids and coordinates, each box nonempty, each oid once.  Each damage
    ends in a ``SnapshotError`` naming the table, and the load ends."""
    path = str(tmp_path / "db.json")
    write_snapshot(path, {"t": _packed_rows()})
    with open(path) as fh:
        payload = json.load(fh)
    ROWS_DAMAGE[name](payload["tables"]["t"]["rows"])
    with open(path, "w") as fh:
        json.dump(payload, fh)
    raised = _finishes(lambda: read_snapshot(path))
    assert type(raised) is SnapshotError and "table 't'" in str(raised), (name, raised)


# -- damaged statistics blocks and older layouts -------------------------------------
OVERLAY = "x & y !<= 0"


def _overlay_db():
    """``overlay_query(50, 50)`` — 24 answers — with one empty-box row
    folded into ``y``."""
    db = Database.from_query(overlay_query(50, 50))
    db.tables["y"].insert("void", Region(()))
    db.tables["y"].repack()
    return db


def _overlay_answers(db):
    return db.session().run(OVERLAY).oid_tuples()


STATISTICS_DAMAGE = {
    "statistics: no stats": lambda t: t["statistics"][0].pop("stats"),
    "statistics: no key": lambda t: t["statistics"][0].pop("key"),
    "statistics: sample row past the end": lambda t: (
        t["statistics"][0]["stats"]["sample"].__setitem__(0, 10**6)
    ),
}


@pytest.mark.parametrize("name", [None, *STATISTICS_DAMAGE])
def test_damaged_statistics_raise_snapshot_error(tmp_path, name):
    """Each damage to a statistics block ends in ``SnapshotError``; the
    undamaged file answers as the saved database did."""
    db = _overlay_db()
    expected = _overlay_answers(db)
    assert len(expected) == 24
    path = str(tmp_path / "db.json")
    db.save(path)
    with open(path) as fh:
        payload = json.load(fh)
    if name is not None:
        STATISTICS_DAMAGE[name](payload["tables"]["y"])
        with open(path, "w") as fh:
            json.dump(payload, fh)
        with pytest.raises(SnapshotError, match="table 'right'"):
            Database.open(path)
        return
    assert _overlay_answers(Database.open(path)) == expected


def test_extra_cache_block_of_the_parent_layout_is_ignored():
    """A file written before PR 21 may carry one more optional cache
    block; it loads to the same answers and statistics."""
    db = _overlay_db()
    for table in db.tables.values():
        table.statistics()
    loaded = {}
    for extra in (False, True):
        tables = {}
        for key, table in db.tables.items():
            data = json.loads(json.dumps(table_to_jsonable(table)))
            if extra:
                data["sharding"] = {"target": 4, "shards": [list(range(len(table)))]}
            tables[key] = table_from_jsonable(data)
        loaded[extra] = Database(tables=tables, bindings=db.bindings)
    plain, legacy = loaded[False], loaded[True]
    assert _overlay_answers(legacy) == _overlay_answers(plain) == _overlay_answers(db)
    for key in db.tables:
        assert legacy.tables[key].statistics() == plain.tables[key].statistics()


#: A smugglers database (``smugglers_query(seed=3, n_towns=24,
#: n_roads=24)``) saved by a build that still had STR partitions: each
#: table carries a ``"partitioning"`` block and statistics keyed by
#: ``(bins, sample_size, seed, partitions)``, one of them with
#: per-partition summaries.
PARTITIONED_LAYOUT = os.path.join(
    os.path.dirname(__file__), "data", "snapshot_with_partitioning.json"
)


def test_snapshot_with_partitioning_opens_like_the_built_database(tmp_path):
    """The partitioning block and the partition summaries are ignored:
    the file plans the built database's order, returns its answers and
    counters, and serves its statistics; saving it again drops them.  A
    damaged statistics block in such a file is still a
    ``SnapshotError``."""
    with open(PARTITIONED_LAYOUT) as fh:
        payload = json.load(fh)
    for table in payload["tables"].values():
        assert "partitioning" in table
        assert [len(e["key"]) for e in table["statistics"]] == [4, 4]
        assert any(e["stats"]["partitions"] for e in table["statistics"])
    query, _map = smugglers_query(seed=3, n_towns=24, n_roads=24)
    built = Database(tables=query.tables, bindings=query.bindings)
    opened = Database.open(PARTITIONED_LAYOUT)
    text = str(query.system)
    want, got = built.session().run(text), opened.session().run(text)
    assert got.order == want.order
    assert got.oid_tuples() and got.oid_tuples() == want.oid_tuples()
    assert got.stats.to_dict() == want.stats.to_dict()
    for key, table in opened.tables.items():
        assert table._stats_version == table._version
        assert table.statistics() == built.tables[key].statistics()
    resaved = str(tmp_path / "again.json")
    opened.save(resaved)
    with open(resaved) as fh:
        assert '"partition' not in fh.read()
    payload["tables"]["T"]["statistics"][0]["stats"]["sample"][0] = 10**6
    damaged = str(tmp_path / "damaged.json")
    with open(damaged, "w") as fh:
        json.dump(payload, fh)
    with pytest.raises(SnapshotError, match="damaged statistics"):
        Database.open(damaged)


def test_snapshot_of_the_parent_layout_opens_alike(tmp_path):
    """A version-1 file written while the insertion tree existed carries
    its settings — ``split_method`` per table, ``min_entries`` and
    ``split_method`` per node-array block.  The loader ignores them: the
    file opens to the same answers, counters, trees and statistics as
    the version-2 file, and saving it again drops them and the node
    arrays."""
    query, _map = smugglers_query(seed=3, n_towns=40, n_roads=40)
    db = Database(tables=query.tables, bindings=query.bindings)
    path, legacy_path = str(tmp_path / "db.json"), str(tmp_path / "legacy.json")
    db.save(path)
    db.save(legacy_path)
    payload = _as_version_1(legacy_path, db.tables)
    for table in payload["tables"].values():
        assert "split_method" not in table
        assert not {"min_entries", "split_method"} & set(table["rtree"])
        table["split_method"] = "rstar"
        table["rtree"].update(min_entries=2, split_method="rstar")
    with open(legacy_path, "w") as fh:
        json.dump(payload, fh)
    opened = {}
    for name, p in (("plain", path), ("legacy", legacy_path)):
        reopened = Database.open(p)
        plan = compile_query(SpatialQuery(
            system=query.system, tables=reopened.tables,
            bindings=reopened.bindings, order=query.order,
        ))
        answers, stats = execute(plan, "boxplan")
        dumps = {}
        for key, t in reopened.tables.items():
            index = {id(o): i for i, o in enumerate(t)}
            dumps[key] = t._rtree.to_node_arrays(lambda o: index[id(o)])
        statistics = {key: t.statistics() for key, t in reopened.tables.items()}
        opened[name] = (
            answers_as_oid_tuples(answers, plan.order), stats.to_dict(), dumps, statistics
        )
        resaved = str(tmp_path / f"{name}.again.json")
        reopened.save(resaved)
        with open(resaved) as fh:
            text = fh.read()
        assert "split_method" not in text and '"rtree":' not in text
    assert opened["legacy"] == opened["plain"]
    assert opened["plain"][0]

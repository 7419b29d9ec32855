"""The resident query service (tentpole): snapshot isolation, the
atomic swap, and the HTTP front end.

The concurrency tests pin readers to the *old* snapshot while a rebuild
swaps in a new one — their answers must stay bit-identical to a serial
baseline on that snapshot — and the stale-probe regression queries,
mutates, and asserts the post-swap answer reflects the mutation.  The wire
tests pin the kept-alive client and its retry rule, the framing bounds
in both directions (the client's against a scripted raw-socket stub),
plain-HTTP/1.1 interop, and the server's shutdown.
"""

import contextlib
import http.client
import http.server
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.database import Database, Session
from repro.algebra.regions import Region
from repro.boolean.parser import MAX_DEPTH
from repro.boxes.box import Box
from repro.datagen.workloads import overlay_query, smugglers_query
from repro.engine.stats import ExecutionStats
from repro.errors import OptionError, ServiceError
from repro.service.client import ServiceClient
from repro.service.server import QueryService, serve_in_thread
from repro.spatial.table import SpatialTable
from repro.service import server as server_module
from repro.service import wire as wire_module


def _make_service(seed=2):
    query, _map = smugglers_query(seed=seed)
    db = Database(tables=query.tables, bindings=query.bindings)
    return QueryService(db), str(query.system)


@pytest.fixture(scope="module")
def served():
    service, system = _make_service()
    handle = serve_in_thread(service)
    host, port = handle.address
    client = ServiceClient(host, port, timeout=30.0)
    yield service, client, system
    client.close()
    handle.stop()


_ORDER = ("T", "R", "B")


def _local_tuples(db, system):
    """The answer set as oid tuples in a fixed projection (a set: the
    post-mutation snapshots mix int and str oids, which don't sort)."""
    result = Session(db=db).run(system)
    return {
        tuple(a[v].oid for v in _ORDER) for a in result.answers
    }, result


# -- SnapshotStore -------------------------------------------------------------
def test_store_swap_bumps_version_and_keeps_old_db():
    service, system = _make_service(seed=7)
    db_old, v1 = service.store.current()
    baseline, _res = _local_tuples(db_old, system)
    v2 = service.apply_insert(
        "T", [("extra", Region.from_box(Box((1, 1), (2, 2))))]
    )
    assert v2 == v1 + 1
    db_new, v_now = service.store.current()
    assert v_now == v2 and db_new is not db_old
    # The old snapshot is untouched: same rows, same answers.
    assert len(db_old.table("T")) + 1 == len(db_new.table("T"))
    assert _local_tuples(db_old, system)[0] == baseline


def test_insert_unknown_table_is_service_error():
    service, _system = _make_service(seed=7)
    with pytest.raises(ServiceError, match="known tables"):
        service.apply_insert(
            "nope", [("x", Region.from_box(Box((0, 0), (1, 1))))]
        )


def test_stale_probe_regression_post_swap_query_sees_mutation():
    """A query after the swap must never be served a stale probe."""
    service, system = _make_service(seed=2)
    db_old, _v = service.store.current()
    baseline, _res = _local_tuples(db_old, system)

    # Insert a town with the exact region of an answering town: the new
    # oid must join the answer set — a stale probe would hide it.
    answer_town = Session(db=db_old).run(system).answers[0]["T"]
    service.apply_insert("T", [("stale-check", answer_town.region)])
    db_new, _v = service.store.current()
    after, _res = _local_tuples(db_new, system)
    assert after != baseline
    assert any("stale-check" in t for t in after)


def test_rebuild_preserves_index_configuration():
    query, _map = smugglers_query(seed=4, node_capacity=4)
    service = QueryService(Database.from_query(query))
    service.apply_insert(
        "T", [("x", Region.from_box(Box((1, 1), (2, 2))))]
    )
    new_t = service.store.current()[0].table("T")
    old_t = query.tables["T"]
    assert new_t.index_kind == old_t.index_kind
    assert new_t.node_capacity == old_t.node_capacity
    assert new_t.universe == old_t.universe
    # The rebuild ships a warm catalog (no first-query stats stall).
    assert new_t._stats_version == new_t._version


# -- concurrent readers during rebuild + swap ----------------------------------
def test_concurrent_queries_during_rebuild_bit_identical():
    service, system = _make_service(seed=3)
    db_old, _v = service.store.current()
    baseline, _res = _local_tuples(db_old, system)

    errors, results = [], []
    start = threading.Barrier(5)

    def reader():
        try:
            start.wait(timeout=10)
            for _ in range(3):
                # Pinned to the captured snapshot, exactly as a request
                # in flight across the swap would be.
                results.append(
                    _local_tuples(db_old, system)[0]
                )
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    def writer():
        try:
            start.wait(timeout=10)
            for i in range(3):
                service.apply_insert(
                    "T",
                    [(f"w{i}", Region.from_box(Box((1, 1), (2, 2))))],
                )
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(4)]
    threads.append(threading.Thread(target=writer))
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors
    assert len(results) == 12
    assert all(r == baseline for r in results)
    assert service.store.version == 4  # three swaps happened


# -- HTTP front end ------------------------------------------------------------
def test_health_and_stats(served):
    _service, client, _system = served
    health = client.health()
    assert health["ok"] is True and health["snapshot"] >= 1
    stats = client.stats()
    assert set(stats["tables"]) == {"T", "R", "B"}
    assert stats["bindings"] == ["A", "C"]
    assert stats["cache"] == {"hit_rate": 0.0}


def test_run_over_the_wire_matches_local(served):
    service, client, system = served
    db, _v = service.store.current()
    local, result = _local_tuples(db, system)
    reply = client.run(system, bindings=["C", "A"])
    # Project the wire answers into the same fixed variable order so
    # the two answer sets compare tuple-for-tuple.
    wire = {tuple(a[v] for v in _ORDER) for a in reply["answers"]}
    assert wire == local
    assert reply["count"] == len(local)
    # The stats payload round-trips through the dataclass.
    restored = ExecutionStats.from_dict(reply["stats"])
    assert restored.tuples_emitted == reply["count"]


def test_run_uniform_options_over_the_wire(served):
    _service, client, system = served
    full = client.run(system)
    limited = client.run(system, limit=1, mode="exact", partitions=2)
    assert limited["count"] == min(1, full["count"])


def test_explain_over_the_wire(served):
    _service, client, system = served
    reply = client.explain(system)
    assert "Probe" in reply["plan"] or "Scan" in reply["plan"]
    analyzed = client.explain(system, analyze=True)
    assert "actual" in analyzed["plan"]


def test_bench_over_the_wire(served):
    """The per-query report is ``/explain`` with ``analyze``."""
    _service, client, system = served
    report = client.explain(system, analyze=True)
    assert report["count"] == report["stats"]["tuples_emitted"]
    assert {s["variable"] for s in report["stats"]["steps"]} == {"T", "R", "B"}
    assert report["snapshot"] >= 1
    assert report["plan_s"] > 0 and report["total_s"] >= 0


def test_bench_route_is_gone(served):
    _service, client, system = served
    status, reply = _raw_post(client, "/bench", json.dumps({"system": system}).encode())
    assert status == "HTTP/1.1 404 Not Found"
    assert "/bench" in reply["error"]


def test_analyzed_explain_honours_limit_over_the_wire():
    """``/explain`` accepted ``{"analyze": true, "limit": 1}`` and then
    drained every answer."""
    query = overlay_query(60, 60, seed=0)
    handle = serve_in_thread(QueryService(Database.from_query(query)))
    try:
        with ServiceClient(*handle.address) as client:
            options = {"order": ["x", "y"], "limit": 1}
            report = client.explain("x & y !<= 0", analyze=True, **options)
            limited = client.run("x & y !<= 0", **options)
    finally:
        handle.stop()
    assert report["stats"] == limited["stats"]
    assert report["count"] == limited["count"] == 1


def test_nearest_over_the_wire(served):
    service, client, system = served
    db, _v = service.store.current()
    expected = db.table("T").nearest((1.0, 1.0), 3)
    reply = client.nearest("T", k=3, point=(1.0, 1.0))
    assert [r["oid"] for r in reply["results"]] == [
        o.oid for _d, o in expected
    ]
    assert [r["distance"] for r in reply["results"]] == [
        d for d, _o in expected
    ]


def test_aggregate_over_the_wire(served):
    _service, client, system = served
    full = client.run(system)
    reply = client.run(system, aggregate={"aggregates": [["count", None]]})
    assert reply["answers"][0]["count"] == full["count"]


def test_inline_binding_regions_over_the_wire(served):
    service, client, system = served
    # Ad-hoc constant regions (inline box lists) instead of stored
    # binding names: reuse the stored regions' own boxes, so the reply
    # must match the named-bindings run exactly.
    db, _v = service.store.current()
    inline = {
        name: [[list(b.lo), list(b.hi)] for b in region.boxes]
        for name, region in db.bindings.items()
    }
    named = client.run(system, bindings=["C", "A"])
    adhoc = client.run(system, bindings=inline)
    assert adhoc["count"] == named["count"]
    assert sorted(map(str, adhoc["answers"])) == sorted(
        map(str, named["answers"])
    )
    # A degenerate (empty) area makes the ground constraints
    # unsatisfiable — reported as a client error, not a 500.
    with pytest.raises(ServiceError, match="unsatisfiable") as exc_info:
        client.run(
            system,
            bindings=dict(inline, A=[[[0.0, 0.0], [0.0, 0.0]]]),
        )
    assert exc_info.value.status == 400


def test_error_mapping(served):
    _service, client, system = served
    with pytest.raises(ServiceError, match="no route"):
        client._request("GET", "/nope", None)
    with pytest.raises(ServiceError, match="unknown binding"):
        client.run(system, bindings=["Z"])
    with pytest.raises(ServiceError, match="needs a 'system'"):
        client._request("POST", "/run", {})
    with pytest.raises(ServiceError, match="ParseError"):
        client.run("this is not the Figure-1 syntax")
    try:
        client.run(system, bindings=["Z"])
    except ServiceError as exc:
        assert exc.status == 400


@pytest.mark.parametrize(
    "text",
    ["T <= " + "(" * 400 + "C" + ")" * 400, "~" * 2000 + "T != 0"],
    ids=["parentheses", "complements"],
)
def test_deep_nesting_is_a_400_not_a_500(served, text):
    """Both used to exhaust the parser's recursion: a 500 RecursionError.
    A constraint nested as deep as the parser goes still runs."""
    _service, client, system = served
    with pytest.raises(ServiceError, match="ParseError: nesting deeper") as exc_info:
        client.run(text)
    assert exc_info.value.status == 400
    deepest = "(" * MAX_DEPTH + "T" + ")" * MAX_DEPTH + " <= 1"  # always holds
    assert client.run(f"{system}\n{deepest}")["answers"] == client.run(system)["answers"]


@pytest.mark.parametrize("declared", ["abc", "-5", "1e3", "\xb2"])
def test_invalid_content_length_is_a_400_not_a_dropped_connection(
    served, declared
):
    """``int()`` of the raw header used to raise inside the connection
    callback: a traceback on the server, an empty reply to the client."""
    _service, client, _system = served
    request = (
        f"POST /run HTTP/1.1\r\nHost: x\r\nContent-Length: {declared}\r\n\r\n"
    ).encode("latin-1")
    with socket.create_connection((client.host, client.port), timeout=10) as sock:
        sock.sendall(request + b"{}")
        reply = b""
        while chunk := sock.recv(65536):  # until the server hangs up
            reply += chunk
    head, _sep, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 Bad Request")
    assert "Content-Length" in json.loads(body)["error"]
    # The server is unharmed: a well-formed request on a new connection.
    assert client.health()["ok"] is True


def _raw_post(client, path, body):
    """One POST over a raw socket: ``(status line, decoded JSON reply)``."""
    head = (
        f"POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode("latin-1")
    with socket.create_connection((client.host, client.port), timeout=10) as sock:
        sock.sendall(head + body)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    status, _sep, payload = reply.partition(b"\r\n\r\n")
    return status.split(b"\r\n")[0].decode("latin-1"), json.loads(payload)


def test_non_object_body_is_a_400_not_a_500(served):
    """``payload.get`` on a JSON array, string or number used to raise
    ``AttributeError`` in the handler: a 500."""
    _service, client, _system = served
    for path in ("/run", "/explain", "/nearest", "/insert", "/delete"):
        for body in (b"[1, 2]", b'"x"', b"3"):
            status, reply = _raw_post(client, path, body)
            assert status == "HTTP/1.1 400 Bad Request", (path, body)
            assert "JSON object" in reply["error"], (path, body)


def test_non_utf8_body_is_a_400_not_a_dropped_connection(served):
    """``json.loads`` raises ``UnicodeDecodeError``, not ``JSONDecodeError``,
    on bytes that are not UTF-8; it used to escape and drop the connection."""
    _service, client, _system = served
    status, reply = _raw_post(client, "/run", b'{"system": "\xff"}')
    assert status == "HTTP/1.1 400 Bad Request"
    assert "not valid JSON" in reply["error"]


@pytest.mark.parametrize(
    "key,value",
    [("shards", 4), ("spill", 1), ("vectorize", False), ("partitons", 4)],
)
def test_unknown_or_retired_option_is_a_400_naming_it(served, key, value):
    """Retired options (``shards``, ``spill``, ``vectorize``) and typos
    used to be dropped silently: a 200 with default execution."""
    _service, client, system = served
    for path in ("/run", "/explain"):
        body = json.dumps({"system": system, key: value}).encode()
        status, reply = _raw_post(client, path, body)
        assert status == "HTTP/1.1 400 Bad Request", path
        assert key in reply["error"], path
    with pytest.raises(ServiceError, match=key) as caught:
        client.run(system, **{key: value})
    assert caught.value.status == 400
    # ``analyze`` belongs to /explain alone.
    status, reply = _raw_post(
        client, "/run", json.dumps({"system": system, "analyze": True}).encode()
    )
    assert status == "HTTP/1.1 400 Bad Request" and "analyze" in reply["error"]
    assert "actual" in client.explain(system, analyze=True)["plan"]


@pytest.mark.parametrize(
    "options",
    [
        {"partitions": "8"},
        {"partitions": [1]},
        {"limit": "3"},
        {"limit": -1},
        {"join_strategy": 7},
        {"join_strategy": "bogus"},
        {"join_strategy": "pbsm", "mode": "exact"},
    ],
    ids=[
        "partitions-string",
        "partitions-list",
        "limit-string",
        "limit-negative",
        "join-number",
        "join-unknown",
        "join-in-exact-mode",
    ],
)
def test_malformed_session_option_is_a_400(served, options):
    """Each used to raise a bare ``TypeError`` or ``ValueError`` inside
    the handler: a 500.  The session's option check raises the typed
    ``OptionError`` on every query endpoint."""
    _service, client, system = served
    for path in ("/run", "/explain"):
        body = json.dumps({"system": system, **options}).encode()
        status, reply = _raw_post(client, path, body)
        assert status == "HTTP/1.1 400 Bad Request", path
        assert reply["error"].startswith("OptionError: "), path


@pytest.mark.parametrize(
    "fields,named",
    [
        ({"knn": {}}, "'knn'"),
        ({"knn": {"variable": "x", "k": "x"}}, "'k'"),
        ({"knn": 7}, "'knn'"),
        ({"aggregate": {}}, "'aggregates'"),
        ({"aggregate": {"aggregates": [[1]]}}, "'aggregates'"),
        ({"bindings": 7}, "'bindings'"),
        ({"system": None}, "'system'"),
    ],
    ids=["knn-empty", "knn-k-string", "knn-number", "aggregate-empty",
         "aggregate-short-pair", "bindings-number", "system-null"],
)
def test_malformed_query_field_is_a_400(served, fields, named):
    """Each used to escape the decoders as a bare ``KeyError``,
    ``ValueError``, ``TypeError`` or ``AttributeError``: a 500.  The
    field is checked where it is decoded, and the 400 names it."""
    _service, client, system = served
    for path in ("/run", "/explain"):
        body = json.dumps({"system": system, **fields}).encode()
        status, reply = _raw_post(client, path, body)
        assert status == "HTTP/1.1 400 Bad Request", path
        assert named in reply["error"], path


@pytest.mark.parametrize(
    "fields",
    [{"k": "abc"}, {"k": None}, {"k": [1]}, {"k": 2.5}, {"k": True}, {"access": "bogus"}],
    ids=["k-string", "k-null", "k-list", "k-float", "k-bool", "access-unknown"],
)
def test_malformed_nearest_input_is_a_400(served, fields):
    """``int()`` on ``k`` raised a 500 for a string, null or list and
    truncated a float or a bool to a row count; an unknown ``access``
    was a 500.  ``SpatialTable.nearest`` checks both."""
    _service, client, _system = served
    body = json.dumps({"table": "T", "point": [1.0, 1.0], **fields}).encode()
    status, reply = _raw_post(client, "/nearest", body)
    assert status == "HTTP/1.1 400 Bad Request"
    assert reply["error"].startswith("OptionError: ")


@pytest.mark.parametrize(
    "k, access, index",
    [
        (2.5, "auto", "rtree"),
        (True, "auto", "rtree"),
        ("3", "auto", "rtree"),
        (3, "bogus", "rtree"),
        (3, "bestfirst", "scan"),
    ],
    ids=["k-float", "k-bool", "k-string", "access-unknown", "bestfirst-on-scan"],
)
def test_malformed_nearest_options_are_option_errors(k, access, index):
    table = SpatialTable("x", 2, index=index)
    table.bulk_insert(
        [(i, Region.from_box(Box((i, i), (i + 1.0, i + 1.0)))) for i in range(4)]
    )
    with pytest.raises(OptionError):
        Session().nearest(table, (0.0, 0.0), k, access=access)


def test_a_huge_tile_target_answers_fast(served):
    """PBSM replicated boxes into every tile of the grid ``partitions``
    asked for: 100 000 tiles held a connection thread for over 20 s.
    The grid has at most one tile per input box, and the answers are
    those of the default tile count."""
    _service, client, system = served
    start = time.perf_counter()
    huge = client.run(system, join_strategy="pbsm", partitions=100_000)
    assert time.perf_counter() - start < 2.0
    default = client.run(system, join_strategy="pbsm", partitions=0)
    assert huge["answers"] == default["answers"] and huge["answers"]


@pytest.mark.parametrize("key,value", [("parallel", 2), ("parallel_kind", "process")])
def test_worker_pool_options_are_a_400_and_start_no_threads(key, value):
    """``parallel``/``parallel_kind`` were session options, so a remote
    client could install a thread or process pool in the server that
    lived until exit.  PBSM now sweeps serially: both keys are unknown."""
    service, system = _make_service()
    handle = serve_in_thread(service)
    client = ServiceClient(*handle.address, timeout=30.0)
    try:
        client.health()  # the connection's thread exists before counting
        before = threading.active_count()
        with pytest.raises(ServiceError, match=key) as caught:
            client.run(system, join_strategy="pbsm", partitions=4, **{key: value})
        assert caught.value.status == 400
        assert threading.active_count() == before
    finally:
        client.close()
        handle.stop()


def test_insert_over_the_wire_bumps_snapshot(served):
    service, client, system = served
    before = client.health()["snapshot"]
    count_before = client.run(system)["count"]
    # Clone an answering town's region under a new oid: the new town
    # must appear in the post-swap answers.
    db, _v = service.store.current()
    answer_town = Session(db=db).run(system).answers[0]["T"]
    reply = client.insert(
        "T",
        [
            {
                "oid": "wire-town",
                "boxes": [
                    [list(b.lo), list(b.hi)]
                    for b in answer_town.region.boxes
                ],
            }
        ],
    )
    assert reply["snapshot"] == before + 1
    assert reply["inserted"] == 1
    after = client.run(system)
    assert after["snapshot"] == before + 1
    assert after["count"] > count_before
    assert any("wire-town" in a.values() for a in after["answers"])


def test_concurrent_clients_during_wire_insert(served):
    service, client, system = served
    host, port = client.host, client.port
    errors, counts = [], []
    start = threading.Barrier(4)

    def requester():
        c = ServiceClient(host, port, timeout=30.0)
        try:
            start.wait(timeout=10)
            for _ in range(3):
                counts.append(c.run(system)["count"])
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)
        finally:
            c.close()

    def inserter():
        c = ServiceClient(host, port, timeout=30.0)
        try:
            start.wait(timeout=10)
            c.insert(
                "B",
                [{"oid": "noise", "boxes": [[[30.0, 30.0], [31.0, 31.0]]]}],
            )
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)
        finally:
            c.close()

    threads = [threading.Thread(target=requester) for _ in range(3)]
    threads.append(threading.Thread(target=inserter))
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors
    # Every request succeeded; the off-area insert never changes the
    # smugglers answer, whichever snapshot served it.
    assert len(counts) == 9
    assert len(set(counts)) == 1


def test_stats_payload_is_json_serializable(served):
    _service, client, system = served
    reply = client.explain(system, analyze=True)
    json.dumps(reply)  # no TypeError — everything is plain JSON


# -- delta mutations & background repack ---------------------------------------
def test_small_inserts_stage_in_delta_not_rebuild():
    """The apply_insert fast path is O(delta): N small inserts stay
    staged in the published clone's write delta (no base rebuild, no
    repack) while every one is immediately visible to readers."""
    service, system = _make_service(seed=7)
    db0, _v = service.store.current()
    base_version = db0.table("T")._version
    n = 6
    for i in range(n):
        service.apply_insert(
            "T", [(f"tiny-{i}", Region.from_box(Box((1, 1), (2, 2))))]
        )
    service.drain_repacks()
    db, _v = service.store.current()
    t = db.table("T")
    assert t._version == base_version  # the packed base was never rebuilt
    assert t.delta_pending_ops == n
    assert service.repacks == 0
    assert {f"tiny-{i}" for i in range(n)} <= {o.oid for o in t}


def test_insert_burst_triggers_at_most_one_repack():
    """Crossing the repack threshold folds the delta exactly once, in
    the background; the published table comes out packed and clean."""
    service, system = _make_service(seed=7)
    service.repack_threshold = 8
    before = len(service.store.current()[0].table("T"))
    for i in range(8):
        service.apply_insert(
            "T", [(f"burst-{i}", Region.from_box(Box((1, 1), (2, 2))))]
        )
    service.drain_repacks()
    assert service.repacks == 1
    db, _v = service.store.current()
    t = db.table("T")
    assert len(t) == before + 8
    assert not t.delta_pending  # the fold consumed every staged op


def test_delete_endpoint_tombstones_and_is_idempotent():
    service, system = _make_service(seed=7)
    db0, _v = service.store.current()
    victim = next(iter(db0.table("T"))).oid
    version, deleted = service.apply_delete("T", [victim, victim, "nope"])
    assert deleted == 1
    db, v_now = service.store.current()
    assert v_now == version
    assert victim not in {o.oid for o in db.table("T")}
    # Idempotent: a second delete of the same oid is a no-op swap-free.
    version2, deleted2 = service.apply_delete("T", [victim])
    assert deleted2 == 0 and version2 == version


def test_readers_pinned_across_background_repack_stay_bit_identical():
    """Readers pinned to a pre-repack snapshot keep answering from the
    delta-overlay tables, bit-identically, while the background repack
    builds and swaps the packed form; mutations staged mid-repack are
    replayed onto the packed table."""
    service, system = _make_service(seed=7)
    service.repack_threshold = 5
    for i in range(4):
        service.apply_insert(
            "T", [(f"pin-{i}", Region.from_box(Box((1, 1), (2, 2))))]
        )
    db_old, _v = service.store.current()
    baseline, _res = _local_tuples(db_old, system)
    # The fifth insert crosses the threshold and kicks the repack; a
    # sixth lands while it may still be running (the replay path).
    for i in range(4, 6):
        service.apply_insert(
            "T", [(f"pin-{i}", Region.from_box(Box((1, 1), (2, 2))))]
        )
    for _ in range(3):
        assert (
            _local_tuples(db_old, system)[0]
            == baseline
        )
    service.drain_repacks()
    assert service.repacks == 1
    db_new, _v = service.store.current()
    t = db_new.table("T")
    assert {f"pin-{i}" for i in range(6)} <= {o.oid for o in t}
    # And the pinned snapshot still answers bit-identically afterwards.
    assert _local_tuples(db_old, system)[0] == baseline


def test_delete_over_the_wire(served):
    service, client, system = served
    db, _v = service.store.current()
    victim = next(iter(db.table("T"))).oid
    before = client.health()["snapshot"]
    reply = client.delete("T", [victim, "no-such-row"])
    assert reply["snapshot"] == before + 1
    assert reply["deleted"] == 1 and reply["missing"] == 1
    stats = client.stats()
    assert stats["tables"]["T"]["delta_pending"] >= 1


# -- the wire: kept-alive connections, bounds, shutdown --------------------------
_HEALTH = b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n"


@pytest.fixture
def fresh():
    """A new service and server per test, so its wire counters start at 0."""
    service, system = _make_service()
    handle = serve_in_thread(service)
    yield service, handle, system
    handle.stop()


def _exchange_raw(address, data, half_close=False):
    """Send ``data`` on a new connection; the bytes read until the server
    hangs up."""
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(data)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        reply = b""
        try:
            while chunk := sock.recv(65536):
                reply += chunk
        except ConnectionResetError:
            pass  # the server closed with some of ``data`` unread
    return reply


def _split(reply):
    head, _sep, body = reply.partition(b"\r\n\r\n")
    return head, json.loads(body)


def _answers_on_a_new_connection(address):
    with ServiceClient(*address, timeout=10.0) as client:
        return client.health()["ok"] is True


def test_wire_counters_are_exact_under_concurrent_clients(fresh):
    """``requests`` used to be bumped unlocked, on the premise that one
    event-loop thread wrote it; every connection thread bumps it now."""
    service, handle, _system = fresh
    clients = [ServiceClient(*handle.address, timeout=30.0) for _ in range(4)]
    errors = []
    start = threading.Barrier(4)

    def hammer(client):
        try:
            start.wait(timeout=10)
            for _ in range(50):
                client.health()
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(c,)) for c in clients]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(t.is_alive() for t in threads)
    stats = clients[0].stats()
    assert (stats["requests"], stats["connections"]) == (201, 4)
    for client in clients:
        client.close()


@pytest.mark.parametrize(
    "data,what",
    [
        (b"GET /" + b"a" * 9000 + b" HTTP/1.1\r\n\r\n", "request line longer"),
        (_HEALTH[:-2] + b"X-Long: " + b"v" * 9000 + b"\r\n\r\n", "header line longer"),
        (
            _HEALTH[:-2] + b"".join(b"X-%d: 1\r\n" % i for i in range(101)) + b"\r\n",
            "more than 100 header lines",
        ),
    ],
    ids=["request-line", "header-line", "header-count"],
)
def test_oversized_head_is_a_400_and_close(served, data, what):
    _service, client, _system = served
    head, reply = _split(_exchange_raw((client.host, client.port), data))
    assert head.startswith(b"HTTP/1.1 400 Bad Request")
    assert b"\r\nConnection: close" in head
    assert what in reply["error"]
    assert _answers_on_a_new_connection((client.host, client.port))


def test_oversized_body_is_a_413_and_close_unread(served):
    """Only the head is sent: a server that read the declared body would
    wait for it and the read here would time out."""
    _service, client, _system = served
    declared = wire_module._MAX_BODY_BYTES + 1
    data = (
        f"POST /insert HTTP/1.1\r\nHost: x\r\nContent-Length: {declared}\r\n\r\n"
    ).encode("latin-1")
    head, reply = _split(_exchange_raw((client.host, client.port), data))
    assert head.startswith(b"HTTP/1.1 413 Payload Too Large")
    assert b"\r\nConnection: close" in head
    assert "cap" in reply["error"]
    assert _answers_on_a_new_connection((client.host, client.port))


def test_short_body_then_eof_runs_no_handler(served):
    service, client, _system = served
    before = (service.requests, service.store.version)
    body = json.dumps(
        {"table": "T", "rows": [{"oid": "cut", "boxes": [[[1, 1], [2, 2]]]}]}
    ).encode()
    data = (
        f"POST /insert HTTP/1.1\r\nHost: x\r\nContent-Length: {len(body) + 10}\r\n\r\n"
    ).encode("latin-1")
    reply = _exchange_raw((client.host, client.port), data + body, half_close=True)
    assert reply == b""  # dropped unanswered
    assert (service.requests, service.store.version) == before
    assert _answers_on_a_new_connection((client.host, client.port))


_INSERT_BODY = json.dumps(
    {"table": "T", "rows": [{"oid": "framed", "boxes": [[[1, 1], [2, 2]]]}]}
).encode()


@pytest.mark.parametrize(
    "data,what",
    [
        (
            # A chunked body used to run the handler on an empty payload;
            # the chunk was then read as a second request, and answered.
            b"POST /insert HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
            + b"%x\r\n" % len(_INSERT_BODY) + _INSERT_BODY + b"\r\n0\r\n\r\n",
            "Transfer-Encoding",
        ),
        (
            # The last Content-Length used to win, and the insert ran.
            b"POST /insert HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n"
            + b"Content-Length: %d\r\n\r\n" % len(_INSERT_BODY) + _INSERT_BODY,
            "repeated Content-Length",
        ),
    ],
    ids=["transfer-encoding", "repeated-content-length"],
)
def test_ambiguous_body_framing_is_a_400_and_close_running_no_handler(served, data, what):
    service, client, _system = served
    before = (service.requests, service.store.version)
    reply = _exchange_raw((client.host, client.port), data)
    assert reply.count(b"HTTP/1.1 ") == 1  # exactly one reply
    head, body = _split(reply)
    assert head.startswith(b"HTTP/1.1 400 Bad Request")
    assert b"\r\nConnection: close" in head
    assert what in body["error"]
    assert (service.requests, service.store.version) == before
    assert _answers_on_a_new_connection((client.host, client.port))


@pytest.mark.parametrize(
    "sent",
    [b"", b"POST /run HTTP/1.1\r\nContent-Length: 50\r\n\r\n{"],
    ids=["silent", "half-sent"],
)
def test_stalled_peer_is_dropped_and_frees_its_slot(fresh, monkeypatch, sent):
    """The only connection slot is held by a stalled peer: a new
    connection is answered 503 until the timeout drops the stalled one."""
    monkeypatch.setattr(server_module, "_CONNECTION_TIMEOUT_S", 1.0)
    monkeypatch.setattr(server_module, "_MAX_CONNECTIONS", 1)
    _service, handle, _system = fresh
    with socket.create_connection(handle.address, timeout=10) as stalled:
        stalled.sendall(sent)
        head, reply = _split(_exchange_raw(handle.address, _HEALTH))
        assert head.startswith(b"HTTP/1.1 503 Service Unavailable")
        assert "busy" in reply["error"]
        started = time.monotonic()
        assert stalled.recv(1) == b""  # dropped, unanswered
        assert time.monotonic() - started < 5.0
    assert _answers_on_a_new_connection(handle.address)


def test_connection_cap_counts_kept_alive_clients(fresh, monkeypatch):
    monkeypatch.setattr(server_module, "_MAX_CONNECTIONS", 2)
    _service, handle, _system = fresh
    with ServiceClient(*handle.address) as first, ServiceClient(*handle.address) as second:
        first.health()
        second.health()
        head, _reply = _split(_exchange_raw(handle.address, _HEALTH))
        assert head.startswith(b"HTTP/1.1 503 Service Unavailable")
        assert b"\r\nConnection: close" in head
        assert first.health()["ok"] and second.health()["ok"]  # unaffected


def test_one_client_keeps_one_connection(fresh):
    _service, handle, _system = fresh
    with ServiceClient(*handle.address) as client:
        for _ in range(100):
            client.health()
        stats = client.stats()
    assert (stats["requests"], stats["connections"]) == (101, 1)


def test_client_survives_a_server_idle_close(fresh, monkeypatch):
    monkeypatch.setattr(server_module, "_CONNECTION_TIMEOUT_S", 0.5)
    service, handle, _system = fresh
    with ServiceClient(*handle.address) as client:
        client.health()
        time.sleep(1.2)  # the server drops the idle connection meanwhile
        assert client.health()["ok"] is True  # retried on a new connection
    assert (service.requests, service.connections) == (2, 2)


def test_client_survives_a_connection_close_reply(fresh, monkeypatch):
    monkeypatch.setattr(wire_module, "_MAX_BODY_BYTES", 1024)
    service, handle, _system = fresh
    rows = [{"oid": f"big-{i}", "boxes": [[[1.0, 1.0], [2.0, 2.0]]]} for i in range(64)]
    with ServiceClient(*handle.address) as client:
        client.health()
        with pytest.raises(ServiceError, match="cap") as caught:
            client.insert("T", rows)  # 413 + Connection: close
        assert caught.value.status == 413
        assert client.health()["ok"] is True
    assert (service.requests, service.connections) == (2, 2)


def test_handler_errors_keep_the_connection(fresh):
    service, handle, system = fresh
    with ServiceClient(*handle.address) as client:
        with pytest.raises(ServiceError) as caught:
            client.run(system, bindings=["Z"])
        assert caught.value.status == 400
        with pytest.raises(ServiceError) as caught:
            client._request("GET", "/nope", None)
        assert caught.value.status == 404
        assert client.health()["ok"] is True
    assert (service.requests, service.connections) == (3, 1)


def test_shared_client_returns_each_thread_its_own_reply(fresh):
    service, handle, _system = fresh
    table = service.store.current()[0].table("T")
    points = [obj.box.center() for obj in list(table)[:4]]
    expected = [[o.oid for _d, o in table.nearest(p, 3)] for p in points]
    assert len({tuple(oids) for oids in expected}) == 4
    errors, matches = [], []
    start = threading.Barrier(4)
    with ServiceClient(*handle.address) as client:

        def ask(i):
            try:
                start.wait(timeout=10)
                for _ in range(25):
                    reply = client.nearest("T", k=3, point=points[i])
                    matches.append([r["oid"] for r in reply["results"]] == expected[i])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=ask, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    assert not errors and not any(t.is_alive() for t in threads)
    assert len(matches) == 100 and all(matches)
    assert service.connections == 1


_HEAD = b"HTTP/1.1 200 OK\r\n"


def _reply(body=b'{"ok": true}', extra=b""):
    return _HEAD + b"Content-Length: %d\r\n" % len(body) + extra + b"\r\n" + body


class _StubServer:
    """A raw-socket server scripted per request: it reads a request, sends
    the next ``(bytes, close)`` of ``script`` and hangs up if ``close``;
    past the script it answers ``{"ok": true}`` and keeps the connection."""

    def __init__(self, *script):
        self.script = iter(script)
        self.paths, self.connections = [], 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()[:2]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _peer = self._listener.accept()
            except OSError:
                return  # closed by __exit__
            self.connections += 1
            with conn, conn.makefile("rb") as rfile, contextlib.suppress(OSError):
                while (request := wire_module.read_request(rfile)) is not None:
                    self.paths.append(request[1])
                    data, close = next(self.script, (_reply(), False))
                    conn.sendall(data)
                    if close:
                        break

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
        self._listener.close()
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()


@pytest.mark.parametrize(
    "sent,error,match",
    [
        (b"HTTP/1.1 200 " + b"x" * 9000 + b"\r\n\r\n", ServiceError, "status line longer"),
        (_HEAD + b"X-Long: " + b"v" * 9000 + b"\r\n\r\n", ServiceError, "header line longer"),
        (
            _HEAD + b"".join(b"X-%d: 1\r\n" % i for i in range(101)) + b"\r\n",
            ServiceError,
            "more than 100 header lines",
        ),
        (
            _HEAD + b"Content-Length: %d\r\n\r\n" % (wire_module._MAX_BODY_BYTES + 1),
            ServiceError,
            "cap",
        ),
        (_HEAD + b"\r\n{}", ServiceError, "without a Content-Length"),
        (_HEAD + b"Content-Length: abc\r\n\r\n{}", ServiceError, "invalid Content-Length"),
        (_reply(extra=b"Content-Length: 12\r\n"), ServiceError, "repeated Content-Length"),
        (_reply(extra=b"Transfer-Encoding: chunked\r\n"), ServiceError, "Transfer-Encoding"),
        (_HEAD + b"Content-Length: 50\r\n\r\n{", ConnectionError, "mid-reply"),
        (b"garbage\r\n\r\n", ServiceError, "malformed status line"),
    ],
    ids=[
        "status-line", "header-line", "header-count", "body-cap", "no-length",
        "bad-length", "repeated-length", "transfer-encoding", "eof-in-body", "garbage",
    ],
)
def test_client_bounds_a_broken_reply(sent, error, match):
    """The server's wire bounds hold for replies: a broken one raises at
    once — the stub keeps its end open, so a client that read on would
    time out instead — and the next call opens a fresh connection."""
    with _StubServer((sent, error is ConnectionError)) as stub:  # EOF: hang up
        with ServiceClient(*stub.address, timeout=5.0) as client:
            started = time.monotonic()
            with pytest.raises(error, match=match):
                client.health()
            assert time.monotonic() - started < 2.5
            assert client.health() == {"ok": True}
        assert (stub.paths, stub.connections) == (["/health", "/health"], 2)


def test_client_never_retries_on_a_fresh_connection():
    """The stub reads the ``/insert`` and hangs up unanswered: on a fresh
    connection that is raised, so the insert reaches the server once."""
    with _StubServer((b"", True)) as stub:
        with ServiceClient(*stub.address, timeout=5.0) as client:
            with pytest.raises(ConnectionResetError):
                client.insert("T", [])
            assert client.health() == {"ok": True}
        assert (stub.paths, stub.connections) == (["/insert", "/health"], 2)


@pytest.mark.parametrize(
    "cut,error",
    [(b"HTTP/1.1 20", ServiceError), (_HEAD + b"Content-Type: text/plain\r\n", ConnectionError)],
    ids=["in-status-line", "in-headers"],
)
def test_client_never_retries_once_a_reply_started(cut, error):
    """EOF inside a reply on a *reused* connection is raised: the request
    was read, so resending it could run it twice."""
    with _StubServer((_reply(), False), (cut, True)) as stub:
        with ServiceClient(*stub.address, timeout=5.0) as client:
            client.health()
            with pytest.raises(error):
                client.insert("T", [])
        assert (stub.paths, stub.connections) == (["/health", "/insert"], 1)


def test_client_speaks_plain_http11_to_a_stdlib_server():
    """20 calls against ``http.server`` share one kept-alive connection
    and each gets its own reply (the CLI test drives the reverse
    direction: ``http.client`` against this server)."""
    connections = []

    class Echo(http.server.BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self):
            super().setup()
            connections.append(self.client_address)

        def _answer(self, payload):
            data = json.dumps({"path": self.path, "payload": payload}).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            self._answer(None)

        def do_POST(self):
            self._answer(json.loads(self.rfile.read(int(self.headers["Content-Length"]))))

        def log_message(self, *args):
            pass

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Echo)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with ServiceClient(*server.server_address[:2], timeout=10.0) as client:
            for i in range(10):
                assert client.health() == {"path": "/health", "payload": None}
                assert client.nearest("T", k=i + 1, point=(i, -i)) == {
                    "path": "/nearest",
                    "payload": {"table": "T", "k": i + 1, "access": "auto", "point": [i, -i]},
                }
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert len(connections) == 1


def test_stop_ends_kept_alive_connections_and_joins_threads():
    service, _system = _make_service()
    handle = serve_in_thread(service)
    name = f"repro-service:{handle.address[1]}"

    def server_threads():
        return [
            t for t in threading.enumerate()
            if t.name == name or t.name.startswith(name + "/")
        ]

    clients = [ServiceClient(*handle.address, timeout=5.0) for _ in range(2)]
    for client in clients:
        client.health()
    assert len(server_threads()) == 3  # the accept loop + two connections
    handle.stop()
    assert server_threads() == []
    started = time.monotonic()
    for client in clients:
        with pytest.raises(OSError):
            client.health()
        client.close()
    assert time.monotonic() - started < 5.0


_SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize(
    "signum,returncode",
    [(signal.SIGINT, 0), (signal.SIGTERM, -signal.SIGTERM)],
    ids=["SIGINT", "SIGTERM"],
)
def test_cli_serve_keeps_alive_and_ends_on_signals(tmp_path, signum, returncode):
    """``python -u -m repro serve`` prints the line the e2e service
    workload parses, answers two requests on one connection, and ends on
    SIGINT (exit 0, a live connection open) and on SIGTERM."""
    query, _map = smugglers_query(seed=2)
    path = tmp_path / "snapshot.json"
    Database.from_query(query).save(str(path))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_SRC), env.get("PYTHONPATH")) if p
    )
    # A child inherits an ignored SIGINT, and Python then installs no
    # KeyboardInterrupt handler: give the child the default disposition.
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", str(path), "--port", "0"],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        signal.signal(signal.SIGINT, previous)
    watchdog = threading.Timer(60.0, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        match = re.fullmatch(r"serving 3 tables on http://([^:\s]+):(\d+)\n", line)
        assert match, line
        conn = http.client.HTTPConnection(match.group(1), int(match.group(2)), timeout=10)
        conn.request("GET", "/health")
        assert json.loads(conn.getresponse().read())["ok"] is True
        conn.request("GET", "/stats")
        stats = json.loads(conn.getresponse().read())
        assert (stats["requests"], stats["connections"]) == (2, 1)
        proc.send_signal(signum)
        assert proc.wait(timeout=10) == returncode
        conn.close()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()

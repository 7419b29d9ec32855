"""The unified ``Database``/``Session`` facade (ISSUE satellite 1/2/3).

Covers: parity with the low-level entry points, the uniform option
vocabulary, deprecation shims (warn **and** return identical results),
JSON round trips for the stats dataclasses, and the probe-cache purge
hook the service's snapshot swap relies on.
"""

import json

import pytest

from repro.boxes.bconstraints import BoxQuery
from repro.database import Database, Session
from repro.database import SESSION_OPTIONS
from repro.algebra.regions import Region
from repro.boxes.box import Box
from repro.constraints.examples import SMUGGLERS_ORDER, smugglers_system
from repro.datagen.workloads import overlay_query, smugglers_query
from repro.engine.compiler import compile_query
from repro.engine.executor import (
    answers_as_oid_tuples,
    execute,
)
from repro.engine.stats import ExecutionStats
from repro.spatial.table import SpatialTable
from repro.spatial.rtree import RTreeStats


@pytest.fixture()
def workload():
    return smugglers_query(seed=2)


@pytest.fixture()
def db(workload):
    query, map_ = workload
    database = Database(tables=query.tables, bindings=query.bindings)
    return database


def _baseline(query, mode="boxplan"):
    plan = compile_query(query)
    answers, stats = execute(plan, mode)
    return answers_as_oid_tuples(answers, plan.order), stats


# -- Database ------------------------------------------------------------------
def test_database_query_resolves_stored_bindings(db, workload):
    query, _map = workload
    built = db.query(str(query.system))
    assert set(built.tables) == set(query.tables)
    assert set(built.bindings) == set(query.bindings)
    assert built.order is None  # planned later, by the Session


def test_database_query_binding_override(db, workload):
    query, _map = workload
    tiny = Region.from_box(Box((0.0, 0.0), (0.5, 0.5)))
    built = db.query(str(query.system), bindings={"A": tiny})
    assert built.bindings["A"] == tiny
    assert built.bindings["C"] == query.bindings["C"]


def test_database_table_lookup_error_names_known(db):
    with pytest.raises(KeyError, match="known tables"):
        db.table("nope")


def test_create_attach_bind():
    database = Database()
    t = database.create_table("pts", 2, index="scan")
    assert database.table("pts") is t
    other = SpatialTable("other", 2, index="scan")
    database.attach(other)
    assert database.table("other") is other
    database.bind("Q", Region.from_box(Box((0, 0), (1, 1))))
    assert "Q" in database.bindings


def test_from_query_round_trip(workload):
    query, _map = workload
    database = Database.from_query(query)
    assert database.tables is not query.tables  # defensive copy
    assert database.tables == dict(query.tables)


# -- Session parity with execute() ---------------------------------------------
@pytest.mark.parametrize("mode", ["naive", "exact", "boxonly", "boxplan"])
def test_session_run_matches_execute(workload, mode):
    query, _map = workload
    expected, expected_stats = _baseline(query, mode)
    result = Session().run(query, mode=mode)
    assert result.oid_tuples() == expected
    assert result.stats.to_dict() == expected_stats.to_dict()
    assert result.total_s is not None and result.total_s >= 0


def test_session_text_query_matches_execute(db, workload):
    query, _map = workload
    result = db.session().run(str(query.system))
    # The session plans its own retrieval order; compare both runs in
    # the same fixed projection.
    expected = answers_as_oid_tuples(
        execute(compile_query(query), "boxplan")[0], SMUGGLERS_ORDER
    )
    assert result.oid_tuples(SMUGGLERS_ORDER) == expected


def test_session_result_unpacks_like_pair(workload):
    query, _map = workload
    answers, stats = Session().run(query)
    assert isinstance(stats, ExecutionStats)
    assert len(answers) == stats.tuples_emitted


def test_session_limit(workload):
    query, _map = workload
    full = Session().run(query)
    limited = Session().run(query, limit=2)
    assert len(limited.answers) == min(2, len(full.answers))
    assert set(limited.oid_tuples()) <= set(full.oid_tuples())


def test_session_defaults_and_override(workload):
    query, _map = workload
    session = Session(limit=1)
    assert len(session.run(query).answers) == 1
    assert len(session.run(query, limit=None).answers) >= 1


def test_session_rejects_unknown_option():
    with pytest.raises(TypeError, match="unknown session option"):
        Session(modee="boxplan")


def test_session_rejects_retired_scale_out_options(db, workload):
    """PR 21 deleted the second STR split and its two options."""
    with pytest.raises(TypeError, match="unknown session option"):
        Session(shards=2)
    with pytest.raises(TypeError):
        db.session().run(str(workload[0].system), spill=8)


def test_session_rejects_worker_pool_options(db, workload):
    """PBSM sweeps its tiles serially: there is no pool to size."""
    with pytest.raises(TypeError, match="parallel"):
        Session(parallel=2)
    with pytest.raises(TypeError, match="parallel_kind"):
        Session(parallel_kind="process")
    with pytest.raises(TypeError):
        db.session().run(str(workload[0].system), parallel=2)


def test_session_partitioned_matches_serial(workload):
    query, _map = workload
    expected, _stats = _baseline(query)
    for kwargs in (
        {"partitions": 4},
        {"join_strategy": "pbsm", "partitions": 4},
    ):
        result = Session().run(query, **kwargs)
        assert result.oid_tuples() == expected, kwargs


def test_per_call_partitions_reach_the_planner(db, workload):
    """Regression: a per-call ``partitions=N`` once lost to the session
    default.  It is PBSM's tile target, which ``"auto"`` prices in
    ``choose_join_strategies``."""
    from unittest import mock

    from repro.engine import planner

    query, _map = workload
    text = str(query.system)
    per_call = db.session(join_strategy="auto")
    per_session = db.session(join_strategy="auto", partitions=8)
    for call, extra in (("run", {}), ("explain", {}), ("explain", {"analyze": True})):
        with mock.patch.object(
            planner, "choose_join_strategies", wraps=planner.choose_join_strategies
        ) as spy:
            getattr(per_call, call)(text, partitions=8, **extra)
            getattr(per_session, call)(text, **extra)
            getattr(per_session, call)(text, partitions=0, **extra)
        assert [c.kwargs["partitions"] for c in spy.call_args_list] == [
            8,
            8,
            0,
        ], call
    assert per_call.explain(text, partitions=8) == per_session.explain(text)
    assert (
        per_call.run(text, partitions=8).order == per_session.run(text).order
    )


@pytest.mark.parametrize(
    "query",
    [
        smugglers_query(seed=2, index="scan")[0],
        overlay_query(200, 200, seed=0),
    ],
    ids=["smugglers-scan", "overlay-200"],
)
def test_partitions_alone_keep_every_step_on_probe(query):
    """``partitions=`` only sizes PBSM's tiles: with no ``join_strategy``
    every step probes, in the order and with the answers of
    ``partitions=0``."""
    db = Database.from_query(query)
    text = str(query.system)
    plain, tiled = db.session().run(text), db.session(partitions=8).run(text)
    assert tiled.order == plain.order
    assert [
        {v: row.oid for v, row in answer.items()} for answer in tiled.answers
    ] == [{v: row.oid for v, row in answer.items()} for answer in plain.answers]
    assert tiled.stats.to_dict() == plain.stats.to_dict()
    probes = ", ".join(f"{v}=probe" for v in plain.order)
    assert f"partitions=8  joins: {probes}" in db.session(partitions=8).explain(text)


def test_session_reports_planning_time(db, workload):
    query, _map = workload
    result = db.session().run(str(query.system))
    assert result.plan_s is not None and result.plan_s > 0
    assert result.total_s is not None and result.total_s >= 0
    # A compiled plan has nothing left to plan but the physical build.
    plan = compile_query(query)
    assert db.session().run(plan).plan_s < result.plan_s
    assert db.session().explain(str(query.system), analyze=True)["plan_s"] > 0


def test_session_text_needs_db():
    with pytest.raises(ValueError, match="needs a Database"):
        Session().run("u sect v ~= 0;")


def test_session_explain_and_analyze(db, workload):
    query, _map = workload
    text = db.session().explain(str(query.system))
    assert "Probe" in text or "Scan" in text
    analyzed = db.session().explain(str(query.system), analyze=True)
    assert "actual" in analyzed["plan"]


def test_analyzed_explain_honours_limit():
    """The analysed explain drained every answer whatever ``limit``
    said: the top ExactFilter read ``actual: rows=32`` where
    ``run(limit=1)`` stops after 1 answer and 4 partial tuples."""
    session = Database.from_query(overlay_query(60, 60, seed=0)).session(limit=1)
    report = session.explain("x & y !<= 0", order=("x", "y"), analyze=True)
    limited = session.run("x & y !<= 0", order=("x", "y"))
    assert report["stats"] == limited.stats.to_dict()
    assert report["count"] == len(limited.answers) == 1
    assert limited.stats.partial_tuples == 4
    assert "actual: rows=1 " in report["plan"].splitlines()[1]


def test_session_bench_payload_round_trips(db, workload):
    """The analysed explain's report round-trips through JSON."""
    query, _map = workload
    payload = db.session().explain(str(query.system), analyze=True)
    assert payload["count"] == payload["stats"]["tuples_emitted"]
    # The stats block is the JSON-round-trippable ExecutionStats.
    restored = ExecutionStats.from_dict(
        json.loads(json.dumps(payload["stats"]))
    )
    assert restored.to_dict() == payload["stats"]
    assert {s.variable for s in restored.steps} == set(query.tables)
    assert json.loads(json.dumps(payload)) == payload


def test_session_aggregate_count(db, workload):
    query, _map = workload
    expected, _stats = _baseline(query)
    result = db.session().aggregate(str(query.system))
    assert result.answers[0].as_dict()["count"] == len(expected)


def test_session_nearest_matches_table(db, workload):
    query, _map = workload
    table = query.tables["T"]
    expected = table.nearest((1.0, 1.0), 3)
    got = db.session().nearest("T", (1.0, 1.0), 3)
    assert [(d, o.oid) for d, o in got] == [
        (d, o.oid) for d, o in expected
    ]
    with pytest.raises(ValueError, match="needs a Database"):
        Session().nearest("T", (1.0, 1.0), 3)


# -- retired options -----------------------------------------------------------
@pytest.mark.parametrize("option", ["vectorize", "shards", "spill"])
def test_retired_session_options_are_type_errors(option):
    """One execution path per platform: no option picks another."""
    assert SESSION_OPTIONS == ("mode", "join_strategy", "partitions", "limit")
    with pytest.raises(TypeError, match=option):
        Session(**{option: False})
    with pytest.raises(TypeError):
        Session().run(smugglers_query(seed=2)[0], **{option: False})


# -- stats JSON round trips ----------------------------------------------------
def test_execution_stats_round_trip(workload):
    query, _map = workload
    _answers, stats = execute(compile_query(query), "boxplan")
    data = json.loads(json.dumps(stats.to_dict()))
    restored = ExecutionStats.from_dict(data)
    assert restored.to_dict() == stats.to_dict()
    assert [s.variable for s in restored.steps] == [
        s.variable for s in stats.steps
    ]


def test_rtree_stats_round_trip(workload):
    query, _map = workload
    table = query.tables["T"]
    table.range_query(BoxQuery(overlap=(Box((0, 0), (32, 32)),)))
    stats = table._rtree.stats
    restored = RTreeStats.from_dict(json.loads(json.dumps(stats.to_dict())))
    assert restored == stats
    assert restored.node_reads == stats.node_reads


# -- smugglers text round trip (the service's wire format) ---------------------
def test_system_text_round_trips_through_parser(db):
    from repro.constraints.parser import parse_system

    system = smugglers_system()
    assert str(parse_system(str(system))) == str(system)

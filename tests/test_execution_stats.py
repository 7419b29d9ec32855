"""ExecutionStats consistency: every executor mode fills every counter.

The ISSUE-1 fix: ``index_probes`` and ``node_reads`` must aggregate
r-tree reads uniformly across all four executor modes (``boxonly`` and
``naive`` used to leave step counters partially unfilled).
"""

import pytest

from repro.datagen.workloads import smugglers_query
from repro.engine.compiler import compile_query
from repro.engine.executor import MODES, execute
from repro.engine.physical import build_physical_plan
from repro.engine.stats import ExecutionStats


@pytest.fixture(scope="module")
def plan():
    query, _world = smugglers_query(
        seed=5, n_towns=10, n_roads=10, states_grid=(2, 2)
    )
    return compile_query(query)


@pytest.mark.parametrize("mode", MODES)
def test_every_step_filled(plan, mode):
    _answers, stats = execute(plan, mode)
    assert stats.mode == mode
    assert len(stats.steps) == 3
    for step in stats.steps:
        assert step.variable
        assert step.index_probes >= 1
        assert step.node_reads >= 0
        assert step.survivors <= step.candidates


@pytest.mark.parametrize("mode", MODES)
def test_aggregates_are_step_sums(plan, mode):
    _answers, stats = execute(plan, mode)
    assert stats.index_probes == sum(s.index_probes for s in stats.steps)
    assert stats.node_reads == sum(s.node_reads for s in stats.steps)
    d = stats.as_dict()
    assert d["index_probes"] == stats.index_probes
    assert d["node_reads"] == stats.node_reads


def test_box_modes_read_index_nodes(plan):
    """The box modes probe the r-tree; the scan modes never touch it."""
    for mode in ("boxplan", "boxonly"):
        _answers, stats = execute(plan, mode)
        assert stats.node_reads > 0, mode
    for mode in ("naive", "exact"):
        _answers, stats = execute(plan, mode)
        assert stats.node_reads == 0, mode


def test_node_reads_match_table_deltas():
    """Executor-attributed reads equal the tables' own counters."""
    query, _world = smugglers_query(
        seed=7, n_towns=10, n_roads=10, states_grid=(2, 2)
    )
    plan = compile_query(query)
    for t in query.tables.values():
        t.reset_stats()
    _answers, stats = execute(plan, "boxplan")
    table_total = sum(
        t.index_read_count() for t in query.tables.values()
    )
    assert stats.node_reads == table_total


def test_probe_counts_per_mode(plan):
    """Scan modes issue one probe per step; box modes one per partial."""
    _answers, naive_stats = execute(plan, "naive")
    assert all(s.index_probes == 1 for s in naive_stats.steps)
    _answers, box_stats = execute(plan, "boxplan")
    # First step has no prefix: exactly one probe.
    assert box_stats.steps[0].index_probes == 1
    assert box_stats.index_probes >= 3


def test_serial_plans_report_no_exchange(plan):
    """PBSM sweeps its tiles serially: the stats, their dict forms and
    the summary line carry no exchange (worker-pool) fields at all."""
    pplan = build_physical_plan(plan, "boxplan", partitions=4, join_strategy="pbsm")
    pplan.run()
    stats = pplan.stats()
    assert not any(name.startswith("exchange") for name in vars(stats))
    for d in (stats.to_dict(), stats.as_dict()):
        assert not any(k.startswith("exchange_") for k in d)
    assert "exchange=" not in stats.summary()


def test_exchange_fields_roundtrip_serialization(plan):
    """to_dict -> from_dict round-trips exactly, and a stats payload from
    a server that still reports the retired worker-pool fields
    (``exchange_kind``/``_workers``/``_fallbacks``) decodes to the same
    stats as one without them."""
    pplan = build_physical_plan(plan, "boxplan", partitions=4, join_strategy="pbsm")
    pplan.run()
    stats = pplan.stats()
    current = stats.to_dict()
    assert ExecutionStats.from_dict(current) == stats
    old_reply = dict(
        current, exchange_kind="thread", exchange_workers=2, exchange_fallbacks=0
    )
    decoded = ExecutionStats.from_dict(old_reply)
    assert decoded == stats
    assert decoded.to_dict() == current

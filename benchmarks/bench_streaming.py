"""E12 — first-answer latency: streaming vs batch execution.

The paper's incremental construction naturally pipelines, and the
operator-tree engine makes that literal: every operator is a pull-based
iterator, so the first solution tuples are reported long before the
search space is exhausted.  This bench measures time-to-first-answer
(``execute_iter(..., limit=1)``) against full materialization, plus the
index-probe gap.
"""

from time import perf_counter

from benchmarks.conftest import report
from repro import Session
from repro.datagen import smugglers_query
from repro.engine import (
    build_physical_plan,
    compile_query,
    execute,
    execute_iter,
)


def _plan():
    q, _ = smugglers_query(
        seed=31, n_towns=40, n_roads=40, states_grid=(3, 3)
    )
    return q, compile_query(q)


def test_batch_all_answers(benchmark):
    q, plan = _plan()
    answers, stats = benchmark(execute, plan, "boxplan")
    benchmark.extra_info["tuples"] = len(answers)


def test_streaming_first_answer(benchmark):
    q, plan = _plan()
    got = benchmark(lambda: list(execute_iter(plan, "boxplan", limit=1)))
    assert len(got) == 1


def test_streaming_all_answers(benchmark):
    q, plan = _plan()
    streamed = benchmark(lambda: list(execute_iter(plan, "boxplan")))
    batch, _ = execute(plan, "boxplan")
    assert len(streamed) == len(batch)


def test_time_to_first_answer_vs_total():
    """Report E12's headline: the first answer arrives in a fraction of
    the full-materialization time (best of 5 runs each)."""
    q, plan = _plan()
    pplan = build_physical_plan(plan, "boxplan", estimate=False)

    def once_first():
        start = perf_counter()
        got = next(iter(pplan.execute_iter(limit=1)), None)
        assert got is not None, "workload has no answers"
        return perf_counter() - start

    def once_total():
        start = perf_counter()
        list(pplan.execute_iter())
        return perf_counter() - start

    first = min(once_first() for _ in range(5))
    total = min(once_total() for _ in range(5))
    report(
        "E12: time to first answer",
        [
            {
                "first_answer_ms": round(first * 1e3, 3),
                "all_answers_ms": round(total * 1e3, 3),
                "ratio": round(first / total, 4),
            }
        ],
        ["first_answer_ms", "all_answers_ms", "ratio"],
    )
    assert first < total


def test_probe_comparison(benchmark):
    q, plan = _plan()
    for t in q.tables.values():
        t.reset_stats()
    Session().run(plan, limit=1)
    probes_first = sum(t.probes for t in q.tables.values())
    for t in q.tables.values():
        t.reset_stats()
    execute(plan, "boxplan")
    probes_batch = sum(t.probes for t in q.tables.values())
    report(
        "E12: index probes",
        [
            {"strategy": "first answer (streaming)", "probes": probes_first},
            {"strategy": "all answers (batch)", "probes": probes_batch},
        ],
        ["strategy", "probes"],
    )
    assert probes_first <= probes_batch


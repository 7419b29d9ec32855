#!/usr/bin/env python
"""CI benchmark smoke: machine-independent counters → ``BENCH_ci.json``.

Runs a reduced-scale version of the headline join-scaling benchmark
and writes the paper's cost counters (partial tuples, region ops, index node reads) to a JSON
artifact that CI uploads on every run — the perf trajectory the ROADMAP
asks for.

Two acceptance gates are enforced (non-zero exit on failure; the
planner no-regression gate, the STR node-read gate and the PBSM
exact-test gate that used to sit here are tier-1 exact-count tests,
``tests/test_planner_cost.py``,
``tests/test_rtree_variants.py::TestSTRReadGate`` — which holds the
packed reads to the insertion-tree reads recorded before that tree was
deleted — and ``tests/test_partition.py::TestPBSMExactCounts``):

1. streaming: ``execute_iter(..., limit=1)`` yields the first answer in
   under 25% of the full-materialization time at the smoke scale (the
   operator tree pipelines instead of materializing levels);
2. probe cache: re-running a query through a shared ``ProbeCache`` hits
   on ≥ 90% of its index probes and costs zero index node reads.

Usage::

    python benchmarks/ci_smoke.py [--out BENCH_ci.json] [--full]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (_REPO, os.path.join(_REPO, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro.datagen import smugglers_query  # noqa: E402
from repro.engine import (  # noqa: E402
    ProbeCache,
    build_physical_plan,
    compile_query,
    execute,
)


def _run_join(size: int, mode: str) -> dict:
    query, _world = smugglers_query(
        seed=size, n_towns=size, n_roads=size, states_grid=(3, 3)
    )
    plan = compile_query(query)
    _answers, stats = execute(plan, mode)
    counters = stats.to_dict()  # the JSON-round-trippable form
    counters.pop("steps", None)  # keep artifact rows flat
    return {"size": size, **counters}


def join_scaling_section(full: bool) -> list:
    sizes = [8, 16, 24] if full else [8, 16]
    rows = []
    for size in sizes:
        for mode in ("naive", "exact", "boxplan"):
            if mode == "naive" and size > 8:
                continue  # minutes of cross-product work; shape visible at 8
            rows.append(_run_join(size, mode))
    return rows


def streaming_section(full: bool) -> dict:
    """Time-to-first-answer vs full materialization (best of 5 each).

    The smoke scale is chosen so the full run takes tens of
    milliseconds — large enough that the <25% gate has headroom over
    timer noise, small enough for CI.  It was regrown (40 towns and
    roads on a 3x3 grid drained in 4-5 ms once the front end and the
    operators got faster, and the ratio read 0.21-0.24): 280 on a 4x4
    grid drains in ~35 ms, first answer ~0.5 ms.
    """
    from time import perf_counter

    n = 400 if full else 280
    query, _world = smugglers_query(
        seed=13, n_towns=n, n_roads=n, states_grid=(4, 4)
    )
    plan = compile_query(query)
    pplan = build_physical_plan(plan, "boxplan", estimate=False)

    def time_first() -> float:
        start = perf_counter()
        got = next(iter(pplan.execute_iter(limit=1)), None)
        assert got is not None, "streaming smoke workload has no answers"
        return perf_counter() - start

    def time_total() -> float:
        start = perf_counter()
        list(pplan.execute_iter())
        return perf_counter() - start

    first = min(time_first() for _ in range(5))
    total = min(time_total() for _ in range(5))
    answers = len(list(pplan.execute_iter()))
    return {
        "size": n,
        "answers": answers,
        "first_answer_ms": round(first * 1e3, 3),
        "all_answers_ms": round(total * 1e3, 3),
        "ratio": round(first / total, 4) if total else 0.0,
    }


def probe_cache_section(full: bool) -> dict:
    """The repeated-query scenario: identical plan executed twice
    through one shared cache; the warm run must be all hits."""
    n = 30 if full else 20
    query, _world = smugglers_query(
        seed=21, n_towns=n, n_roads=n, states_grid=(3, 3)
    )
    plan = compile_query(query)
    cache = ProbeCache(maxsize=4096)
    answers_cold, cold = execute(plan, "boxplan", cache=cache)
    answers_warm, warm = execute(plan, "boxplan", cache=cache)
    assert len(answers_warm) == len(answers_cold)
    return {
        "size": n,
        "answers": len(answers_warm),
        "cold_node_reads": cold.node_reads,
        "warm_node_reads": warm.node_reads,
        "cold_hit_rate": round(cold.cache_hit_rate, 4),
        "warm_hit_rate": round(warm.cache_hit_rate, 4),
        "cache_entries": len(cache),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="benchmarks/out/BENCH_ci.json")
    parser.add_argument(
        "--full",
        action="store_true",
        help="full-scale run (CI uses the reduced default)",
    )
    args = parser.parse_args(argv)

    result = {
        "python": platform.python_version(),
        "scale": "full" if args.full else "reduced",
        "join_scaling": join_scaling_section(args.full),
        "streaming": streaming_section(args.full),
        "probe_cache": probe_cache_section(args.full),
    }
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=2)
    print(f"wrote {args.out}")

    failures = []
    stream = result["streaming"]
    print(
        f"streaming: first answer {stream['first_answer_ms']}ms vs "
        f"{stream['all_answers_ms']}ms for all {stream['answers']} "
        f"({stream['ratio']:.1%} of full materialization)"
    )
    if stream["ratio"] >= 0.25:
        failures.append(
            f"first answer took {stream['first_answer_ms']}ms, "
            f"{stream['ratio']:.1%} of the {stream['all_answers_ms']}ms full "
            "materialization; the streaming gate requires < 25%"
        )
    pc = result["probe_cache"]
    print(
        f"probe cache: warm run hit rate {pc['warm_hit_rate']:.1%}, "
        f"node reads {pc['cold_node_reads']} -> {pc['warm_node_reads']}"
    )
    if pc["warm_hit_rate"] < 0.90:
        failures.append(
            f"warm probe-cache hit rate {pc['warm_hit_rate']:.1%} is "
            "below the 90% bar"
        )
    if pc["warm_node_reads"] >= max(1, pc["cold_node_reads"]):
        failures.append(
            "probe cache did not reduce node reads on the repeated query"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("all benchmark gates passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

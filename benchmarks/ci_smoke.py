#!/usr/bin/env python
"""CI benchmark smoke: machine-independent counters → ``BENCH_ci.json``.

Runs a reduced-scale version of the headline join-scaling benchmark
and writes the paper's cost counters (partial tuples, region ops, index node reads) to a JSON
artifact that CI uploads on every run — the perf trajectory the ROADMAP
asks for.

One acceptance gate is enforced (non-zero exit on failure): the
probe cache — re-running a query through a shared ``ProbeCache`` hits
on ≥ 90% of its index probes and costs zero index node reads.  The
planner no-regression gate, the STR node-read gate, the PBSM exact-test
gate and the streaming gate that used to sit here are tier-1
exact-count tests: ``tests/test_planner_cost.py``,
``tests/test_rtree_variants.py::TestSTRReadGate`` (which holds the
packed reads to the insertion-tree reads recorded before that tree was
deleted), ``tests/test_partition.py::TestPBSMExactCounts`` and
``tests/test_streaming_executor.py::TestStreamingExecutor::
test_first_answer_costs_under_a_quarter_of_the_drain`` (the first
answer costs under 25% of the full drain's partial tuples, region ops,
node reads and probes).

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
from repro.engine import ProbeCache, compile_query, execute  # noqa: E402


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
        "probe_cache": probe_cache_section(args.full),
    }
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=2)
    print(f"wrote {args.out}")

    failures = []
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

#!/usr/bin/env python
"""CI benchmark smoke: machine-independent counters → ``BENCH_ci.json``.

Runs a reduced-scale version of the headline join-scaling benchmark
and writes the paper's cost counters (partial tuples, region ops, index node reads) to a JSON
artifact that CI uploads on every run — the perf trajectory the ROADMAP
asks for.

Four acceptance gates are enforced (non-zero exit on failure; the
planner no-regression gate and the STR node-read gate that used to sit
here are tier-1 exact-count tests, ``tests/test_planner_cost.py`` and
``tests/test_rtree_variants.py::TestSTRReadGate`` — the latter now
holds the packed reads to the insertion-tree reads recorded before that
tree was deleted):

1. streaming: ``execute_iter(..., limit=1)`` yields the first answer in
   under 25% of the full-materialization time at the smoke scale (the
   operator tree pipelines instead of materializing levels);
2. probe cache: re-running a query through a shared ``ProbeCache`` hits
   on ≥ 90% of its index probes and costs zero index node reads;
3. partitioned join: the PBSM spatial join performs ≥ 25% fewer exact
   (candidate box) tests than the index-nested-loop baseline at the
   partitioned-join bench's largest scale, with identical pair sets;
4. parallelism: the PBSM tile fan-out over a worker pool returns a
   result list bit-identical to the serial run.

The partitioned-join rows are additionally written to their own
artifact (``BENCH_partitioned.json``, uploaded by CI alongside
``BENCH_ci.json``).

Usage::

    python benchmarks/ci_smoke.py [--out BENCH_ci.json]
                                  [--partitioned-out BENCH_partitioned.json]
                                  [--full]
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

from benchmarks.bench_partitioned_join import (  # noqa: E402
    PBSM_TEST_GATE,
    TILES,
    make_entries,
    run_inl,
    run_pbsm,
)
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


def partitioned_join_section(full: bool) -> dict:
    """PBSM vs index-nested-loop, plus the parallel-determinism check.

    Mirrors ``bench_partitioned_join.py`` at smoke scale; the exact-test
    gate applies at the largest size and the parallel run must be
    bit-identical to the serial one.
    """
    sizes = [200, 400, 800] if full else [150, 300]
    rows = []
    for size in sizes:
        left = make_entries(size, size)
        right = make_entries(size + 1, size)
        inl_pairs, inl_tests, inl_reads = run_inl(left, right)
        serial_pairs, stats = run_pbsm(left, right, workers=0)
        parallel_pairs, _ = run_pbsm(left, right, workers=4)
        rows.append(
            {
                "size": size,
                "tiles": TILES,
                "pairs": len(serial_pairs),
                "pairs_match_inl": serial_pairs == inl_pairs,
                "parallel_identical": parallel_pairs == serial_pairs,
                "inl_exact_tests": inl_tests,
                "inl_node_reads": inl_reads,
                "pbsm_exact_tests": stats.pair_tests,
                "pbsm_dedup_skipped": stats.dedup_skipped,
                "test_ratio": round(stats.pair_tests / inl_tests, 4)
                if inl_tests
                else 0.0,
            }
        )
    return {"gate": PBSM_TEST_GATE, "rows": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="benchmarks/out/BENCH_ci.json")
    parser.add_argument(
        "--partitioned-out",
        default="benchmarks/out/BENCH_partitioned.json",
        help="separate artifact for the partitioned-join rows",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="full-scale run (CI uses the reduced default)",
    )
    args = parser.parse_args(argv)

    partitioned = partitioned_join_section(args.full)
    result = {
        "python": platform.python_version(),
        "scale": "full" if args.full else "reduced",
        "join_scaling": join_scaling_section(args.full),
        "streaming": streaming_section(args.full),
        "probe_cache": probe_cache_section(args.full),
        "partitioned_join": partitioned,
    }
    for target in (args.out, args.partitioned_out):
        os.makedirs(os.path.dirname(target) or ".", exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=2)
    print(f"wrote {args.out}")
    with open(args.partitioned_out, "w") as handle:
        json.dump(
            {
                "python": platform.python_version(),
                "scale": result["scale"],
                **partitioned,
            },
            handle,
            indent=2,
        )
    print(f"wrote {args.partitioned_out}")

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
    pj_rows = partitioned["rows"]
    for row in pj_rows:
        print(
            f"partitioned join n={row['size']}: PBSM "
            f"{row['pbsm_exact_tests']} vs INL {row['inl_exact_tests']} "
            f"exact tests ({row['test_ratio']:.1%}), "
            f"parallel identical={row['parallel_identical']}"
        )
        if not row["pairs_match_inl"]:
            failures.append(
                f"PBSM pair set differs from index-nested-loop at "
                f"n={row['size']}"
            )
        if not row["parallel_identical"]:
            failures.append(
                f"parallel PBSM result not bit-identical to serial at "
                f"n={row['size']}"
            )
    largest = max(pj_rows, key=lambda r: r["size"])
    if largest["pbsm_exact_tests"] > PBSM_TEST_GATE * largest["inl_exact_tests"]:
        failures.append(
            f"PBSM exact tests {largest['pbsm_exact_tests']} exceed "
            f"{PBSM_TEST_GATE:.0%} of INL's {largest['inl_exact_tests']} "
            f"at the largest bench scale (n={largest['size']})"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("all benchmark gates passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

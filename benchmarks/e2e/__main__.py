"""The whole suite, and the comparison of two of its result files.

    python -m benchmarks.e2e run [--quick] [--seed N] [--repeats R] [--out FILE]
    python -m benchmarks.e2e run --check-repeat
    python -m benchmarks.e2e compare A.json B.json

``run`` executes ``run.py`` once per workload and trace mode, each in a
process of its own (peak RSS is per process), prints every metric by
name with its unit, and exits 1 when an op was wrong, the traced pass
does not close, or tracing cost more than 10%.  ``compare`` judges B
against A by the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

from .harness import ROOT, load_spec

RUN_PY = ROOT / "benchmarks" / "e2e" / "run.py"
DEFAULT_OUT = ROOT / "benchmarks" / "out" / "e2e.json"

#: Per-layer counts that depend on the seed alone: two runs of one
#: commit must agree exactly, and a comparison reports any difference.
#: (The service's counters are not here: two concurrent clients and a
#: background repack thread interleave differently every run.)
EXACT_COUNTS = (
    "physical.partial_tuples",
    "physical.region_ops",
    "physical.index_probes",
    "physical.node_reads",
    "physical.vectorized_candidates",
    "rtree.node_reads_per_lookup",
    "snapshot.bytes_per_row",
)
#: The traced pass closes when the layers account for at least this
#: share of a traced query and the traced walk costs what the front
#: door costs, give or take this much.
CLOSURE_MIN = 0.90
TRACE_OVERHEAD_BAND = 0.10
#: Workloads whose queries are walked layer by layer (on service_mixed
#: the HTTP overhead is a remainder, so its layers close by definition).
CLOSURE_WORKLOADS = ("text_query", "overlay_join", "point_lookup")


def _environment(seed: int, seconds: float, quick: bool) -> dict:
    """Where, on what and at which sizes a result was measured."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.spatial.columnar import active_backend

    from . import workloads as w
    from .service_workload import ServiceMixed

    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    return {
        "commit": commit or "unknown",
        "python": platform.python_version(),
        "numpy": numpy_version,
        "columnar.backend": active_backend(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "sizes": {
            "text_query": {
                "towns": w.TextQuery.TOWNS, "roads": w.TextQuery.ROADS,
                "states": list(w.TextQuery.STATES), "map_seed": w.TextQuery.MAP_SEED,
                "variants": len(w.TEXT_FORMS) * len(w.AREA_SCALES),
                "cycle": [w.TextQuery.FULL, w.TextQuery.FIRST_N, w.TextQuery.LOOKUPS, 64],
            },
            "overlay_join": {
                "rows": [w.OverlayJoin.ROWS] * 2, "data_seed": w.OverlayJoin.DATA_SEED,
                "cycle": [w.OverlayJoin.FULL, w.OverlayJoin.FIRST_N, w.OverlayJoin.LOOKUPS, 64],
            },
            "point_lookup": {
                "rows": w.PointLookup.ROWS, "window": w.PointLookup.WINDOW,
                "clean": list(w.PointLookup.CLEAN), "delta": list(w.PointLookup.DELTA),
                "writes": 64,
            },
            "service_mixed": {
                "rows": ServiceMixed.ROWS, "clients": ServiceMixed.CLIENTS,
                "block": dict(ServiceMixed.BLOCK),
                "blocks_per_cycle": ServiceMixed.BLOCKS_PER_CYCLE,
            },
            "scratch_rows": w.SCRATCH_ROWS,
        },
    }


def _run_one(workload: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    command = [
        sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload} --trace {trace}: no result (exit {done.returncode})")
    return json.loads(lines[-1])


def run_suite(seed: int, seconds: float, quick: bool) -> Dict[str, dict]:
    """All four workloads, tracing off and then on."""
    spec = load_spec()
    results: Dict[str, dict] = {}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        for entry in spec["workloads"]:
            name = entry["name"]
            result = _run_one(name, seed, seconds, trace, quick)
            into = results.setdefault(
                name, {"correct": True, "attempted": 0, "failed": 0}
            )
            into["correct"] = into["correct"] and result["correct"]
            into["attempted"] += result["attempted"]
            into["failed"] += result["failed"]
            into[section] = {k: v["value"] for k, v in result["metrics"].items()}
    return results


def print_suite(results: Dict[str, dict], spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, result in results.items():
        ratio = result["failed"] / result["attempted"]
        print(
            f"== {name}: attempted {result['attempted']}, failed {result['failed']} "
            f"(failed_ops_ratio {ratio:.6f})"
        )
        for section in ("end_to_end", "per_layer"):
            for metric, value in result[section].items():
                print(f"  {metric:34s} {value:14.6g} {units[metric]}")


def suite_problems(results: Dict[str, dict], quick: bool) -> List[str]:
    """What makes a suite run a failure (empty when it passed)."""
    problems = []
    for name, result in results.items():
        if not result["correct"]:
            problems.append(f"{name}: {result['failed']} of {result['attempted']} ops failed")
        layers = result["per_layer"]
        if name in CLOSURE_WORKLOADS and layers["trace_closure_ratio"] < CLOSURE_MIN:
            problems.append(
                f"{name}: the layers account for {layers['trace_closure_ratio']:.3f} of a "
                f"traced query (a layer is missing from the table)"
            )
        # A quick run has too few ops for a ratio of two medians.
        overhead = layers["trace_overhead_ratio"]
        if name in CLOSURE_WORKLOADS and not quick and abs(overhead - 1.0) > TRACE_OVERHEAD_BAND:
            problems.append(
                f"{name}: traced ops took {overhead:.3f}x the untraced (the traced walk "
                f"and the front door no longer do the same work)"
            )
    return problems


# -- compare ---------------------------------------------------------------------
def _median_of(runs: List[Dict[str, dict]], workload: str, section: str, metric: str) -> float:
    return statistics.median(run[workload][section][metric] for run in runs)


def _spread_of(
    runs: List[Dict[str, dict]], workload: str, section: str, metric: str
) -> Optional[float]:
    """Width of a file's own repeats as a share of their median: the
    quartile distance from four runs up, the full range below that."""
    values = [run[workload][section][metric] for run in runs]
    centre = statistics.median(values)
    if len(values) < 2 or centre == 0:
        return None
    if len(values) >= 4:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / centre
    return (max(values) - min(values)) / centre


def compare(a_runs: List[Dict[str, dict]], b_runs: List[Dict[str, dict]], spec: dict) -> int:
    """Print B against A; returns the number of regressions."""
    regressions = 0
    print(
        f"{'workload':14s} {'metric':22s} {'A':>12s} {'B':>12s} {'B/A':>7s} "
        f"{'bound':>6s} {'spread':>7s}  verdict"
    )
    for entry in spec["workloads"]:
        w = entry["name"]
        for m in spec["end_to_end"]:
            name = m["name"]
            a = _median_of(a_runs, w, "end_to_end", name)
            b = _median_of(b_runs, w, "end_to_end", name)
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            spreads = [
                s for s in (
                    _spread_of(a_runs, w, "end_to_end", name),
                    _spread_of(b_runs, w, "end_to_end", name),
                ) if s is not None
            ]
            spread = max(spreads) if spreads else None
            if spread is not None and spread > m["bound"]:
                verdict = "unresolved"  # the runs of one side disagree by more than the bound
            elif worse > m["bound"]:
                verdict = "regressed"
                regressions += 1
            else:
                verdict = "ok"
            shown = "-" if spread is None else f"{spread:.3f}"
            print(
                f"{w:14s} {name:22s} {a:12.5g} {b:12.5g} {b / a:7.3f} "
                f"{m['bound']:6.2f} {shown:>7s}  {verdict} [{m['unit']}, base A]"
            )
    print()
    print(f"{'workload':14s} {'layer metric':34s} {'A':>12s} {'B':>12s} {'B-A':>12s}  note")
    for entry in spec["workloads"]:
        w = entry["name"]
        for m in spec["per_layer"]:
            name = m["name"]
            a = _median_of(a_runs, w, "per_layer", name)
            b = _median_of(b_runs, w, "per_layer", name)
            if a == 0 and b == 0:
                continue  # a layer this workload never enters
            note = m["unit"]
            if name in EXACT_COUNTS:
                note += ", exact" if a == b else ", exact: DIFFERS"
                regressions += a != b
            elif a:
                note += f", B/A {b / a:.3f}"
            print(f"{w:14s} {name:34s} {a:12.5g} {b:12.5g} {b - a:12.5g}  {note}")
    return regressions


def _load_runs(path: str) -> List[Dict[str, dict]]:
    with open(path) as handle:
        return json.load(handle)["runs"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run the four workloads, traced and untraced")
    p.add_argument("--seed", type=int, default=0, help="1 is the held-out seed")
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--quick", action="store_true", help="smoke preset: bounds not enforced")
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--check-repeat", action="store_true",
                   help="run twice and compare the second run against the first")
    p.add_argument("--out", default=str(DEFAULT_OUT))
    p = sub.add_parser("compare", help="judge result file B against A")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args(argv)
    spec = load_spec()

    if args.command == "compare":
        return 1 if compare(_load_runs(args.a), _load_runs(args.b), spec) else 0

    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.quick else float(spec["run_seconds"])
    repeats = 2 if args.check_repeat else args.repeats
    runs = []
    problems: List[str] = []
    for _ in range(repeats):
        results = run_suite(args.seed, seconds, args.quick)
        print_suite(results, spec)
        problems += suite_problems(results, args.quick)
        runs.append(results)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(
            {"environment": _environment(args.seed, seconds, args.quick), "runs": runs},
            handle, indent=1,
        )
        handle.write("\n")
    print(f"wrote {args.out}")
    if args.check_repeat and compare(runs[:1], runs[1:], spec):
        problems.append("the second run disagrees with the first beyond the bounds")
    for problem in problems:
        print("FAIL:", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

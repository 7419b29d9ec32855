"""One workload, one seed, one measured phase, one JSON line.

    python3 benchmarks/e2e/run.py --workload text_query --seed 0 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics through the front door
with no tracing; ``--trace 1`` alternates untraced cycles with traced
re-walks of the same ops and reports the per-layer metrics.  The last
line of standard output is the result object; a table for people goes
to standard error.  Exit code 1 when any op was wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[2]

#: Set-up is repeated and its median reported, so one slow fork or page
#: fault does not become the run's ``setup_s``.
SETUP_MIN_RUNS, SETUP_MAX_RUNS, SETUP_BUDGET_S = 3, 9, 2.0


def run(workload: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> dict:
    """Run one workload; returns the result object (see module doc)."""
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from benchmarks.e2e import harness
    from benchmarks.e2e.service_workload import ServiceMixed
    from benchmarks.e2e.workloads import OUT_DIR, OverlayJoin, PointLookup, TextQuery

    workloads = {
        cls.name: cls for cls in (TextQuery, OverlayJoin, PointLookup, ServiceMixed)
    }

    spec = harness.load_spec()
    wl = workloads[workload](seed, quick)
    tracer = harness.Tracer() if trace else None
    untraced, traced = harness.Recorder(), harness.Recorder()
    setup_runs = []
    try:
        began = perf_counter()
        while True:
            before = harness.calibrate()
            start = perf_counter()
            wl.setup(tracer)
            took = perf_counter() - start
            slowdown = (before + harness.calibrate()) / 2 / harness.REFERENCE_S
            setup_runs.append(took / slowdown)
            enough = len(setup_runs) >= SETUP_MIN_RUNS and (
                perf_counter() - began >= SETUP_BUDGET_S
                or len(setup_runs) >= SETUP_MAX_RUNS
            )
            if trace or quick or enough:
                break
            wl.teardown()
        wl.prepare()

        # Cycle 0 warms both paths and is discarded.
        wl.run_cycle(0, harness.Recorder())
        if trace:
            wl.run_cycle(0, harness.Recorder(), harness.Tracer())
        deadline = perf_counter() + seconds
        cycles = 0
        while perf_counter() < deadline or not cycles:
            cycles += 1
            gc.collect()
            wl.run_cycle(cycles, untraced)
            if trace:
                gc.collect()
                wl.run_cycle(cycles, traced, tracer)
        wl.finish(untraced, tracer)
    finally:
        wl.teardown()

    if trace:
        values = harness.layer_metrics(wl, tracer, untraced, traced)
        listed = spec["per_layer"]
        tracer.dump(
            OUT_DIR / "e2e_trace.json",
            {"workload": workload, "seed": seed, "seconds": seconds},
        )
    else:
        values = harness.end_to_end_metrics(untraced, setup_runs, wl.peak_rss_mb())
        listed = spec["end_to_end"]
    failed = untraced.failed + traced.failed
    result = {
        "correct": failed == 0,
        "attempted": untraced.attempted + traced.attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed
        },
    }
    counts = {cls: len(values) for cls, values in untraced.samples.items()}
    speed = statistics.median(untraced.scales)
    print(
        f"# {workload} seed={seed} cycles={cycles} samples={counts} "
        f"box at {speed:.2f} of reference speed (median)", file=sys.stderr,
    )
    for name, entry in result["metrics"].items():
        print(f"{name:34s} {entry['value']:14.6g} {entry['unit']}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="short cycles and one set-up: a smoke run, not a measurement",
    )
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

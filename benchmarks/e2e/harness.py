"""Measurement plumbing shared by the four workloads.

A :class:`Recorder` holds the latency samples of one measured phase by
op class; a :class:`Tracer` holds the spans of the traced pass.  Both
live in the benchmark's own files: nothing under ``src/`` is
instrumented (that seam is a later PR, see ROADMAP "Observability").

All times are *reference seconds* — see :func:`calibrate`.
"""

from __future__ import annotations

import json
import math
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[2]

#: The four op classes every workload reports (README, "Load shape").
QUERY, FIRST, LOOKUP, WRITE = "query", "first", "lookup", "write"

#: What :func:`calibrate` takes on the reference box (this sandbox, a
#: 2.1 GHz Xeon vCPU, CPython 3.11) when nothing else disturbs it.
REFERENCE_S = 3.1e-3


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes: the box's speed right now.

    The sandbox's speed moves by 10-50% within seconds and stays off for
    minutes (a neighbour on the core: CPU time and wall time rise
    together), which no statistic of the samples alone can undo — the
    median of a run lands in whichever state held the majority.  So
    every unit of work, well under a second long, is bracketed by this
    loop, and its times are scaled by ``REFERENCE_S / loop time``: what
    they would have been at the reference speed (README, "Noise").
    """
    start = perf_counter()
    total = 0
    for i in range(80_000):
        total += i * i % 7
    return perf_counter() - start


def load_spec() -> dict:
    """``BENCHMARK.json`` — the one list of metric names, units, bounds."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a
    ``q`` share of the samples at or below it."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail(samples: Sequence[float], q: float) -> float:
    """A tail percentile as the mean of the samples ranked within
    ``(1 - q) / 2`` of it: a p99 averages the 98.5th to 99.5th
    percentile, a p95 the 92.5th to 97.5th, a p90 the 85th to 95th.

    Where the distribution is steep — two concurrent clients behind a
    10 ms query, 1% of writes paying a repack — one order statistic moves
    by 20% from run to run; the mean of its neighbours is the same
    quantity at about half the spread (README, "Noise").
    """
    ordered = sorted(samples)
    half = (1.0 - q) / 2
    first = max(0, math.ceil((q - half) * len(ordered)) - 1)
    last = max(0, math.ceil((q + half) * len(ordered)) - 1)
    return statistics.mean(ordered[first:last + 1])


def median(samples: Iterable[float]) -> float:
    """Median, or 0.0 for a layer the workload never entered."""
    samples = list(samples)
    return statistics.median(samples) if samples else 0.0


class Recorder:
    """Latency samples of one measured phase, by op class.

    A failed op (error, refusal, wrong answer) contributes no latency
    sample: it counts in ``failed`` and so misses every percentile.
    """

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {
            QUERY: [], FIRST: [], LOOKUP: [], WRITE: []
        }
        self.attempted = 0
        self.failed = 0
        #: Seconds the system under test was being driven (the
        #: denominator of ``throughput_ops_s``); oracle checks and
        #: harness bookkeeping are outside it.
        self.measured_s = 0.0
        #: Reference speed over actual speed, per unit (1.0 = undisturbed).
        self.scales: List[float] = []

    @contextmanager
    def unit(self, tr: Optional["Tracer"] = None) -> Iterator[None]:
        """Bracket a batch of ops with calibrations and convert what it
        records (samples, busy time, the tracer's spans) to reference
        seconds."""
        marks = {cls: len(values) for cls, values in self.samples.items()}
        busy = self.measured_s
        first_span = len(tr.spans) if tr is not None else 0
        before = calibrate()
        try:
            yield
        finally:
            scale = REFERENCE_S / ((before + calibrate()) / 2)
            self.scales.append(scale)
            for cls, values in self.samples.items():
                values[marks[cls]:] = [s * scale for s in values[marks[cls]:]]
            self.measured_s = busy + (self.measured_s - busy) * scale
            if tr is not None:
                tr.rescale(first_span, scale)

    def add(self, cls: str, seconds: float, ok: bool, busy: bool = True) -> None:
        """One op.  ``busy=False`` when the caller accounts ``measured_s``
        itself (concurrent clients: wall time, not a sum)."""
        self.attempted += 1
        if busy:
            self.measured_s += seconds
        if ok:
            self.samples[cls].append(seconds)
        else:
            self.failed += 1

    def fail(self, count: int = 1) -> None:
        """Ops found wrong after the fact (sampled and end-of-run checks)."""
        self.failed += count


def end_to_end_metrics(
    rec: Recorder, setup_runs: Sequence[float], peak_rss_mb: float
) -> Dict[str, float]:
    """The end-to-end metrics of one workload run (tracing off)."""

    def ms(estimator, cls: str, q: float) -> float:
        return estimator(rec.samples[cls], q) * 1e3

    return {
        "setup_s": statistics.median(setup_runs),
        "throughput_ops_s": (rec.attempted - rec.failed) / rec.measured_s,
        "query_p50_ms": ms(percentile, QUERY, 0.50),
        "query_p90_ms": ms(tail, QUERY, 0.90),
        "first_answer_p50_ms": ms(percentile, FIRST, 0.50),
        "lookup_p50_ms": ms(percentile, LOOKUP, 0.50),
        "lookup_p95_ms": ms(tail, LOOKUP, 0.95),
        "write_p50_ms": ms(percentile, WRITE, 0.50),
        "write_p99_ms": ms(tail, WRITE, 0.99),
        "peak_rss_mb": peak_rss_mb,
    }


class Tracer:
    """In-memory spans ``[name, start, end, parent, op_id, scale]``.

    ``begin``/``end`` nest by call order; a span's parent is the span
    open when it began.  ``op_id`` groups the spans of one op.
    ``start``/``end`` are raw ``perf_counter`` readings; ``scale``
    converts a duration to reference seconds (see ``Recorder.unit``).
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open: List[int] = []
        self.op_id = 0

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        span = [name, 0.0, 0.0, parent, self.op_id, 1.0]
        self.spans.append(span)
        self._open.append(index)
        span[1] = perf_counter()  # last, so bookkeeping is outside
        return index

    def end(self, index: int) -> float:
        now = perf_counter()
        span = self.spans[index]
        span[2] = now
        self._open.pop()
        return now - span[1]

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Calibrate around the spans recorded inside and convert them to
        reference seconds: for measurements outside any ``Recorder.unit``
        (set-up, kernel probes, the service replay)."""
        first = len(self.spans)
        before = calibrate()
        try:
            yield
        finally:
            self.rescale(first, REFERENCE_S / ((before + calibrate()) / 2))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """One span in a batch of its own (ops use ``begin``/``end``
        inside a unit instead, to stay cheap)."""
        with self.batch():
            index = self.begin(name)
            try:
                yield
            finally:
                self.end(index)

    def rename(self, index: int, name: str) -> None:
        self.spans[index][0] = name

    def record(self, name: str, start: float, end: float, scale: float) -> None:
        """A span timed elsewhere (a client thread's round trip)."""
        self.spans.append([name, start, end, -1, self.op_id, scale])

    def rescale(self, first: int, scale: float) -> None:
        """Set the scale of every span from index ``first`` on."""
        for span in self.spans[first:]:
            span[5] = scale

    def next_op(self) -> None:
        self.op_id += 1

    # -- analysis ----------------------------------------------------------------
    def durations(self, name: str) -> List[float]:
        """Reference-second durations of the spans called ``name``."""
        return [
            (end - start) * scale
            for span_name, start, end, _parent, _op, scale in self.spans
            if span_name == name
        ]

    def closure(self, op_name: str) -> List[float]:
        """Per op called ``op_name``: the share of its duration that the
        layer spans under it account for.  A span's self time is its
        duration minus its direct children's; the op's own self time —
        the glue between the layers — is the share left over.  Start and
        end of one op share a scale, so the box's speed cancels."""
        own = [end - start for _n, start, end, _p, _o, _s in self.spans]
        for _name, start, end, parent, _op, _scale in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        sums: Dict[int, float] = {
            i: 0.0 for i, span in enumerate(self.spans) if span[0] == op_name
        }
        for i, span in enumerate(self.spans):
            root = span[3]
            while root >= 0 and root not in sums:
                root = self.spans[root][3]
            if root >= 0:
                sums[root] += own[i]
        return [
            total / (self.spans[i][2] - self.spans[i][1]) for i, total in sums.items()
        ]

    def dump(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {
                    "meta": meta,
                    "columns": ["name", "start", "end", "parent", "op_id", "scale"],
                    "spans": self.spans,
                },
                handle,
            )


def layer_metrics(wl, tr: Tracer, untraced: Recorder, traced: Recorder) -> Dict[str, float]:
    """Every per-layer metric of one traced run of workload ``wl`` (0
    for a layer it never enters — that is a measurement, not a gap)."""

    def med(name: str) -> float:
        return median(tr.durations(name))

    c = wl.counts
    queries = c.get("_queries", 0) or 1
    out = {
        "constraints.parse_s": med("constraints.parse"),
        "constraints.triangular_s": med("constraints.triangular"),
        "planner.plan_order_s": med("planner.plan_order"),
        "compiler.compile_s": med("compiler.compile") - med("constraints.triangular"),
        "physical.build_s": med("physical.build"),
        "physical.execute_s": med("physical.execute"),
        "physical.first_answer_s": med("physical.first_answer"),
        "rtree.node_reads_per_lookup": c.get("_node_reads", 0) / (c.get("_lookups", 0) or 1),
        "service.http_overhead_s": median(wl.derived.get("service.http_overhead", ())),
    }
    for name in (
        "physical.partial_tuples", "physical.region_ops", "physical.index_probes",
        "physical.node_reads", "physical.vectorized_candidates",
    ):
        out[name] = c.get(name, 0) / queries
    for name in (
        "physical.join_probe", "physical.join_pbsm", "physical.join_zorder",
        "table.nearest_clean", "table.nearest_delta", "table.range_query_clean",
        "table.range_query_delta", "table.count_range", "columnar.match_rows",
        "columnar.distances", "delta.stage_insert", "delta.stage_delete",
        "delta.with_staged", "delta.repack", "snapshot.write", "snapshot.read",
        "rtree.bulk_load", "table.statistics", "service.handler_run",
        "service.handler_nearest", "service.handler_insert", "service.handler_delete",
        "service.encode", "service.decode",
    ):
        out[name + "_s"] = med(name)
    for name in (
        "snapshot.bytes_per_row", "service.repacks",
        "service.probe_cache_hit_rate", "service.delta_pending_max",
    ):
        out[name] = c.get(name, 0)

    # Closure, in two factors.  Layers over the traced op is a per-op
    # ratio (the box's speed cancels): a layer missing from the table
    # shows here.  Traced over untraced op time shows a traced walk that
    # no longer makes the calls the front door makes.  Their product is
    # the layers' share of the untraced query.
    closure = wl.closure(tr)
    out["trace_closure_ratio"] = closure
    out["trace_overhead_ratio"] = traced.measured_s / untraced.measured_s
    out["database.session_overhead_s"] = (
        median(untraced.samples[QUERY]) * (1.0 - closure) if wl.in_process else 0.0
    )
    return out

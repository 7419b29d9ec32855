"""The in-process workloads: inputs from the seed, ops, oracles, traced
walks (``service_workload.py`` has the fourth, over HTTP).

Every workload runs *cycles*: a fixed mix of the four op classes
(``query`` full drain, ``first`` limit=1, ``lookup`` kNN, ``write``
insert/delete) whose inputs come from ``(seed, cycle index)``.  The
runner repeats cycles until ``--seconds`` are up, so the mix is the
same however fast the box is.  With a :class:`~.harness.Tracer` a cycle
re-walks the same public calls ``Session.run`` / ``POST`` make, one
span per layer; without one it goes through the front door only.

Sizes are frozen (README, "Workloads"); ``quick`` only shortens cycles.
"""

from __future__ import annotations

import random
import resource
from collections import deque
from contextlib import nullcontext
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algebra.regions import Region
from repro.boxes.bconstraints import BoxQuery
from repro.boxes.box import Box
from repro.constraints import parse_system, triangular_form
from repro.constraints.examples import SMUGGLERS_ORDER
from repro.database import Database
from repro.datagen import make_map, overlay_query, random_box
from repro.engine.compiler import compile_query
from repro.engine.executor import answers_as_oid_tuples
from repro.engine.planner import plan_order
from repro.errors import ReproError
from repro.spatial.table import SpatialTable

from .harness import FIRST, LOOKUP, QUERY, ROOT, WRITE, Recorder, Tracer, median

#: Scratch space inside the checkout (already in ``.gitignore``).
OUT_DIR = ROOT / "benchmarks" / "out"

#: The traced cycle whose exact counters are reported: always reached,
#: so the counts depend on the seed alone and not on the box's speed.
COUNT_CYCLE = 1

#: Share of kNN ops checked against ``nearest_bruteforce`` and of window
#: queries checked against a full scan (the others get shape checks).
KNN_CHECK_RATE = 0.02
WINDOW_CHECK_RATE = 0.10

#: Ops per calibrated unit (see ``Recorder.unit``): a unit stays well
#: under a second so it sits inside one state of the box.
LOOKUPS_PER_UNIT = 100
WINDOWS_PER_UNIT = 10

WINDOW_TEXT = "x & W !<= 0"
SCRATCH = "scratch"
SCRATCH_ROWS = 1000


def _random_rows(
    rng: random.Random, count: int, universe: Box, first_oid: int = 0
) -> List[Tuple[int, Region]]:
    """``count`` rows of boxes 1-10 wide."""
    return [
        (first_oid + i, Region.from_box(random_box(rng, universe, 1.0, 10.0)))
        for i in range(count)
    ]


def _random_point(rng: random.Random, universe: Box) -> Tuple[float, ...]:
    return tuple(rng.uniform(lo, hi) for lo, hi in zip(universe.lo, universe.hi))


def _overlapping(objects, box: Box) -> List[int]:
    """Sorted oids of the rows whose box overlaps ``box`` (full scan).

    The float comparisons only thin the candidates; ``Box.overlaps``
    decides, so the oracle shares the library's boundary semantics.
    """
    (lo0, lo1), (hi0, hi1) = box.lo, box.hi
    out = []
    for obj in objects:
        b = obj.box
        if b.lo[0] <= hi0 and lo0 <= b.hi[0] and b.lo[1] <= hi1 and lo1 <= b.hi[1]:
            if b.overlaps(box):
                out.append(obj.oid)
    return sorted(out)


def _knn_shape_ok(results: Sequence[Tuple[float, object]], k: int) -> bool:
    dists = [d for d, _row in results]
    return len(results) == k and dists == sorted(dists)


def traced_run(
    tr: Tracer,
    op_name: str,
    db: Database,
    text: str,
    bindings: Optional[Dict[str, Region]],
    order: Optional[Sequence[str]],
    limit: Optional[int],
):
    """``Session.run`` of a default session, call by call, under spans.

    Returns ``(answers, stats, seconds)``.  ``compile_query``
    runs Algorithm 1 inside itself where no outside span can reach, so
    ``constraints.triangular`` times a second, identical call *after*
    the op span has closed (it is not part of the op's time).
    """
    op = tr.begin(op_name)
    s = tr.begin("constraints.parse")
    system = parse_system(text)
    tr.end(s)
    query = db.query(system, bindings=bindings)
    if order is None:
        s = tr.begin("planner.plan_order")
        order = plan_order(query, strategy="histogram", partitions=0)
        tr.end(s)
    s = tr.begin("compiler.compile")
    plan = compile_query(query, order=order)
    tr.end(s)
    s = tr.begin("physical.build")
    pplan = plan.physical("boxplan", estimate=False)
    tr.end(s)
    # ``physical.execute_s`` is the full drain, so a limit=1 drain goes
    # under a name of its own.
    s = tr.begin("physical.execute" if limit is None else "physical.execute_limited")
    stream = pplan.execute_iter(limit=limit, cache=None)
    f = tr.begin("physical.first_answer")
    first = next(stream, None)
    tr.end(f)
    answers = [] if first is None else [first, *stream]
    tr.end(s)
    seconds = tr.end(op)
    s = tr.begin("constraints.triangular")
    triangular_form(system, plan.order)
    tr.end(s)
    return answers, pplan.stats(), seconds


class Workload:
    """What the runner needs from a workload."""

    name = ""
    #: Whether ops run in this process through ``Database``/``Session``.
    in_process = False

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.seed = seed
        self.quick = quick
        #: Exact counters of traced cycle :data:`COUNT_CYCLE`.
        self.counts: Dict[str, float] = {}
        #: Per-layer samples that are differences, not spans.
        self.derived: Dict[str, List[float]] = {}

    def rng(self, *key: object) -> random.Random:
        return random.Random(":".join(map(str, (self.name, self.seed, *key))))

    def setup(self, tr: Optional[Tracer] = None) -> None:
        """Seed -> ready to serve ops; timed as ``setup_s``."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Oracles and harness state; after the last set-up, untimed."""

    def teardown(self) -> None:
        pass

    def run_cycle(self, k: int, rec: Recorder, tr: Optional[Tracer] = None) -> None:
        raise NotImplementedError

    def finish(self, rec: Recorder, tr: Optional[Tracer] = None) -> None:
        """End-of-run checks (and, traced, one-off layer measurements)."""

    def peak_rss_mb(self) -> float:
        """Of the process under test: this one, for in-process workloads."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def closure(self, tr: Tracer) -> float:
        """Median share of a traced full-drain query that its layer
        spans account for (see ``Tracer.closure``)."""
        return median(tr.closure("op.query"))


def _span(tr: Optional[Tracer], name: str):
    """``tr.span(name)``, or nothing when set-up runs untraced."""
    return tr.span(name) if tr is not None else nullcontext()


class InProcess(Workload):
    """One thread, closed loop, through ``Database``/``Session``."""

    in_process = True
    #: Table the kNN ops and the columnar kernel probes go to.
    lookup_table = "x"
    lookup_k = 5
    knn_check_rate = KNN_CHECK_RATE
    #: Table the write ops go to (a scratch table unless overridden).
    write_table = SCRATCH

    db: Database
    universe: Box

    def _finish_setup(self, tr: Optional[Tracer], tables: Sequence[SpatialTable]) -> None:
        """Statistics warm (and, traced, the STR load timed on its own)."""
        if tr is not None:
            with _span(tr, "rtree.bulk_load"):
                for table in tables:
                    table.pack()
        with _span(tr, "table.statistics"):
            for table in tables:
                table.statistics()
        if self.write_table == SCRATCH:
            scratch = self.db.create_table(SCRATCH, 2, universe=self.universe)
            scratch.bulk_insert(
                _random_rows(self.rng("scratch"), SCRATCH_ROWS, self.universe),
                pack=True,
            )
        self.session = self.db.session()

    def prepare(self) -> None:
        table = self.db.table(self.write_table)
        self._rows = len(table)
        self._next_oid = self._rows
        # Deletes take the oldest victim: always a row already folded
        # into the packed base, so each write adds one pending op.
        self._victims = deque(self.rng("victims").sample(range(self._rows), 32))

    # -- ops -------------------------------------------------------------------
    def _query(
        self, rec, tr, cls, text, check, *, bindings=None, order=None, limit=None
    ) -> None:
        ok = True
        if tr is None:
            start = perf_counter()
            try:
                query = self.db.query(text, bindings=bindings) if bindings else text
                result = self.session.run(query, order=order, limit=limit)
            except ReproError:
                ok = False
            seconds = perf_counter() - start
            if ok:
                answers = result.answers
        else:
            tr.next_op()
            name = "op.query" if cls == QUERY else "op.first"
            answers, stats, seconds = traced_run(
                tr, name, self.db, text, bindings, order, limit
            )
            if cls == QUERY and self._counting:
                self._count_stats(stats)
        rec.add(cls, seconds, ok and check(answers))

    def _count_stats(self, stats) -> None:
        c = self.counts
        for name, value in (
            ("physical.partial_tuples", stats.partial_tuples),
            ("physical.region_ops", stats.region_ops),
            ("physical.index_probes", stats.index_probes),
            ("physical.node_reads", stats.node_reads),
            ("physical.vectorized_candidates", stats.vectorized_candidates),
            ("_queries", 1),
        ):
            c[name] = c.get(name, 0) + value

    def _lookup(self, rec, tr, point, verify: bool) -> None:
        table = self.db.table(self.lookup_table)
        k = self.lookup_k
        if tr is None:
            start = perf_counter()
            results = self.session.nearest(self.lookup_table, point, k)
            seconds = perf_counter() - start
        else:
            tr.next_op()
            reads = table.index_read_count()
            s = tr.begin(
                "table.nearest_delta" if table.delta_pending else "table.nearest_clean"
            )
            results = table.nearest(point, k)
            seconds = tr.end(s)
            if self._counting:
                c = self.counts
                c["_node_reads"] = c.get("_node_reads", 0) + table.index_read_count() - reads
                c["_lookups"] = c.get("_lookups", 0) + 1
        ok = _knn_shape_ok(results, k)
        if ok and verify:
            expect = table.nearest_bruteforce(point, k)
            ok = [(d, o.oid) for d, o in results] == [(d, o.oid) for d, o in expect]
        rec.add(LOOKUP, seconds, ok)

    def _write(self, rec, tr, oid, region: Optional[Region]) -> None:
        """Insert ``(oid, region)``, or delete ``oid`` when ``region`` is None."""
        key = self.write_table
        if tr is None:
            start = perf_counter()
            if region is not None:
                self.db.insert(key, oid, region)
                ok = True
            else:
                ok = self.db.delete(key, oid)
            seconds = perf_counter() - start
        else:
            tr.next_op()
            table = self.db.table(key)
            repacks = table.repacks
            if region is not None:
                s = tr.begin("delta.stage_insert")
                table.stage_insert(oid, region)
                seconds = tr.end(s)
                ok = True
            else:
                s = tr.begin("delta.stage_delete")
                ok = table.stage_delete(oid)
                seconds = tr.end(s)
            if table.repacks != repacks:
                # The write that crossed the threshold paid the inline
                # repack; staging is a rounding error beside it.
                tr.rename(s, "delta.repack")
        rec.add(WRITE, seconds, ok)

    def _plan_writes(self, k: int) -> Tuple[list, list]:
        """One cycle's 64 writes, as ``(oid, region-or-None)``: 32 inserts
        + 16 deletes shuffled, then 11 + 5 more.

        Inserts outnumber deletes 2:1 (as on ``service_mixed``) so the
        pooled median sits inside the insert mode, not in the gap
        between the two; the table grows by 22 rows a cycle.
        """
        rng = self.rng("writes", k)
        inserts = _random_rows(rng, 43, self.universe, first_oid=self._next_oid)
        self._next_oid += 43
        deletes = [(self._victims.popleft(), None) for _ in range(21)]
        self._victims.extend(oid for oid, _region in inserts)
        self._rows += 22
        head = inserts[:32] + deletes[:16]
        tail = inserts[32:] + deletes[16:]
        rng.shuffle(head)
        rng.shuffle(tail)
        return head, tail

    def _check_rows(self, rec: Recorder) -> None:
        """The write table has the planned size and a folded delta."""
        table = self.db.table(self.write_table)
        if len(table) != self._rows or table.delta_pending:
            rec.fail()

    def _lookups(self, rng: random.Random, rec, tr, count: int) -> None:
        for first in range(0, count, LOOKUPS_PER_UNIT):
            with rec.unit(tr):
                for _ in range(min(LOOKUPS_PER_UNIT, count - first)):
                    self._lookup(
                        rec, tr, _random_point(rng, self.universe),
                        rng.random() < self.knn_check_rate,
                    )

    def _writes(self, rec, tr, ops: list) -> None:
        with rec.unit(tr):
            for oid, region in ops:
                self._write(rec, tr, oid, region)

    def _sidecars(self, k: int, rec, tr, lookups: int) -> None:
        """The kNN and write ops of a query-dominated workload: under 1%
        of its time, there so that it reports every op class."""
        self._lookups(self.rng("sidecar", k), rec, tr, lookups)
        head, tail = self._plan_writes(k)
        self._writes(rec, tr, head + tail)
        self._check_rows(rec)

    def _kernels(self, tr: Tracer, k: int) -> None:
        """One full-store pass of each columnar kernel (traced only)."""
        table = self.db.table(self.lookup_table)
        store = table.column_store()
        if store is None:
            return
        rng = self.rng("kernels", k)
        window = random_box(rng, self.universe, 30.0, 30.0)
        with tr.span("columnar.match_rows"):
            store.match_rows(BoxQuery(overlap=(window,)))
        with tr.span("columnar.distances"):
            store.distances_to(_random_point(rng, self.universe))

    def run_cycle(self, k: int, rec: Recorder, tr: Optional[Tracer] = None) -> None:
        self._counting = tr is not None and k == COUNT_CYCLE
        self._cycle(k, rec, tr)
        if tr is not None:
            self._kernels(tr, k)

    def _cycle(self, k: int, rec: Recorder, tr: Optional[Tracer]) -> None:
        raise NotImplementedError


# -- text_query ------------------------------------------------------------------
#: Four equivalent spellings of the Figure-1 system: as printed, lines
#: and operands reordered, the paper's one-equation-three-disequations
#: rewrite, and with an entailed constraint added.
TEXT_FORMS = (
    "{A} <= C\nB <= C\nR <= {A} | B | T\n{A} & R !<= 0\nR & T !<= 0\nT !<= C",
    "T !<= C\nR & T != 0\nR & {A} != 0\nR <= T | B | {A}\nB <= C\n{A} <= C",
    "{A} & ~C = 0\nB & ~C = 0\nR & ~{A} & ~B & ~T = 0\n"
    "R & {A} != 0\nR & T != 0\nT & ~C != 0",
    "{A} <= C\nB <= C\nR <= {A} | B | T\nR & {A} != 0\nR & T != 0\nT !<= C\n"
    "{A} & R <= C",
)
#: Destination areas: the map's own, scaled about its centre.
AREA_SCALES = (0.6, 0.8, 1.0, 1.2)


class TextQuery(InProcess):
    """Front-end-dominated: the Section 2 query as text, planner on."""

    name = "text_query"
    lookup_table = "T"
    #: The map is the paper's fixed scenario: the seed draws the request
    #: stream, not the database (README, "Seeds").
    MAP_SEED = 0
    TOWNS = ROADS = 100
    STATES = (4, 4)
    FULL, FIRST_N, LOOKUPS = 4, 2, 600

    def setup(self, tr: Optional[Tracer] = None) -> None:
        world = make_map(
            seed=self.MAP_SEED,
            n_towns=self.TOWNS,
            n_roads=self.ROADS,
            states_grid=self.STATES,
        )
        self.universe = world.universe
        tables = world.tables()
        bindings = {"C": world.country}
        area = world.area.bounding_box()
        centre = area.center()
        for i, scale in enumerate(AREA_SCALES):
            lo = tuple(c - (c - l) * scale for c, l in zip(centre, area.lo))
            hi = tuple(c + (h - c) * scale for c, h in zip(centre, area.hi))
            bindings[f"A{i}"] = Region.from_box(Box(lo, hi))
        self.db = Database(tables=tables, bindings=bindings)
        self._finish_setup(tr, list(tables.values()))

    def prepare(self) -> None:
        super().prepare()
        # Every spelling of one area must give the same answers, so one
        # exact-mode run per area is the oracle for four variants.
        self.oracle = [
            self.session.run(
                TEXT_FORMS[0].format(A=f"A{i}"), mode="exact", order=SMUGGLERS_ORDER
            ).oid_tuples(SMUGGLERS_ORDER)
            for i in range(len(AREA_SCALES))
        ]
        self.forms = self.rng("forms").sample(TEXT_FORMS, len(TEXT_FORMS))
        if self.quick:
            self.FULL, self.FIRST_N, self.LOOKUPS = 1, 1, 20

    def _variant(self, k: int, i: int) -> Tuple[str, list]:
        """The ``i``-th query of cycle ``k``: areas go round within a
        cycle (the area, not the spelling, sets the cost, so every cycle
        is the same work) and spellings go round across cycles — four
        consecutive cycles run each of the 16 variants once."""
        area = i % len(AREA_SCALES)
        form = self.forms[(k + i) % len(self.forms)]
        return form.format(A=f"A{area}"), self.oracle[area]

    def _cycle(self, k: int, rec: Recorder, tr: Optional[Tracer]) -> None:
        for i in range(self.FULL):
            text, expect = self._variant(k, i)
            with rec.unit(tr):
                self._query(
                    rec, tr, QUERY, text,
                    lambda answers, e=expect: answers_as_oid_tuples(
                        answers, SMUGGLERS_ORDER
                    ) == e,
                )
        for i in range(self.FIRST_N):
            text, expect = self._variant(k, self.FIRST_N * k + i)
            with rec.unit(tr):
                self._query(
                    rec, tr, FIRST, text,
                    lambda answers, e=expect: len(answers) == min(1, len(e))
                    and all(
                        t in e for t in answers_as_oid_tuples(answers, SMUGGLERS_ORDER)
                    ),
                    limit=1,
                )
        self._sidecars(k, rec, tr, self.LOOKUPS)


# -- overlay_join ----------------------------------------------------------------
class OverlayJoin(InProcess):
    """Execution-dominated: a binary overlay join in an explicit order."""

    name = "overlay_join"
    DATA_SEED = 0  # fixed for the same reason as TextQuery.MAP_SEED
    ROWS = 700
    TEXT = "x & y !<= 0"
    ORDER = ("x", "y")
    FULL, FIRST_N, LOOKUPS = 6, 10, 600
    JOIN_STRATEGIES = ("probe", "pbsm", "zorder")

    def setup(self, tr: Optional[Tracer] = None) -> None:
        query = overlay_query(self.ROWS, self.ROWS, seed=self.DATA_SEED)
        self.db = Database.from_query(query)
        self.universe = query.tables["x"].universe
        self._finish_setup(tr, list(query.tables.values()))

    def prepare(self) -> None:
        super().prepare()
        right = list(self.db.table("y"))
        self.oracle = sorted(
            (left.oid, oid)
            for left in self.db.table("x")
            for oid in _overlapping(right, left.box)
        )
        self.oracle_set = set(self.oracle)
        if self.quick:
            self.FULL, self.FIRST_N, self.LOOKUPS = 1, 2, 20

    def _full_ok(self, answers) -> bool:
        return answers_as_oid_tuples(answers, self.ORDER) == self.oracle

    def _cycle(self, k: int, rec: Recorder, tr: Optional[Tracer]) -> None:
        for _ in range(self.FULL):
            with rec.unit(tr):
                self._query(rec, tr, QUERY, self.TEXT, self._full_ok, order=self.ORDER)
        with rec.unit(tr):
            for _ in range(self.FIRST_N):
                self._query(
                    rec, tr, FIRST, self.TEXT,
                    lambda answers: len(answers) == 1
                    and answers_as_oid_tuples(answers, self.ORDER)[0] in self.oracle_set,
                    order=self.ORDER, limit=1,
                )
        self._sidecars(k, rec, tr, self.LOOKUPS)
        if tr is not None:
            # Evidence for ROADMAP item 2/3 ("which strategies survive"):
            # the same join forced through each algorithm, once a cycle.
            for strategy in self.JOIN_STRATEGIES:
                with tr.span(f"physical.join_{strategy}"):
                    result = self.session.run(
                        self.TEXT, order=self.ORDER,
                        join_strategy=strategy, partitions=8,
                    )
                if not self._full_ok(result.answers):
                    rec.fail()


# -- point_lookup ----------------------------------------------------------------
class PointLookup(InProcess):
    """Index-dominated: kNN and window queries over 50k rows, first on a
    clean table, then over a 48-op pending write delta."""

    name = "point_lookup"
    write_table = "x"
    lookup_k = 10
    # nearest_bruteforce costs ~0.1 s on 50k rows, 400 lookups' worth:
    # at 2% the oracle would take 8x longer than the ops it checks.
    knn_check_rate = 0.001
    ROWS = 50_000
    SIDE = 1000.0
    WINDOW = 30.0
    # Clean : delta is 2 : 1 so the pooled median sits inside the clean
    # mode, not in the gap between the two (where it would be unstable).
    # Lookups outnumber windows 100 : 1 because a one-variable window
    # query is still 80% planner: at 10 : 1 the front end, not the
    # index, did most of this workload's work (README, "Measured shares").
    CLEAN = (1600, 16, 4)  # lookups, windows, limit=1 windows
    DELTA = (800, 8, 2)

    def setup(self, tr: Optional[Tracer] = None) -> None:
        self.universe = Box((0.0, 0.0), (self.SIDE, self.SIDE))
        table = SpatialTable("boxes", 2, universe=self.universe)
        table.bulk_insert(
            _random_rows(self.rng("rows"), self.ROWS, self.universe), pack=True
        )
        self.db = Database(tables={"x": table})
        self._finish_setup(tr, [table])

    def prepare(self) -> None:
        super().prepare()
        if self.quick:
            self.CLEAN, self.DELTA = (100, 4, 1), (50, 2, 1)

    def _reads(self, rng: random.Random, rec, tr, mix, phase: str) -> None:
        lookups, windows, firsts = mix
        self._lookups(rng, rec, tr, lookups)
        for first in range(0, windows, WINDOWS_PER_UNIT):
            with rec.unit(tr):
                for _ in range(min(WINDOWS_PER_UNIT, windows - first)):
                    self._window(rng, rec, tr, phase, full=True)
        with rec.unit(tr):
            for _ in range(firsts):
                self._window(rng, rec, tr, phase, full=False)

    def _window(self, rng: random.Random, rec, tr, phase: str, full: bool) -> None:
        window = random_box(rng, self.universe, self.WINDOW, self.WINDOW)
        verify = rng.random() < WINDOW_CHECK_RATE
        self._query(
            rec, tr, QUERY if full else FIRST, WINDOW_TEXT,
            lambda answers: self._window_ok(answers, window, full, verify),
            bindings={"W": Region.from_box(window)},
            limit=None if full else 1,
        )
        if tr is not None and full:
            table = self.db.table("x")
            probe = BoxQuery(overlap=(window,))
            s = tr.begin(f"table.range_query_{phase}")
            table.range_query(probe)
            tr.end(s)
            s = tr.begin("table.count_range")
            table.count_range(probe)
            tr.end(s)

    def _window_ok(self, answers, window: Box, full: bool, verify: bool) -> bool:
        oids = sorted(a["x"].oid for a in answers)
        if not all(a["x"].box.overlaps(window) for a in answers):
            return False
        if not verify:
            return full or len(oids) <= 1
        expect = _overlapping(self.db.table("x").scan(), window)
        if full:
            return oids == expect
        return len(oids) == min(1, len(expect)) and set(oids) <= set(expect)

    def _cycle(self, k: int, rec: Recorder, tr: Optional[Tracer]) -> None:
        head, tail = self._plan_writes(k)
        self._reads(self.rng("clean", k), rec, tr, self.CLEAN, "clean")
        self._writes(rec, tr, head)
        self._reads(self.rng("delta", k), rec, tr, self.DELTA, "delta")
        self._writes(rec, tr, tail)
        self._check_rows(rec)

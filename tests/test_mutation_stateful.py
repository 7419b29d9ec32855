"""Stateful mutation testing of the LSM-style delta write path.

A Hypothesis :class:`RuleBasedStateMachine` drives an arbitrary
interleaving of inserts, deletes, range queries, kNN queries,
aggregates, explicit repacks, and snapshot save/load round trips
against a :class:`~repro.spatial.table.SpatialTable`, mirroring every
mutation into a brute-force shadow model (a plain insertion-ordered
``oid -> Region`` dict).  After every step the table must answer
bit-identically to the shadow — same oids, same float distances, same
iteration order — and the delta/MVCC counters must satisfy their
invariants (pending ops match the staged sets, ``delta_probes`` and the
watermark never go backwards within a delta generation).

One machine per index backend (rtree / scan).  The delta threshold
is set low so sequences organically cross it and trigger inline
repacks, on top of the explicit repack rule.

CI runs this module inside the ``REPRO_TEST_SEED`` property-test
matrix: the seed shifts the prefill workload while any failure replays
locally by exporting the same value.
"""

import os
import random
import tempfile

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.algebra.regions import Region
from repro.boxes.box import Box
from repro.boxes.bconstraints import BoxQuery
from repro.database import Database
from repro.spatial.table import SpatialTable

from tests.conftest import UNIVERSE, ranked_oids, scan_twin, shifted_seed

#: Step budget per example; kept modest — every step cross-checks the
#: full answer set against the shadow.
STEP_SETTINGS = settings(
    max_examples=12,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Coordinates drawn for rows and query boxes: a small duplicate-rich
#: pool makes shared edges, ties, and exact-hit deletes likely.
COORDS = st.sampled_from((0.0, 1.0, 2.0, 3.5, 7.0, 13.0, 21.0, 28.0, 31.0))


def _query_boxes(draw):
    box = Box((draw(COORDS), draw(COORDS)), (draw(COORDS), draw(COORDS)))
    return box


@st.composite
def row_regions(draw):
    """A non-empty box region inside the shared universe."""
    lo = (draw(COORDS) * 0.875, draw(COORDS) * 0.875)
    w = draw(st.sampled_from((0.5, 1.0, 3.0, 8.0)))
    h = draw(st.sampled_from((0.5, 1.0, 3.0, 8.0)))
    return Region.from_box(
        Box(lo, (lo[0] + w, lo[1] + h)).meet(UNIVERSE)
    )


@st.composite
def box_queries(draw):
    """Range predicates mixing inside/covers/overlap constraints."""
    inside = _query_boxes(draw) if draw(st.booleans()) else None
    covers = _query_boxes(draw) if draw(st.booleans()) else None
    overlap = tuple(
        _query_boxes(draw) for _ in range(draw(st.integers(0, 1)))
    )
    return BoxQuery(inside=inside, covers=covers, overlap=overlap)


class MutationMachine(RuleBasedStateMachine):
    """Interleaved mutations vs the brute-force shadow model."""

    INDEX = "rtree"

    def __init__(self):
        super().__init__()
        self.table = SpatialTable(
            "t", 2, index=self.INDEX, universe=UNIVERSE, delta_threshold=9
        )
        #: The shadow: oid -> Region in live insertion order (a delete
        #: removes; a re-insert appends) — exactly the table's live view.
        self.shadow = {}
        self.counter = 0
        self.watermark_seen = 0
        # The delta the watermark belongs to — held, not its id(): a fresh
        # delta may reuse a dropped one's address.
        self.delta_gen = None
        self.delta_probes_seen = 0

    @initialize()
    def prefill(self):
        rng = random.Random(shifted_seed(4242))
        for _ in range(rng.randint(0, 12)):
            self._insert_row(
                Region.from_box(
                    Box(
                        (rng.uniform(0, 28), rng.uniform(0, 28)),
                        (rng.uniform(0, 28) + 1, rng.uniform(0, 28) + 1),
                    ).meet(UNIVERSE)
                ),
                staged=False,
            )

    # -- shadow-model reference answers ------------------------------------

    def _shadow_matches(self, query: BoxQuery):
        # A row whose region is empty (the prefill makes some) matches
        # wherever an empty box does.
        return [
            oid
            for oid, region in self.shadow.items()
            if query.matches(region.bounding_box())
        ]

    def _shadow_nearest(self, point, k):
        ranked = sorted(
            (region.bounding_box().mindist_point(point), repr(oid))
            for oid, region in self.shadow.items()
            if not region.bounding_box().is_empty()
        )
        return ranked[:k]

    # -- mutation rules ----------------------------------------------------

    def _insert_row(self, region, staged):
        oid = f"r{self.counter}"
        self.counter += 1
        if staged:
            self.table.stage_insert(oid, region)
        else:
            # Routes through the delta while one is open, through the
            # direct base path otherwise — both must look identical.
            self.table.insert(oid, region)
        self.shadow[oid] = region

    @rule(region=row_regions(), staged=st.booleans())
    def insert(self, region, staged):
        self._insert_row(region, staged)

    @precondition(lambda self: self.shadow)
    @rule(data=st.data())
    def delete(self, data):
        oid = data.draw(st.sampled_from(sorted(self.shadow)))
        self.table.delete(oid)
        del self.shadow[oid]

    @rule()
    def delete_missing_is_refused(self):
        oid = f"never-{self.counter}"
        assert self.table.stage_delete(oid) is False
        try:
            self.table.delete(oid)
        except KeyError:
            pass
        else:  # pragma: no cover - failure path
            raise AssertionError("delete of a dead oid must raise")

    @rule()
    def repack(self):
        before = sorted(repr(oid) for oid in self.shadow)
        self.table.repack()
        assert not self.table.delta_pending
        assert sorted(repr(o.oid) for o in self.table) == before

    @rule()
    def save_load(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "snap.json")
            Database(tables={"t": self.table}).save(path)
            self.table = Database.open(path).table("t")
        assert not self.table.delta_pending
        self.delta_probes_seen = self.table.delta_probes

    # -- read rules (bit-identical to the shadow) --------------------------

    @rule(query=box_queries())
    def range_query(self, query):
        expected = sorted(repr(oid) for oid in self._shadow_matches(query))
        got = self.table.range_query(query)
        assert sorted(repr(o.oid) for o in got) == expected

    @rule(query=box_queries())
    def aggregate_count(self, query):
        expected = len(self._shadow_matches(query))
        assert self.table.count_range(query) == expected

    @rule(x=COORDS, y=COORDS, k=st.integers(1, 5))
    def knn(self, x, y, k):
        """The table's own path (best-first on the r-tree machine, the
        columnar kernel on the scan one), the scan-backend twin over the
        same base rows and staged delta, and brute force all rank as
        the shadow does."""
        expected = self._shadow_nearest((x, y), k)
        got = self.table.nearest((x, y), k)
        assert [(d, repr(o.oid)) for d, o in got] == expected
        twin = scan_twin(self.table).nearest((x, y), k)
        assert ranked_oids(twin) == ranked_oids(got)
        brute = self.table.nearest_bruteforce((x, y), k)
        assert [(d, repr(o.oid)) for d, o in brute] == expected

    # -- invariants --------------------------------------------------------

    @invariant()
    def live_view_matches_shadow(self):
        assert len(self.table) == len(self.shadow)
        assert [o.oid for o in self.table] == list(self.shadow)
        for oid in self.shadow:
            assert self.table.get(oid).oid == oid

    @invariant()
    def delta_counters_consistent(self):
        d = self.table._delta
        if d is None:
            assert self.table.delta_pending_ops == 0
            assert self.table.delta_watermark == 0
            self.delta_gen = None
        else:
            assert (
                self.table.delta_pending_ops
                == len(d.inserts) + len(d.tombstones)
            )
            assert set(d.tombstones) <= set(self.table._objects)
            # The watermark is monotonic within one delta generation
            # (a repack — explicit or inline at the threshold — clears
            # the delta and the next write opens a fresh one).
            if self.delta_gen is d:
                assert d.watermark >= self.watermark_seen
            self.delta_gen = d
            self.watermark_seen = d.watermark
        assert self.table.delta_probes >= self.delta_probes_seen
        self.delta_probes_seen = self.table.delta_probes
        # The inline threshold keeps the delta bounded on an unshared
        # table (repack fires at the threshold crossing).
        assert self.table.delta_pending_ops <= self.table.delta_threshold


class _RTreeMachine(MutationMachine):
    INDEX = "rtree"


class _ScanMachine(MutationMachine):
    INDEX = "scan"


_RTreeMachine.TestCase.settings = STEP_SETTINGS
_ScanMachine.TestCase.settings = STEP_SETTINGS

TestMutationStatefulRTree = _RTreeMachine.TestCase
TestMutationStatefulScan = _ScanMachine.TestCase

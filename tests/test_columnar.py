"""Columnar storage unit tests: backends, kernels, and mirrors.

Query- and engine-level bit-identity lives in ``test_differential.py``;
this module pins down the pieces underneath: backend forcing and
resolution, the packed-float codec, the batched box-filter and distance
kernels against their per-object :class:`~repro.boxes.box.Box` oracles,
the R-tree's columnar entry mirror, the vectorized PBSM tile sweep, and
batched z-order key computation.
Every comparison is exact — the vectorized kernels promise the same
floats, not approximately the same.
"""

import random

import pytest

import reference_knn
from repro.boxes.box import Box
from repro.boxes.bconstraints import BoxQuery
from repro.spatial.columnar import (
    BACKENDS,
    HAVE_NUMPY,
    ColumnStore,
    active_backend,
    forced_backend,
    pack_floats,
    unpack_floats,
)
from repro.spatial.partition import JoinStats, pbsm_join
from repro.spatial.table import SpatialTable
from repro.spatial.zorder import ZGrid, ZOrderIndex
from tests.conftest import COLUMNAR_BACKENDS, UNIVERSE, random_table

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

#: What :func:`active_backend` says with no pin.
PLATFORM = "numpy" if HAVE_NUMPY else "array"


def _random_boxes(seed, n, allow_empty=True):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        if allow_empty and rng.random() < 0.15:
            out.append(Box((8.0, 8.0), (8.0, 8.0)))  # degenerate = empty
            continue
        lo = (rng.uniform(0, 28), rng.uniform(0, 28))
        out.append(
            Box(lo, (lo[0] + rng.uniform(0.5, 6), lo[1] + rng.uniform(0.5, 6)))
        )
    return out


class TestBackends:
    def test_active_backend_is_known(self):
        assert active_backend() in BACKENDS

    def test_forced_backend_round_trip(self):
        with forced_backend("array"):
            assert active_backend() == "array"
            with forced_backend(None):
                assert active_backend() == PLATFORM
            assert active_backend() == "array"
        assert active_backend() == PLATFORM

    def test_forced_backend_rejects_unknown(self):
        for name in ("simd", "off"):
            with pytest.raises(ValueError):
                with forced_backend(name):
                    pass  # pragma: no cover

    @pytest.mark.skipif(HAVE_NUMPY, reason="only without numpy")
    def test_forcing_numpy_without_numpy_raises(self):
        with pytest.raises(ValueError):
            with forced_backend("numpy"):
                pass  # pragma: no cover

    def test_env_var_is_ignored(self, monkeypatch):
        """``REPRO_COLUMNAR`` is gone: only the platform picks."""
        for value in ("array", "numpy", "off"):
            monkeypatch.setenv("REPRO_COLUMNAR", value)
            assert active_backend() == PLATFORM

    def test_resolve_semantics(self):
        """One backend per platform, a test pin over it."""
        assert BACKENDS == ("numpy", "array")
        assert active_backend() == PLATFORM
        for name in COLUMNAR_BACKENDS:
            with forced_backend(name):
                assert active_backend() == name


class TestPackedFloats:
    def test_round_trip_is_bit_exact(self):
        values = (
            0.0,
            -0.0,
            1.5,
            -2.25,
            3.141592653589793,
            5e-324,
            1.7976931348623157e308,
            float("inf"),
            -float("inf"),
        )
        out = unpack_floats(pack_floats(values))
        assert len(out) == len(values)
        for a, b in zip(values, out):
            assert a == b
            # -0.0 == 0.0 compares equal; pin the sign bit too.
            assert str(a) == str(b)

    def test_empty(self):
        assert unpack_floats(pack_floats(())) == ()


class TestMatchKernels:
    @pytest.mark.parametrize("backend", COLUMNAR_BACKENDS)
    def test_match_positions_equals_oracle(self, backend):
        boxes = _random_boxes(11, 60)
        queries = [
            BoxQuery(inside=Box((2.0, 2.0), (26.0, 30.0))),
            BoxQuery(covers=Box((10.0, 10.0), (11.0, 11.0))),
            BoxQuery(overlap=(Box((5.0, 5.0), (20.0, 20.0)),)),
            BoxQuery(
                inside=Box((0.0, 0.0), (32.0, 32.0)),
                overlap=(
                    Box((5.0, 5.0), (20.0, 20.0)),
                    Box((8.0, 1.0), (30.0, 28.0)),
                ),
            ),
            BoxQuery(overlap=(Box((3.0, 3.0), (3.0, 9.0)),)),  # empty c
            BoxQuery(),  # unconstrained: every nonempty row
        ]
        with forced_backend(backend):
            store = ColumnStore.bulk(2, boxes, range(len(boxes)))
            for query in queries:
                oracle = [
                    i
                    for i, b in enumerate(boxes)
                    if not b.is_empty() and query.matches(b)
                ]
                assert store.match_positions(query) == oracle

    @pytest.mark.parametrize("backend", COLUMNAR_BACKENDS)
    def test_distance_kernels_equal_box_methods(self, backend):
        boxes = _random_boxes(13, 50)
        rng = random.Random(14)
        point = (rng.uniform(-4, 36), rng.uniform(-4, 36))
        anchor = Box((9.0, 4.0), (13.0, 7.5))
        inf = float("inf")
        with forced_backend(backend):
            store = ColumnStore.bulk(2, boxes, range(len(boxes)))
            mind_p = store.mindist_point(point)
            mind_b = store.mindist_box(anchor)
            for i, b in enumerate(boxes):
                if b.is_empty():
                    assert mind_p[i] == inf
                    assert mind_b[i] == inf
                    continue
                # Exact float equality: same recipe, same doubles.
                assert mind_p[i] == b.mindist_point(point)
                assert mind_b[i] == b.mindist(anchor)

    @pytest.mark.parametrize("backend", COLUMNAR_BACKENDS)
    def test_distance_to_empty_anchor_is_inf(self, backend):
        boxes = _random_boxes(15, 10, allow_empty=False)
        with forced_backend(backend):
            store = ColumnStore.bulk(2, boxes, range(len(boxes)))
            dists = store.distances_to(Box((1.0, 1.0), (1.0, 5.0)))
            assert all(d == float("inf") for d in dists)


class TestRTreeColumnarMirror:
    @needs_numpy
    def test_vectorized_search_matches_scalar_search(self):
        table = random_table("t", random.Random(21), 120)
        tree = table._rtree
        queries = [
            BoxQuery(overlap=(Box((4.0, 4.0), (18.0, 18.0)),)),
            BoxQuery(inside=Box((0.0, 0.0), (16.0, 32.0))),
            BoxQuery(covers=Box((10.0, 10.0), (10.5, 10.5))),
            BoxQuery(),
        ]
        for query in queries:
            tree.stats.reset()
            want = list(tree.search(query))
            scalar = (tree.stats.node_reads, tree.stats.entry_tests)
            tree.stats.reset()
            with forced_backend("numpy"):
                got = tree.search_batch([query])[0]
            vectorized = (tree.stats.node_reads, tree.stats.entry_tests)
            # Same rows, same order, same billed index work.
            assert got == want
            assert vectorized == scalar

    @pytest.mark.parametrize("backend", COLUMNAR_BACKENDS)
    def test_flat_nearest_preserves_node_reads(self, backend):
        """The browse over the array form against the frozen ``_Node``
        walk: same entries, same reads, whatever the backend."""
        table = random_table("t", random.Random(22), 150)
        tree = table._rtree
        point = (11.0, 23.0)
        tree.stats.reset()
        want = reference_knn.nearest(tree, point, k=7)
        walk = (tree.stats.node_reads, tree.stats.entry_tests)
        tree.stats.reset()
        with forced_backend(backend):
            got = tree.nearest(point, k=7)
        assert got == [(d, o) for d, _b, o in want]
        assert (tree.stats.node_reads, tree.stats.entry_tests) == walk


class TestTableMirror:
    @pytest.mark.parametrize("index", ["rtree", "scan"])
    def test_insert_keeps_mirror_aligned(self, index):
        table = SpatialTable("t", 2, index=index, universe=UNIVERSE)
        boxes = _random_boxes(31, 40)
        from repro.algebra.regions import Region

        for i, b in enumerate(boxes):
            table.insert(
                i, Region.from_box(b) if not b.is_empty() else Region.empty()
            )
        assert table.column_store() is None  # staged, until the fold
        table.repack()
        store = table.column_store()
        assert store is not None and len(store) == len(boxes)
        for slot, obj in enumerate(table):
            assert store.rows[slot] is obj

    def test_column_store_is_none_while_delta_pending(self):
        """The one state that hides the store: a pending delta, whose
        staged rows and tombstones the base slots do not mirror."""
        from repro.algebra.regions import Region

        table = random_table("t", random.Random(33), 5)
        assert table.column_store() is not None
        table.stage_insert("s", Region.from_box(Box((1.0, 1.0), (2.0, 2.0))))
        assert table.column_store() is None
        table.repack()
        assert table.column_store() is not None


class TestVectorizedSweep:
    def _tile_inputs(self, seed):
        rng = random.Random(seed)
        left = [
            (b, i)
            for i, b in enumerate(_random_boxes(seed, 40, allow_empty=False))
        ]
        right = [
            (b, i)
            for i, b in enumerate(
                _random_boxes(seed + 1, 40, allow_empty=False)
            )
        ]
        del rng
        return left, right

    @pytest.mark.parametrize("backend", COLUMNAR_BACKENDS)
    def test_pbsm_join_matches_scalar(self, backend):
        left, right = self._tile_inputs(41)
        with forced_backend("array"):
            want_stats = JoinStats()
            want = pbsm_join(left, right, n_tiles=9, stats=want_stats)
        with forced_backend(backend):
            got_stats = JoinStats()
            got = pbsm_join(left, right, n_tiles=9, stats=got_stats)
        assert got == want
        assert got_stats.pair_tests == want_stats.pair_tests
        assert got_stats.dedup_skipped == want_stats.dedup_skipped
        assert got_stats.pairs == want_stats.pairs


class TestZOrderBatch:
    @pytest.mark.parametrize("backend", COLUMNAR_BACKENDS)
    def test_insert_batch_equals_sequential(self, backend):
        boxes = _random_boxes(51, 80) + [
            Box((0.5, 0.5), (0.5001, 0.5001)),  # single-cell tiny box
            Box((-5.0, -5.0), (40.0, 40.0)),  # straddles the universe
        ]
        grid = ZGrid(Box((0.0, 0.0), (32.0, 32.0)), levels=5)
        seq = ZOrderIndex(grid)
        for i, b in enumerate(boxes):
            seq.insert(b, i)
        with forced_backend(backend):
            batch = ZOrderIndex(grid)
            batch.insert_batch([(b, i) for i, b in enumerate(boxes)])
        assert len(batch) == len(seq)
        assert [
            (r.lo, r.hi, r.value) for r in batch.ranges()
        ] == [(r.lo, r.hi, r.value) for r in seq.ranges()]

"""Partitioned spatial join: PBSM vs the index-nested-loop baseline.

The engine's two box-join algorithms on the one query shape both
support (binary overlap):

* **index-nested-loop** — one R-tree range probe per outer box; its
  "exact tests" are the per-entry box tests the traversals perform
  (``RTreeStats.entry_tests``);
* **PBSM** — co-partition both inputs on a uniform tile grid,
  plane-sweep each tile, dedupe boundary duplicates with the
  reference-point rule; its exact tests are the sweeps' candidate-pair
  tests (``JoinStats.pair_tests``).

Both must return identical pair sets; PBSM must do **≥ 25% fewer exact
tests** at the largest configured scale (the CI gate, enforced here and
re-checked by ``ci_smoke.py``), and the parallel tile fan-out must be
**bit-identical** to the serial run — same pairs, same order.
"""

import os
import random

import pytest

from benchmarks.conftest import report
from repro.boxes import Box
from repro.spatial import Exchange, JoinStats, RTree, pbsm_join

# REPRO_BENCH_PBSM_SIZES overrides the scale ladder (CI smoke runs a
# reduced one); the ≥25% gate applies at the largest configured size.
SIZES = [
    int(s)
    for s in os.environ.get("REPRO_BENCH_PBSM_SIZES", "200,400,800").split(",")
]
TILES = int(os.environ.get("REPRO_BENCH_PBSM_TILES", "64"))
WORKERS = 4
UNIVERSE_SIDE = 100.0

#: The CI gate: PBSM exact tests at the largest scale must be at most
#: this fraction of the index-nested-loop baseline's.
PBSM_TEST_GATE = 0.75


def make_entries(seed: int, n: int):
    """``(box, id)`` pairs: small random rectangles in the universe."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        lo = (
            rng.uniform(0, UNIVERSE_SIDE - 8),
            rng.uniform(0, UNIVERSE_SIDE - 8),
        )
        out.append(
            (
                Box(
                    lo,
                    (lo[0] + rng.uniform(1, 8), lo[1] + rng.uniform(1, 8)),
                ),
                i,
            )
        )
    return out


def run_inl(left, right):
    """Index-nested-loop join; returns ``(pairs, exact_tests, reads)``."""
    from repro.boxes import BoxQuery

    tree = RTree.bulk_load(right, max_entries=8)
    tree.stats.reset()
    pairs = []
    for box, value in left:
        for other in tree.search(BoxQuery(overlap=(box,))):
            pairs.append((value, other))
    pairs.sort()
    return pairs, tree.stats.entry_tests, tree.stats.node_reads


def run_pbsm(left, right, workers: int = 0, kind: str = "thread"):
    """PBSM join; returns ``(pairs, stats)`` — pairs sorted by input."""
    stats = JoinStats()
    pairs = pbsm_join(
        left,
        right,
        n_tiles=TILES,
        exchange=Exchange(workers=workers, kind=kind),
        stats=stats,
    )
    return pairs, stats


_rows = []


@pytest.mark.parametrize("size", SIZES)
def test_pbsm_matches_inl_with_fewer_tests(benchmark, size):
    left = make_entries(size, size)
    right = make_entries(size + 1, size)
    inl_pairs, inl_tests, inl_reads = run_inl(left, right)
    pbsm_pairs, stats = benchmark(run_pbsm, left, right)
    assert pbsm_pairs == inl_pairs  # identical pair lists (both sorted)
    row = {
        "size": size,
        "pairs": len(pbsm_pairs),
        "inl_tests": inl_tests,
        "pbsm_tests": stats.pair_tests,
        "ratio": round(stats.pair_tests / inl_tests, 4) if inl_tests else 0,
        "tiles": stats.tiles,
        "dedup": stats.dedup_skipped,
    }
    _rows.append(row)
    benchmark.extra_info.update(row)
    if size == max(SIZES):
        assert stats.pair_tests <= PBSM_TEST_GATE * inl_tests, (
            f"PBSM did {stats.pair_tests} exact tests vs INL's "
            f"{inl_tests}; the gate requires ≤ {PBSM_TEST_GATE:.0%}"
        )


@pytest.mark.parametrize("workers", [2, WORKERS])
def test_parallel_bit_identical_to_serial(workers):
    size = max(SIZES)
    left = make_entries(7, size)
    right = make_entries(11, size)
    serial, _ = run_pbsm(left, right, workers=0)
    parallel, _ = run_pbsm(left, right, workers=workers)
    assert parallel == serial  # same pairs, same order


def test_report():
    if _rows:
        report(
            "partitioned join: PBSM vs index-nested-loop",
            _rows,
            [
                "size",
                "pairs",
                "inl_tests",
                "pbsm_tests",
                "ratio",
                "tiles",
                "dedup",
            ],
        )

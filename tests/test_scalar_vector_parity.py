"""Scalar-vs-vectorized parity regressions.

Two invariants the static-analysis PR audited and now pins:

1. **Bit-identical distances.**  The scalar :class:`Box` distance
   methods and the columnar kernels must agree to the last ulp — the
   KNN differential relies on exact float equality of priority-queue
   keys.  The historical regression: scalar code squared with ``x ** 2``
   and rooted with ``x ** 0.5``, which lower to libm ``pow`` — *not*
   correctly rounded on common platforms — while the array kernels use
   multiply and ``sqrt`` (single correctly-rounded IEEE ops).  At
   ~1-in-1200 per operand the results differed by one ulp, flipping
   nearest-neighbor tie-breaks between the scalar and vectorized paths.

2. **Identical billing counters.**  A run whose index probes group
   their bindings (one batched R-tree descent per group, array kernels)
   must report the same ``ExecutionStats`` as the same plan probing
   binding by binding (``tests/reference_probe.py``) — candidates,
   survivors, probes, node reads — and the same answers.  A PBSM or
   z-order join must find the same candidates, survivors and answers
   as that plan; its probes, node reads and box-op estimate are its own
   to bill.  This is repro-lint REPRO202's runtime counterpart.  (The
   columnar paths'
   counters are also held byte-equal to recorded ones by
   ``test_report_counters.py``, and their answers to the exact mode by
   ``test_differential.py``.)
"""

import math
import random

import pytest

from conftest import KERNEL_IDS, make_workload
from reference_probe import probe_per_binding

from repro.boxes.box import Box
from repro.constraints.system import ConstraintSystem, nonempty, overlaps, subset
from repro.engine.compiler import compile_query
from repro.engine.physical import build_physical_plan
from repro.engine.query import SpatialQuery
from repro.spatial.columnar import ColumnStore

DIM = 2


def random_box(rng):
    """Boxes across magnitudes, to exercise the ulp-sensitive range."""
    scale = rng.choice((1e-3, 1.0, 1e3, 1e6))
    lo = [rng.uniform(-scale, scale) for _ in range(DIM)]
    hi = [v + abs(rng.gauss(0, scale / 3)) for v in lo]
    return Box(lo, hi)


def random_point(rng):
    scale = rng.choice((1e-3, 1.0, 1e3))
    return tuple(rng.uniform(-scale, scale) for _ in range(DIM))


@pytest.mark.parametrize("backend", KERNEL_IDS)
@pytest.mark.parametrize("seed", [0, 746])
def test_distance_kernels_bit_identical_to_scalar(backend, seed):
    rng = random.Random(seed)
    empty = Box([0.0] * DIM, [0.0] * DIM)  # lo >= hi normalises to empty
    boxes = [random_box(rng) for _ in range(400)] + [empty]
    store = ColumnStore.bulk(DIM, boxes, range(len(boxes)))

    for _ in range(25):
        point = random_point(rng)
        anchor = random_box(rng)
        by_point = list(store.mindist_point(point))
        by_box = list(store.mindist_box(anchor))
        for i, box in enumerate(boxes):
            if box.is_empty():
                assert by_point[i] == math.inf
                assert by_box[i] == math.inf
                continue
            # Exact equality on purpose: one ulp of divergence
            # reorders KNN heaps.
            assert by_point[i] == box.mindist_point(point)
            assert by_box[i] == box.mindist(anchor)


def test_scalar_distances_use_correctly_rounded_ops():
    """The fix itself: squaring by multiply, rooting by sqrt.

    ``x ** 0.5`` and ``x ** 2`` go through libm ``pow``, which is off
    by one ulp from the correctly-rounded result for ~1 in 1200 doubles
    on this class of platform.  The scalar methods must match the
    multiply/sqrt formulation exactly.
    """
    rng = random.Random(99)
    for _ in range(2000):
        p = rng.uniform(-50, 50)
        a = rng.uniform(-50, 50)
        lo, hi = min(a, a + 1), max(a, a + 1)
        box = Box([lo], [hi])
        d = lo - p if p < lo else (p - hi if p > hi else 0.0)
        assert box.mindist_point((p,)) == math.sqrt(d * d)


PARITY_SYSTEM = ConstraintSystem.build(
    overlaps("u", "v"),
    subset("w", "u"),
    nonempty("v"),
)

STEP_FIELDS = (
    "variable",
    "candidates",
    "survivors",
)
TOP_FIELDS = (
    "tuples_emitted",
    "partial_tuples",
    "region_ops",
)
#: What a join strategy bills its own way: held only where it does not
#: replace the index probes.
PROBE_STEP_FIELDS = ("index_probes", "node_reads")
PROBE_TOP_FIELDS = ("box_ops_estimate",)


@pytest.mark.parametrize("strategy", [None, "pbsm", "zorder"])
@pytest.mark.parametrize("seed", [3, 11, 99])
def test_vectorized_billing_matches_scalar(seed, strategy):
    """The scalar run is the plan without a join strategy, each probe
    binding by binding: a join strategy must find the same candidates
    and answers, and grouped probes must bill every counter alike."""
    tables, bindings = make_workload(
        seed, system=PARITY_SYSTEM, sizes=(6, 14)
    )
    query = SpatialQuery(
        system=PARITY_SYSTEM, tables=tables, bindings=bindings
    )
    plan = compile_query(query, order=sorted(tables))

    def run(join_strategy, per_binding=False):
        pplan = build_physical_plan(
            plan,
            "boxplan",
            estimate=False,
            partitions=2,
            join_strategy=join_strategy,
        )
        if per_binding:
            probe_per_binding(pplan)
        answers = [
            sorted((v, o.oid) for v, o in a.items())
            for a in pplan.execute_iter()
        ]
        return answers, pplan.stats()

    scalar_answers, scalar = run(None, per_binding=True)
    vec_answers, vec = run(strategy)
    assert vec_answers == scalar_answers
    top, step = TOP_FIELDS, STEP_FIELDS
    if strategy is None:
        top, step = top + PROBE_TOP_FIELDS, step + PROBE_STEP_FIELDS
    for name in top:
        assert getattr(vec, name) == getattr(scalar, name), (
            f"{name} diverged under {strategy}"
        )
    assert len(vec.steps) == len(scalar.steps)
    for v_step, s_step in zip(vec.steps, scalar.steps):
        for name in step:
            assert getattr(v_step, name) == getattr(s_step, name), (
                f"step {s_step.variable}.{name} diverged under {strategy}"
            )

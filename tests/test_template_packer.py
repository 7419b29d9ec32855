"""Oracle for the compiled step packer and the lazily bound step filter.

``StepTemplate.packer`` fuses ``instantiate``, ``BoxQuery.
is_unsatisfiable`` and ``pack_query`` into one closure compiled per
``(template, universe, dim)``; ``IndexProbe`` sends what it returns to
the index.  Over random templates — nested ⊓/⊔ over variables and
constants, empty boxes, ``TOP`` with and without a universe, overlap
tests whose ``U_q`` is constant or varies — it must return exactly the
packed coordinates of the instantiated query (``-0.0`` told from
``0.0``), ``None`` iff that query is unsatisfiable, and a shape whose
empty-row rule is ``query.matches(EMPTY_BOX)``.  The delta overlay's
one-row test on the packed form must be ``query.matches``.

At the operator level, a join over tables whose rows include multi-box
(and empty) regions must answer and bill like the frozen per-binding
probe and eagerly binding step filter of ``tests/reference_probe.py``.
"""

import random
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.regions import Region
from repro.boxes.bconstraints import (
    OverlapTemplate,
    StepTemplate,
    matches_empty,
    pack_query,
)
from repro.boxes.box import EMPTY_BOX, Box
from repro.boxes.functions import BOT, TOP, BoxConst, BoxJoin, BoxMeet, BoxVar, bjoin, bmeet
from repro.constraints.parser import parse_system
from repro.constraints.solved import SolvedConstraint
from repro.engine.compiler import compile_query
from repro.engine.physical import build_physical_plan
from repro.engine.query import SpatialQuery
from repro.spatial.columnar import packed_matches
from repro.spatial.table import SpatialTable
from tests.conftest import (
    EDGE_COORDS,
    UNIVERSE,
    edge_box_queries,
    edge_boxes,
    scan_twin,
    shifted_seed,
)
from tests.reference_probe import probe_per_binding

NAMES = ("a", "b", "c")
#: Edge coordinates plus a signed zero and the infinities: ``⊓``/``⊔``
#: keep the first of ``-0.0 == 0.0``, so a reordered fold would show.
COORDS = EDGE_COORDS + (-0.0, -float("inf"), float("inf"))


@st.composite
def boxes(draw):
    """A 2-d box over :data:`COORDS` (often empty), or the polymorphic
    empty box."""
    if draw(st.integers(0, 9)) == 0:
        return EMPTY_BOX
    c = st.sampled_from(COORDS)
    return Box((draw(c), draw(c)), (draw(c), draw(c)))


def constants():
    return st.one_of(st.sampled_from([BOT, TOP]), boxes().map(BoxConst))


def boxfuncs():
    """Nested ⊓/⊔, raw and simplified, over variables and constants."""
    leaves = st.one_of(st.sampled_from(NAMES).map(BoxVar), constants())

    def branches(children):
        args = st.lists(children, min_size=1, max_size=3)
        return st.one_of(
            args.map(lambda a: BoxMeet(tuple(a))),
            args.map(lambda a: BoxJoin(tuple(a))),
            args.map(lambda a: bmeet(*a)),
            args.map(lambda a: bjoin(*a)),
        )

    return st.recursive(leaves, branches, max_leaves=6)


@st.composite
def templates(draw):
    """Half the bounds and ``U_q``s constant, so that templates whose
    only varying boxes are overlaps (the packer's constant-shape form)
    are common."""
    terms = st.one_of(constants(), boxfuncs())
    overlaps = draw(
        st.lists(st.builds(OverlapTemplate, p_upper=boxfuncs(), q_upper=terms), max_size=3)
    )
    return StepTemplate("x", draw(terms), draw(terms), tuple(overlaps))


@st.composite
def environments(draw):
    """``(binding, consts)``: each name a row's box, a constant box, or
    both (the row's box wins, as in ``ExecutionContext.box_env``)."""
    binding, consts = {}, {}
    for name in NAMES:
        where = draw(st.sampled_from(["row", "const", "both"]))
        if where != "const":
            binding[name] = SimpleNamespace(box=draw(boxes()))
        if where != "row":
            consts[name] = draw(boxes())
    return binding, consts


@given(
    templates(),
    st.lists(environments(), min_size=1, max_size=4),
    st.sampled_from([None, UNIVERSE, Box((-1.0, 2.5), (31.0, 64.0))]),
)
@settings(max_examples=400, deadline=None)
def test_packer_equals_pack_query_of_instantiate(template, envs, universe):
    pack = template.packer(universe, 2)
    for binding, consts in envs:
        env = dict(consts)
        env.update((name, row.box) for name, row in binding.items())
        query = template.instantiate(env, universe)
        got = pack(binding, consts)
        if query.is_unsatisfiable():
            assert got is None
            assert not query.matches(EMPTY_BOX)
            continue
        assert repr(got) == repr(pack_query(query, 2))
        assert matches_empty(got[0]) == query.matches(EMPTY_BOX)


def test_packer_is_compiled_once_per_value():
    """Equal templates share one packer; another universe or dimension
    compiles another."""
    def make():
        return StepTemplate("x", BOT, TOP, (OverlapTemplate(BoxVar("a"), BOT),))

    pack = make().packer(UNIVERSE, 2)
    assert make().packer(UNIVERSE, 2) is pack
    assert make().packer(None, 2) is not pack
    assert make().packer(UNIVERSE, 3) is not pack
    # The overlay join's step: the universe's coordinates, then the row's.
    row = SimpleNamespace(box=Box((1.0, 2.0), (3.0, 4.0)))
    assert pack({"a": row}, {}) == ((True, False, 1), (0.0, 0.0, 32.0, 32.0, 1.0, 2.0, 3.0, 4.0))
    assert pack({"a": SimpleNamespace(box=EMPTY_BOX)}, {}) is None


@given(edge_box_queries(), edge_boxes())
@settings(max_examples=400, deadline=None)
def test_packed_matches_equals_query_matches(query, box):
    """Boxes with sorted corners (nonempty but for a degenerate side)
    share edges with the query's boxes often."""
    box = Box(tuple(map(min, box.lo, box.hi)), tuple(map(max, box.lo, box.hi)))
    if query.is_unsatisfiable():
        return
    assert packed_matches(*pack_query(query, 2), box) == query.matches(box)


# -- operator level -------------------------------------------------------------
def _region(rng):
    """Mostly one box; a quarter two or three boxes; a few empty."""
    kind = rng.random()
    if kind < 0.05:
        return Region.from_boxes([])
    count = 1 if kind < 0.75 else rng.randint(2, 3)
    out = []
    for _ in range(count):
        x, y = rng.uniform(0, 28), rng.uniform(0, 28)
        out.append(Box((x, y), (x + rng.uniform(0.5, 3), y + rng.uniform(0.5, 3))).meet(UNIVERSE))
    return Region.from_boxes(out)


def _tables(seed, index, delta):
    rng = random.Random(shifted_seed(seed))
    tables = {}
    for name in ("x", "y"):
        table = SpatialTable(name, 2, universe=UNIVERSE, delta_threshold=10**9)
        table.bulk_insert([(i, _region(rng)) for i in range(70)])
        if delta:
            for i in range(70, 82):
                table.stage_insert(i, _region(rng))
            for oid in rng.sample(range(70), 6):
                assert table.stage_delete(oid)
        tables[name] = scan_twin(table) if index == "scan" else table
    return tables


TEXTS = (
    "x & y !<= 0",  # every mark holds where x is one box
    "y <= x",  # the upper bound's mark: x one box
    "x & y !<= 0\ny & P !<= 0",  # P has two boxes: no binding decides
)


def _oids(answers):
    return [tuple(sorted((name, obj.oid) for name, obj in a.items())) for a in answers]


@pytest.mark.parametrize("text", TEXTS, ids=["overlay", "inside", "multibox-const"])
@pytest.mark.parametrize("delta", [False, True], ids=["clean", "delta"])
@pytest.mark.parametrize("index", ["rtree", "scan"])
def test_multibox_join_matches_per_binding_probing(index, delta, text):
    tables = _tables(5, index, delta)
    two_boxes = [Box((2.0, 2.0), (12.0, 9.0)), Box((15.0, 14.0), (30.0, 31.0))]
    bindings = {"P": Region.from_boxes(two_boxes)}
    system = parse_system(text)
    if "P" not in system.variables():
        bindings = {}
    logical = compile_query(
        SpatialQuery(system=system, tables=tables, bindings=bindings), order=("x", "y")
    )
    grouped = build_physical_plan(logical, estimate=False)
    oracle = probe_per_binding(build_physical_plan(logical, estimate=False))
    with mock.patch.object(
        SolvedConstraint, "bind", autospec=True, side_effect=SolvedConstraint.bind
    ) as eager:
        expected = _oids(oracle.execute_iter())
    expected_stats = oracle.stats().to_dict()
    with mock.patch.object(
        SolvedConstraint, "bind", autospec=True, side_effect=SolvedConstraint.bind
    ) as lazy:
        assert _oids(grouped.execute_iter()) == expected
    assert grouped.stats().to_dict() == expected_stats
    assert expected, "the workload joins nothing"
    assert expected_stats["region_ops"] > 0, "no multi-box row was checked"
    # Binding is lazy: never more than the eager walk, and fewer on the
    # overlay, where a binding whose marks all hold and whose candidates
    # are all one box needs no bound C_i.  (``y <= x`` admits the empty
    # rows under every binding, and each is checked.)
    assert lazy.call_count <= eager.call_count
    if text == TEXTS[0]:
        assert lazy.call_count < eager.call_count
    for k in (1, 2, 3, 7, 40, len(expected)):
        got = _oids(grouped.execute_iter(limit=k))
        assert got == _oids(oracle.execute_iter(limit=k)) == expected[:k], k
        assert grouped.stats().to_dict() == oracle.stats().to_dict(), k


"""Query execution: the public façade over the physical operator engine.

All four modes return the same answer set (property-tested); since the
operator-tree refactor they are *plan configurations* — see
:mod:`repro.engine.physical` for the operator set and per-mode plan
shapes — rather than separate executors:

``naive``
    The unoptimised strawman: full cross product of all tables, with the
    original constraint system checked exactly on every combination.
    Exponential in the number of variables.

``exact``
    The paper's *incremental* idea without the bounding-box layer:
    partial tuples are extended one variable at a time and pruned with
    the exact solved constraint ``C_i`` — "we need only keep those
    partial solutions for which there is some possible assignment to the
    remaining unknown variables" — but every prune costs exact region
    algebra.

``boxplan``
    The full optimization: each step issues ONE bounding-box range query
    compiled by Algorithm 2 (cheap index work), then checks the exact
    ``C_i`` only on the survivors.  Because ``C_i`` is checked exactly at
    every level and ``C_n`` rewrites the whole system, the final answers
    satisfy the original system with no extra verification pass.

``boxonly``
    A diagnostic mode: box filtering only, exact check deferred to the
    final complete tuples.  Shows how much the (incomplete) box filter
    over-admits — used by the approximation-quality benchmarks.

Every mode streams: :func:`execute_iter` yields answers as they are
found (depth-first through the operator tree), and ``limit=k`` stops
after ``k`` answers without materialising the rest of the search space.
:func:`execute` simply drains the iterator and returns the classic
``(answers, stats)`` pair.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..spatial.table import SpatialObject
from .compiler import QueryPlan
from .physical import MODES, build_physical_plan
from .stats import ExecutionStats

Answer = Dict[str, SpatialObject]

__all__ = [
    "MODES",
    "Answer",
    "answers_as_oid_tuples",
    "execute",
    "execute_iter",
]


def execute(
    plan: QueryPlan, mode: str = "boxplan"
) -> Tuple[List[Answer], ExecutionStats]:
    """Run a compiled plan in the given mode.

    Returns ``(answers, stats)``; answers are dictionaries mapping each
    unknown variable to the chosen :class:`SpatialObject`.  An unknown
    ``mode`` raises :class:`~repro.errors.UnknownModeError` naming the
    valid modes.
    """
    # estimate=False: catalog cost annotations are EXPLAIN-only and the
    # rollouts would otherwise dominate small-query execution time.
    return build_physical_plan(plan, mode=mode, estimate=False).run()


def execute_iter(
    plan: QueryPlan, mode: str = "boxplan", limit: Optional[int] = None
) -> Iterator[Answer]:
    """Streaming execution — answers are yielded as found.

    The operator tree is pulled depth-first, so the *first* answers
    arrive after touching only a sliver of the search space (benchmark
    E12 measures first-k latency).  All four modes stream; answer *sets*
    equal :func:`execute`'s, order may differ between modes.  ``limit``
    bounds the number of answers with early exit.
    """
    return build_physical_plan(plan, mode=mode, estimate=False).execute_iter(
        limit=limit
    )


def answers_as_oid_tuples(
    answers: Sequence[Answer], order: Sequence[str]
) -> List[Tuple[object, ...]]:
    """Project answers to oid tuples in a fixed variable order (for
    set-comparison in tests and benches)."""
    return sorted(
        tuple(a[v].oid for v in order) for a in answers
    )

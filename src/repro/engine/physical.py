"""Physical operator trees: the Volcano-style streaming executor.

The engine is a three-stage pipeline:

1. :class:`~repro.engine.query.SpatialQuery` — what the user states;
2. :class:`~repro.engine.compiler.QueryPlan` — the *logical* plan: the
   triangular solved forms and their bounding-box templates, in a
   retrieval order (the paper's Algorithms 1 and 2);
3. a **physical plan** (this module) — a tree of pull-based operators,
   each an iterator over partial *bindings* (``variable →
   SpatialObject``).  Answers stream out of the root as they are found,
   so ``limit=k`` touches only a sliver of the search space.

The four semantics-equivalent execution modes are *plan-construction
strategies* over one operator set rather than separate executors:

``naive``
    ``Once → CrossProduct* → ExactFilter(system)`` — the full cross
    product with the original system checked on complete tuples only.
``exact``
    ``Once → (TableScan → ExactFilter(C_i))*`` — the paper's incremental
    join pruned with the exact solved constraints, no box layer.
``boxplan``
    ``Once → (IndexProbe → ExactFilter(C_i))*`` — the full optimization:
    ONE compiled range query per step, exact checks on the survivors,
    less the conjuncts of ``C_i`` that query decided for a one-box row
    (:func:`~repro.boxes.bconstraints.box_decided`; see
    :class:`ExactFilter`).
    Tables without an index (``"scan"`` backend) get a
    :class:`VectorizedScanProbe`: the same range query, answered by one
    columnar kernel call over the table's rows.
``boxonly``
    ``Once → IndexProbe* → ExactFilter(system)`` — the diagnostic mode:
    box filtering only, exact check deferred to complete tuples.

Every operator keeps its own :class:`OperatorStats`;
:meth:`PhysicalPlan.stats` folds them into the classic
:class:`~repro.engine.stats.ExecutionStats` so all pre-existing counter
consumers (benchmarks, CI gates) keep working.  :meth:`PhysicalPlan.
explain` renders the tree with the statistics' cardinality estimates
and — once the plan has run — per-operator actual rows/probes/node
reads.

**kNN.**  A query's kNN restriction replaces its variable's access
path with one :class:`KNNProbe`, in every mode: the table's index picks
its path (:meth:`~repro.spatial.table.SpatialTable.nearest`), and it
probes once per distinct anchor (see the class).

**Bulk joins.**  Every default plan probes.  ``join_strategy=`` forces
one of two bulk extend operators on every box-mode step: the PBSM
``PartitionedSpatialJoin`` or the z-order ``ZOrderJoin`` (see each
class).  Both emit exactly the rows the per-tuple probes would (property
tested); they are slower than the probe on every measured size and stay
only for the forced legs of ``benchmarks/e2e/workloads.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from operator import attrgetter
from typing import Any, Dict, FrozenSet, Iterator, List, Mapping, Optional, Tuple, TYPE_CHECKING

from ..algebra.regions import RegionAlgebra
from ..boolean.syntax import FALSE, TRUE
from ..boxes.bconstraints import box_decided
from ..boxes.box import EMPTY_BOX, Box, enclose_all
from ..constraints.solved import BoundConstraint, SolvedConstraint
from ..constraints.system import ConstraintSystem
from ..errors import OptionError, UnknownModeError
from ..spatial.partition import (
    DEFAULT_TILES,
    JoinStats,
    pbsm_join,
    probe_box,
)
from ..spatial.table import SpatialObject, SpatialTable
from .compiler import QueryPlan
from .stats import ExecutionStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..boxes.bconstraints import BoxQuery, StepTemplate
    from .query import AggregateSpec, KNNStep

#: A partial (or complete) answer: variable name → retrieved object.
Binding = Dict[str, SpatialObject]
#: An input binding with the candidate rows for the next variable.
CandidateList = Tuple[Binding, List[SpatialObject]]

MODES = ("naive", "exact", "boxplan", "boxonly")

#: Join algorithms :func:`build_physical_plan` can run on every box-mode
#: step: the index probe (the default), and the two bulk joins.
JOIN_STRATEGIES = ("probe", "pbsm", "zorder")

_region = attrgetter("region")

#: Ceiling of :class:`IndexProbe`'s group ramp: a 700-probe drain is
#: flat from 64 up (within run-to-run noise), past it only the
#: read-ahead grows (benchmarks/results/pr14_batched_probe.md).
_MAX_GROUP = 128


@dataclass
class OperatorStats:
    """Actual per-operator counters for the most recent execution."""

    rows_in: int = 0  # bindings pulled from the child
    rows_out: int = 0  # bindings yielded
    probes: int = 0  # range-query/scan requests
    node_reads: int = 0  # index reads those probes cost
    region_ops: int = 0  # exact region-algebra operations
    box_evals: int = 0  # box-template instantiations
    pair_tests: int = 0  # candidate box tests (sweeps, bulk-join checks)
    tiles_swept: int = 0  # PBSM tiles holding boxes of both sides
    dedup_skipped: int = 0  # PBSM boundary duplicates suppressed
    vectorized_batches: int = 0  # columnar kernel dispatches
    vectorized_candidates: int = 0  # rows/entries those kernels saw
    delta_probes: int = 0  # probes that merged a pending write delta
    executed: bool = False  # has the operator been pulled at all?


class ExecutionContext:
    """Per-execution state shared by all operators of one plan run."""

    def __init__(self, plan: QueryPlan) -> None:
        self.plan = plan
        self.algebra = plan.algebra
        self.universe: Box = plan.algebra.universe_box
        #: The constant boxes (what a step's packer reads beside a binding).
        self.box_consts = {
            name: region.bounding_box()
            for name, region in plan.query.bindings.items()
        }
        self._base_region_env = dict(plan.query.bindings)

    def box_env(self, binding: Binding) -> Dict[str, Box]:
        """Constant boxes plus the boxes of the retrieved prefix."""
        env = dict(self.box_consts)
        for name, obj in binding.items():
            env[name] = obj.box
        return env

    def region_env(self, binding: Binding) -> Dict[str, object]:
        """Constant regions plus the regions of the retrieved prefix."""
        env = dict(self._base_region_env)
        for name, obj in binding.items():
            env[name] = obj.region
        return env


class PhysicalOperator:
    """Base class: a node of the physical plan.

    Subclasses implement :meth:`iterate` as a generator of bindings
    pulled lazily from ``child`` (``None`` only for sources).  ``stats``
    is reset by the owning :class:`PhysicalPlan` before each execution;
    ``est_rows`` is the catalog's pre-run cardinality estimate (``None``
    when no estimate could be computed).
    """

    kind = "operator"

    def __init__(self, child: Optional["PhysicalOperator"] = None) -> None:
        self.child = child
        self.stats = OperatorStats()
        self.est_rows: Optional[float] = None

    @property
    def children(self) -> Tuple["PhysicalOperator", ...]:
        return (self.child,) if self.child is not None else ()

    def iterate(self, ctx: ExecutionContext) -> Iterator[Binding]:
        raise NotImplementedError

    def describe(self) -> str:
        """One-line operator description for EXPLAIN output."""
        return f"{self.kind}()"

    def reset_stats(self) -> None:
        self.stats = OperatorStats()
        for c in self.children:
            c.reset_stats()


class Once(PhysicalOperator):
    """Source: yields a single empty binding (the root of every chain)."""

    kind = "Once"

    def iterate(self, ctx: ExecutionContext) -> Iterator[Binding]:
        self.stats.executed = True
        self.stats.rows_out += 1
        yield {}


class ExtendStep(PhysicalOperator):
    """Base of the binding-extending operators.

    An extend step pulls bindings from its child and hands each over
    with its candidate rows of ``table`` (:meth:`candidate_lists`); as an
    iterator it yields one extended binding per candidate, with the row
    bound to ``variable``.  Subclasses differ only in the access path.
    """

    kind = "ExtendStep"

    def __init__(
        self,
        child: PhysicalOperator,
        variable: str,
        table: SpatialTable,
    ) -> None:
        super().__init__(child)
        self.variable = variable
        self.table = table

    def describe(self) -> str:
        return f"{self.kind}({self.variable} from {self.table.name})"

    def _rows(
        self, ctx: ExecutionContext, binding: Binding
    ) -> List[SpatialObject]:
        raise NotImplementedError

    def _vectorized_mark(self) -> Tuple[int, int, int]:
        """Snapshot the table's columnar-kernel and delta counters."""
        return (
            self.table.vectorized_batches,
            self.table.vectorized_candidates,
            self.table.delta_probes,
        )

    def _vectorized_absorb(self, mark: Tuple[int, int, int]) -> None:
        """Attribute kernel/delta work done since ``mark`` to this
        operator (billing parity: the table-level counters advance in
        lockstep with the per-operator ones)."""
        batches, candidates, delta_probes = mark
        self.stats.vectorized_batches += (
            self.table.vectorized_batches - batches
        )
        self.stats.vectorized_candidates += (
            self.table.vectorized_candidates - candidates
        )
        self.stats.delta_probes += self.table.delta_probes - delta_probes

    def _group_cap(self, ctx: ExecutionContext) -> int:
        """Most input bindings :meth:`_group_rows` takes at once."""
        return 1

    def _group_rows(
        self, ctx: ExecutionContext, group: List[Binding]
    ) -> List[List[SpatialObject]]:
        """The extension rows of each binding of ``group``."""
        return [self._rows(ctx, binding) for binding in group]

    def candidate_lists(self, ctx: ExecutionContext) -> Iterator[CandidateList]:
        """Each input binding with its candidate rows, in input order,
        the input pulled in groups of 1, 2, 4, ... up to
        :meth:`_group_cap` (doubling keeps the read-ahead under
        ``limit=`` below twice what the answers so far needed).  Whoever
        walks a list bills the rows it takes to ``stats.rows_out``, so
        a walk that stops partway stops the count there too."""
        self.stats.executed = True
        upstream = self.child.iterate(ctx)
        cap = self._group_cap(ctx)
        size = 1
        while True:
            group = list(islice(upstream, size))
            if not group:
                return
            self.stats.rows_in += len(group)
            yield from zip(group, self._group_rows(ctx, group))
            size = min(2 * size, cap)

    def iterate(self, ctx: ExecutionContext) -> Iterator[Binding]:
        """Every row of every candidate list, as an extended binding."""
        stats, variable = self.stats, self.variable
        for binding, rows in self.candidate_lists(ctx):
            for obj in rows:
                extended = dict(binding)
                extended[variable] = obj
                stats.rows_out += 1
                yield extended


class TableScan(ExtendStep):
    """Extend with every row of the table (one scan, lazily cached).

    The access path of the ``exact`` mode: the scan costs one probe
    regardless of how many input bindings flow through.
    """

    kind = "TableScan"

    def __init__(self, child: PhysicalOperator, variable: str, table: SpatialTable) -> None:
        super().__init__(child, variable, table)
        self._scanned: Optional[List[SpatialObject]] = None

    def reset_stats(self) -> None:
        self._scanned = None
        super().reset_stats()

    def _rows(
        self, ctx: ExecutionContext, binding: Binding
    ) -> List[SpatialObject]:
        if self._scanned is None:
            before = self.table.index_read_count()
            mark = self._vectorized_mark()
            self._scanned = self.table.scan()
            self.stats.probes += 1
            self.stats.node_reads += (
                self.table.index_read_count() - before
            )
            self._vectorized_absorb(mark)
        return self._scanned


class CrossProduct(TableScan):
    """A :class:`TableScan` in cross-product position (naive mode).

    Identical mechanics; the distinct name keeps EXPLAIN output honest —
    no per-step filter follows, so the operator's output really is the
    running cross product.
    """

    kind = "CrossProduct"


class IndexProbe(ExtendStep):
    """Extend via ONE compiled range query per input binding (§4).

    The step's box template is compiled once into a packer
    (:meth:`StepTemplate.packer <repro.boxes.bconstraints.StepTemplate.
    packer>`), which maps each binding's boxes straight to the packed
    query the table's index reads (:meth:`SpatialTable.range_query_packed
    <repro.spatial.table.SpatialTable.range_query_packed>`): no
    ``BoxQuery`` per binding, on a clean table or over a write delta.

    Where the table probes set-at-a-time (:meth:`SpatialTable.
    batches_probes <repro.spatial.table.SpatialTable.batches_probes>`)
    the input bindings come in growing groups (:meth:`ExtendStep.
    iterate`) and each group's range queries share one index traversal.
    Output order and every counter are those of probing binding by
    binding.
    """

    kind = "IndexProbe"

    def __init__(
        self, child: PhysicalOperator, variable: str, table: SpatialTable, template: "StepTemplate"
    ) -> None:
        super().__init__(child, variable, table)
        self.template = template

    def _group_cap(self, ctx: ExecutionContext) -> int:
        return _MAX_GROUP if self.table.batches_probes() else 1

    def _group_rows(
        self, ctx: ExecutionContext, group: List[Binding]
    ) -> List[List[SpatialObject]]:
        """The candidate rows of each binding of ``group``, billed as
        that many single probes."""
        pack, consts = self.template.packer(ctx.universe, self.table.dim), ctx.box_consts
        packed = [pack(binding, consts) for binding in group]
        self.stats.box_evals += len(group)
        self.stats.probes += len(group)
        before = self.table.index_read_count()
        mark = self._vectorized_mark()
        results = self.table.range_query_packed(packed)
        self.stats.node_reads += self.table.index_read_count() - before
        self._vectorized_absorb(mark)
        return results


class VectorizedScanProbe(IndexProbe):
    """A fused scan + box filter over the table's columnar mirror.

    The box-mode access path of unindexed tables: the step's
    instantiated box query is evaluated by one
    :meth:`~repro.spatial.columnar.ColumnStore.match_rows` batch per
    input binding instead of one ``query.matches`` call per row.  The
    mechanics are :class:`IndexProbe`'s (the table's scan-backend range
    query is that kernel, with a pending write delta overlaid), so
    the stats mapping comes for free.
    """

    kind = "VectorizedScanProbe"


class KNNProbe(ExtendStep):
    """Extend with the ``k`` rows nearest to an anchor.

    The anchor is the logical :class:`~repro.engine.query.KNNStep`'s
    point, or the bounding box of its ``ref``: a constant binding or an
    already-retrieved variable.  Each distinct anchor costs one
    :meth:`~repro.spatial.table.SpatialTable.nearest` probe — a
    best-first browse on r-tree tables, the columnar distance kernel on
    scan tables — and its ranked rows are kept for the rest of the
    execution.  A point or a constant anchor never changes, so it probes
    once per execution; a variable anchor probes once per distinct box
    (the index-nested-loop distance join, whose repeated anchors — common
    when intermediate variables between the anchor and this step fan
    out — cost nothing).  EXPLAIN labels the per-tuple form
    ``DistanceJoin``.  Rows extend in nondecreasing distance, so a
    ``limit=k`` stream returns the nearest answers first (distance
    browsing at the query level).
    """

    kind = "KNNProbe"

    def __init__(
        self,
        child: PhysicalOperator,
        variable: str,
        table: SpatialTable,
        knn: "KNNStep",
        per_tuple: bool = False,
    ) -> None:
        super().__init__(child, variable, table)
        self.knn = knn
        if per_tuple:
            self.kind = "DistanceJoin"
        self._ranked: Dict[Any, List[SpatialObject]] = {}

    def describe(self) -> str:
        anchor = (
            f"point={self.knn.point}"
            if self.knn.point is not None
            else f"ref={self.knn.ref}"
        )
        return (
            f"{self.kind}({self.variable} from {self.table.name}, "
            f"k={self.knn.k}, {anchor})"
        )

    def reset_stats(self) -> None:
        self._ranked = {}
        super().reset_stats()

    def _rows(
        self, ctx: ExecutionContext, binding: Binding
    ) -> List[SpatialObject]:
        if self.knn.point is not None:
            anchor: Any = self.knn.point
        else:
            anchor = ctx.box_env(binding)[self.knn.ref]
        rows = self._ranked.get(anchor)
        if rows is None:
            self.stats.probes += 1
            before = self.table.index_read_count()
            mark = self._vectorized_mark()
            ranked = self.table.nearest(anchor, self.knn.k)
            self.stats.node_reads += self.table.index_read_count() - before
            self._vectorized_absorb(mark)
            rows = self._ranked[anchor] = [obj for _dist, obj in ranked]
        return rows


@dataclass(frozen=True)
class AggregateRow:
    """One output row of an aggregation.

    ``group`` pairs each group-by variable with the oid keying the
    group (empty for ungrouped aggregates); ``values`` maps the spec's
    labels (``"count"``, ``"min(T)"``, …) to their aggregated numbers
    (``None`` for a min/max over an empty ungrouped input, like SQL's
    NULL).
    """

    group: Tuple[Tuple[str, object], ...]
    values: Dict[str, Optional[float]]

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {var: oid for var, oid in self.group}
        out.update(self.values)
        return out


class Aggregate(PhysicalOperator):
    """Fold the answer stream into aggregate rows (blocking).

    Supports ``count`` plus ``min``/``max`` over the bounding-box
    volume of a target variable, grouped by the oids of the ``group_by``
    variables.  Consumes its child fully, then emits one
    :class:`AggregateRow` per group in a deterministic order (groups
    sorted by the ``repr`` of their key oids) — so every join strategy
    upstream produces the same aggregate stream.

    SQL semantics on empty input: the *ungrouped* form emits a single
    row (count 0, min/max ``None``) — matching what the COUNT pushdown
    emits for the same logical query — while a grouped aggregate emits
    no rows.
    """

    kind = "Aggregate"

    def __init__(
        self, child: PhysicalOperator, spec: "AggregateSpec"
    ) -> None:
        super().__init__(child)
        self.spec = spec

    def describe(self) -> str:
        return f"{self.kind}({self.spec.describe()})"

    def iterate(self, ctx: ExecutionContext) -> Iterator[Binding]:
        self.stats.executed = True
        spec = self.spec
        groups: Dict[Tuple, Dict[str, float]] = {}
        for binding in self.child.iterate(ctx):
            self.stats.rows_in += 1
            key = tuple(binding[v].oid for v in spec.group_by)
            acc = groups.get(key)
            if acc is None:
                acc = groups[key] = {}
            for label, (op, target) in zip(spec.labels(), spec.aggregates):
                if op == "count":
                    acc[label] = acc.get(label, 0) + 1
                    continue
                measure = binding[target].box.volume()
                if label not in acc:
                    acc[label] = measure
                elif op == "min":
                    acc[label] = min(acc[label], measure)
                else:
                    acc[label] = max(acc[label], measure)
        if not groups and not spec.group_by:
            # SQL semantics: an ungrouped aggregate of nothing is one
            # row, not zero rows (keeps the exact and pushdown COUNT
            # strategies in agreement on empty inputs).
            self.stats.rows_out += 1
            yield AggregateRow(
                group=(),
                values={
                    label: (0 if op == "count" else None)
                    for label, (op, _t) in zip(
                        spec.labels(), spec.aggregates
                    )
                },
            )
            return
        for key in sorted(groups, key=lambda k: tuple(repr(o) for o in k)):
            self.stats.rows_out += 1
            yield AggregateRow(
                group=tuple(zip(spec.group_by, key)), values=groups[key]
            )


class IndexCountAggregate(PhysicalOperator):
    """The COUNT pushdown: answer an ungrouped single-variable box-level
    count straight from the index.

    Instantiates the lone step's box template on the constant bindings
    and delegates to :meth:`~repro.spatial.table.SpatialTable.
    count_range` — on r-tree tables, subtrees fully inside a pure
    containment query contribute their cached entry counts without
    being read.  Emits a single :class:`AggregateRow`; the count is the
    number of rows whose *box* matches the template (the
    ``exact=False`` semantics of :class:`~repro.engine.query.
    AggregateSpec`).
    """

    kind = "IndexCountAggregate"

    def __init__(
        self,
        variable: str,
        table: SpatialTable,
        template: "StepTemplate",
    ) -> None:
        super().__init__(None)
        self.variable = variable
        self.table = table
        self.template = template

    def describe(self) -> str:
        return f"{self.kind}(count {self.variable} from {self.table.name})"

    def iterate(self, ctx: ExecutionContext) -> Iterator[Binding]:
        self.stats.executed = True
        query = self.template.instantiate(ctx.box_env({}), ctx.universe)
        self.stats.box_evals += 1
        self.stats.probes += 1
        before = self.table.index_read_count()
        delta_before = self.table.delta_probes
        n = self.table.count_range(query)
        self.stats.node_reads += self.table.index_read_count() - before
        self.stats.delta_probes += self.table.delta_probes - delta_before
        self.stats.rows_out += 1
        yield AggregateRow(group=(), values={"count": n})


class _BulkJoinStep(ExtendStep):
    """Base of the bulk (set-at-a-time) join operators.

    Unlike the per-tuple probes, a bulk join *materialises* its child's
    bindings, instantiates one box query each, joins all probe boxes
    against the table in one pass, and re-emits the extended bindings
    grouped by input binding (then by table row order) — deterministic
    whatever order the join itself finds the pairs in.  No join sees a
    row whose region is empty: after the groups, each binding whose box
    query an empty box satisfies gets the table's empty rows, as
    :meth:`~repro.spatial.table.SpatialTable.range_query_batch` adds
    them to a probe.  Subclasses
    implement :meth:`_candidate_pairs` returning candidate
    ``(binding index, row index)`` pairs whose boxes overlap; the full
    box query is verified here, so each strategy admits exactly the
    rows an :class:`IndexProbe` would.
    """

    def _candidate_pairs(
        self,
        ctx: ExecutionContext,
        probes: List[Tuple[int, Box]],
        rows: List[SpatialObject],
    ) -> List[Tuple[int, int]]:
        raise NotImplementedError

    def candidate_lists(self, ctx: ExecutionContext) -> Iterator[CandidateList]:
        self.stats.executed = True
        bindings: List[Binding] = []
        queries = []
        for binding in self.child.iterate(ctx):
            self.stats.rows_in += 1
            query = self.template.instantiate(
                ctx.box_env(binding), ctx.universe
            )
            self.stats.box_evals += 1
            bindings.append(binding)
            queries.append(query)
        if not bindings:
            return
        self.stats.probes += 1
        rows: List[SpatialObject] = []
        row_pos: List[int] = []  # columnar slot of each kept row
        empty: List[SpatialObject] = []
        for slot, obj in enumerate(self.table.scan()):
            if obj.box.is_empty():
                empty.append(obj)
            else:
                rows.append(obj)
                row_pos.append(slot)
        if rows:
            yield from self._joined_lists(ctx, bindings, queries, rows, row_pos)
        if empty:
            for binding, query in zip(bindings, queries):
                if query.matches(EMPTY_BOX):
                    yield binding, empty

    def _joined_lists(
        self,
        ctx: ExecutionContext,
        bindings: List[Binding],
        queries: List["BoxQuery"],
        rows: List[SpatialObject],
        row_pos: List[int],
    ) -> Iterator[CandidateList]:
        """The candidate lists of the nonempty ``rows``, grouped by
        binding: the pairs the join finds, checked against the full box
        query."""
        extent = enclose_all(obj.box for obj in rows)
        probes: List[Tuple[int, Box]] = []
        for i, query in enumerate(queries):
            if query.is_unsatisfiable():
                continue
            p = probe_box(query, extent)
            if not p.is_empty():
                probes.append((i, p))
        if not probes:
            return
        pairs = self._candidate_pairs(ctx, probes, rows)
        pairs.sort()
        store = self.table.column_store()
        if store is None:
            # One list per matching pair, so the pair tests are billed
            # only as far as the consumer walks.
            for i, seq in pairs:
                self.stats.pair_tests += 1
                if queries[i].matches(rows[seq].box):
                    yield bindings[i], [rows[seq]]
            return
        # Vectorized verification: the sorted pair list is contiguous
        # per input binding, so each group is one batched kernel over
        # its candidate rows' columnar slots.  Candidate order is
        # ascending within a group, so the row order (binding, then
        # table row order) matches the scalar loop exactly.
        start, n = 0, len(pairs)
        while start < n:
            i = pairs[start][0]
            end = start
            while end < n and pairs[end][0] == i:
                end += 1
            seqs = [pairs[p][1] for p in range(start, end)]
            start = end
            self.stats.pair_tests += len(seqs)
            self.stats.vectorized_batches += 1
            self.stats.vectorized_candidates += len(seqs)
            matched = store.match_positions(
                queries[i], candidates=[row_pos[s] for s in seqs]
            )
            if matched:
                yield bindings[i], [rows[seqs[j]] for j in matched]


class PartitionedSpatialJoin(_BulkJoinStep):
    """PBSM: co-partition probe boxes and rows, plane-sweep per tile.

    Probe boxes (one per incoming partial tuple, a sound
    necessary-condition box for the tuple's compiled query) and the
    table's row boxes are replicated onto a shared uniform
    :class:`~repro.spatial.partition.TileGrid`; each tile is
    plane-swept independently, with boundary duplicates suppressed by
    the reference-point rule.
    """

    kind = "PartitionedSpatialJoin"

    def __init__(
        self,
        child: PhysicalOperator,
        variable: str,
        table: SpatialTable,
        template: "StepTemplate",
        partitions: int = DEFAULT_TILES,
    ) -> None:
        super().__init__(child, variable, table)
        self.template = template
        self.n_tiles = max(1, partitions)

    def describe(self) -> str:
        return (
            f"{self.kind}({self.variable} from {self.table.name}, "
            f"tiles={self.n_tiles})"
        )

    def _candidate_pairs(
        self,
        ctx: ExecutionContext,
        probes: List[Tuple[int, Box]],
        rows: List[SpatialObject],
    ) -> List[Tuple[int, int]]:
        join_stats = JoinStats()
        pairs = pbsm_join(
            [(box, i) for i, box in probes],
            [(obj.box, seq) for seq, obj in enumerate(rows)],
            n_tiles=self.n_tiles,
            stats=join_stats,
        )
        self.stats.tiles_swept += join_stats.tiles
        self.stats.pair_tests += join_stats.pair_tests
        self.stats.dedup_skipped += join_stats.dedup_skipped
        return pairs


class ZOrderJoin(_BulkJoinStep):
    """The PROBE-style join: merge two z-interval streams.

    Probe boxes and row boxes are decomposed into z-order interval
    lists over a shared :class:`~repro.spatial.zorder.ZGrid` and
    sort-merge joined (:func:`~repro.spatial.zorder.zorder_join`); the
    surviving candidate pairs are verified against the full compiled
    box query like every other strategy.
    """

    kind = "ZOrderJoin"

    def __init__(
        self,
        child: PhysicalOperator,
        variable: str,
        table: SpatialTable,
        template: "StepTemplate",
        levels: int = 6,
    ) -> None:
        super().__init__(child, variable, table)
        self.template = template
        self.levels = levels

    def describe(self) -> str:
        return (
            f"{self.kind}({self.variable} from {self.table.name}, "
            f"levels={self.levels})"
        )

    def _candidate_pairs(
        self,
        ctx: ExecutionContext,
        probes: List[Tuple[int, Box]],
        rows: List[SpatialObject],
    ) -> List[Tuple[int, int]]:
        from ..spatial.zorder import ZGrid, ZOrderIndex, zorder_join

        universe = self.table.universe
        extent = universe if universe is not None else Box((), ())
        for _i, box in probes:
            extent = extent.enclose(box)
        for obj in rows:
            extent = extent.enclose(obj.box)
        if extent.is_empty():
            return []
        grid = ZGrid(extent, levels=self.levels)
        left = ZOrderIndex(grid)
        right = ZOrderIndex(grid)
        # Batched z-key computation (bit-identical to the scalar
        # inserts); count the boxes the batch kernel considered.
        self.stats.vectorized_batches += 2
        self.stats.vectorized_candidates += len(probes) + len(rows)
        left.insert_batch([(box, i) for i, box in probes])
        right.insert_batch([(obj.box, seq) for seq, obj in enumerate(rows)])
        return list(zorder_join(left, right, exact=True))


class BoxFilter(ExtendStep):
    """Filter a kNN step's candidates by the step's box query.

    Follows a kNN step in the box modes: the kNN restriction supplies
    the candidate extensions, and this operator applies the box
    predicate the step's range query would have evaluated.
    """

    kind = "BoxFilter"

    def __init__(
        self,
        child: ExtendStep,
        variable: str,
        template: "StepTemplate",
    ) -> None:
        super().__init__(child, variable, child.table)
        self.template = template

    def describe(self) -> str:
        return f"{self.kind}([{self.variable}])"

    def candidate_lists(self, ctx: ExecutionContext) -> Iterator[CandidateList]:
        """Walk the kNN step's lists and hand on each row that passes
        as a list of its own, so the box test runs only as far as the
        consumer walks.  The box query is instantiated once per list
        (its binding is the list's), and ``box_evals`` billed per row
        tested, as when it was instantiated per row."""
        self.stats.executed = True
        extend = self.child
        for binding, rows in extend.candidate_lists(ctx):
            if not rows:
                continue
            query = self.template.instantiate(ctx.box_env(binding), ctx.universe)
            live = not query.is_unsatisfiable()
            for obj in rows:
                extend.stats.rows_out += 1
                self.stats.rows_in += 1
                self.stats.box_evals += 1
                if not (live and query.matches(obj.box)):
                    continue
                yield binding, [obj]


class ExactFilter(PhysicalOperator):
    """Filter bindings with exact region algebra.

    Two flavours, matching the paper: a *step* filter checks one solved
    constraint ``C_i`` on the candidates its extend child hands over
    for ``variable`` (``boxplan``/``exact``); a *final* filter checks
    the whole original system on complete tuples (``naive``/
    ``boxonly``).

    With ``after_box_query`` (``boxplan``) every candidate has passed
    the step's range query, so :attr:`box_decided` holds the marks
    :func:`~repro.boxes.bconstraints.box_decided` derives from
    ``solved``: a one-box candidate skips each conjunct that query
    decided, where the atoms it reads are one box too
    (:class:`~repro.constraints.solved.BoundConstraint`), and
    ``region_ops`` bills only the checks run.  Where every mark holds
    (read off the marks and their atoms' box counts) a one-box candidate
    passes on its length test alone, and ``C_i`` is bound only when a
    candidate needs ``select``: a multi-box row, or a binding whose
    marks do not all hold (on the overlay join, never).
    EXPLAIN shows how many of the non-trivial conjuncts (``s ≠ 0``,
    ``t ≠ 1``, every ``r_j``) are so marked: ``ExactFilter(C_y;
    box-decided 1/1)``.
    """

    kind = "ExactFilter"

    def __init__(
        self,
        child: PhysicalOperator,  # an ExtendStep under a step filter
        variable: Optional[str] = None,
        solved: Optional[SolvedConstraint] = None,
        system: Optional[ConstraintSystem] = None,
        after_box_query: bool = False,
    ) -> None:
        if (solved is None) == (system is None):
            raise ValueError(
                "ExactFilter needs exactly one of solved= or system="
            )
        super().__init__(child)
        self.variable = variable
        self.solved = solved
        self.system = system
        self.box_decided: Tuple[Optional[FrozenSet[str]], ...] = ()
        if after_box_query and solved is not None:
            self.box_decided = box_decided(solved)

    def describe(self) -> str:
        solved = self.solved
        if solved is None:
            return f"{self.kind}(system)"
        live = [solved.lower != FALSE, solved.upper != TRUE]
        live += [True] * len(solved.disequations)
        if self.box_decided and any(live):
            decided = sum(n and a is not None for a, n in zip(self.box_decided, live))
            return f"{self.kind}(C_{self.variable}; box-decided {decided}/{sum(live)})"
        return f"{self.kind}(C_{self.variable})"

    def iterate(self, ctx: ExecutionContext) -> Iterator[Binding]:
        self.stats.executed = True
        algebra = ctx.algebra
        if self.solved is None:
            for binding in self.child.iterate(ctx):
                self.stats.rows_in += 1
                before = algebra.ops.total
                ok = self.system.holds(algebra, ctx.region_env(binding))
                self.stats.region_ops += algebra.ops.total - before
                if ok:
                    self.stats.rows_out += 1
                    yield binding
            return
        # One walk per candidate list, billed (candidates, region ops, the
        # extend step's output) up to each survivor as it is yielded and to
        # the list's end when the walk finishes it.  One bound C_i per input
        # binding that needs one; when C_i skips an earlier row, one per
        # distinct tuple of the rows it reads (decided at the second binding).
        ops, variable, extend, solved = algebra.ops, self.variable, self.child, self.solved
        decided, consts, seen = self.box_decided, ctx.plan.query.bindings, 0
        atoms: Optional[FrozenSet[str]] = None  # of the marks, when every conjunct has one
        if decided and isinstance(algebra, RegionAlgebra) and None not in decided:
            atoms = frozenset(name for mark in decided if mark for name in mark)
        bound_to: Optional[Binding] = None
        bound: Optional[BoundConstraint] = None
        reads: List[str] = []
        shared: Optional[Dict[Tuple[int, ...], BoundConstraint]] = None
        for binding, rows in extend.candidate_lists(ctx):
            if binding is not bound_to:
                if seen == 1 and bound_to is not None:
                    reads = sorted(solved.earlier_variables() - set(consts))
                    if len(binding) > len(reads):
                        shared = {} if bound is None else {_read_rows(bound_to, reads): bound}
                seen += 1
                bound_to, bound = binding, None
                one_box = atoms is not None and _one_box(atoms, binding, consts)
            if not rows:
                continue
            taken = 0
            if one_box:
                # Only a row of another shape is checked (and billed): a
                # one-box row costs the length test alone, with no generator
                # step and no read of the operation counter.
                for i, obj in enumerate(rows):
                    region = obj.region
                    if len(region.boxes) != 1:
                        if bound is None:
                            bound = self._bind(ctx, solved, binding, reads, shared)
                        before = ops.total
                        passes = bound.holds(region)
                        self.stats.region_ops += ops.total - before
                        if not passes:
                            continue
                    self.stats.rows_in += i + 1 - taken
                    extend.stats.rows_out += i + 1 - taken
                    taken = i + 1
                    extended = dict(binding)
                    extended[variable] = obj
                    self.stats.rows_out += 1
                    yield extended
            else:
                if bound is None:
                    bound = self._bind(ctx, solved, binding, reads, shared)
                before = ops.total
                for i in bound.select(map(_region, rows)):
                    self.stats.region_ops += ops.total - before
                    self.stats.rows_in += i + 1 - taken
                    extend.stats.rows_out += i + 1 - taken
                    taken = i + 1
                    extended = dict(binding)
                    extended[variable] = rows[i]
                    self.stats.rows_out += 1
                    yield extended
                    before = ops.total  # the consumer's own work is not ours
                self.stats.region_ops += ops.total - before
            self.stats.rows_in += len(rows) - taken
            extend.stats.rows_out += len(rows) - taken

    def _bind(
        self, ctx: ExecutionContext, solved: SolvedConstraint, binding: Binding,
        reads: List[str], shared: Optional[Dict[Tuple[int, ...], BoundConstraint]],
    ) -> BoundConstraint:
        """``C_i`` bound to ``binding``; with ``shared``, the one bound to
        the same rows of ``reads``."""
        if shared is None:
            env = ctx.region_env(binding)
            return solved.bind(ctx.algebra, env, box_decided=self.box_decided)
        key = _read_rows(binding, reads)
        if key not in shared:
            shared[key] = self._bind(ctx, solved, binding, reads, None)
        return shared[key]


def _one_box(atoms: FrozenSet[str], binding: Binding, consts: Mapping[str, Any]) -> bool:
    """Whether each of ``atoms`` is a one-box region in ``binding`` over
    the constants (as in ``ctx.region_env(binding)``)."""
    for name in atoms:
        obj = binding.get(name)
        region = consts.get(name) if obj is None else obj.region
        if region is None or len(region.boxes) != 1:
            return False
    return True


def _read_rows(binding: Binding, reads: List[str]) -> Tuple[int, ...]:
    """The ids of ``binding``'s regions for ``reads`` (kept alive by the bound
    constraint's environment); a variable it lacks is left to ``select``."""
    return tuple([id(binding[name].region) for name in reads if name in binding])


@dataclass
class _StepOps:
    """The operators implementing one retrieval step, for stats mapping."""

    variable: str
    extend: ExtendStep
    box_filter: Optional[BoxFilter] = None
    exact_filter: Optional[ExactFilter] = None


@dataclass
class PhysicalPlan:
    """An executable operator tree over a compiled logical plan.

    Not safe for concurrent executions of the *same* instance (operator
    stats are per-plan); build one plan per thread instead.
    """

    logical: QueryPlan
    mode: str
    root: PhysicalOperator
    step_ops: List[_StepOps] = field(default_factory=list)
    final_filter: Optional[ExactFilter] = None
    partitions: int = 0
    join_strategy: str = "probe"
    aggregate_op: Optional[PhysicalOperator] = None

    # -- execution ---------------------------------------------------------------
    def execute_iter(
        self,
        limit: Optional[int] = None,
        # Ignored: there is no probe cache.  Kept only for
        # benchmarks/e2e/workloads.py, whose traced_run passes
        # cache=None; it goes with that file's traced_run.
        cache: None = None,
    ) -> Iterator[Binding]:
        """Stream answers as they are found (pull-based, depth-first).

        ``limit=k`` stops after ``k`` answers without materialising the
        rest of the search space.  Operator stats are reset at the start
        of iteration and reflect work done *so far* while streaming.
        """
        if limit is not None and limit <= 0:
            return
        self.root.reset_stats()
        ctx = ExecutionContext(self.logical)
        emitted = 0
        for binding in self.root.iterate(ctx):
            yield binding
            emitted += 1
            if limit is not None and emitted >= limit:
                return

    def run(self) -> Tuple[List[Binding], ExecutionStats]:
        """Materialise all answers; returns ``(answers, stats)``."""
        answers = list(self.execute_iter())
        return answers, self.stats()

    # -- statistics --------------------------------------------------------------
    def stats(self) -> ExecutionStats:
        """Fold per-operator counters into classic execution stats
        (``exact`` mode's ``index_probes`` is 1 per step: its
        :class:`TableScan` scans once and reuses the rows)."""
        stats = ExecutionStats(mode=self.mode)
        for ops in self.step_ops:
            step = stats.step(ops.variable)
            extend = ops.extend.stats
            step.index_probes = extend.probes
            step.node_reads = extend.node_reads
            step.vectorized_batches = extend.vectorized_batches
            step.vectorized_candidates = extend.vectorized_candidates
            step.delta_probes = extend.delta_probes
            if ops.box_filter is not None:
                step.candidates = ops.box_filter.stats.rows_out
                stats.box_ops_estimate += ops.box_filter.stats.box_evals
            else:
                step.candidates = extend.rows_out
            stats.box_ops_estimate += extend.box_evals
            # Candidate pair tests (plane sweeps, bulk-join checks) are
            # box work too — the bulk joins' analogue of the per-probe
            # box evaluations.
            stats.box_ops_estimate += extend.pair_tests
            if ops.exact_filter is not None:
                step.survivors = ops.exact_filter.stats.rows_out
                stats.region_ops += ops.exact_filter.stats.region_ops
            else:
                step.survivors = step.candidates
        if self.final_filter is not None:
            stats.region_ops += self.final_filter.stats.region_ops
        # Repacks are a table-lifetime counter (zeroed by reset_stats,
        # like the probe counters); fold each distinct plan table once.
        seen_tables = {}
        for ops in self.step_ops:
            table = getattr(ops.extend, "table", None)
            if table is not None:
                seen_tables.setdefault(id(table), table)
        stats.repacks = sum(t.repacks for t in seen_tables.values())
        if self.mode == "naive":
            # The historical naive executor reported only the final
            # cross-product size.
            stats.partial_tuples = (
                self.step_ops[-1].extend.stats.rows_out
                if self.step_ops
                else 0
            )
        else:
            stats.partial_tuples = sum(s.survivors for s in stats.steps)
        stats.tuples_emitted = self.root.stats.rows_out
        return stats

    # -- rendering ---------------------------------------------------------------
    def operators(self) -> List[PhysicalOperator]:
        """All operators, root first."""
        out: List[PhysicalOperator] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(node.children)
        return out

    def explain(self) -> str:
        """Rendered operator tree, root at the top.

        Each line shows the operator, the catalog's estimated output
        cardinality, and — after the plan has executed — the actual
        rows/probes/node-reads counters.
        """
        executed = any(op.stats.executed for op in self.operators())
        lines = [
            f"PhysicalPlan[{self.mode}]"
            f"  order: {', '.join(self.logical.order)}"
        ]
        if self.join_strategy != "probe":
            lines.append(
                f"  join={self.join_strategy}"
                + (f"  partitions={self.partitions}" if self.partitions else "")
            )
        if self.logical.knn is not None:
            lines.append(f"  {self.logical.knn.describe()}")
        if self.logical.aggregate is not None:
            lines.append(f"  {self.logical.aggregate.describe()}")

        def annotate(op: PhysicalOperator) -> str:
            parts = []
            if op.est_rows is not None:
                parts.append(f"est_rows≈{op.est_rows:.1f}")
            if executed:
                s = op.stats
                actual = [f"rows={s.rows_out}"]
                if s.probes:
                    actual.append(f"probes={s.probes}")
                if s.node_reads:
                    actual.append(f"node_reads={s.node_reads}")
                if s.tiles_swept:
                    # Swept / kept: PBSM sweeps every tile it keeps.
                    actual.append(f"parts={s.tiles_swept}/{s.tiles_swept}")
                if s.pair_tests:
                    actual.append(f"pair_tests={s.pair_tests}")
                if s.dedup_skipped:
                    actual.append(f"dedup={s.dedup_skipped}")
                if s.vectorized_batches:
                    actual.append(
                        f"vec={s.vectorized_batches}/"
                        f"{s.vectorized_candidates}"
                    )
                if s.delta_probes:
                    actual.append(f"delta_probes={s.delta_probes}")
                if s.region_ops:
                    actual.append(f"region_ops={s.region_ops}")
                parts.append("actual: " + " ".join(actual))
            return ("  [" + " | ".join(parts) + "]") if parts else ""

        def render(op: PhysicalOperator, depth: int) -> None:
            prefix = "" if depth == 0 else "   " * (depth - 1) + "└─ "
            lines.append(prefix + op.describe() + annotate(op))
            for c in op.children:
                render(c, depth + 1)

        render(self.root, 0)
        return "\n".join(lines)


def check_join_strategy(mode: str, join_strategy: object) -> None:
    """Raise :class:`~repro.errors.OptionError` unless ``join_strategy``
    is one of :data:`JOIN_STRATEGIES` that ``mode`` can run: a bulk join
    needs the box layer of ``boxplan``/``boxonly``."""
    if not isinstance(join_strategy, str) or join_strategy not in JOIN_STRATEGIES:
        raise OptionError(
            f"unknown join strategy {join_strategy!r}; expected one of "
            + ", ".join(repr(s) for s in JOIN_STRATEGIES)
        )
    if join_strategy != "probe" and mode not in ("boxplan", "boxonly"):
        raise OptionError(
            f"join_strategy={join_strategy!r} only applies to the "
            f"box modes ('boxplan', 'boxonly'); mode {mode!r} has "
            f"no box layer to join on"
        )


def build_physical_plan(
    plan: QueryPlan,
    mode: str = "boxplan",
    estimate: bool = True,
    partitions: int = 0,
    join_strategy: str = "probe",
) -> PhysicalPlan:
    """Lower a logical :class:`QueryPlan` to a physical operator tree.

    ``mode`` selects the plan-construction strategy (see module
    docstring); an unknown mode raises
    :class:`~repro.errors.UnknownModeError` naming the valid modes.
    ``estimate=False`` skips the catalog cost annotations (they need a
    pass over table statistics).  There is one tree per mode and
    options.

    ``join_strategy`` is one of :data:`JOIN_STRATEGIES` for every step
    (a bad one raises :class:`~repro.errors.OptionError`, see
    :func:`check_join_strategy`); ``partitions`` is the PBSM tile
    target (0 means :data:`~repro.spatial.partition.DEFAULT_TILES`).
    """
    if mode not in MODES:
        raise UnknownModeError(mode, MODES)
    check_join_strategy(mode, join_strategy)

    from .planner import choose_aggregate_strategy

    knn = plan.knn
    aggregate = plan.aggregate
    if (
        aggregate is not None
        and choose_aggregate_strategy(plan, mode) == "pushdown"
    ):
        # Box-level COUNT: the whole plan is one index count.
        sp = plan.steps[0]
        count_op = IndexCountAggregate(sp.variable, sp.table, sp.template)
        pplan = PhysicalPlan(
            logical=plan,
            mode=mode,
            root=count_op,
            step_ops=[_StepOps(variable=sp.variable, extend=count_op)],
            join_strategy="pushdown",
            aggregate_op=count_op,
        )
        if estimate:
            _annotate_estimates(pplan)
        return pplan

    tiles = partitions if partitions > 0 else DEFAULT_TILES

    def knn_extend(
        node: PhysicalOperator, variable: str, table: SpatialTable
    ) -> ExtendStep:
        """The kNN restriction's access operator for one variable."""
        per_tuple = knn.ref is not None and knn.ref in plan.query.tables
        return KNNProbe(node, variable, table, knn, per_tuple)

    node: PhysicalOperator = Once()
    step_ops: List[_StepOps] = []
    final_filter: Optional[ExactFilter] = None

    if mode == "naive":
        for variable in plan.order:
            table = plan.query.tables[variable]
            if knn is not None and variable == knn.variable:
                node = knn_extend(node, variable, table)
            else:
                node = CrossProduct(node, variable, table)
            step_ops.append(_StepOps(variable=variable, extend=node))
        final_filter = ExactFilter(node, system=plan.query.system)
        node = final_filter
    else:
        use_boxes = mode in ("boxplan", "boxonly")
        exact_steps = mode in ("boxplan", "exact")
        for sp in plan.steps:
            box_filter: Optional[BoxFilter] = None
            if knn is not None and sp.variable == knn.variable:
                # The kNN restriction replaces the step's access path;
                # the step's box template still applies as a filter (a
                # necessary condition of the exact constraint), so box
                # modes keep their candidate accounting.
                extend = knn_extend(node, sp.variable, sp.table)
                node = extend
                if use_boxes:
                    box_filter = BoxFilter(node, sp.variable, sp.template)
                    node = box_filter
            elif use_boxes and join_strategy == "pbsm":
                extend: ExtendStep = PartitionedSpatialJoin(
                    node,
                    sp.variable,
                    sp.table,
                    sp.template,
                    partitions=tiles,
                )
                node = extend
            elif use_boxes and join_strategy == "zorder":
                extend = ZOrderJoin(
                    node, sp.variable, sp.table, sp.template
                )
                node = extend
            elif use_boxes and sp.table.index_kind != "scan":
                extend = IndexProbe(
                    node, sp.variable, sp.table, sp.template
                )
                node = extend
            elif use_boxes:
                # Unindexed table: the scan and the box filter fuse into
                # one columnar kernel call per probe.
                extend = VectorizedScanProbe(
                    node, sp.variable, sp.table, sp.template
                )
                node = extend
            else:
                extend = TableScan(node, sp.variable, sp.table)
                node = extend
            exact_filter: Optional[ExactFilter] = None
            if exact_steps:
                exact_filter = ExactFilter(
                    node, variable=sp.variable, solved=sp.exact, after_box_query=use_boxes
                )
                node = exact_filter
            step_ops.append(
                _StepOps(
                    variable=sp.variable,
                    extend=extend,
                    box_filter=box_filter,
                    exact_filter=exact_filter,
                )
            )
        if not exact_steps:
            final_filter = ExactFilter(node, system=plan.query.system)
            node = final_filter

    aggregate_op: Optional[PhysicalOperator] = None
    if aggregate is not None:
        aggregate_op = Aggregate(node, aggregate)
        node = aggregate_op

    pplan = PhysicalPlan(
        logical=plan,
        mode=mode,
        root=node,
        step_ops=step_ops,
        final_filter=final_filter,
        partitions=partitions,
        join_strategy=join_strategy,
        aggregate_op=aggregate_op,
    )
    if estimate:
        _annotate_estimates(pplan)
    return pplan


def _annotate_estimates(pplan: PhysicalPlan) -> None:
    """Attach catalog cardinality estimates to every operator.

    Unusable statistics (the planner's ``ESTIMATION_ERRORS``) leave the
    annotations unset rather than failing plan construction.
    """
    from .planner import ESTIMATION_ERRORS, rollout_step_estimates

    plan = pplan.logical
    try:
        estimates = {
            e.variable: e
            for e in rollout_step_estimates(plan.query, plan.order)
        }
    except ESTIMATION_ERRORS:
        return

    for op in pplan.operators():
        if isinstance(op, Once):
            op.est_rows = 1.0
    running = 1.0  # cross-product cardinality for naive chains
    knn = plan.knn
    for ops in pplan.step_ops:
        est = estimates.get(ops.variable)
        if est is None:
            continue
        table_size = max(1, len(plan.query.tables[ops.variable]))
        if isinstance(ops.extend, IndexCountAggregate):
            ops.extend.est_rows = 1.0
        elif isinstance(ops.extend, KNNProbe):
            # The kNN restriction caps the step's fanout at k.
            fanout = min(knn.k, table_size) if knn is not None else table_size
            if pplan.mode == "naive":
                running *= fanout
                ops.extend.est_rows = running
            else:
                ops.extend.est_rows = est.partials_in * fanout
        elif pplan.mode == "naive":
            running *= table_size
            ops.extend.est_rows = running
        elif isinstance(ops.extend, TableScan):
            ops.extend.est_rows = est.scan_candidates
        else:
            # Every probing/joining strategy admits exactly the rows the
            # step's box query matches.
            ops.extend.est_rows = est.candidates
        if ops.box_filter is not None:
            ops.box_filter.est_rows = est.candidates
        if ops.exact_filter is not None:
            ops.exact_filter.est_rows = est.survivors
    if pplan.final_filter is not None and pplan.step_ops:
        last = estimates.get(pplan.step_ops[-1].variable)
        if last is not None:
            # The rollouts' final survivor count estimates the answer
            # set itself (the box query is necessary for the exact
            # constraint, so the filtering order does not change it).
            pplan.final_filter.est_rows = last.survivors

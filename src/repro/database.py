"""The public ``Database``/``Session`` facade.

The library grew bottom-up — tables, compiler, physical plans,
bulk joins — and each capability shipped with its own entry point
(``execute``, ``plan.physical(...)``, CLI flags).  This module is the
one front door over all of it:

* a :class:`Database` owns named tables and named constant-region
  bindings, turns constraint text (or a
  :class:`~repro.constraints.system.ConstraintSystem`) into a
  :class:`~repro.engine.query.SpatialQuery` against them, and
  round-trips to disk via :mod:`repro.spatial.snapshot`
  (:meth:`Database.save` / :meth:`Database.open`: rows and warm
  statistics are stored, each R-tree is packed again from the rows);
* a :class:`Session` executes queries with one uniform keyword
  vocabulary — ``mode=``, ``join_strategy=``, ``partitions=``,
  ``limit=`` — matching the CLI flags one-for-one, with per-session
  defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .algebra.regions import Region
from .constraints.parser import parse_system
from .constraints.system import ConstraintSystem
from .engine.compiler import QueryPlan, compile_query
from .engine.executor import Answer, answers_as_oid_tuples
from .engine.physical import PhysicalPlan, check_join_strategy
from .engine.query import AggregateSpec, KNNStep, SpatialQuery
from .engine.stats import ExecutionStats
from .errors import OptionError
from .spatial.snapshot import read_snapshot, write_snapshot
from .spatial.table import SpatialObject, SpatialTable

__all__ = ["Database", "QueryResult", "Session"]

#: Sentinel distinguishing "not passed" from an explicit ``None``.
_UNSET = object()

#: The uniform execution-option vocabulary (mirrors the CLI flags
#: ``--mode``/``--join``/``--partitions``/``--limit``).  ``partitions``
#: is PBSM's tile target and nothing else (``"auto"`` prices PBSM with
#: it).
SESSION_OPTIONS = ("mode", "join_strategy", "partitions", "limit")

_OPTION_DEFAULTS = {
    "mode": "boxplan",
    "join_strategy": None,
    "partitions": 0,
    "limit": None,
}


@dataclass
class QueryResult:
    """One execution's answers plus its counters and timings.

    Unpacks like the classic pair — ``answers, stats = session.run(q)``
    — while also carrying the retrieval order and timings: ``plan_s``
    covers parse → order choice → compile → physical build, and
    ``time_to_first_s``/``total_s`` start where it ends, at execution.
    """

    answers: List[Answer]
    stats: ExecutionStats
    order: Tuple[str, ...] = ()
    time_to_first_s: Optional[float] = None
    total_s: Optional[float] = None
    plan_s: Optional[float] = None

    def __iter__(self) -> Iterator:
        return iter((self.answers, self.stats))

    def oid_tuples(self, order: Optional[Sequence[str]] = None) -> List[Tuple]:
        """Sorted oid tuples (set-comparison form; see the tests)."""
        return answers_as_oid_tuples(self.answers, order or self.order)


class Database:
    """Named tables plus named constant bindings, with disk snapshots.

    ``tables`` is keyed the way queries reference tables — by
    *variable* name (the smugglers query's ``T``/``R``/``B``), not by
    the table's own descriptive name.
    """

    def __init__(
        self,
        tables: Optional[Dict[str, SpatialTable]] = None,
        bindings: Optional[Dict[str, Region]] = None,
    ):
        self.tables: Dict[str, SpatialTable] = dict(tables or {})
        self.bindings: Dict[str, Region] = dict(bindings or {})

    # -- construction ----------------------------------------------------------
    @classmethod
    def from_query(cls, query: SpatialQuery) -> "Database":
        """A database over an existing query's tables and bindings."""
        return cls(tables=query.tables, bindings=query.bindings)

    @classmethod
    def open(cls, path: str) -> "Database":
        """Load a snapshot saved by :meth:`save`: the rows, their
        STR-packed r-trees and the warm statistics caches."""
        tables, bindings = read_snapshot(path)
        return cls(tables=tables, bindings=bindings)

    def save(self, path: str) -> None:
        """Atomically snapshot every table and binding to ``path``.

        Each table's default planner statistics are computed first, so
        the snapshot ships a warm catalog.
        """
        for table in self.tables.values():
            # Fold any pending write delta first: snapshots serialize
            # only packed base structures, and statistics computed here
            # must land in the base cache the snapshot ships.
            table.repack()
            table.statistics()
        write_snapshot(path, self.tables, self.bindings)

    # -- registration ----------------------------------------------------------
    def create_table(
        self, name: str, dim: int, **table_kwargs
    ) -> SpatialTable:
        """Create, register, and return an empty table under ``name``."""
        table = SpatialTable(name, dim, **table_kwargs)
        self.tables[name] = table
        return table

    def attach(
        self, table: SpatialTable, name: Optional[str] = None
    ) -> SpatialTable:
        """Register an existing table (default key: its own name)."""
        self.tables[name or table.name] = table
        return table

    def bind(self, name: str, region: Region) -> None:
        """Register a named constant region."""
        self.bindings[name] = region

    def table(self, name: str) -> SpatialTable:
        """Table lookup (KeyError names the known tables)."""
        try:
            return self.tables[name]
        except KeyError:
            raise KeyError(
                f"no table {name!r}; known tables: {sorted(self.tables)}"
            ) from None

    # -- mutation --------------------------------------------------------------
    def insert(self, table: str, oid, region: Region) -> None:
        """Stage one new row into ``table``'s write delta.

        O(delta) — the packed base structures are untouched until the
        table's repack threshold fires (or :meth:`save` folds the
        delta).  Readers see the row immediately.
        """
        self.table(table).stage_insert(oid, region)

    def delete(self, table: str, oid) -> bool:
        """Stage one delete; returns ``False`` when ``oid`` is not live."""
        return self.table(table).stage_delete(oid)

    # -- queries ---------------------------------------------------------------
    def query(
        self,
        system: Union[str, ConstraintSystem],
        bindings: Optional[Dict[str, Region]] = None,
        order: Optional[Sequence[str]] = None,
        knn: Optional[KNNStep] = None,
        aggregate: Optional[AggregateSpec] = None,
    ) -> SpatialQuery:
        """Build a :class:`SpatialQuery` against this database.

        ``system`` may be constraint text in the Figure-1 syntax (it is
        parsed) or an already-built system.  Each system variable
        resolves to a stored binding (constants) or a stored table
        (unknowns), in that order; ``bindings`` overrides/extends the
        stored constants for this query only.
        """
        if isinstance(system, str):
            system = parse_system(system)
        bound = {
            name: region
            for name, region in self.bindings.items()
            if name in system.variables()
        }
        if bindings:
            bound.update(bindings)
        tables = {
            var: self.tables[var]
            for var in system.variables()
            if var not in bound and var in self.tables
        }
        return SpatialQuery(
            system=system,
            tables=tables,
            bindings=bound,
            order=tuple(order) if order else None,
            knn=knn,
            aggregate=aggregate,
        )

    def session(self, **defaults) -> "Session":
        """A :class:`Session` over this database."""
        return Session(db=self, **defaults)


class Session:
    """Query execution with uniform options and per-session defaults.

    Accepts a :class:`SpatialQuery`, a compiled
    :class:`~repro.engine.compiler.QueryPlan`, or — when constructed
    with a :class:`Database` — raw constraint text.  Keyword options
    (``mode=``, ``join_strategy=``, ``partitions=``, ``limit=``) match
    the CLI flags; constructor keywords set session defaults, call
    keywords override per query.
    """

    def __init__(self, db: Optional[Database] = None, **defaults):
        unknown = set(defaults) - set(SESSION_OPTIONS)
        if unknown:
            raise TypeError(
                f"unknown session option(s) {sorted(unknown)}; valid "
                f"options: {SESSION_OPTIONS}"
            )
        self.db = db
        self.defaults = dict(_OPTION_DEFAULTS)
        self.defaults.update(defaults)

    # -- option/plan resolution ------------------------------------------------
    def _options(self, **given) -> dict:
        """All four options for one call, ``given`` over the session
        defaults, checked before any planning: ``partitions`` and
        ``limit`` must be integers (``limit`` may be ``None``, not
        negative) and
        ``join_strategy`` must suit ``mode``
        (:func:`~repro.engine.physical.check_join_strategy`).  A bad
        value raises :class:`~repro.errors.OptionError`, which the
        service answers with 400."""
        options = dict(self.defaults)
        options.update((k, v) for k, v in given.items() if v is not _UNSET)
        for name in ("partitions", "limit"):
            value = options[name]
            if name == "limit" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise OptionError(f"{name} must be an integer, not {value!r}")
        if options["limit"] is not None and options["limit"] < 0:
            raise OptionError(f"limit must not be negative, not {options['limit']!r}")
        check_join_strategy(options["mode"], options["join_strategy"])
        return options

    def _spatial_query(
        self, query: Union[str, ConstraintSystem, SpatialQuery]
    ) -> SpatialQuery:
        if isinstance(query, (str, ConstraintSystem)):
            if self.db is None:
                raise ValueError(
                    "constraint text needs a Database to resolve tables "
                    "and bindings; construct Session(db=...) or pass a "
                    "SpatialQuery"
                )
            query = self.db.query(query)
        return query

    def _compile(
        self,
        query: Union[str, ConstraintSystem, SpatialQuery, QueryPlan],
        order: Optional[Sequence[str]] = None,
    ) -> QueryPlan:
        if isinstance(query, QueryPlan):
            return query
        query = self._spatial_query(query)
        if order is None and not query.order:
            # No caller- or query-given order: plan one (the CLI's
            # default strategy), honoring a kNN step's anchor ordering.
            from .engine.compiler import repair_knn_order
            from .engine.planner import plan_order

            order = plan_order(query, strategy="histogram")
            if query.knn is not None:
                order = repair_knn_order(order, query.knn, query.tables)
        return compile_query(query, order=order)

    # -- execution -------------------------------------------------------------
    def run(
        self,
        query: Union[str, ConstraintSystem, SpatialQuery, QueryPlan],
        *,
        mode=_UNSET,
        order: Optional[Sequence[str]] = None,
        limit=_UNSET,
        partitions=_UNSET,
        join_strategy=_UNSET,
    ) -> QueryResult:
        """Execute and return a :class:`QueryResult`.

        Streams internally — ``limit=k`` stops after ``k`` answers
        without exhausting the search space, and the result carries
        time-to-first-answer alongside the total.
        """
        called = perf_counter()
        options = self._options(
            mode=mode, limit=limit, partitions=partitions, join_strategy=join_strategy
        )
        _pplan, result = self._execute(self._compile(query, order=order), options, called)
        return result

    def _execute(
        self, plan: QueryPlan, options: dict, called: float, estimate: bool = False
    ) -> Tuple[PhysicalPlan, QueryResult]:
        """Build ``plan``'s operator tree and drain it (honouring
        ``limit``); ``plan_s`` runs from
        ``called`` to the end of the build."""
        pplan = plan.physical(
            options["mode"],
            estimate=estimate,
            partitions=options["partitions"],
            join_strategy=options["join_strategy"],
        )
        start = perf_counter()
        first = None
        answers: List[Answer] = []
        for answer in pplan.execute_iter(limit=options["limit"]):
            if first is None:
                first = perf_counter() - start
            answers.append(answer)
        total = perf_counter() - start
        return pplan, QueryResult(
            answers=answers,
            stats=pplan.stats(),
            order=tuple(plan.order),
            time_to_first_s=first,
            total_s=total,
            plan_s=start - called,
        )

    def explain(
        self,
        query: Union[str, ConstraintSystem, SpatialQuery, QueryPlan],
        *,
        mode=_UNSET,
        order: Optional[Sequence[str]] = None,
        analyze: bool = False,
        partitions=_UNSET,
        join_strategy=_UNSET,
    ) -> Union[str, Dict[str, Any]]:
        """The physical operator tree, with catalog cost estimates.

        ``analyze=True`` executes the plan as :meth:`run` does (the
        session's ``limit`` included) and returns the per-query report
        instead of the bare text: ``plan`` (the tree annotated with each
        operator's actual rows/probes/node reads), ``order``, ``count``
        (answers), ``stats``
        (:meth:`~repro.engine.stats.ExecutionStats.to_dict`) and the
        timings ``plan_s``/``time_to_first_s``/``total_s``.
        """
        called = perf_counter()
        options = self._options(
            mode=mode, partitions=partitions, join_strategy=join_strategy
        )
        plan = self._compile(query, order=order)
        if not analyze:
            return plan.physical(
                options["mode"],
                partitions=options["partitions"],
                join_strategy=options["join_strategy"],
            ).explain()
        pplan, result = self._execute(plan, options, called, estimate=True)
        return {
            "plan": pplan.explain(),
            "order": list(result.order),
            "count": len(result.answers),
            "stats": result.stats.to_dict(),
            "plan_s": result.plan_s,
            "time_to_first_s": result.time_to_first_s,
            "total_s": result.total_s,
        }

    def aggregate(
        self,
        query: Union[str, ConstraintSystem, SpatialQuery],
        aggregates: Sequence[Tuple[str, Optional[str]]] = (("count", None),),
        group_by: Sequence[str] = (),
        exact: bool = True,
        **options,
    ) -> QueryResult:
        """Run the query's aggregation form (COUNT/MIN/MAX, grouped).

        Rebuilds the query with an :class:`AggregateSpec`; the result's
        ``answers`` are aggregate rows (see
        :class:`repro.engine.physical.AggregateRow`).
        """
        spec = AggregateSpec(
            aggregates=tuple(aggregates),
            group_by=tuple(group_by),
            exact=exact,
        )
        query = replace(self._spatial_query(query), aggregate=spec)
        return self.run(query, **options)

    def nearest(
        self,
        table: Union[str, SpatialTable],
        anchor,
        k: int,
        access: str = "auto",
    ) -> List[Tuple[float, SpatialObject]]:
        """The ``k`` rows of a table nearest to a point or box anchor.

        ``table`` may be a name (resolved through the session's
        :class:`Database`) or a table object; semantics are those of
        :meth:`~repro.spatial.table.SpatialTable.nearest`.
        """
        if isinstance(table, str):
            if self.db is None:
                raise ValueError(
                    "a table name needs a Database; construct "
                    "Session(db=...) or pass the SpatialTable itself"
                )
            table = self.db.table(table)
        return table.nearest(anchor, k, access=access)

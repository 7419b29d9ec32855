"""Command-line interface: compile and inspect constraint systems.

Usage::

    python -m repro compile  [--order T,R,B] [--constants C,A]  [FILE]
    python -m repro check    [FILE]            # satisfiable (atomless)?
    python -m repro minimize [FILE]            # drop entailed constraints
    python -m repro bcf      'x & y | ~x & z'  # Blake canonical form + L/U
    python -m repro explain  [--workload smugglers] [--size 12]
                             [--order-strategy histogram] [--mode boxplan]
                             [--analyze] [--json] [--limit K]
                             [--partitions N] [--join auto]
                             [--knn K [--knn-ref T]] [--agg count,min:T]
                             [--group-by B] [--agg-box]
                             [--mutate N] [--delta-threshold N]
    python -m repro run      [--workload ...]  (the explain flags but
                             --analyze and --json)
    python -m repro save     OUT [--workload ...]
    python -m repro load     SNAPSHOT [--json]
    python -m repro serve    [SNAPSHOT] [--workload ...] [--host H]
                             [--port P]

``FILE`` contains one constraint per line in the Figure-1 syntax
(``A <= C``, ``R & A != 0``, ``T !<= C``, comments with ``#``); ``-``
or omitted reads stdin.

``explain`` and ``run`` build a synthetic workload (STR-packed r-trees
unless ``--index`` says otherwise), pick its retrieval order with ``--order-strategy`` and hand the
query to a :class:`~repro.database.Session`.  ``explain`` prints the
physical operator tree with catalog cost estimates; ``--analyze`` also
executes it and reports the query: each operator's actual
rows/probes/node reads, the paper's counters (partial tuples, region
ops, index node reads) and the planning, first-answer and total times.
``--json`` prints that report as
:meth:`Session.explain(analyze=True) <repro.database.Session.explain>`
returns it.  ``run`` prints the answers themselves (oid tuples) and the
timings.  With ``--limit K`` both stop after the first ``K`` answers
without exhausting the search space.

``--join`` picks a per-step join algorithm — ``probe`` (the default),
``pbsm`` or ``zorder``, or ``auto`` for the cost-based pick — and
``--partitions N`` sets PBSM's tile target.  Every join algorithm
returns the same answers.

``--knn K`` restricts a variable (``--knn-var``, default the first of
the retrieval order) to its table's K nearest rows — anchored on a
point (``--knn-point``, default the universe center) or on another
variable's box (``--knn-ref``, a per-tuple distance join).  ``--agg``
replaces the answer stream with aggregate rows (``count``, ``min:VAR``,
``max:VAR`` over box volume, grouped by ``--group-by``); ``--agg-box``
asks for the box-level COUNT, pushed down to the R-tree's subtree
entry counts.  ``--mutate N`` stages N seeded writes per table first.

``save`` snapshots a built workload database (tables, packed R-trees,
statistics) to one JSON file; ``load`` prints a saved
snapshot's summary; ``serve`` starts the resident query service on a
snapshot (or on a freshly built workload when no snapshot is given) —
see :mod:`repro.service`.
"""

from __future__ import annotations

import argparse
import json
import sys

from .boolean import blake_canonical_form, parse
from .boxes import compile_solved_constraint, lower_approximation, render_boxfunc, upper_approximation
from .constraints import (
    parse_system,
    satisfiable_atomless,
    triangular_form,
)
from .constraints.minimize import minimize_system


def _read_system(path: str | None):
    if path in (None, "-"):
        text = sys.stdin.read()
    else:
        with open(path) as handle:
            text = handle.read()
    return parse_system(text)


def cmd_compile(args) -> int:
    system = _read_system(args.file)
    constants = set(
        args.constants.split(",") if args.constants else []
    )
    if args.order:
        order = args.order.split(",")
    else:
        order = sorted(system.variables() - constants)
    try:
        tri = triangular_form(system, order)
    except ValueError as exc:  # a duplicate, or not a variable of the system
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("# retrieval order:", ", ".join(order))
    print(tri.render())
    print("# bounding-box plan")
    for c in tri.constraints:
        template = compile_solved_constraint(c)
        print(f"-- step {c.variable} --")
        print(template.render())
    return 0


def cmd_check(args) -> int:
    system = _read_system(args.file)
    ok = satisfiable_atomless(system)
    print("satisfiable" if ok else "unsatisfiable")
    return 0 if ok else 1


def cmd_minimize(args) -> int:
    system = _read_system(args.file)
    core, removed = minimize_system(system)
    print("# irredundant core")
    print(core)
    if removed:
        print("# removed (entailed by the rest)")
        for c in removed:
            print(f"#   {c}")
    return 0


def cmd_bcf(args) -> int:
    f = parse(args.formula)
    bcf = blake_canonical_form(f)
    print("BCF:", " | ".join(t.to_str() for t in bcf) or "0")
    print("L:", render_boxfunc(lower_approximation(f)))
    print("U:", render_boxfunc(upper_approximation(f)))
    return 0


WORKLOADS = ("smugglers", "chain", "overlay", "sandwich")


def _build_workload(args):
    from .datagen import (
        containment_chain_query,
        overlay_query,
        sandwich_query,
        smugglers_query,
    )

    size = args.size
    if args.workload == "smugglers":
        query, _map = smugglers_query(
            seed=args.seed,
            index=args.index,
            n_towns=size,
            n_roads=size,
            states_grid=(3, 3),
        )
        return query
    if args.workload == "chain":
        return containment_chain_query(
            n_per_table=size, depth=3, seed=args.seed, index=args.index
        )
    if args.workload == "overlay":
        return overlay_query(
            n_left=size, n_right=size, seed=args.seed, index=args.index
        )
    return sandwich_query(n_items=size, seed=args.seed, index=args.index)


def _knn_step(args, query, order):
    """The logical kNN restriction the ``--knn`` flags describe."""
    if not args.knn:
        return None
    from .engine import KNNStep

    if args.knn_var:
        variable = args.knn_var
    else:
        # Default to the first retrieval variable that is not the kNN
        # anchor itself (a step cannot anchor on its own variable).
        candidates = [v for v in order if v != args.knn_ref]
        variable = candidates[0] if candidates else order[0]
    if args.knn_ref:
        return KNNStep(variable=variable, k=args.knn, ref=args.knn_ref)
    if args.knn_point:
        point = tuple(float(c) for c in args.knn_point.split(","))
    else:
        point = query.algebra().universe_box.center()
    return KNNStep(variable=variable, k=args.knn, point=point)


def _aggregate_spec(args):
    """The :class:`AggregateSpec` the ``--agg`` flags describe."""
    if not args.agg:
        return None
    from .engine import AggregateSpec

    parts = (part.strip().partition(":") for part in args.agg.split(","))
    return AggregateSpec(
        aggregates=tuple((op, target or None) for op, _, target in parts),
        group_by=tuple(v for v in (args.group_by or "").split(",") if v),
        exact=not args.agg_box,
    )


def _workload_query(args):
    """The ``explain``/``run`` query: build the workload, pick its order
    with ``--order-strategy``, attach ``--knn``/``--agg`` and stage
    ``--mutate``.  Returns ``(query, order, strategy)``."""
    from dataclasses import replace

    from .engine import plan_order, repair_knn_order

    query = _build_workload(args)
    strategy = args.order_strategy
    if strategy == "paper" and not query.order:
        # Only the smugglers workload carries a paper-given order; be
        # explicit about the fallback instead of mislabelling it.
        strategy = "greedy"
    if strategy == "paper":
        order = tuple(query.order)
    else:
        # The planner ignores the workload's own order.
        order = plan_order(query, strategy=strategy)
    knn = _knn_step(args, query, order)
    aggregate = _aggregate_spec(args)
    if knn is not None or aggregate is not None:
        # Construct first: SpatialQuery validates the kNN/aggregate
        # spec (bad --knn-var/--knn-ref combinations fail cleanly here).
        query = replace(query, order=None, knn=knn, aggregate=aggregate)
        # A ref-anchored kNN variable must follow its anchor; repair
        # the planner-chosen order with the compiler's own helper.
        order = repair_knn_order(order, knn, query.tables)
    _stage_mutations(args, query)
    return query, order, strategy


def _session(args):
    """The :class:`~repro.database.Session` the query flags describe."""
    from .database import Session

    return Session(
        mode=args.mode,
        join_strategy=args.join,
        partitions=args.partitions,
        limit=args.limit,
    )


def _stage_mutations(args, query) -> None:
    """Stage ``--mutate`` seeded delta writes before execution.

    Mixes inserts (small random boxes inside each table's universe) and
    deletes of existing rows in a 2:1 ratio, exercising the
    overlay-merged read paths (and, past ``--delta-threshold``, the
    inline repack) without rebuilding the workload tables.
    """
    n = args.mutate
    if not n:
        return
    import random

    from .algebra.regions import Region
    from .boxes.box import Box

    rng = random.Random(args.seed * 31 + 24251)
    for name, table in query.tables.items():
        if args.delta_threshold:
            table.delta_threshold = args.delta_threshold
        oids = [obj.oid for obj in table]
        lo, hi = table.universe.lo, table.universe.hi
        for i in range(n):
            if i % 3 == 2 and oids:
                table.delete(oids.pop(rng.randrange(len(oids))))
            else:
                center = [rng.uniform(a, b) for a, b in zip(lo, hi)]
                half = [(b - a) * 0.01 for a, b in zip(lo, hi)]
                box = Box(
                    tuple(max(a, c - h) for a, c, h in zip(lo, center, half)),
                    tuple(min(b, c + h) for b, c, h in zip(hi, center, half)),
                )
                table.stage_insert(f"mut-{name}-{i}", Region.from_box(box))


def _timings(count, plan_s, first, total) -> str:
    after = "" if first is None else f"first after {first * 1e3:.2f}ms, "
    return (
        f"# {count} answers; planned in {plan_s * 1e3:.2f}ms, "
        f"{after}all after {total * 1e3:.2f}ms"
    )


def cmd_explain(args) -> int:
    from .engine.stats import ExecutionStats

    query, order, strategy = _workload_query(args)
    report = _session(args).explain(query, order=order, analyze=args.analyze)
    if not args.analyze:
        report = {"plan": report}
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    print(report["plan"])
    if args.analyze:
        print()
        print(ExecutionStats.from_dict(report["stats"]).summary())
        print(_timings(
            report["count"], report["plan_s"],
            report["time_to_first_s"], report["total_s"],
        ))
    print(f"# order strategy: {strategy}")
    return 0


def cmd_run(args) -> int:
    query, order, _strategy = _workload_query(args)
    result = _session(args).run(query, order=order)
    if query.aggregate is not None:
        labels = list(query.aggregate.group_by) + list(query.aggregate.labels())
        print("# " + ", ".join(labels))
        for row in result.answers:
            print(row.as_dict())
    else:
        print("# " + ", ".join(result.order))
        for answer in result.answers:
            print(tuple(answer[v].oid for v in result.order))
    print(_timings(
        len(result.answers), result.plan_s, result.time_to_first_s, result.total_s
    ))
    return 0


def cmd_save(args) -> int:
    from .database import Database

    query = _build_workload(args)
    db = Database(tables=query.tables, bindings=query.bindings)
    db.save(args.out)
    rows = sum(len(t) for t in db.tables.values())
    print(
        f"saved {len(db.tables)} tables ({rows} rows), "
        f"{len(db.bindings)} bindings -> {args.out}"
    )
    return 0


def cmd_load(args) -> int:
    from .database import Database

    db = Database.open(args.snapshot)
    summary = {
        "tables": {
            key: {"name": t.name, "rows": len(t), "index": t.index_kind}
            for key, t in db.tables.items()
        },
        "bindings": sorted(db.bindings),
    }
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        for key, info in summary["tables"].items():
            print(
                f"{key}: {info['name']} ({info['rows']} rows, "
                f"{info['index']})"
            )
        print("bindings:", ", ".join(summary["bindings"]) or "(none)")
    return 0


def cmd_serve(args) -> int:
    from .database import Database
    from .service import QueryService, ServiceServer

    if args.snapshot:
        db = Database.open(args.snapshot)
    else:
        query = _build_workload(args)
        db = Database(tables=query.tables, bindings=query.bindings)
    service = QueryService(db)
    server = ServiceServer(service, host=args.host, port=args.port)
    host, port = server.address
    print(f"serving {len(db.tables)} tables on http://{host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Constraint-based spatial query compilation (PODS'91)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="triangular form + box plan")
    p.add_argument("file", nargs="?", help="constraint file (default stdin)")
    p.add_argument("--order", help="comma-separated retrieval order")
    p.add_argument("--constants", help="comma-separated bound variables")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("check", help="atomless satisfiability")
    p.add_argument("file", nargs="?")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("minimize", help="remove entailed constraints")
    p.add_argument("file", nargs="?")
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("bcf", help="Blake canonical form and L/U of a formula")
    p.add_argument("formula")
    p.set_defaults(func=cmd_bcf)

    def add_workload_args(p):
        p.add_argument("--workload", choices=WORKLOADS, default="smugglers")
        p.add_argument("--size", type=int, default=12, help="per-table rows")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--index", choices=("rtree", "scan"), default="rtree"
        )

    def add_query_args(p):
        add_workload_args(p)
        p.add_argument(
            "--mode",
            choices=("naive", "exact", "boxplan", "boxonly"),
            default="boxplan",
        )
        p.add_argument(
            "--order-strategy",
            choices=("paper", "greedy", "histogram"),
            default="histogram",
            help="retrieval-order planner ('paper' keeps the workload's order)",
        )
        p.add_argument(
            "--partitions",
            type=int,
            default=0,
            metavar="N",
            help="PBSM tile target (0 = the default, 16 tiles)",
        )
        p.add_argument(
            "--join",
            choices=("auto", "probe", "pbsm", "zorder"),
            default=None,
            help="per-step join algorithm (default: probe; 'auto' picks "
            "cost-based per step)",
        )
        p.add_argument(
            "--limit",
            type=int,
            default=None,
            metavar="K",
            help="stop after the first K answers (early exit)",
        )
        p.add_argument(
            "--knn",
            type=int,
            default=0,
            metavar="K",
            help="restrict one variable to its table's K nearest rows "
            "(best-first distance browsing on r-tree tables)",
        )
        p.add_argument(
            "--knn-var",
            default=None,
            metavar="VAR",
            help="the kNN variable (default: first of the retrieval order)",
        )
        p.add_argument(
            "--knn-point",
            default=None,
            metavar="X,Y",
            help="kNN anchor point (default: the universe center)",
        )
        p.add_argument(
            "--knn-ref",
            default=None,
            metavar="VAR",
            help="anchor the kNN on another variable's box instead of a "
            "point (a per-tuple distance join)",
        )
        p.add_argument(
            "--agg",
            default=None,
            metavar="SPEC",
            help="aggregate the answers instead of returning them: "
            "comma-separated ops 'count', 'min:VAR', 'max:VAR' "
            "(min/max aggregate the variable's box volume)",
        )
        p.add_argument(
            "--group-by",
            default=None,
            metavar="VARS",
            help="comma-separated group-by variables for --agg",
        )
        p.add_argument(
            "--agg-box",
            action="store_true",
            help="box-level COUNT (exact=False): push the count down to "
            "the index's subtree entry counts",
        )
        p.add_argument(
            "--mutate",
            type=int,
            default=0,
            metavar="N",
            help="stage N seeded delta writes per table (2:1 "
            "inserts:deletes) before executing, exercising the "
            "LSM-style overlay-merged read paths",
        )
        p.add_argument(
            "--delta-threshold",
            type=int,
            default=None,
            metavar="N",
            help="repack after N staged mutations (with --mutate; "
            "default: the table's own threshold, 64)",
        )

    p = sub.add_parser(
        "explain",
        help="print the physical operator tree with cost estimates",
    )
    add_query_args(p)
    p.add_argument(
        "--analyze",
        action="store_true",
        help="execute the plan: annotate each operator's actual rows, "
        "probes and node reads, and report the counters and timings",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser(
        "run", help="execute a workload and print the answers"
    )
    add_query_args(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "save", help="snapshot a built workload database to disk"
    )
    p.add_argument("out", help="snapshot file to write")
    add_workload_args(p)
    p.set_defaults(func=cmd_save)

    p = sub.add_parser("load", help="summarise a saved snapshot")
    p.add_argument("snapshot", help="snapshot file to read")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_load)

    p = sub.add_parser(
        "serve", help="start the resident query service (HTTP)"
    )
    p.add_argument(
        "snapshot",
        nargs="?",
        help="snapshot file to serve (default: build --workload)",
    )
    add_workload_args(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=8972, help="0 picks an ephemeral port"
    )
    p.set_defaults(func=cmd_serve)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())

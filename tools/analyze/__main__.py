"""``python -m tools.analyze`` — the repro-lint CLI.

Exit status: 0 when no non-baselined findings remain, 1 otherwise,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core import Analyzer, Baseline
from .passes import ALL_PASSES
from .reporters import render_json, render_text

DEFAULT_TARGET = "src/repro"
DEFAULT_BASELINE = Path("tools/analyze/baseline.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.analyze",
        description="repro-lint: project-specific static analysis "
        "(determinism, counter billing, lock discipline, "
        "operator contract).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=[DEFAULT_TARGET],
        help=f"files/directories to analyze (default: {DEFAULT_TARGET})",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help="baseline file of accepted findings "
        f"(default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="report every finding, ignoring the baseline",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    args = parser.parse_args(argv)

    analyzer = Analyzer([cls() for cls in ALL_PASSES])

    if args.list_rules:
        for rule in analyzer.all_rules():
            print(f"{rule.id}  {rule.name:35s} [{rule.severity}]")
            print(f"    {rule.summary}")
        return 0

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            f"error: no such path(s): {', '.join(map(str, missing))}",
            file=sys.stderr,
        )
        return 2

    modules, symtab = analyzer.load(paths, Path.cwd())
    baseline = (
        None if args.no_baseline else Baseline.load(args.baseline)
    )
    findings = analyzer.run(modules, symtab, baseline=baseline)

    if args.write_baseline:
        Baseline.write(args.baseline, findings)
        print(
            f"wrote {len(findings)} finding(s) to {args.baseline}",
            file=sys.stderr,
        )
        return 0

    if args.format == "json":
        print(
            render_json(
                findings, analyzer.suppressed_inline, analyzer.baselined
            )
        )
    else:
        print(
            render_text(
                findings, analyzer.suppressed_inline, analyzer.baselined
            )
        )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())

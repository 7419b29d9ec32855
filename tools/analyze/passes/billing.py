"""Pass 2 — counter-billing parity (REPRO201-203).

``ExecutionStats`` is the paper-reproduction's measurement instrument:
every mode, join strategy, and columnar backend must bill the same
work to the same counters, or the benchmark gates compare apples to
oranges.  Two structural properties are checkable without running:

* REPRO201 — an operator body (``_rows``/``_group_rows``/
  ``_candidate_pairs``/``candidate_lists``/``iterate``) that calls
  index/probe APIs but never touches ``self.stats`` cannot be billing
  the work it does;
* REPRO202 — a columnar/scalar split in which one side bills a
  counter the other side does not (``vectorized_batches``/
  ``vectorized_candidates`` are exempt: they exist to *count* the
  columnar path).  The split is a test on ``store is None`` / ``store
  is not None`` (the table's :meth:`column_store`, ``None`` while a
  write delta is pending): an ``if``/``else`` compares its two branches;
  an early-exit guard (``if store is None: … return``, ``if store is
  not None and …: … continue``) compares the guarded block with the
  code after it in the same block;
* REPRO203 — an operator body that runs the exact check (a bound
  constraint's ``select``/``holds``, or a system's ``holds``) but never
  bills ``self.stats.region_ops`` hides the exact region operations
  from ``ExecutionStats``.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from ..core import (
    Finding,
    Module,
    Rule,
    SymbolTable,
    attr_chain,
    iter_class_methods,
)

RULES = {
    "REPRO201": Rule(
        id="REPRO201",
        name="unbilled-index-work",
        summary="operator iterates index entries without billing "
        "ExecutionStats counters",
        fix="bill the probe via self.stats (probes/node_reads/"
        "pair_tests/...) next to the index call",
    ),
    "REPRO202": Rule(
        id="REPRO202",
        name="scalar-vectorized-counter-asymmetry",
        summary="columnar branch bills a counter its scalar twin "
        "does not (or vice versa)",
        fix="bill the same logical counters on both sides; only "
        "vectorized_batches/vectorized_candidates may differ",
    ),
    "REPRO203": Rule(
        id="REPRO203",
        name="unbilled-exact-check",
        summary="operator runs the exact check without billing "
        "stats.region_ops",
        fix="bill the algebra's OpCounter delta around the check to "
        "self.stats.region_ops",
    ),
}

#: Table/index APIs whose calls represent billable index work.
PROBE_APIS = {
    "probe",
    "match_positions",
    "matches",
    "range_query",
    "range_query_batch",
    "range_query_packed",
    "knn",
    "knn_browse",
    "candidates",
    "insert_batch",
    "query",
    "search",
    "search_batch",
    "search_packed",
    "scan",
}

#: Calls that run the exact region-algebra check.
EXACT_APIS = {"select", "holds"}

#: Counters that legitimately differ between scalar and vectorized twins.
SYMMETRY_EXEMPT = {"vectorized_batches", "vectorized_candidates"}

#: Tests that split a columnar path from its scalar twin.
SPLIT_TESTS = ("store is None", "store is not None")

#: Statements that end a guarded block: the scalar twin follows it.
_EXITS = (ast.Return, ast.Continue, ast.Break, ast.Raise)

_OPERATOR_METHODS = (
    "_rows",
    "_group_rows",
    "_candidate_pairs",
    "candidate_lists",
    "iterate",
)


class BillingPass:
    name = "billing"
    rules = RULES

    def run(self, module: Module, symtab: SymbolTable) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not symtab.is_subclass_of(node.name, "PhysicalOperator"):
                continue
            if node.name == "PhysicalOperator":
                continue
            for method in iter_class_methods(node):
                if method.name not in _OPERATOR_METHODS:
                    continue
                symbol = f"{node.name}.{method.name}"
                self._check_unbilled(module, method, symbol, findings)
                self._check_asymmetry(module, method, symbol, findings)
                self._check_exact(module, method, symbol, findings)
        return findings

    def _check_unbilled(
        self,
        module: Module,
        method: ast.FunctionDef,
        symbol: str,
        findings: List[Finding],
    ) -> None:
        probe_call = None
        bills_stats = False
        for node in ast.walk(method):
            if isinstance(node, ast.Call):
                chain = attr_chain(node.func)
                attr = chain.rpartition(".")[2]
                if attr in PROBE_APIS and "." in chain:
                    probe_call = probe_call or node
            if (
                isinstance(node, ast.Attribute)
                and attr_chain(node).startswith("self.stats")
            ):
                bills_stats = True
        if probe_call is not None and not bills_stats:
            findings.append(
                Finding(
                    rule="REPRO201",
                    severity=RULES["REPRO201"].severity,
                    path=module.relpath,
                    line=probe_call.lineno,
                    column=probe_call.col_offset,
                    symbol=symbol,
                    message=(
                        f"{symbol} calls "
                        f"{attr_chain(probe_call.func)}() but never "
                        "bills self.stats"
                    ),
                    fix_hint=RULES["REPRO201"].fix,
                )
            )

    def _check_exact(
        self,
        module: Module,
        method: ast.FunctionDef,
        symbol: str,
        findings: List[Finding],
    ) -> None:
        check = None
        for node in ast.walk(method):
            if isinstance(node, ast.Call):
                chain = attr_chain(node.func)
                if "." in chain and chain.rpartition(".")[2] in EXACT_APIS:
                    check = check or node
        if check is None or "region_ops" in _billed_counters(method.body):
            return
        findings.append(
            Finding(
                rule="REPRO203",
                severity=RULES["REPRO203"].severity,
                path=module.relpath,
                line=check.lineno,
                column=check.col_offset,
                symbol=symbol,
                message=(
                    f"{symbol} calls {attr_chain(check.func)}() but never "
                    "bills self.stats.region_ops"
                ),
                fix_hint=RULES["REPRO203"].fix,
            )
        )

    def _check_asymmetry(
        self,
        module: Module,
        method: ast.FunctionDef,
        symbol: str,
        findings: List[Finding],
    ) -> None:
        for block in _blocks(method):
            for at, node in enumerate(block):
                if not isinstance(node, ast.If):
                    continue
                test_src = ast.unparse(node.test)
                if not any(split in test_src for split in SPLIT_TESTS):
                    continue
                if node.orelse:
                    other = node.orelse
                elif isinstance(node.body[-1], _EXITS):
                    other = block[at + 1 :]
                else:
                    continue
                diff = (
                    _billed_counters(node.body) ^ _billed_counters(other)
                ) - SYMMETRY_EXEMPT
                if not diff:
                    continue
                findings.append(
                    Finding(
                        rule="REPRO202",
                        severity=RULES["REPRO202"].severity,
                        path=module.relpath,
                        line=node.lineno,
                        column=node.col_offset,
                        symbol=symbol,
                        message=(
                            f"{symbol} bills {sorted(diff)} on only one "
                            f"side of the columnar/scalar split ({test_src})"
                        ),
                        fix_hint=RULES["REPRO202"].fix,
                    )
                )


def _blocks(method: ast.FunctionDef) -> Iterator[List[ast.stmt]]:
    """Every statement list in ``method``: its body and each nested
    ``body``/``orelse``/``finalbody`` (handlers included)."""
    for node in ast.walk(method):
        for name in ("body", "orelse", "finalbody"):
            block = getattr(node, name, None)
            if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
                yield block


def _billed_counters(stmts: List[ast.stmt]) -> Set[str]:
    """Counter names aug-assigned through ``self.stats.X`` in ``stmts``."""
    out: Set[str] = set()
    for stmt in stmts:
        for node in ast.walk(stmt):
            if isinstance(node, ast.AugAssign):
                chain = attr_chain(node.target)
                if chain.startswith("self.stats."):
                    out.add(chain.split(".", 2)[2])
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    chain = attr_chain(target)
                    if chain.startswith("self.stats."):
                        out.add(chain.split(".", 2)[2])
    return out

"""Pass 4 — pickle-safety at the process-pool boundary (REPRO401-402).

The historical ``Box.__reduce__`` bug class: shipping ``Box``/``Region``
object graphs through a ``ProcessPoolExecutor`` either fails outright
or silently costs a deep-pickle per task.  The project's discipline is

* call sites ask ``exchange.uses_processes(n_tasks)`` first, and ship
  *packed* task forms (flat tuples of floats/ints/bytes built by a
  ``_pack_*`` helper) on the process branch;
* worker entry points that accept packed forms carry a ``_packed`` or
  ``_task`` suffix (``_sweep_tile_packed``).

This pass flags dispatches that break the discipline:

* REPRO401 — ``exchange.run(fn, tasks)`` / ``pool.map(fn, ...)`` /
  ``pool.submit(fn, ...)`` with a worker that is neither a packed form
  nor lexically inside the non-process branch of a
  ``uses_processes()`` conditional;
* REPRO402 — a ``lambda`` or nested function handed to a dispatch that
  may cross a process boundary (never picklable).

Workers received as *parameters* (the generic ``Exchange.run``/
``WorkerPool.map`` plumbing) are skipped — the rule bites at concrete
call sites, where the worker is nameable.
"""

from __future__ import annotations

import ast
import re
from typing import List, Optional, Set

from ..core import Finding, Module, Rule, SymbolTable, attr_chain

RULES = {
    "REPRO401": Rule(
        id="REPRO401",
        name="unpacked-process-payload",
        summary="non-packed worker dispatched where pickling may occur",
        fix="guard with `if exchange.uses_processes(len(tasks)):` and "
        "ship a packed task form (see _pack_tile_task) on the "
        "process branch",
    ),
    "REPRO402": Rule(
        id="REPRO402",
        name="unpicklable-worker",
        summary="lambda/closure dispatched to a pool that may pickle it",
        fix="hoist the worker to a module-level function (pickle "
        "resolves workers by qualified name)",
    ),
}

#: Known packed/blob worker entry points, plus the naming convention.
PACKED_WORKERS = {"_sweep_tile_packed"}
_PACKED_NAME_RE = re.compile(r"(_packed|_task|_blob)$")

_DISPATCH_METHODS = {"run", "map", "submit"}
_RECEIVER_HINT_RE = re.compile(r"(exchange|pool|executor)", re.IGNORECASE)


def _is_packed_worker(name: str) -> bool:
    return name in PACKED_WORKERS or bool(_PACKED_NAME_RE.search(name))


class PickleSafetyPass:
    name = "pickle-safety"
    rules = RULES

    def run(self, module: Module, symtab: SymbolTable) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_function(module, node, findings)
        return findings

    def _check_function(
        self,
        module: Module,
        func: ast.FunctionDef,
        findings: List[Finding],
    ) -> None:
        params = {a.arg for a in func.args.args}
        params.update(a.arg for a in func.args.kwonlyargs)
        params.update(a.arg for a in func.args.posonlyargs)
        # Receivers constructed locally with a thread/serial kind never
        # pickle; track them so their dispatches are exempt.
        thread_only = _thread_only_receivers(func)
        local_defs = {
            n.name
            for n in ast.walk(func)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
            and n is not func
        }

        def visit_block(stmts: List[ast.stmt], safe_branch: bool) -> None:
            for stmt in stmts:
                if isinstance(stmt, ast.If) and _tests_uses_processes(
                    stmt.test
                ):
                    visit_block(stmt.body, False)
                    visit_block(stmt.orelse, True)
                    if _terminates(stmt.body):
                        # The process branch returned/raised, so the
                        # rest of this block is the non-process
                        # fall-through.
                        safe_branch = True
                    continue
                visit(stmt, safe_branch)

        def visit(node: ast.AST, safe_branch: bool) -> None:
            if isinstance(node, ast.If) and _tests_uses_processes(node.test):
                visit_block(node.body, False)
                visit_block(node.orelse, True)
                return
            if isinstance(node, ast.Call):
                self._check_dispatch(
                    module,
                    func,
                    node,
                    safe_branch,
                    params,
                    thread_only,
                    local_defs,
                    findings,
                )
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue  # nested defs are checked as functions
                visit(child, safe_branch)

        visit_block(func.body, False)

    def _check_dispatch(
        self,
        module: Module,
        func: ast.FunctionDef,
        call: ast.Call,
        safe_branch: bool,
        params: Set[str],
        thread_only: Set[str],
        local_defs: Set[str],
        findings: List[Finding],
    ) -> None:
        if not isinstance(call.func, ast.Attribute):
            return
        if call.func.attr not in _DISPATCH_METHODS or not call.args:
            return
        receiver = attr_chain(call.func.value)
        recv_tail = receiver.rpartition(".")[2]
        if not _RECEIVER_HINT_RE.search(recv_tail):
            return
        if recv_tail in thread_only:
            return
        worker = call.args[0]

        if isinstance(worker, ast.Lambda):
            findings.append(
                self._finding(
                    "REPRO402",
                    module,
                    func,
                    call,
                    f"lambda dispatched via {receiver}."
                    f"{call.func.attr}() cannot cross a process "
                    "boundary",
                )
            )
            return

        worker_name = _worker_name(worker)
        if worker_name is None:
            return
        if worker_name in params:
            return  # generic plumbing: the worker is a parameter
        if worker_name in local_defs:
            findings.append(
                self._finding(
                    "REPRO402",
                    module,
                    func,
                    call,
                    f"nested function {worker_name!r} dispatched via "
                    f"{receiver}.{call.func.attr}() cannot cross a "
                    "process boundary",
                )
            )
            return
        if _is_packed_worker(worker_name) or safe_branch:
            return
        findings.append(
            self._finding(
                "REPRO401",
                module,
                func,
                call,
                f"{receiver}.{call.func.attr}({worker_name}, ...) may "
                "pickle raw task objects; dispatch a packed form or "
                "guard with uses_processes()",
            )
        )

    @staticmethod
    def _finding(
        rule: str,
        module: Module,
        func: ast.FunctionDef,
        call: ast.Call,
        message: str,
    ) -> Finding:
        return Finding(
            rule=rule,
            severity=RULES[rule].severity,
            path=module.relpath,
            line=call.lineno,
            column=call.col_offset,
            symbol=func.name,
            message=message,
            fix_hint=RULES[rule].fix,
        )


def _terminates(stmts: List[ast.stmt]) -> bool:
    """Whether control cannot fall off the end of this block."""
    return bool(stmts) and isinstance(
        stmts[-1], (ast.Return, ast.Raise, ast.Break, ast.Continue)
    )


def _tests_uses_processes(test: ast.expr) -> bool:
    for node in ast.walk(test):
        if isinstance(node, ast.Call):
            chain = attr_chain(node.func)
            if chain.rpartition(".")[2] == "uses_processes":
                return True
    return False


def _worker_name(expr: ast.expr) -> Optional[str]:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _thread_only_receivers(func: ast.FunctionDef) -> Set[str]:
    """Local names bound to Exchange/WorkerPool built thread-or-serial.

    ``Exchange(workers)`` defaults to ``kind="thread"`` *unless* a
    ``pool=`` is borrowed (the pool's kind wins), so a bare construction
    without ``pool=`` is thread-only.
    """
    out: Set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign) or not isinstance(
            node.value, ast.Call
        ):
            continue
        ctor = attr_chain(node.value.func).rpartition(".")[2]
        if ctor not in ("Exchange", "WorkerPool"):
            continue
        kinds = [
            kw.value.value
            for kw in node.value.keywords
            if kw.arg == "kind" and isinstance(kw.value, ast.Constant)
        ]
        borrows_pool = any(kw.arg == "pool" for kw in node.value.keywords)
        thread_only = (
            kinds[0] in ("thread", "serial")
            if kinds
            else not borrows_pool
        )
        if thread_only:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out.add(target.id)
    return out

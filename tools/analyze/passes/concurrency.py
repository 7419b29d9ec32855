"""Pass 3 — lock discipline on shared-state classes (REPRO301).

Classes whose instances are shared across threads (``SnapshotStore``,
``QueryService``, ``ServiceClient``, ...) declare which lock guards
which attribute with a structured comment on the attribute's
``__init__`` assignment::

    def __init__(self):
        self._lock = threading.Lock()
        self._entries = {}   # guarded-by: _lock

The pass then flags any mutation of a guarded attribute — assignment,
augmented assignment, subscript store/delete, or a mutating method call
(``append``/``update``/``clear``/...) — outside a ``with self._lock:``
region.  Conventions honored:

* ``__init__`` itself is exempt (publication happens-before sharing);
* methods whose name ends in ``_locked`` are exempt (the suffix is the
  project convention for "caller holds the lock");
* reads are never flagged — lock-free read paths (``SnapshotStore.
  current``) are a designed-in pattern here.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, List

from ..core import (
    Finding,
    Module,
    Rule,
    SymbolTable,
    attr_chain,
    iter_class_methods,
)

RULES = {
    "REPRO301": Rule(
        id="REPRO301",
        name="unguarded-shared-mutation",
        summary="guarded-by attribute mutated outside its lock",
        fix="wrap the mutation in `with self.<lock>:` or rename the "
        "method with the `_locked` suffix if the caller holds it",
    ),
}

_GUARD_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")

#: Method calls on an attribute that mutate the underlying container.
MUTATING_METHODS = {
    "append",
    "appendleft",
    "add",
    "clear",
    "discard",
    "extend",
    "insert",
    "move_to_end",
    "pop",
    "popitem",
    "popleft",
    "remove",
    "setdefault",
    "sort",
    "update",
}


class ConcurrencyPass:
    name = "concurrency"
    rules = RULES

    def run(self, module: Module, symtab: SymbolTable) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            guarded = self._guarded_attrs(module, node)
            if not guarded:
                continue
            for method in iter_class_methods(node):
                if method.name == "__init__":
                    continue
                if method.name.endswith("_locked"):
                    continue
                self._check_method(
                    module, node.name, method, guarded, findings
                )
        return findings

    def _guarded_attrs(
        self, module: Module, cls: ast.ClassDef
    ) -> Dict[str, str]:
        """attr name -> lock name, from ``# guarded-by:`` annotations."""
        guarded: Dict[str, str] = {}
        for method in iter_class_methods(cls):
            if method.name != "__init__":
                continue
            for stmt in ast.walk(method):
                if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                for target in targets:
                    chain = attr_chain(target)
                    if not chain.startswith("self.") or chain.count(".") != 1:
                        continue
                    lock = self._annotation_at(module, stmt.lineno)
                    if lock:
                        guarded[chain.split(".", 1)[1]] = lock
        return guarded

    @staticmethod
    def _annotation_at(module: Module, lineno: int) -> str:
        for line in (lineno, lineno - 1):
            m = _GUARD_RE.search(module.line_comment(line))
            if m:
                return m.group(1)
        return ""

    def _check_method(
        self,
        module: Module,
        class_name: str,
        method: ast.FunctionDef,
        guarded: Dict[str, str],
        findings: List[Finding],
    ) -> None:
        def visit(node: ast.AST, held: FrozenSet[str]) -> None:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                # Nested defs get a fresh frame; the lock is not known
                # to be held when the closure eventually runs.
                for child in ast.iter_child_nodes(node):
                    visit(child, frozenset())
                return
            if isinstance(node, ast.With):
                locks = set(held)
                for item in node.items:
                    chain = attr_chain(item.context_expr)
                    if chain.startswith("self."):
                        locks.add(chain.split(".", 1)[1])
                for child in node.body:
                    visit(child, frozenset(locks))
                return
            attr = _mutated_attr(node, guarded)
            if attr is not None and guarded[attr] not in held:
                findings.append(
                    Finding(
                        rule="REPRO301",
                        severity=RULES["REPRO301"].severity,
                        path=module.relpath,
                        line=node.lineno,  # type: ignore[attr-defined]
                        column=node.col_offset,  # type: ignore[attr-defined]
                        symbol=f"{class_name}.{method.name}",
                        message=(
                            f"self.{attr} (guarded-by: {guarded[attr]}) "
                            f"mutated outside `with self."
                            f"{guarded[attr]}:`"
                        ),
                        fix_hint=RULES["REPRO301"].fix,
                    )
                )
            for child in ast.iter_child_nodes(node):
                visit(child, held)

        for stmt in method.body:
            visit(stmt, frozenset())


def _mutated_attr(node: ast.AST, guarded: Dict[str, str]) -> str | None:
    """The guarded attribute this node mutates, if any."""

    def own_attr(expr: ast.expr) -> str | None:
        chain = attr_chain(expr)
        if chain.startswith("self.") and chain.count(".") == 1:
            attr = chain.split(".", 1)[1]
            if attr in guarded:
                return attr
        return None

    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            direct = own_attr(target)
            if direct is not None:
                return direct
            if isinstance(target, ast.Subscript):
                via_sub = own_attr(target.value)
                if via_sub is not None:
                    return via_sub
            if isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    nested = own_attr(elt)
                    if nested is not None:
                        return nested
    if isinstance(node, ast.Delete):
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                via_sub = own_attr(target.value)
                if via_sub is not None:
                    return via_sub
            direct = own_attr(target)
            if direct is not None:
                return direct
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in MUTATING_METHODS:
            return own_attr(node.func.value)
    return None

"""Pass 5 — the Volcano operator contract (REPRO501-503).

Every ``PhysicalOperator`` subclass participates in three protocols
that ``PhysicalPlan``/``explain`` assume structurally:

* REPRO501 — the iterator protocol: the class (or an ancestor) must
  provide ``iterate`` or ``candidate_lists`` (the extend steps' hook
  that hands each input binding over with its candidate rows, which
  their ``iterate`` and the step ``ExactFilter`` walk), and when the
  nearest provider is a template base (``ExtendStep`` -> ``_rows`` or,
  for a whole group of bindings, ``_group_rows``; ``_BulkJoinStep`` ->
  ``_candidate_pairs``) the class must implement or inherit the hook;
* REPRO502 — estimate plumbing: an operator defining ``__init__`` must
  call ``super().__init__(...)`` (or set ``self.stats`` and
  ``self.est_rows`` itself) so EXPLAIN's estimate/actual columns and
  stats folding have their fields;
* REPRO503 — stats propagation: a directly-defined ``iterate`` or
  ``candidate_lists`` must set ``self.stats.executed`` (or pull
  ``self.candidate_lists``, which does) so ``ExecutionStats`` and
  ``explain(analyze=True)`` see the operator as pulled.

Abstract template bases (a hook body that just raises
``NotImplementedError``) are exempt from REPRO501.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

from ..core import (
    ClassInfo,
    Finding,
    Module,
    Rule,
    SymbolTable,
    attr_chain,
    iter_class_methods,
)

RULES = {
    "REPRO501": Rule(
        id="REPRO501",
        name="missing-iterate",
        summary="operator provides neither iterate() nor its template "
        "base's hook",
        fix="implement iterate(ctx) or candidate_lists(ctx), or the "
        "template hook (_rows/_candidate_pairs) of the base you derive "
        "from",
    ),
    "REPRO502": Rule(
        id="REPRO502",
        name="broken-estimate-plumbing",
        summary="__init__ neither calls super().__init__ nor sets "
        "stats/est_rows",
        fix="call super().__init__(child) first; it wires self.stats "
        "and self.est_rows for EXPLAIN and stats folding",
    ),
    "REPRO503": Rule(
        id="REPRO503",
        name="missing-executed-mark",
        summary="iterate()/candidate_lists() never sets "
        "self.stats.executed",
        fix="set self.stats.executed = True on entry so "
        "explain(analyze=True) reports the operator as pulled",
    ),
}

#: Template bases and the hooks a subclass may implement instead of
#: ``iterate`` itself: the abstract one first, then those with a default
#: built on it that a subclass may override in its place.
TEMPLATE_HOOKS = {
    "ExtendStep": ("_rows", "_group_rows"),
    "_BulkJoinStep": ("_candidate_pairs",),
}

ROOT = "PhysicalOperator"

#: The methods a consumer pulls an operator through.
ENTRY_POINTS = ("iterate", "candidate_lists")


class OperatorContractPass:
    name = "operator-contract"
    rules = RULES

    def run(self, module: Module, symtab: SymbolTable) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name == ROOT:
                continue
            if not symtab.is_subclass_of(node.name, ROOT):
                continue
            self._check_iterate(module, node, symtab, findings)
            self._check_init(module, node, findings)
            self._check_executed(module, node, findings)
        return findings

    # -- REPRO501 -------------------------------------------------------------
    def _check_iterate(
        self,
        module: Module,
        cls: ast.ClassDef,
        symtab: SymbolTable,
        findings: List[Finding],
    ) -> None:
        chain = symtab.mro_chain(cls.name)
        provider: Optional[ClassInfo] = None
        for info in chain:
            if info.name == ROOT:
                break
            if any(_defines(info.node, entry) for entry in ENTRY_POINTS):
                provider = info
                break
        if provider is None:
            findings.append(
                self._finding(
                    "REPRO501",
                    module,
                    cls,
                    f"{cls.name} inherits PhysicalOperator.iterate "
                    "(NotImplementedError) and provides no override "
                    "(nor candidate_lists)",
                )
            )
            return
        hooks = TEMPLATE_HOOKS.get(provider.name)
        if hooks is None or provider.name == cls.name:
            return
        hook = hooks[0]
        if any(
            _find_method(info.node, stand_in) is not None
            for info in chain[: chain.index(provider)]
            for stand_in in hooks[1:]
        ):
            return
        hook_impl = self._hook_provider(chain, hook)
        if hook_impl is None:
            findings.append(
                self._finding(
                    "REPRO501",
                    module,
                    cls,
                    f"{cls.name} relies on {provider.name}'s "
                    f"iterate/candidate_lists but implements no {hook}() "
                    "hook",
                )
            )
        elif _is_abstract(hook_impl) and not self._has_concrete_subclass(
            cls.name, hook, symtab
        ):
            findings.append(
                self._finding(
                    "REPRO501",
                    module,
                    cls,
                    f"{cls.name}'s nearest {hook}() is abstract "
                    "(raises NotImplementedError) and no subclass "
                    "provides one",
                )
            )

    @staticmethod
    def _hook_provider(
        chain: List[ClassInfo], hook: str
    ) -> Optional[ast.FunctionDef]:
        for info in chain:
            node = _find_method(info.node, hook)
            if node is not None:
                return node
        return None

    @staticmethod
    def _has_concrete_subclass(
        name: str, hook: str, symtab: SymbolTable
    ) -> bool:
        for sub in symtab.subclasses_of(name):
            node = _find_method(sub.node, hook)
            if node is not None and not _is_abstract(node):
                return True
        return False

    # -- REPRO502 -------------------------------------------------------------
    def _check_init(
        self, module: Module, cls: ast.ClassDef, findings: List[Finding]
    ) -> None:
        init = _find_method(cls, "__init__")
        if init is None:
            return
        calls_super = False
        sets: Dict[str, bool] = {"stats": False, "est_rows": False}
        for node in ast.walk(init):
            if isinstance(node, ast.Call):
                chain = attr_chain(node.func)
                if chain.endswith("__init__") or (
                    isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Call)
                    and attr_chain(node.func.value.func) == "super"
                ):
                    calls_super = True
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    chain = attr_chain(target)
                    if chain == "self.stats":
                        sets["stats"] = True
                    if chain == "self.est_rows":
                        sets["est_rows"] = True
        if not calls_super and not all(sets.values()):
            findings.append(
                self._finding(
                    "REPRO502",
                    module,
                    cls,
                    f"{cls.name}.__init__ neither calls "
                    "super().__init__ nor sets self.stats/"
                    "self.est_rows itself",
                )
            )

    # -- REPRO503 -------------------------------------------------------------
    def _check_executed(
        self, module: Module, cls: ast.ClassDef, findings: List[Finding]
    ) -> None:
        for entry in ENTRY_POINTS:
            method = _find_method(cls, entry)
            if method is None or _is_abstract(method) or _marks_executed(method):
                continue
            findings.append(
                self._finding(
                    "REPRO503",
                    module,
                    cls,
                    f"{cls.name}.{entry} never sets self.stats.executed",
                )
            )

    @staticmethod
    def _finding(
        rule: str, module: Module, cls: ast.ClassDef, message: str
    ) -> Finding:
        return Finding(
            rule=rule,
            severity=RULES[rule].severity,
            path=module.relpath,
            line=cls.lineno,
            column=cls.col_offset,
            symbol=cls.name,
            message=message,
            fix_hint=RULES[rule].fix,
        )


def _marks_executed(method: ast.FunctionDef) -> bool:
    """Sets ``self.stats.executed``, or pulls ``self.candidate_lists``
    (whose definitions are held to the same rule)."""
    for node in ast.walk(method):
        if isinstance(node, ast.Assign) and any(
            attr_chain(target) == "self.stats.executed" for target in node.targets
        ):
            return True
        if (
            isinstance(node, ast.Call)
            and attr_chain(node.func) == "self.candidate_lists"
        ):
            return True
    return False


def _defines(cls: ast.ClassDef, method: str) -> bool:
    return _find_method(cls, method) is not None


def _find_method(
    cls: ast.ClassDef, method: str
) -> Optional[ast.FunctionDef]:
    for item in iter_class_methods(cls):
        if item.name == method:
            return item
    return None


def _is_abstract(func: ast.FunctionDef) -> bool:
    """A body that only documents and raises NotImplementedError."""
    body = [
        stmt
        for stmt in func.body
        if not (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
        )
    ]
    if len(body) != 1:
        return False
    stmt = body[0]
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc
        name = (
            attr_chain(exc.func)
            if isinstance(exc, ast.Call)
            else attr_chain(exc)
        )
        return name.rpartition(".")[2] == "NotImplementedError"
    return False

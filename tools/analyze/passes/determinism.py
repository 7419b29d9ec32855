"""Pass 1 — determinism (REPRO101-105).

The repo's headline gates are bit-identity equalities: numpy ≡ array
backend, every join strategy ≡ the index probe.
All of them die the moment result paths consume a nondeterministic
source.  This pass flags, in ``engine/`` and ``spatial/``:

* REPRO101 — unseeded ``random`` (module-level functions, or
  ``random.Random()`` with no seed argument);
* REPRO102 — wall-clock reads outside timing bookkeeping (a clock value
  flowing anywhere but a timing-named variable can steer result
  content);
* REPRO103 — iterating a ``set``/``frozenset`` into ordered output
  without ``sorted()`` (set iteration order varies across processes
  because of hash randomization, so two runs can disagree);
* REPRO104 — ``id()``-based ordering (``key=id`` or ``id()`` inside a
  comparison); CPython ids are allocation addresses and differ between
  runs;
* REPRO105 — pairwise float reduction: ``np.sum`` / ``.sum()`` /
  ``np.mean`` / ``.mean()`` / ``np.add.reduce`` over float data.  NumPy
  adds pairwise, the stdlib backend folds left to right, so the two
  disagree in the last bit.  Counting is exempt — a reduction inside
  ``int(...)``, over a comparison or boolean expression, or over a name
  that says mask/count/index — because integer sums have one answer.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set

from ..core import Finding, Module, Rule, SymbolTable, attr_chain

RULES = {
    "REPRO101": Rule(
        id="REPRO101",
        name="unseeded-random",
        summary="unseeded random source in a deterministic layer",
        fix="use random.Random(seed) with an explicit seed plumbed "
        "from the caller",
    ),
    "REPRO102": Rule(
        id="REPRO102",
        name="wall-clock-in-result-path",
        summary="wall-clock read outside timing bookkeeping",
        severity="warning",
        fix="assign the clock value to a timing-named variable "
        "(started/elapsed/...) or move it out of the result path",
    ),
    "REPRO103": Rule(
        id="REPRO103",
        name="unordered-set-iteration",
        summary="set/frozenset iterated into ordered output without "
        "sorted()",
        fix="wrap the iterable in sorted(...) with a deterministic key",
    ),
    "REPRO104": Rule(
        id="REPRO104",
        name="id-based-ordering",
        summary="id() used as a sort key or in an ordering comparison",
        fix="order by a stable attribute (oid, sequence tag) instead "
        "of the allocation address",
    ),
    "REPRO105": Rule(
        id="REPRO105",
        name="pairwise-float-reduction",
        summary="NumPy sum/mean over float data (pairwise; the stdlib "
        "backend folds sequentially)",
        fix="compute the element-wise part in NumPy and fold with builtin "
        "sum(arr.tolist()), as columnar.side_sum does",
    ),
}

_RANDOM_FUNCS = {
    "random",
    "randint",
    "randrange",
    "uniform",
    "choice",
    "choices",
    "sample",
    "shuffle",
    "gauss",
    "betavariate",
    "expovariate",
    "normalvariate",
    "triangular",
    "seed",
    "getrandbits",
}
_CLOCK_ATTRS = {
    "time": {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
    },
    "datetime": {"now", "utcnow", "today"},
}
_TIMING_NAME_RE = re.compile(
    r"(time|start|began|begin|end|stop|elapsed|deadline|stamp|t0|t1|"
    r"now|wall|clock|duration|latency|tick|deduct|budget)",
    re.IGNORECASE,
)
_TIMING_FUNC_RE = re.compile(
    r"(bench|timing|timer|profile|elapsed|wall|clock)", re.IGNORECASE
)
_SET_BUILTINS = {"set", "frozenset"}
_NUMPY_REDUCTIONS = ("np.sum", "np.mean", "np.add.reduce", "numpy.sum",
                     "numpy.mean", "numpy.add.reduce")
_INTEGER_NAME_RE = re.compile(
    r"(mask|count|flag|hits|idx|index|indices|nonempty|sizes|lengths)",
    re.IGNORECASE,
)


def _in_scope(relpath: str) -> bool:
    norm = relpath.replace("\\", "/")
    return "/engine/" in norm or "/spatial/" in norm or norm.startswith(
        ("engine/", "spatial/")
    )


class DeterminismPass:
    name = "determinism"
    rules = RULES

    def run(self, module: Module, symtab: SymbolTable) -> List[Finding]:
        if not _in_scope(module.relpath):
            return []
        findings: List[Finding] = []
        visitor = _Visitor(module, findings)
        visitor.visit(module.tree)
        return findings


class _Visitor(ast.NodeVisitor):
    def __init__(self, module: Module, findings: List[Finding]):
        self.module = module
        self.findings = findings
        self.scope: List[str] = []
        # Per-function map of local names known to be bound to sets.
        self.set_names: List[Set[str]] = []
        # ids of expressions that are the argument of an int(...) call.
        self.counted: Set[int] = set()

    # -- scope tracking -------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_function(self, node) -> None:
        self.scope.append(node.name)
        self.set_names.append(set())
        self.generic_visit(node)
        self.set_names.pop()
        self.scope.pop()

    def _symbol(self) -> str:
        return ".".join(self.scope)

    def _add(
        self, rule: str, node: ast.AST, message: str, fix: str = ""
    ) -> None:
        info = RULES[rule]
        self.findings.append(
            Finding(
                rule=rule,
                severity=info.severity,
                path=self.module.relpath,
                line=getattr(node, "lineno", 1),
                column=getattr(node, "col_offset", 0),
                symbol=self._symbol(),
                message=message,
                fix_hint=fix or info.fix,
            )
        )

    # -- set-name inference ---------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        if self.set_names and _is_set_expr(node.value, self._sets()):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.set_names[-1].add(target.id)
        self.generic_visit(node)

    def _sets(self) -> Set[str]:
        return self.set_names[-1] if self.set_names else set()

    # -- the rules ------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        chain = attr_chain(node.func)
        # REPRO101: unseeded random.
        if chain.startswith("random."):
            attr = chain.split(".", 1)[1]
            if attr in _RANDOM_FUNCS:
                self._add(
                    "REPRO101",
                    node,
                    f"call to module-level random.{attr}() uses the "
                    "shared unseeded generator",
                )
            elif attr == "Random" and not node.args and not node.keywords:
                self._add(
                    "REPRO101",
                    node,
                    "random.Random() constructed without a seed",
                )
        # REPRO102: wall clock.
        mod, _, attr = chain.rpartition(".")
        mod = mod.rpartition(".")[2]
        if mod in _CLOCK_ATTRS and attr in _CLOCK_ATTRS[mod]:
            if not self._timing_context(node):
                self._add(
                    "REPRO102",
                    node,
                    f"wall-clock read {chain}() outside timing "
                    "bookkeeping may steer result content",
                )
        # REPRO103: list()/tuple() over a set.
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple")
            and node.args
            and _is_set_expr(node.args[0], self._sets())
        ):
            self._add(
                "REPRO103",
                node,
                f"{node.func.id}() materializes a set in hash order",
            )
        # REPRO104: key=id in sorted()/sort()/min()/max().
        if chain.endswith(("sorted", ".sort", "min", "max")):
            for kw in node.keywords:
                if kw.arg == "key" and _is_id_key(kw.value):
                    self._add(
                        "REPRO104",
                        node,
                        "sort key is id(); allocation addresses differ "
                        "between runs",
                    )
        # REPRO105: pairwise float reduction.
        if isinstance(node.func, ast.Name) and node.func.id == "int" and node.args:
            self.counted.add(id(node.args[0]))
        operand: Optional[ast.expr] = None
        label = chain
        if chain.endswith(_NUMPY_REDUCTIONS):
            operand = node.args[0] if node.args else None
        elif isinstance(node.func, ast.Attribute) and node.func.attr in ("sum", "mean"):
            operand = node.func.value
            label = chain or f"<array>.{node.func.attr}"
        if (
            operand is not None
            and id(node) not in self.counted
            and not _is_integer_expr(operand)
        ):
            self._add(
                "REPRO105",
                node,
                f"{label}() reduces pairwise in NumPy; the sequential "
                "fold of the stdlib backend ends on a different last bit",
            )
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if _is_set_expr(node.iter, self._sets()):
            self._add(
                "REPRO103",
                node,
                "for-loop iterates a set in hash order",
            )
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        # REPRO104: id() inside an ordering comparison.
        ordered = any(
            isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
            for op in node.ops
        )
        if ordered:
            for sub in [node.left, *node.comparators]:
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id == "id"
                ):
                    self._add(
                        "REPRO104",
                        node,
                        "id() compared with an ordering operator",
                    )
                    break
        self.generic_visit(node)

    # -- helpers --------------------------------------------------------------
    def _timing_context(self, node: ast.Call) -> bool:
        """True when the clock read is plainly timing bookkeeping."""
        for name in reversed(self.scope):
            if _TIMING_FUNC_RE.search(name):
                return True
        stmt = _enclosing_statement(self.module.tree, node)
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            for target in targets:
                text = attr_chain(target) or ast.dump(target)
                if _TIMING_NAME_RE.search(text):
                    return True
        return False


def _enclosing_statement(
    tree: ast.AST, target: ast.AST
) -> Optional[ast.stmt]:
    """The innermost statement containing ``target`` (by identity)."""
    best: Optional[ast.stmt] = None
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            for sub in ast.walk(node):
                if sub is target:
                    best = node  # keep narrowing: walk yields outer first
                    break
    return best


def _is_set_expr(expr: ast.expr, known_sets: Set[str]) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id in _SET_BUILTINS
    ):
        return True
    if isinstance(expr, ast.Name) and expr.id in known_sets:
        return True
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(expr.left, known_sets) or _is_set_expr(
            expr.right, known_sets
        )
    return False


def _is_integer_expr(expr: ast.expr) -> bool:
    """True when a reduction's operand is plainly a mask or a count: a
    comparison, a boolean combination, or a name that says so."""
    if isinstance(expr, (ast.Compare, ast.BoolOp)):
        return True
    if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, (ast.Not, ast.Invert)):
        return True
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, (ast.BitAnd, ast.BitOr)):
        return True
    if isinstance(expr, ast.Subscript):
        return _is_integer_expr(expr.value)
    return bool(_INTEGER_NAME_RE.search(attr_chain(expr)))


def _is_id_key(expr: ast.expr) -> bool:
    if isinstance(expr, ast.Name) and expr.id == "id":
        return True
    if isinstance(expr, ast.Lambda):
        for sub in ast.walk(expr.body):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "id"
            ):
                return True
    return False

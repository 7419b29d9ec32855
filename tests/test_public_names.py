"""Every public top-level name in ``src/repro`` is reachable or marked.

A name-based closure over the source, stdlib :mod:`ast` only:

* *Definitions* are the top-level ``def``/``class``/assignments of every
  non-``__init__`` module under ``src/repro``.
* *Roots* are the entry points (:data:`ENTRY_POINTS`), every name that
  ``benchmarks/**/*.py`` or ``examples/*.py`` imports from ``repro``,
  the other module-level statements of non-façade modules, and each
  definition marked on its ``def`` line or the line above with
  ``# paper: <ref>`` (a §, Section, Theorem, Lemma, Example, Figure,
  Algorithm or Definition) or ``# oracle: tests/<file>.py``.  An oracle
  mark holds only if that file exists and mentions the name.
* The closure takes the ``Name`` ids, ``Attribute`` attrs and
  identifier-shaped string constants of each reached body and follows
  them by name.

A façade (a package ``__init__``) may re-export only names that some
file outside ``tests/`` imports through that façade; tests import from
the defining modules.
"""

from __future__ import annotations

import ast
import re
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: The public surfaces: the embedded API, the service and its client,
#: and the CLI's ``main``.
ENTRY_POINTS = ("Database", "Session", "QueryService", "ServiceClient", "main")

_PAPER = re.compile(
    r"#\s*paper:\s*(?:§|Section|Theorem|Lemma|Example|Figure|Algorithm|Definition)"
)
_ORACLE = re.compile(r"#\s*oracle:\s*(tests/[\w/]+\.py)\b")
_IDENT = re.compile(r"[A-Za-z_]\w*\Z")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _package_files(root: Path) -> list[Path]:
    return sorted((root / "src" / "repro").rglob("*.py"))


def _caller_files(root: Path) -> list[Path]:
    """Every Python file outside ``tests/`` and dot-directories."""
    return sorted(
        p for p in root.rglob("*.py")
        if not any(part == "tests" or part.startswith(".")
                   for part in p.relative_to(root).parts[:-1])
    )


def _bound_names(node: ast.stmt) -> list[str]:
    """Names a top-level definition binds (empty for other statements)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    if isinstance(node, ast.Assign):
        names = []
        for target in node.targets:
            elts = target.elts if isinstance(target, ast.Tuple) else [target]
            if not all(isinstance(e, ast.Name) for e in elts):
                return []
            names += [e.id for e in elts]
        return names
    return []


def _refs(node: ast.AST) -> set[str]:
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and _IDENT.match(n.value):
            out.add(n.value)
    return out


def _mark(lines: list[str], node: ast.stmt, root: Path, name: str) -> str | None:
    """``"paper"``/``"oracle"`` for a valid mark, ``"bad"`` for a broken
    oracle mark, ``None`` for none."""
    first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
    for text in (lines[node.lineno - 1], lines[first - 2] if first > 1 else ""):
        if _PAPER.search(text):
            return "paper"
        oracle = _ORACLE.search(text)
        if oracle:
            target = root / oracle.group(1)
            ok = target.is_file() and re.search(rf"\b{name}\b", target.read_text("utf-8"))
            return "oracle" if ok else "bad"
    return None


def _imported_from(path: Path, root: Path) -> list[tuple[str, str, str]]:
    """``(module, name, bound)`` for each ``from M import name [as bound]``
    in ``path``, relative imports resolved against the file's package."""
    parts = list(path.relative_to(root).with_suffix("").parts)
    package = parts[1:-1] if parts[:1] == ["src"] else []
    out = []
    for node in ast.walk(_parse(path)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            base = package[: len(package) - node.level + 1]
            module = ".".join([*base, node.module] if node.module else base)
        else:
            module = node.module or ""
        out += [(module, a.name, a.asname or a.name) for a in node.names]
    return out


def unreachable(root: Path = REPO) -> list[str]:
    """``module:name`` for every public definition the closure misses,
    and for every oracle mark whose file lacks the name."""
    definitions: dict[str, list[ast.stmt]] = {}
    public: list[tuple[str, str]] = []
    reached: set[str] = set(ENTRY_POINTS)
    broken = []
    for path in _package_files(root):
        if path.name == "__init__.py":
            continue
        # An import alias is followed to the name it binds.
        for _module, name, bound in _imported_from(path, root):
            if bound != name:
                definitions.setdefault(bound, []).append(ast.Name(name))
        tree = _parse(path)
        module = ".".join(path.relative_to(root / "src").with_suffix("").parts)
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in tree.body:
            names = _bound_names(node)
            if not names:
                if not isinstance(node, (ast.Import, ast.ImportFrom, ast.Expr)):
                    reached |= _refs(node)
                continue
            for name in names:
                if name == "__all__":
                    continue
                definitions.setdefault(name, []).append(node)
                if name.startswith("_"):
                    continue
                public.append((module, name))
                mark = _mark(lines, node, root, name)
                if mark == "bad":
                    broken.append(f"{module}:{name} (oracle file does not mention it)")
                elif mark:
                    reached.add(name)
    for directory in ("benchmarks", "examples"):
        for path in sorted((root / directory).rglob("*.py")):
            reached |= {
                name for module, name, _bound in _imported_from(path, root)
                if module == "repro" or module.startswith("repro.")
            }
    work = list(reached)
    while work:
        for node in definitions.get(work.pop(), ()):
            new = _refs(node) - reached
            reached |= new
            work += new
    return broken + [f"{m}:{n}" for m, n in public if n not in reached]


def unused_exports(root: Path = REPO) -> list[str]:
    """``package:name`` for every façade re-export that no file outside
    ``tests/`` imports through that façade.  A façade's own imports are
    its exports, not uses of another façade."""
    imported: set[tuple[str, str]] = set()
    exports = []
    for path in _caller_files(root):
        pairs = [(m, n) for m, n, _bound in _imported_from(path, root)]
        if path.name == "__init__.py" and path.is_relative_to(root / "src"):
            package = ".".join(path.relative_to(root / "src").parent.parts)
            exports += [(package, n) for m, n in pairs if m.startswith("repro")]
        else:
            imported |= set(pairs)
    return [f"{package}:{name}" for package, name in exports
            if (package, name) not in imported]


def test_every_public_name_is_reachable_or_marked():
    assert unreachable() == []


def test_every_facade_export_is_imported_through_it():
    assert unused_exports() == []


def _package(tmp_path: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return tmp_path


def test_fixture_flags_dead_names_and_keeps_marked_ones(tmp_path):
    root = _package(tmp_path, {
        "src/repro/__init__.py": "from .core import Database\n",
        "src/repro/core.py": """
            class Database:
                def run(self):
                    return _helper()

            def _helper():
                return "used_by_string"

            def used_by_string():
                return 1

            def dead():
                return 2

            # paper: Theorem 9
            def kept():
                return dead_twin()

            def dead_twin():
                return 3

            # oracle: tests/test_core.py
            def seam():
                return 4

            # oracle: tests/test_core.py
            def lost_seam():
                return 5
            """,
        "tests/test_core.py": "from repro.core import seam\n",
        "examples/demo.py": "from repro import Database\n",
    })
    assert unreachable(root) == [
        "repro.core:lost_seam (oracle file does not mention it)",
        "repro.core:dead",
        "repro.core:lost_seam",
    ]
    assert unused_exports(root) == []


def test_fixture_flags_an_unused_reexport(tmp_path):
    root = _package(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/pkg/__init__.py": "from .mod import Used, Unused\n",
        "src/repro/pkg/mod.py": "class Used:\n    pass\n\nclass Unused:\n    pass\n",
        "benchmarks/bench.py": "from repro.pkg import Used\n",
        "tests/test_mod.py": "from repro.pkg import Unused\n",
    })
    assert unreachable(root) == ["repro.pkg.mod:Unused"]
    assert unused_exports(root) == ["repro.pkg:Unused"]

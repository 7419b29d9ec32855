"""Bounding-box functions (paper Section 4).

A *bounding-box function* is built from box variables, box constants and
the operators ``⊓`` (infimum = intersection) and ``⊔`` (supremum =
minimal enclosing box).  The compiler approximates the Boolean functions
appearing in the triangular solved form by bounding-box functions, which
are then evaluated — cheaply — during query execution on the bounding
boxes ``⌈x_1⌉..⌈x_{i-1}⌉`` of already-retrieved objects.

All bounding-box functions are **monotone** with respect to ``⊑`` (both
operators are), a fact the correctness of the approximation relies on
(Lemma 12 uses it explicitly) and which the tests spot-check.

The AST deliberately mirrors :mod:`repro.boolean.syntax` minus
complement: the bounding box of a complement is not expressible, which is
exactly *why* the paper needs the BCF-based L/U machinery rather than a
syntactic transliteration.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from .box import Box, EMPTY_BOX


class BoxFunc:
    """Base class of bounding-box function nodes (immutable)."""

    __slots__ = ()

    def __call__(self, env: Mapping[str, Box]) -> Box:
        return evaluate_boxfunc(self, env)

    def variables(self) -> FrozenSet[str]:
        """Box-variable names occurring in the function."""
        out: set = set()
        _collect(self, out)
        return frozenset(out)

    def meet(self, other: "BoxFunc") -> "BoxFunc":
        """``self ⊓ other`` with local simplification."""
        return bmeet(self, other)

    def join(self, other: "BoxFunc") -> "BoxFunc":
        """``self ⊔ other`` with local simplification."""
        return bjoin(self, other)

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"BoxFunc({render_boxfunc(self)})"


class BoxVar(BoxFunc):
    """``⌈x⌉`` for a (region) variable or bound constant ``x``."""

    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise TypeError("box variable name must be a non-empty string")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(("BoxVar", name)))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("BoxVar is immutable")

    def __eq__(self, other):
        return isinstance(other, BoxVar) and other.name == self.name

    def __hash__(self):
        return self._hash


class BoxConst(BoxFunc):
    """A constant box.

    Two distinguished constants matter: :data:`BOT` (the empty box,
    value of ``⌈0⌉``) and :data:`TOP` (the unbounded/universe box, the
    safe upper bound for ``⌈¬f⌉`` and the value of ``⌈1⌉``).  ``TOP`` is
    represented symbolically so it stays dimension-polymorphic; it is
    resolved to the data set's universe box at evaluation time.
    """

    __slots__ = ("box", "is_top", "_hash")

    def __init__(self, box: Optional[Box], is_top: bool = False):
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "is_top", bool(is_top))
        object.__setattr__(self, "_hash", hash(("BoxConst", box, is_top)))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("BoxConst is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, BoxConst)
            and other.is_top == self.is_top
            and other.box == self.box
        )

    def __hash__(self):
        return self._hash


#: ``⌈0⌉`` — the empty box.
BOT = BoxConst(EMPTY_BOX)
#: ``⌈1⌉`` — the universe box (resolved at evaluation time).
TOP = BoxConst(None, is_top=True)


class BoxMeet(BoxFunc):
    """n-ary ``⊓``.  Built by :func:`bmeet`."""

    __slots__ = ("args", "_hash")

    def __init__(self, args: Tuple[BoxFunc, ...]):
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_hash", hash(("BoxMeet", args)))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("BoxMeet is immutable")

    def __eq__(self, other):
        return isinstance(other, BoxMeet) and other.args == self.args

    def __hash__(self):
        return self._hash


class BoxJoin(BoxFunc):
    """n-ary ``⊔``.  Built by :func:`bjoin`."""

    __slots__ = ("args", "_hash")

    def __init__(self, args: Tuple[BoxFunc, ...]):
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_hash", hash(("BoxJoin", args)))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("BoxJoin is immutable")

    def __eq__(self, other):
        return isinstance(other, BoxJoin) and other.args == self.args

    def __hash__(self):
        return self._hash


def _key(f: BoxFunc) -> str:
    return render_boxfunc(f)


def bmeet(*items: BoxFunc) -> BoxFunc:
    """Smart ``⊓``: flattens, drops ``TOP``, collapses on ``BOT``."""
    flat = []
    for f in items:
        if isinstance(f, BoxMeet):
            flat.extend(f.args)
        else:
            flat.append(f)
    seen: Dict[BoxFunc, None] = {}
    for f in flat:
        if f == BOT or (isinstance(f, BoxConst) and not f.is_top and f.box is not None and f.box.is_empty()):
            return BOT
        if isinstance(f, BoxConst) and f.is_top:
            continue
        seen.setdefault(f, None)
    args = sorted(seen, key=_key)
    if not args:
        return TOP
    if len(args) == 1:
        return args[0]
    return BoxMeet(tuple(args))


def bjoin(*items: BoxFunc) -> BoxFunc:
    """Smart ``⊔``: flattens, drops ``BOT``, collapses on ``TOP``."""
    flat = []
    for f in items:
        if isinstance(f, BoxJoin):
            flat.extend(f.args)
        else:
            flat.append(f)
    seen: Dict[BoxFunc, None] = {}
    for f in flat:
        if isinstance(f, BoxConst) and f.is_top:
            return TOP
        if f == BOT or (isinstance(f, BoxConst) and f.box is not None and f.box.is_empty()):
            continue
        seen.setdefault(f, None)
    args = sorted(seen, key=_key)
    if not args:
        return BOT
    if len(args) == 1:
        return args[0]
    return BoxJoin(tuple(args))


def _collect(f: BoxFunc, out: set) -> None:
    if isinstance(f, BoxVar):
        out.add(f.name)
    elif isinstance(f, (BoxMeet, BoxJoin)):
        for a in f.args:
            _collect(a, out)


def evaluate_boxfunc(
    f: BoxFunc, env: Mapping[str, Box], universe: Optional[Box] = None
) -> Box:
    """Evaluate a bounding-box function.

    ``env`` maps variable names to boxes; ``universe`` resolves the
    symbolic ``TOP`` constant (when absent, ``TOP`` evaluates to the
    enclosing box of all env values — a safe, data-dependent stand-in).
    """
    if isinstance(f, BoxVar):
        return env[f.name]
    if isinstance(f, BoxConst):
        if f.is_top:
            if universe is not None:
                return universe
            out = EMPTY_BOX
            for b in env.values():
                out = out.enclose(b)
            return out
        return f.box if f.box is not None else EMPTY_BOX
    if isinstance(f, BoxMeet):
        parts = [evaluate_boxfunc(a, env, universe) for a in f.args]
        out = parts[0]
        for b in parts[1:]:
            out = out.meet(b)
        return out
    if isinstance(f, BoxJoin):
        out = EMPTY_BOX
        for a in f.args:
            out = out.enclose(evaluate_boxfunc(a, env, universe))
        return out
    raise TypeError(f"not a bounding-box function: {f!r}")


def render_boxfunc(f: BoxFunc) -> str:
    """ASCII rendering: ``[x]`` for ⌈x⌉, ``^`` for ⊓, ``v`` for ⊔."""
    if isinstance(f, BoxVar):
        return f"[{f.name}]"
    if isinstance(f, BoxConst):
        if f.is_top:
            return "TOP"
        if f.box is None or f.box.is_empty():
            return "EMPTY"
        return repr(f.box)
    if isinstance(f, BoxMeet):
        return "(" + " ^ ".join(render_boxfunc(a) for a in f.args) + ")"
    if isinstance(f, BoxJoin):
        return "(" + " v ".join(render_boxfunc(a) for a in f.args) + ")"
    raise TypeError(f"not a bounding-box function: {f!r}")


def naive_transform(formula) -> BoxFunc:
    """The strawman syntactic transform the paper warns about.

    Replaces ``∧ → ⊓``, ``∨ → ⊔``, maps variables to their boxes and
    **maps complemented subformulas to TOP** (their only safe upper
    bound).  The result is a correct upper approximation but generally
    worse than Algorithm 2's ``U_f`` — benchmark E10 quantifies the gap —
    and it is representation-dependent: equal formulas can give different
    box functions (the paper's ``(x∧y)∨(x∧z)`` vs ``x∧(y∨z)`` example).
    """
    from ..boolean.syntax import And, Const, Not, Or, Var

    def walk(g) -> BoxFunc:
        if isinstance(g, Const):
            return TOP if g.value else BOT
        if isinstance(g, Var):
            return BoxVar(g.name)
        if isinstance(g, Not):
            return TOP
        if isinstance(g, And):
            return bmeet(*[walk(a) for a in g.args])
        if isinstance(g, Or):
            return bjoin(*[walk(a) for a in g.args])
        raise TypeError(f"not a formula: {g!r}")

    return walk(formula)

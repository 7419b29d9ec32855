"""Immutable Boolean formula abstract syntax.

The paper manipulates Boolean formulas over variables and the constants
``0`` and ``1`` with complement, conjunction and disjunction (Section 3:
"A Boolean formula is an atom, the complement of a formula, a disjunction
of formulas, or a conjunction of formulas").

This module defines that AST.  Design points:

* Formulas are **immutable and hashable**, so they can be used as
  dictionary keys (the BDD builder and the simplifier memoise on them).
* ``And``/``Or`` are *n*-ary with a canonical argument tuple: arguments are
  flattened one level, duplicates removed, and sorted by a stable syntactic
  key.  Cheap local simplifications (identity/absorbing constants,
  ``x & ~x -> 0``) are applied by the smart constructors :func:`conj` and
  :func:`disj`.  The constructors are *not* full simplifiers — semantic
  simplification lives in :mod:`repro.boolean.simplify`.
* Python operators are overloaded: ``a & b``, ``a | b``, ``~a`` build
  formulas, matching the concrete syntax of :mod:`repro.boolean.parser`.

Substitution and Shannon/Boole cofactors (``f[x <- 0]``, ``f[x <- 1]``) are
provided here because every algorithm in the paper (Theorems 2, 10, 11 and
``proj``) is phrased in terms of them.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Tuple, Union


class Formula:
    """Base class of all Boolean formula nodes.

    Instances are immutable; all subclasses define ``__eq__``/``__hash__``
    structurally.  Use the module-level smart constructors (:func:`var`,
    :func:`conj`, :func:`disj`, :func:`neg`) or the overloaded operators
    rather than instantiating ``And``/``Or`` directly.
    """

    __slots__ = ()

    # -- operator overloading -------------------------------------------------
    def __and__(self, other: "Formula") -> "Formula":
        return conj(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return disj(self, other)

    def __invert__(self) -> "Formula":
        return neg(self)

    def __rshift__(self, other: "Formula") -> "Formula":
        """Material implication ``self >> other`` = ``~self | other``."""
        return disj(neg(self), other)

    def __xor__(self, other: "Formula") -> "Formula":
        """Symmetric difference."""
        return disj(conj(self, neg(other)), conj(neg(self), other))

    def __sub__(self, other: "Formula") -> "Formula":
        """Set-style difference ``self & ~other``."""
        return conj(self, neg(other))

    # -- structure ------------------------------------------------------------
    def variables(self) -> FrozenSet[str]:
        """The set of variable names occurring in the formula."""
        out: set = set()
        _collect_vars(self, out)
        return frozenset(out)

    def mentions(self, name: str) -> bool:
        """``True`` iff variable ``name`` occurs in the formula."""
        return name in self.variables()

    def substitute(self, binding: Mapping[str, "Formula"]) -> "Formula":
        """Simultaneously replace variables by formulas.

        ``binding`` maps variable names to replacement formulas; variables
        not in the mapping are left alone.  The result is rebuilt through
        the smart constructors, so constant propagation happens on the fly.
        """
        return _substitute(self, dict(binding))

    def cofactor(self, name: str, value: bool) -> "Formula":
        """Shannon cofactor ``f[name <- value]``.

        This is the operation written ``f_x`` / ``f_x'`` in the paper and is
        the workhorse of Boole's expansion (Theorem 11), Schroeder's theorem
        (Theorem 10), existential quantification (Theorem 2) and ``proj``.
        """
        return self.substitute({name: TRUE if value else FALSE})

    def cofactors(self, name: str) -> Tuple["Formula", "Formula"]:
        """Both cofactors ``(f[name <- 0], f[name <- 1])`` in one call."""
        return self.cofactor(name, False), self.cofactor(name, True)

    # -- traversal ------------------------------------------------------------
    def walk(self) -> Iterator["Formula"]:
        """Yield every subformula (pre-order, including ``self``)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, Not):
                stack.append(node.arg)
            elif isinstance(node, (And, Or)):
                stack.extend(node.args)

    def size(self) -> int:
        """Number of AST nodes — used to report formula growth in benches."""
        return sum(1 for _ in self.walk())

    def depth(self) -> int:
        """Height of the AST."""
        if isinstance(self, Not):
            return 1 + self.arg.depth()
        if isinstance(self, (And, Or)):
            return 1 + max(a.depth() for a in self.args)
        return 1

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        from .printer import to_str

        return f"Formula({to_str(self)})"


class Var(Formula):
    """A Boolean variable, identified by name.

    In the spatial setting a variable denotes an unknown region (the
    paper's ``x_1 .. x_n``) or a *bound constant* region treated
    symbolically at compile time (the example's ``C`` and ``A``).
    """

    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise TypeError("variable name must be a non-empty string")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(("Var", name)))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Var is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Var) and other.name == self.name

    def __hash__(self) -> int:
        return self._hash


class Const(Formula):
    """A Boolean constant: ``0`` (bottom) or ``1`` (top)."""

    __slots__ = ("value", "_hash")

    def __init__(self, value: bool):
        object.__setattr__(self, "value", bool(value))
        object.__setattr__(self, "_hash", hash(("Const", bool(value))))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Const is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Const) and other.value == self.value

    def __hash__(self) -> int:
        return self._hash


#: The constant ``1`` (the whole space in the region reading).
TRUE = Const(True)
#: The constant ``0`` (the empty region).
FALSE = Const(False)


class Not(Formula):
    """Complement of a formula.

    Built through :func:`neg`, which cancels double negation and folds
    constants, so a ``Not`` node never wraps a ``Not`` or a ``Const``.
    """

    __slots__ = ("arg", "_hash")

    def __init__(self, arg: Formula):
        object.__setattr__(self, "arg", arg)
        object.__setattr__(self, "_hash", hash(("Not", arg)))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Not is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Not) and other.arg == self.arg

    def __hash__(self) -> int:
        return self._hash


class _NaryOp(Formula):
    """Shared implementation of ``And``/``Or`` (sorted arg tuple)."""

    __slots__ = ("args", "_hash")
    _tag = "?"

    def __init__(self, args: Tuple[Formula, ...]):
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_hash", hash((self._tag, args)))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("formula nodes are immutable")

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other.args == self.args

    def __hash__(self) -> int:
        return self._hash


class And(_NaryOp):
    """n-ary conjunction (region intersection).  Build with :func:`conj`."""

    __slots__ = ()
    _tag = "And"


class Or(_NaryOp):
    """n-ary disjunction (region union).  Build with :func:`disj`."""

    __slots__ = ()
    _tag = "Or"


FormulaLike = Union[Formula, str, bool, int]


def formula(value: FormulaLike) -> Formula:
    """Coerce a value into a :class:`Formula`.

    Strings become variables, booleans/0/1 become constants, and formulas
    pass through.  This keeps user-facing constructors forgiving without
    letting arbitrary objects leak into the AST.
    """
    if isinstance(value, Formula):
        return value
    if isinstance(value, str):
        return Var(value)
    if isinstance(value, bool):
        return TRUE if value else FALSE
    if isinstance(value, int) and value in (0, 1):
        return TRUE if value else FALSE
    raise TypeError(f"cannot interpret {value!r} as a Boolean formula")


def var(name: str) -> Var:
    """Create a variable formula (convenience alias of :class:`Var`)."""
    return Var(name)


def variables(*names: str) -> Tuple[Var, ...]:
    """Create several variables at once: ``x, y = variables('x', 'y')``."""
    return tuple(Var(n) for n in names)


def _sort_key(f: Formula) -> Tuple:
    """Stable syntactic ordering used to canonicalise argument tuples."""
    if isinstance(f, Const):
        return (0, f.value)
    if isinstance(f, Var):
        return (1, f.name)
    if isinstance(f, Not) and isinstance(f.arg, Var):
        return (2, f.arg.name)
    # Complex arguments keep a deterministic order via their repr-free key.
    return (3, _structural_key(f))


def _structural_key(f: Formula) -> str:
    if isinstance(f, Const):
        return "1" if f.value else "0"
    if isinstance(f, Var):
        return f"v:{f.name}"
    if isinstance(f, Not):
        return f"n({_structural_key(f.arg)})"
    tag = "a" if isinstance(f, And) else "o"
    return tag + "(" + ",".join(_structural_key(a) for a in f.args) + ")"


def _flatten(cls, items: Iterable[FormulaLike]) -> Iterator[Formula]:
    for item in items:
        f = formula(item)
        if isinstance(f, cls):
            yield from f.args
        else:
            yield f


def conj(*items: FormulaLike) -> Formula:
    """Conjunction with local simplification.

    Rules applied: flattening of nested ``And``; removal of ``1``;
    short-circuit to ``0`` on any ``0`` argument or on a complementary
    literal pair; duplicate removal; ``conj()`` is ``1``.
    """
    seen: Dict[Formula, None] = {}
    for f in _flatten(And, items):
        if f == FALSE:
            return FALSE
        if f == TRUE:
            continue
        seen.setdefault(f, None)
    args = sorted(seen, key=_sort_key)
    for f in args:
        if neg(f) in seen:
            return FALSE
    if not args:
        return TRUE
    if len(args) == 1:
        return args[0]
    return And(tuple(args))


def disj(*items: FormulaLike) -> Formula:
    """Disjunction with local simplification (dual of :func:`conj`)."""
    seen: Dict[Formula, None] = {}
    for f in _flatten(Or, items):
        if f == TRUE:
            return TRUE
        if f == FALSE:
            continue
        seen.setdefault(f, None)
    args = sorted(seen, key=_sort_key)
    for f in args:
        if neg(f) in seen:
            return TRUE
    if not args:
        return FALSE
    if len(args) == 1:
        return args[0]
    return Or(tuple(args))


def neg(item: FormulaLike) -> Formula:
    """Complement with double-negation cancellation and constant folding."""
    f = formula(item)
    if isinstance(f, Const):
        return FALSE if f.value else TRUE
    if isinstance(f, Not):
        return f.arg
    return Not(f)


def _collect_vars(f: Formula, out: set) -> None:
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.name)
        elif isinstance(node, Not):
            stack.append(node.arg)
        elif isinstance(node, (And, Or)):
            stack.extend(node.args)


def _substitute(f: Formula, binding: Dict[str, Formula]) -> Formula:
    if isinstance(f, Var):
        return binding.get(f.name, f)
    if isinstance(f, Const):
        return f
    if isinstance(f, Not):
        return neg(_substitute(f.arg, binding))
    parts = [_substitute(a, binding) for a in f.args]
    return conj(*parts) if isinstance(f, And) else disj(*parts)

"""Reduced ordered binary decision diagrams (ROBDDs).

A compact canonical representation of Boolean functions used by the
library for:

* **equivalence checking** — two formulas denote the same function iff
  they reduce to the same node (used throughout the tests and by the
  triangularisation to detect fixpoints);
* **simplification** — :func:`Bdd.isop` extracts an irredundant
  sum-of-products cover (Minato-Morreale), which the simplifier turns back
  into small formulas;
* **simplification modulo a care condition** — :func:`Bdd.constrain`
  implements the generalized cofactor ``f|_c`` with ``f|_c == f`` on
  ``c``; Algorithm 1's output is displayed modulo the ground residue the
  way the paper's Section 2 does;
* **quantification** — ``exists``/``forall`` for Boole's Theorem 2 on the
  equation part of systems (cross-checks the formula-level code).

The implementation is a standard hash-consed ``ite``-based manager.  Node
0 and node 1 are the terminals; every other node is a triple
``(level, low, high)`` interned in a unique table.  Functions are plain
integer node ids tied to their manager.

A manager memoises what it derives (``ite``, ``restrict``, ``constrain``,
:meth:`Bdd.to_formula`, :meth:`Bdd.lift`) for its lifetime: Algorithm 1
keeps one per query, so a function met again at another level is a lookup.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .syntax import FALSE, And, Const, Formula, Not, Or, Var
from .terms import Term, cover_to_formula


class Bdd:
    """A BDD manager with a fixed-but-extendable variable order.

    Variables are addressed by *name*; the manager assigns levels in order
    of first appearance (or per the ``order`` argument).  All node ids
    returned by one manager are only meaningful within it.
    """

    def __init__(self, order: Optional[Sequence[str]] = None):
        self._level_of: Dict[str, int] = {}
        self._name_of: List[str] = []
        # Node storage: index -> (level, low, high).  Slots 0/1 are the
        # terminal markers and never dereferenced.
        self._nodes: List[Tuple[int, int, int]] = [(-1, -1, -1), (-1, -1, -1)]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._ite_cache: Dict[Tuple[int, int, int], int] = {}
        self._not_cache: Dict[int, int] = {}
        self._restrict_cache: Dict[Tuple[int, int, bool], int] = {}
        self._constrain_cache: Dict[Tuple[int, int], int] = {}
        self._formula_cache: Dict[Tuple[int, int], Formula] = {}
        self._lifted: Dict[Formula, int] = {}
        if order:
            for name in order:
                self.declare(name)

    # -- variables -------------------------------------------------------------
    def declare(self, name: str) -> int:
        """Ensure ``name`` has a level; return the level."""
        level = self._level_of.get(name)
        if level is None:
            level = len(self._name_of)
            self._level_of[name] = level
            self._name_of.append(name)
        return level

    @property
    def var_names(self) -> Tuple[str, ...]:
        """Declared variable names in level order."""
        return tuple(self._name_of)

    # -- raw node layer ----------------------------------------------------------
    @property
    def false(self) -> int:
        """Terminal 0."""
        return 0

    @property
    def true(self) -> int:
        """Terminal 1."""
        return 1

    def _mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        node = self._unique.get(key)
        if node is None:
            node = len(self._nodes)
            self._nodes.append(key)
            self._unique[key] = node
        return node

    def _level(self, u: int) -> int:
        if u <= 1:
            return 1 << 30  # terminals sort below every variable level
        return self._nodes[u][0]

    def _low(self, u: int) -> int:
        return self._nodes[u][1]

    def _high(self, u: int) -> int:
        return self._nodes[u][2]

    def node_count(self) -> int:
        """Total interned nodes (a size metric for benches)."""
        return len(self._nodes)

    # -- construction -----------------------------------------------------------
    def var(self, name: str) -> int:
        """The function of a single variable."""
        level = self.declare(name)
        return self._mk(level, 0, 1)

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: the unique function agreeing with ``g`` on ``f``
        and with ``h`` on ``~f``.  All other connectives reduce to it."""
        if f == 1:
            return g
        if f == 0:
            return h
        if g == h:
            return g
        if g == 1 and h == 0:
            return f
        key = (f, g, h)
        out = self._ite_cache.get(key)
        if out is not None:
            return out
        top = min(self._level(f), self._level(g), self._level(h))
        f0, f1 = self._cof(f, top)
        g0, g1 = self._cof(g, top)
        h0, h1 = self._cof(h, top)
        low = self.ite(f0, g0, h0)
        high = self.ite(f1, g1, h1)
        out = self._mk(top, low, high)
        self._ite_cache[key] = out
        return out

    def _cof(self, u: int, level: int) -> Tuple[int, int]:
        if self._level(u) != level:
            return u, u
        return self._low(u), self._high(u)

    def apply_and(self, u: int, v: int) -> int:
        return self.ite(u, v, 0)

    def apply_or(self, u: int, v: int) -> int:
        return self.ite(u, 1, v)

    def apply_xor(self, u: int, v: int) -> int:
        return self.ite(u, self.apply_not(v), v)

    def apply_not(self, u: int) -> int:
        out = self._not_cache.get(u)
        if out is None:
            out = self.ite(u, 0, 1)
            self._not_cache[u] = out
        return out

    def apply_imp(self, u: int, v: int) -> int:
        return self.ite(u, v, 1)

    def from_formula(self, f: Formula) -> int:
        """Build the BDD of a formula (declaring its variables)."""
        if isinstance(f, Const):
            return 1 if f.value else 0
        if isinstance(f, Var):
            return self.var(f.name)
        if isinstance(f, Not):
            return self.apply_not(self.from_formula(f.arg))
        if isinstance(f, And):
            out = 1
            for a in f.args:
                out = self.apply_and(out, self.from_formula(a))
                if out == 0:
                    return 0
            return out
        if isinstance(f, Or):
            out = 0
            for a in f.args:
                out = self.apply_or(out, self.from_formula(a))
                if out == 1:
                    return 1
            return out
        raise TypeError(f"not a formula: {f!r}")

    def lift(self, f: Formula) -> int:
        """:meth:`from_formula`, or a lookup for a formula this manager
        has lifted or printed (:meth:`to_formula`) before."""
        node = self._lifted.get(f)
        if node is None:
            node = self._lifted[f] = self.from_formula(f)
        return node

    # -- cofactors and quantifiers -------------------------------------------------
    def restrict(self, u: int, name: str, value: bool) -> int:
        """Shannon cofactor ``u[name <- value]``."""
        level = self.declare(name)
        memo = self._restrict_cache

        def walk(w: int) -> int:
            if w <= 1 or self._level(w) > level:
                return w
            key = (w, level, value)
            out = memo.get(key)
            if out is not None:
                return out
            wl, wlow, whigh = self._nodes[w]
            if wl == level:
                out = whigh if value else wlow
            else:
                out = self._mk(wl, walk(wlow), walk(whigh))
            memo[key] = out
            return out

        return walk(u)

    def exists(self, u: int, names: Sequence[str]) -> int:
        """Existential quantification — Boole's Theorem 2 iterated:
        ``exists x. f == f[x<-0] | f[x<-1]`` (for functions; the paper's
        form ``f0 & f1 = 0`` is this applied to the equation ``f = 0``)."""
        out = u
        for name in names:
            out = self.apply_or(
                self.restrict(out, name, False), self.restrict(out, name, True)
            )
        return out

    def forall(self, u: int, names: Sequence[str]) -> int:
        """Universal quantification (dual of :meth:`exists`)."""
        out = u
        for name in names:
            out = self.apply_and(
                self.restrict(out, name, False), self.restrict(out, name, True)
            )
        return out

    def compose(self, u: int, name: str, v: int) -> int:
        """Functional composition ``u[name <- v]``."""
        return self.ite(
            v, self.restrict(u, name, True), self.restrict(u, name, False)
        )

    def constrain(self, f: int, c: int) -> int:
        """Generalized cofactor (Coudert-Madre ``f ↓ c``).

        Returns a function agreeing with ``f`` wherever ``c`` holds, often
        much smaller.  Used to display/simplify triangular systems modulo
        the ground residue (the paper's Section 2 presentation assumes
        ``A ⊆ C`` when simplifying).  ``c`` must not be 0.
        """
        if c == 0:
            raise ValueError("constrain by the empty care set")
        memo = self._constrain_cache

        def walk(u: int, care: int) -> int:
            if care == 1 or u <= 1:
                return u
            key = (u, care)
            out = memo.get(key)
            if out is not None:
                return out
            top = min(self._level(u), self._level(care))
            c0, c1 = self._cof(care, top)
            if c0 == 0:
                out = walk(self._cof(u, top)[1], c1)
            elif c1 == 0:
                out = walk(self._cof(u, top)[0], c0)
            else:
                u0, u1 = self._cof(u, top)
                out = self._mk(top, walk(u0, c0), walk(u1, c1))
            memo[key] = out
            return out

        return walk(f, c)

    # -- inspection ---------------------------------------------------------------
    def support(self, u: int) -> Tuple[str, ...]:
        """Names of variables the function actually depends on."""
        seen: set = set()
        levels: set = set()
        stack = [u]
        while stack:
            w = stack.pop()
            if w <= 1 or w in seen:
                continue
            seen.add(w)
            level, low, high = self._nodes[w]
            levels.add(level)
            stack.append(low)
            stack.append(high)
        return tuple(self._name_of[lv] for lv in sorted(levels))

    def sat_count(self, u: int, n_vars: Optional[int] = None) -> int:
        """Number of satisfying assignments over ``n_vars`` variables."""
        if n_vars is None:
            n_vars = len(self._name_of)
        memo: Dict[int, int] = {}

        def count(w: int) -> int:
            # Returns count over variables strictly below w's level.
            if w == 0:
                return 0
            if w == 1:
                return 1
            out = memo.get(w)
            if out is not None:
                return out
            level, low, high = self._nodes[w]
            lo_gap = (self._level(low) if low > 1 else n_vars) - level - 1
            hi_gap = (self._level(high) if high > 1 else n_vars) - level - 1
            out = count(low) * (1 << lo_gap) + count(high) * (1 << hi_gap)
            memo[w] = out
            return out

        top_gap = (self._level(u) if u > 1 else n_vars)
        return count(u) * (1 << top_gap)

    def pick_model(self, u: int) -> Optional[Dict[str, bool]]:
        """One satisfying assignment (unspecified vars omitted), or None."""
        if u == 0:
            return None
        model: Dict[str, bool] = {}
        while u != 1:
            level, low, high = self._nodes[u]
            name = self._name_of[level]
            if low != 0:
                model[name] = False
                u = low
            else:
                model[name] = True
                u = high
        return model

    def iter_models(self, u: int) -> Iterator[Dict[str, bool]]:
        """All satisfying assignments (unspecified variables omitted)."""
        if u == 0:
            return
        if u == 1:
            yield {}
            return
        level, low, high = self._nodes[u]
        name = self._name_of[level]
        for m in self.iter_models(low):
            out = dict(m)
            out[name] = False
            yield out
        for m in self.iter_models(high):
            out = dict(m)
            out[name] = True
            yield out

    # -- irredundant SOP (Minato-Morreale) -----------------------------------------
    def isop(self, u: int) -> List[Term]:
        """An irredundant sum-of-products cover of ``u``.

        Classic Minato-Morreale recursion on the interval ``[L, U] = [u, u]``;
        the result is a prime-and-irredundant cover — usually far smaller
        than the raw distributive DNF, which keeps the triangular systems
        the compiler prints close to the paper's hand-simplified forms.
        """
        cover, _ = self._isop(u, u)
        return cover

    def _isop(self, lower: int, upper: int) -> Tuple[List[Term], int]:
        if lower == 0:
            return [], 0
        if upper == 1:
            return [Term({})], 1
        level = min(self._level(lower), self._level(upper))
        name = self._name_of[level]
        l0, l1 = self._cof(lower, level)
        u0, u1 = self._cof(upper, level)

        # Parts that must be covered with x negative / positive only.
        lo_only, lo_bdd = self._isop(self.apply_and(l0, self.apply_not(u1)), u0)
        hi_only, hi_bdd = self._isop(self.apply_and(l1, self.apply_not(u0)), u1)
        # Remainder must be covered without mentioning x.
        rest_lower = self.apply_or(
            self.apply_and(l0, self.apply_not(lo_bdd)),
            self.apply_and(l1, self.apply_not(hi_bdd)),
        )
        rest, rest_bdd = self._isop(rest_lower, self.apply_and(u0, u1))

        cover: List[Term] = []
        for t in lo_only:
            extended = t.with_literal(name, False)
            if extended is not None:
                cover.append(extended)
        for t in hi_only:
            extended = t.with_literal(name, True)
            if extended is not None:
                cover.append(extended)
        cover.extend(rest)
        x = self._mk(level, 0, 1)
        covered = self.apply_or(
            self.apply_or(
                self.apply_and(self.apply_not(x), lo_bdd),
                self.apply_and(x, hi_bdd),
            ),
            rest_bdd,
        )
        return cover, covered

    # -- conversions -----------------------------------------------------------------
    def to_formula(self, u: int, care: int = 1) -> Formula:
        """A small formula agreeing with ``u`` wherever ``care`` holds: an
        irredundant cover (:meth:`isop`) of the interval ``[u∧care,
        constrain(u, care)∨¬care]`` — of ``u`` itself by default, ``0``
        for an empty care set — computed once per interval.  It depends
        on the manager only through the *relative* order of the variables
        ``u`` and ``care`` depend on."""
        if care == 0:
            return FALSE
        lower = upper = u
        if care != 1:
            lower = self.apply_and(u, care)
            upper = self.apply_or(self.constrain(u, care), self.apply_not(care))
        out = self._formula_cache.get((lower, upper))
        if out is None:
            cover, covered = self._isop(lower, upper)
            out = self._formula_cache[lower, upper] = cover_to_formula(cover)
            self._lifted.setdefault(out, covered)
        return out

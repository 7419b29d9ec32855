"""Literals, terms and sum-of-products covers.

This is the representation level at which the Blake canonical form
(Section 4 of the paper) operates.  A *term* is a conjunction of literals
over distinct variables (the paper, Section 3: "A literal is an atom or
its complement.  A term is a conjunction of literals").  A *cover* (sum of
products, SOP) is a set of terms denoting their disjunction.

Terms are represented as immutable mappings ``variable -> polarity`` with
``True`` for a positive literal.  The empty term denotes the constant
``1``; the empty cover denotes ``0``.

Provided operations (all named after the paper / Brown's *Boolean
Reasoning*):

* :func:`consensus` — the consensus of two terms on their (unique)
  opposition variable: ``x p, ~x q  ->  p q`` (the paper's rewrite rule in
  Section 4).
* absorption — ``p | p q == p`` (:meth:`Term.absorbs`).
* syllogistic order ``<<`` — a SOP ``f`` is *formally included* in ``g``
  iff every term of ``f`` has a superterm ... precisely: some term of
  ``g`` is a subterm of it (:func:`syllogistic_le`); by Blake's theorem
  (paper Theorem 18) this coincides with semantic ``<=`` when ``g`` is in
  Blake canonical form.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .syntax import And, Const, FALSE, Formula, Not, Or, TRUE, Var, conj, disj, neg


class Term:
    """An immutable product of literals over distinct variables.

    ``Term({'x': True, 'y': False})`` denotes ``x & ~y``.  The *empty*
    term denotes the constant ``1``.  Attempting to build a term with
    complementary literals raises ``ValueError`` (such a product is ``0``
    and is never a useful member of a cover).
    """

    __slots__ = ("_lits", "_hash")

    def __init__(self, literals: Mapping[str, bool]):
        lits = dict(literals)
        object.__setattr__(self, "_lits", lits)
        object.__setattr__(
            self, "_hash", hash(frozenset(lits.items()))
        )

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Term is immutable")

    # -- basic protocol -------------------------------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, Term) and other._lits == self._lits

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self._lits)

    def __iter__(self) -> Iterator[Tuple[str, bool]]:
        return iter(sorted(self._lits.items()))

    def __contains__(self, name: str) -> bool:
        return name in self._lits

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"Term({self.to_str()})"

    # -- accessors ------------------------------------------------------------
    @property
    def literals(self) -> Mapping[str, bool]:
        """Read-only view of the literal mapping."""
        return dict(self._lits)

    def polarity(self, name: str) -> Optional[bool]:
        """Polarity of ``name`` in this term, or ``None`` if absent."""
        return self._lits.get(name)

    def variables(self) -> FrozenSet[str]:
        """Variables mentioned by the term."""
        return frozenset(self._lits)

    def positive_part(self) -> "Term":
        """The subterm of positive literals (Algorithm 2 drops the rest)."""
        return Term({v: True for v, s in self._lits.items() if s})

    def negative_part(self) -> "Term":
        """The subterm of negative literals."""
        return Term({v: False for v, s in self._lits.items() if not s})

    def is_true(self) -> bool:
        """``True`` for the empty term (the constant ``1``)."""
        return not self._lits

    # -- order and combination -------------------------------------------------
    def is_subterm_of(self, other: "Term") -> bool:
        """``True`` iff every literal of ``self`` occurs in ``other``.

        ``t1.is_subterm_of(t2)`` implies ``t2 <= t1`` semantically (more
        literals = smaller product).
        """
        lits = other._lits
        return all(lits.get(v) == s for v, s in self._lits.items())

    def absorbs(self, other: "Term") -> bool:
        """``True`` iff ``self | other == self`` (``self`` subterm of it)."""
        return self.is_subterm_of(other)

    def conjoin(self, other: "Term") -> Optional["Term"]:
        """Product of two terms, or ``None`` if it is ``0``."""
        merged = dict(self._lits)
        for v, s in other._lits.items():
            if merged.setdefault(v, s) != s:
                return None
        return Term(merged)

    def without(self, name: str) -> "Term":
        """Copy of the term with variable ``name`` removed."""
        lits = dict(self._lits)
        lits.pop(name, None)
        return Term(lits)

    def with_literal(self, name: str, polarity: bool) -> Optional["Term"]:
        """Extend with one literal; ``None`` if that annihilates the term."""
        if self._lits.get(name, polarity) != polarity:
            return None
        lits = dict(self._lits)
        lits[name] = polarity
        return Term(lits)

    # -- conversions ----------------------------------------------------------
    def to_formula(self) -> Formula:
        """Convert to a :class:`Formula` (``1`` for the empty term)."""
        parts = [
            Var(v) if s else neg(Var(v)) for v, s in sorted(self._lits.items())
        ]
        return conj(*parts) if parts else TRUE

    def to_str(self) -> str:
        """Compact rendering, e.g. ``x.y'.z``."""
        if not self._lits:
            return "1"
        return ".".join(
            v + ("" if s else "'") for v, s in sorted(self._lits.items())
        )

    def evaluate(self, env: Mapping[str, bool]) -> bool:
        """Two-valued evaluation of the term."""
        return all(bool(env[v]) == s for v, s in self._lits.items())


def consensus(t1: Term, t2: Term) -> Optional[Term]:
    """Consensus of two terms, if defined.

    If ``t1`` and ``t2`` disagree on exactly one variable ``x``, the
    consensus is the product of ``t1`` and ``t2`` with ``x`` removed
    (the paper's rule ``x p, ~x q -> p q``).  Returns ``None`` when the
    terms oppose on zero or more than one variable, or when the result
    would be contradictory.
    """
    opposition = None
    for v, s in t1._lits.items():
        s2 = t2._lits.get(v)
        if s2 is not None and s2 != s:
            if opposition is not None:
                return None
            opposition = v
    if opposition is None:
        return None
    merged = dict(t1._lits)
    del merged[opposition]
    for v, s in t2._lits.items():
        if v == opposition:
            continue
        if merged.setdefault(v, s) != s:
            return None
    return Term(merged)


# ---------------------------------------------------------------------------
# Covers (sums of products)
# ---------------------------------------------------------------------------


def absorb(terms: Iterable[Term]) -> List[Term]:
    """Remove absorbed terms: keep only minimal terms under subterm order.

    ``p + p q = p`` — a term is dropped when some *other* kept term is a
    subterm of it.  Deterministic output order (by term rendering).
    """
    unique = list(dict.fromkeys(terms))
    kept: List[Term] = []
    for t in sorted(unique, key=len):
        if not any(k.is_subterm_of(t) for k in kept):
            kept.append(t)
    kept.sort(key=Term.to_str)
    return kept


def cover_to_formula(terms: Sequence[Term]) -> Formula:
    """Disjunction of a cover (``0`` for the empty cover)."""
    if not terms:
        return FALSE
    return disj(*[t.to_formula() for t in terms])


def formula_to_cover(f: Formula) -> List[Term]:
    """Convert a formula to SOP cover by distribution.

    The expansion is the classical distributive one and can be exponential
    in the size of ``f`` — exactly the cost the paper accepts for
    compile-time processing.  Negations are pushed to literals first.
    Contradictory products are dropped; the result is absorbed.
    """
    nnf = _to_nnf(f, positive=True)
    return absorb(_nnf_to_cover(nnf))


def _to_nnf(f: Formula, positive: bool) -> Formula:
    """Negation normal form; ``positive=False`` builds the complement."""
    if isinstance(f, Const):
        value = f.value if positive else not f.value
        return TRUE if value else FALSE
    if isinstance(f, Var):
        return f if positive else Not(f)
    if isinstance(f, Not):
        return _to_nnf(f.arg, not positive)
    parts = [_to_nnf(a, positive) for a in f.args]
    same = isinstance(f, And) if positive else isinstance(f, Or)
    return conj(*parts) if same else disj(*parts)


def _nnf_to_cover(f: Formula) -> List[Term]:
    if isinstance(f, Const):
        return [Term({})] if f.value else []
    if isinstance(f, Var):
        return [Term({f.name: True})]
    if isinstance(f, Not):
        if not isinstance(f.arg, Var):  # pragma: no cover - NNF guarantees
            raise ValueError("formula not in NNF")
        return [Term({f.arg.name: False})]
    if isinstance(f, Or):
        out: List[Term] = []
        for a in f.args:
            out.extend(_nnf_to_cover(a))
        return out
    if isinstance(f, And):
        prods: List[Term] = [Term({})]
        for a in f.args:
            branch = _nnf_to_cover(a)
            new: List[Term] = []
            for p in prods:
                for q in branch:
                    merged = p.conjoin(q)
                    if merged is not None:
                        new.append(merged)
            prods = new
            if not prods:
                return []
        return prods
    raise TypeError(f"not a formula: {f!r}")


def syllogistic_le(f_terms: Sequence[Term], g_terms: Sequence[Term]) -> bool:
    """Blake's formal inclusion ``f << g``.

    Every term of ``f`` must have some term of ``g`` as a subterm.  By the
    paper's Theorem 18 this is equivalent to semantic ``f <= g`` whenever
    ``g_terms`` is the Blake canonical form of ``g``.
    """
    return all(
        any(g.is_subterm_of(t) for g in g_terms) for t in f_terms
    )

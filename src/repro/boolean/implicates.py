"""Prime implicates — the dual of the Blake canonical form.

Section 4 of the paper motivates Blake canonical forms "and their
duals": where BCF(f) is the disjunction of all prime *implicants*
(maximal terms below ``f``), the dual canonical form is the conjunction
of all prime *implicates* (minimal clauses above ``f``).  The duals are
what one needs to read the best bounding-box approximations off
*product-of-sums* representations, and they give a second, independent
route to ``L_f``:

    an atom x satisfies x <= f  iff  x appears positively in every
    prime implicate of f            (:func:`lower_atoms_via_implicates`)

which cross-checks Theorem 15's BCF-based computation.

Implemented by duality: ``clause C is a prime implicate of f`` iff
``~C`` (a term) is a prime implicant of ``~f``.
"""

from __future__ import annotations

from typing import List

from .blake import blake_canonical_form
from .semantics import implies as semantic_implies
from .syntax import Formula, neg
from .terms import Term


class Clause:
    """A disjunction of literals over distinct variables (dual of Term).

    Represented by its complementary term (``~clause``), so all term
    machinery is reused.  The empty clause denotes the constant ``0``.
    """

    __slots__ = ("_co",)

    def __init__(self, complementary_term: Term):
        object.__setattr__(self, "_co", complementary_term)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Clause is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Clause) and other._co == self._co

    def __hash__(self) -> int:
        return hash(("Clause", self._co))

    def __len__(self) -> int:
        return len(self._co)

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"Clause({self.to_str()})"

    @staticmethod
    def of(literals: dict) -> "Clause":
        """Build from ``variable -> polarity`` (True = positive literal)."""
        return Clause(Term({v: not s for v, s in literals.items()}))

    @property
    def literals(self) -> dict:
        """``variable -> polarity`` mapping of the clause's literals."""
        return {v: not s for v, s in self._co.literals.items()}

    def polarity(self, name: str):
        """Polarity of ``name`` in the clause, or None."""
        p = self._co.polarity(name)
        return None if p is None else not p

    def to_formula(self) -> Formula:
        """The clause as a formula (``0`` for the empty clause)."""
        return neg(self._co.to_formula())

    def to_str(self) -> str:
        """Compact rendering like ``x + y'``."""
        if not len(self._co):
            return "0"
        return " + ".join(
            v + ("" if s else "'") for v, s in sorted(self.literals.items())
        )


def prime_implicates(f: Formula) -> List[Clause]:
    """All prime implicates of ``f`` (minimal clauses ``C >= f``).

    By duality these are the complements of the prime implicants of
    ``~f``.  ``prime_implicates(1)`` is empty; ``prime_implicates(0)``
    is the single empty clause.
    """
    co_primes = blake_canonical_form(neg(f))
    return [Clause(t) for t in co_primes]


def is_implicate(c: Clause, f: Formula) -> bool:
    """``True`` iff ``f <= c`` semantically."""
    return semantic_implies(f, c.to_formula())


# oracle: tests/test_implicates.py
def is_prime_implicate(c: Clause, f: Formula) -> bool:
    """``True`` iff ``c`` is an implicate no sub-clause of which is one."""
    if not is_implicate(c, f):
        return False
    for v in c._co.variables():
        smaller = Clause(c._co.without(v))
        if is_implicate(smaller, f):
            return False
    return True


# paper: Section 4, the dual route to Theorem 15's L_f
def lower_atoms_via_implicates(f: Formula) -> List[str]:
    """Atoms ``x`` with ``x <= f``, via the dual form.

    ``x <= f`` iff ``x <= C`` for every prime implicate ``C`` of ``f``,
    iff ``x`` occurs positively in every one of them.  Cross-checks the
    single-positive-literal-terms-of-BCF reading used by Theorem 15.
    """
    clauses = prime_implicates(f)
    if not clauses:  # f == 1: every atom is below it
        raise ValueError("f is a tautology; every atom is below it")
    candidates = None
    for c in clauses:
        positives = {v for v, s in c.literals.items() if s}
        candidates = positives if candidates is None else candidates & positives
        if not candidates:
            return []
    return sorted(candidates)

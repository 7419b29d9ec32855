"""Blake canonical form (BCF): the sum of all prime implicants.

Section 4 of the paper uses ``BCF(f)`` as the compile-time normal form
from which the best bounding-box approximations are read off
(Algorithm 2), citing Blake's thesis and Brown's *Boolean Reasoning*.

Implemented methods:

* :func:`blake_canonical_form` — the paper's cited method: convert to an
  arbitrary SOP, then repeatedly form consensus terms and simplify by
  absorption until a fixpoint is reached (successive-extraction style,
  organised variable-by-variable for efficiency — Brown's "iterated
  consensus").
* :func:`prime_implicants_bruteforce` — reference implementation that
  enumerates all candidate terms over the variable set and keeps the
  maximal implicant terms.  Exponential; used by tests as an oracle.

Also exposed: :func:`is_implicant`, :func:`is_prime_implicant`, and
Theorem 18 (:func:`blake_le`): for SOP ``g``, ``g <= f`` iff ``g`` is
*formally* (syllogistically) included in ``BCF(f)``.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import List, Sequence

from .semantics import implies as semantic_implies
from .syntax import Formula
from .terms import (
    Term,
    absorb,
    consensus,
    formula_to_cover,
    syllogistic_le,
)


def blake_canonical_form(f: Formula) -> List[Term]:
    """All prime implicants of ``f`` by iterated consensus + absorption.

    Returns the BCF as an absorbed cover in deterministic order.  The
    constants are handled naturally: ``BCF(0)`` is the empty cover and
    ``BCF(1)`` is ``[Term({})]``.

    Complexity is exponential in the number of variables in the worst
    case; the paper explicitly accepts this because the computation
    happens once, at query-compilation time, over the (small) constraint
    formulas.
    """
    cover = formula_to_cover(f)
    return bcf_from_cover(cover)


def bcf_from_cover(cover: Sequence[Term]) -> List[Term]:
    """Close an SOP cover under consensus, simplifying by absorption.

    Implements the iterated-consensus loop variable by variable (Brown,
    *Boolean Reasoning*, ch. 3): for each variable ``x``, form every
    defined consensus between an ``x``-positive and ``x``-negative term,
    add the non-absorbed results, and repeat until no variable adds a
    term.  The result is exactly the set of prime implicants.
    """
    terms = absorb(cover)
    if not terms:
        return []
    variables = sorted({v for t in terms for v in t.variables()})
    changed = True
    while changed:
        changed = False
        for x in variables:
            pos = [t for t in terms if t.polarity(x) is True]
            negs = [t for t in terms if t.polarity(x) is False]
            new_terms: List[Term] = []
            for t1 in pos:
                for t2 in negs:
                    c = consensus(t1, t2)
                    if c is None:
                        continue
                    if any(k.is_subterm_of(c) for k in terms):
                        continue
                    if any(k.is_subterm_of(c) for k in new_terms):
                        continue
                    new_terms.append(c)
            if new_terms:
                terms = absorb(list(terms) + new_terms)
                changed = True
    return terms


def is_implicant(t: Term, f: Formula) -> bool:
    """``True`` iff the term ``t`` semantically implies ``f``."""
    return semantic_implies(t.to_formula(), f)


def is_prime_implicant(t: Term, f: Formula) -> bool:
    """``True`` iff ``t`` is an implicant of ``f`` made non-implicant by
    deleting any single literal (the paper's Definition in Section 4)."""
    if not is_implicant(t, f):
        return False
    for v in t.variables():
        if is_implicant(t.without(v), f):
            return False
    return True


# oracle: tests/test_terms_blake.py
def prime_implicants_bruteforce(f: Formula) -> List[Term]:
    """Oracle: enumerate all terms over ``vars(f)``, keep the primes.

    Exponential (``3^n`` candidate terms); only for testing on small
    formulas.
    """
    names = sorted(f.variables())
    primes: List[Term] = []
    for r in range(len(names) + 1):
        for subset in combinations(names, r):
            for signs in product((True, False), repeat=r):
                t = Term(dict(zip(subset, signs)))
                if is_prime_implicant(t, f):
                    primes.append(t)
    return absorb(primes)


# paper: Theorem 18
def blake_le(g_cover: Sequence[Term], f: Formula) -> bool:
    """Theorem 18 (Blake): for SOP ``g``, ``g <= f`` iff ``g << BCF(f)``.

    ``<<`` is the syllogistic (formal-inclusion) order, checked purely
    syntactically — this is what makes BCF useful at compile time.
    """
    return syllogistic_le(list(g_cover), blake_canonical_form(f))

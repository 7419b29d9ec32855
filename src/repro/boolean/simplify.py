"""Semantic formula simplification.

The rewriting steps of Algorithm 1 (cofactoring, products of cofactors,
complements) balloon formulas syntactically even when the denoted function
is simple.  The paper presents its Section 2 example in hand-simplified
form; to regenerate that presentation mechanically we simplify through a
canonical representation:

    formula -> BDD -> irredundant SOP (Minato-Morreale) -> formula

:func:`simplify` is semantics-preserving.  :func:`simplify_under` only
preserves the function **on a care set** (generalized cofactor): it is
used to display triangular systems modulo the ground residue ``S_0`` —
e.g. the paper simplifies ``C + A'T`` to ``C + T`` using the given fact
``A ⊆ C``.

Both are one lift into a private manager and one :meth:`Bdd.to_formula`,
the only copy of the cover construction.  Algorithm 1 calls neither — it
keeps nodes of one manager per system and prints only what leaves it —
yet prints the *same* formulas: a node's cover depends on the variable
order only through the relative order of the variables the function
depends on, and every manager here orders by name.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .bdd import Bdd
from .syntax import Formula


def simplify(f: Formula, order: Optional[Iterable[str]] = None) -> Formula:
    """Return a small formula denoting the same Boolean function as ``f``.

    The result is an irredundant sum of products (or a constant); variable
    ``order`` (default: sorted) fixes the BDD order and hence the exact
    cover chosen — the output is deterministic for a given order.
    """
    mgr = Bdd(sorted(f.variables()) if order is None else list(order))
    return mgr.to_formula(mgr.from_formula(f))


# oracle: tests/reference_triangular.py
def simplify_under(f: Formula, care: Formula, order: Optional[Iterable[str]] = None) -> Formula:
    """Simplify ``f`` assuming ``care`` holds (don't-care minimisation).

    Returns a formula that agrees with ``f`` on every assignment
    satisfying ``care``; behaviour outside the care set is unspecified
    (chosen to minimise the result).  If ``care`` is unsatisfiable the
    care set is empty and ``0`` is returned.
    """
    names = sorted(f.variables() | care.variables()) if order is None else list(order)
    mgr = Bdd(names)
    return mgr.to_formula(mgr.from_formula(f), mgr.from_formula(care))

"""Best bounding-box approximations of Boolean functions (Algorithm 2).

For a Boolean function ``f`` over region variables, the compiler needs
bounding-box functions bracketing ``⌈f(r_1..r_n)⌉`` in terms of the
argument boxes ``⌈r_1⌉..⌈r_n⌉``:

* ``L_f ≤ f``  (lower):  ``L_f(⌈r⃗⌉) ⊑ ⌈f(r⃗)⌉``  for all regions;
* ``U_f ≥ f``  (upper):  ``⌈f(r⃗)⌉ ⊑ U_f(⌈r⃗⌉)``  for all regions.

The paper's results, all implemented here:

* **Theorem 15**: the best lower approximation is
  ``L_f = ⊔ { ⌈x⌉ : atom x with x ≤ f }`` — and by Blake's Theorem 18 the
  qualifying atoms are exactly the single-positive-literal terms of
  ``BCF(f)``.  (If ``BCF(f)`` contains the empty term, ``f = 1`` and
  ``L_f = TOP``.)
* **Theorem 17**: the best upper approximation is
  ``U_f = ⊔_{t ∈ BCF(f)} ⊓_{positive atom x ∈ t} ⌈x⌉``.
* **Algorithm 2**: compute ``BCF(f)``; read ``L_f`` off the single-atom
  terms; obtain ``U_f`` by dropping every negative literal, replacing
  ``∧,∨`` by ``⊓,⊔`` and simplifying (a term with no positive literal
  left contributes ``TOP``).

Worked example (paper Examples 2/3): ``f = x∧y ∨ ¬x∧(y ∨ z∧w)`` has
``BCF(f) = y ∨ ¬x∧z∧w``, so ``L_f = ⌈y⌉`` and
``U_f = ⌈y⌉ ⊔ (⌈z⌉ ⊓ ⌈w⌉)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..boolean.blake import blake_canonical_form
from ..boolean.syntax import Formula
from ..boolean.terms import Term
from .functions import BOT, TOP, BoxFunc, BoxVar, bjoin, bmeet


def lower_approximation(f: Formula, bcf: Optional[Sequence[Term]] = None) -> BoxFunc:
    """``L_f`` — the best lower bounding-box approximation (Theorem 15).

    The join of ``⌈x⌉`` over the atoms ``x ≤ f``; by Theorem 18 these are
    the single-literal positive terms of ``BCF(f)``.  Negative
    single-literal terms (``¬x ≤ f``) contribute nothing: no bounding-box
    function of ``⌈x⌉`` can bound ``⌈¬x⌉`` from below.  ``bcf`` is
    ``BCF(f)`` when the caller has it already.
    """
    if bcf is None:
        bcf = blake_canonical_form(f)
    parts: List[BoxFunc] = []
    for t in bcf:
        if t.is_true():
            return TOP  # f == 1
        if len(t) == 1:
            ((name, positive),) = list(t)
            if positive:
                parts.append(BoxVar(name))
    return bjoin(*parts) if parts else BOT


def term_upper(t: Term) -> BoxFunc:
    """Upper approximation of one term: ``⊓`` of its positive atoms.

    Lemma 14: the best upper bounding-box approximation to a conjunction
    of (positive) variables is the ``⊓`` of their boxes; negative
    literals are dropped (their only upper bound is TOP, the unit of ⊓).
    An all-negative term therefore maps to TOP.
    """
    positives = [BoxVar(v) for v, s in t if s]
    if not positives:
        return TOP
    return bmeet(*positives)


def upper_approximation(f: Formula, bcf: Optional[Sequence[Term]] = None) -> BoxFunc:
    """``U_f`` — the best upper bounding-box approximation (Theorem 17).

    ``⊔`` over the BCF terms of the ``⊓`` of each term's positive atoms,
    then lattice-level simplification (absorption happens inside
    :func:`bjoin`/:func:`bmeet`).  Using the *Blake* canonical form makes
    the result representation-independent; Lemma 13 (``U_{f∨g} = U_f ⊔
    U_g``) justifies the term-by-term treatment.  ``bcf`` is ``BCF(f)``
    when the caller has it already.
    """
    if bcf is None:
        bcf = blake_canonical_form(f)
    if not bcf:
        return BOT  # f == 0
    parts = [term_upper(t) for t in bcf]
    return _absorb_join(parts)


# paper: Theorem 17
def upper_approximation_sop(terms: Sequence[Term]) -> BoxFunc:
    """``U`` computed from an arbitrary SOP cover (Theorem 17's "any
    sum-of-products representation"); exposed so the tests can compare
    covers against the BCF route."""
    if not terms:
        return BOT
    return _absorb_join([term_upper(t) for t in terms])


def _absorb_join(parts: List[BoxFunc]) -> BoxFunc:
    """``⊔`` of meets with meet-absorption.

    ``(a ⊓ b) ⊔ a == a`` pointwise for boxes, so a meet whose atom set is
    a superset of another's is redundant.  This is the "simplify" step of
    Algorithm 2 and keeps ``U_f`` small and canonical.
    """
    def atom_set(f: BoxFunc):
        if isinstance(f, BoxVar):
            return frozenset([f.name])
        if f == TOP:
            return frozenset()
        from .functions import BoxMeet

        if isinstance(f, BoxMeet):
            out = set()
            for a in f.args:
                if isinstance(a, BoxVar):
                    out.add(a.name)
                else:  # constants inside meets: treat conservatively
                    return None
            return frozenset(out)
        return None

    sets = [atom_set(p) for p in parts]
    kept: List[BoxFunc] = []
    for i, (p, s) in enumerate(zip(parts, sets)):
        if s is None:
            kept.append(p)
            continue
        redundant = False
        for j, s2 in enumerate(sets):
            if i == j or s2 is None:
                continue
            if s2 < s or (s2 == s and j < i):
                redundant = True
                break
        if not redundant:
            kept.append(p)
    return bjoin(*kept)


@dataclass(frozen=True)
class Approximation:
    """The ``(L_f, U_f)`` pair for one Boolean function."""

    formula: Formula
    lower: BoxFunc
    upper: BoxFunc


def approximate(f: Formula) -> Approximation:
    """Algorithm 2: both best approximations from one BCF computation."""
    return Approximation(
        formula=f,
        lower=lower_approximation(f),
        upper=upper_approximation(f),
    )

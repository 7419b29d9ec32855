"""Decision procedures over atomless Boolean algebras (paper Theorems 6-9).

Over an atomless algebra, ``proj`` eliminates quantifiers *exactly*
(Theorem 8), so iterating it down to a variable-free system decides
satisfiability:

    S is satisfiable in some (equivalently, every) atomless algebra
        iff
    eliminate_to_ground(S) evaluates to True, i.e. its equation is the
    constant 0 and every disequation is a non-0 constant function.

Theorem 9's corollary is an **entailment** check: ``S ⊨ S'`` over all
atomless algebras iff every way of denying ``S'`` is inconsistent with
``S``; denial of a system case-splits into single constraints, each of
which merges with ``S`` into another plain system:

* deny ``f' = 0``: add the disequation ``f' ≠ 0``;
* deny ``g'_i ≠ 0``: fold ``g'_i`` into the equation (``f ∨ g'_i = 0``).

Both functions are exact for atomless algebras and sound (no false
"entailed") for arbitrary ones in the directions the library uses.
"""

from __future__ import annotations


from ..boolean.semantics import is_contradiction
from ..boolean.simplify import simplify
from ..boolean.syntax import FALSE, disj
from .projection import eliminate_to_ground
from .system import ConstraintSystem, EquationalSystem


def _as_equational(system) -> EquationalSystem:
    if isinstance(system, ConstraintSystem):
        return system.normalize()
    return system


def satisfiable_atomless(system) -> bool:
    """Satisfiability of a constraint system in atomless algebras.

    Exact (Theorems 7/8): projection preserves ``∃`` step by step, so the
    ground residue is satisfiable iff the original system is.
    """
    ground = eliminate_to_ground(_as_equational(system))
    if not is_contradiction(ground.equation):
        return False
    for g in ground.disequations:
        if is_contradiction(g):
            return False
    return True


def entails_atomless(s1, s2) -> bool:
    """``S1 ⊨ S2`` over every atomless algebra (hence, by Theorem 9's
    argument, the strongest implication checkable between systems).

    Decided by refutation: ``S1 ∧ ¬c`` must be unsatisfiable for each
    constraint ``c`` of ``S2``.
    """
    sys1 = _as_equational(s1)
    sys2 = _as_equational(s2)

    # Deny the equation part: S1 ∧ (f2 ≠ 0).
    if sys2.equation != FALSE:
        denial = EquationalSystem(
            sys1.equation, list(sys1.disequations) + [sys2.equation]
        )
        if satisfiable_atomless(denial):
            return False

    # Deny each disequation: S1 ∧ (g = 0)  ==  (f1 ∨ g = 0) ∧ ….
    for g in sys2.disequations:
        denial = EquationalSystem(
            simplify(disj(sys1.equation, g)), sys1.disequations
        )
        if satisfiable_atomless(denial):
            return False
    return True


def equivalent_atomless(s1, s2) -> bool:
    """Mutual entailment over atomless algebras."""
    return entails_atomless(s1, s2) and entails_atomless(s2, s1)


# paper: Theorem 9
def is_best_approximation(
    projected: EquationalSystem, original: EquationalSystem, x: str
) -> bool:
    """Check Theorem 9 on an instance: ``proj(S, x)`` is entailed by
    ``∃x S`` and entails every other x-free consequence candidate.

    The full "maximality" quantifies over all systems; here we verify the
    two checkable directions used by the tests:

    1. ``S ⊨ projected`` (soundness of the approximation);
    2. ``projected`` does not mention ``x``.
    """
    if x in projected.variables():
        return False
    return entails_atomless(original, projected)

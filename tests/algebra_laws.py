"""Reusable Boolean-algebra law checkers.

Each function checks one algebra axiom (or a derived law) on concrete
elements and returns a bool; the hypothesis suites drive them with random
elements of every carrier.  Keeping the laws here avoids copy-pasted
assertions across the per-carrier test files and documents precisely
which structure the paper's theorems rely on.
"""

from __future__ import annotations

from typing import Sequence

from repro.algebra.base import BooleanAlgebra


def associativity(alg: BooleanAlgebra, a, b, c) -> bool:
    """``(a ∨ b) ∨ c == a ∨ (b ∨ c)`` and dually for meet."""
    return alg.eq(
        alg.join(alg.join(a, b), c), alg.join(a, alg.join(b, c))
    ) and alg.eq(alg.meet(alg.meet(a, b), c), alg.meet(a, alg.meet(b, c)))


def commutativity(alg: BooleanAlgebra, a, b) -> bool:
    """``a ∨ b == b ∨ a`` and dually."""
    return alg.eq(alg.join(a, b), alg.join(b, a)) and alg.eq(
        alg.meet(a, b), alg.meet(b, a)
    )


def absorption(alg: BooleanAlgebra, a, b) -> bool:
    """``a ∨ (a ∧ b) == a`` and ``a ∧ (a ∨ b) == a``."""
    return alg.eq(alg.join(a, alg.meet(a, b)), a) and alg.eq(
        alg.meet(a, alg.join(a, b)), a
    )


def identity_elements(alg: BooleanAlgebra, a) -> bool:
    """``a ∨ 0 == a`` and ``a ∧ 1 == a``."""
    return alg.eq(alg.join(a, alg.bot), a) and alg.eq(
        alg.meet(a, alg.top), a
    )


def distributivity(alg: BooleanAlgebra, a, b, c) -> bool:
    """``a ∧ (b ∨ c) == (a ∧ b) ∨ (a ∧ c)`` and its dual."""
    lhs1 = alg.meet(a, alg.join(b, c))
    rhs1 = alg.join(alg.meet(a, b), alg.meet(a, c))
    lhs2 = alg.join(a, alg.meet(b, c))
    rhs2 = alg.meet(alg.join(a, b), alg.join(a, c))
    return alg.eq(lhs1, rhs1) and alg.eq(lhs2, rhs2)


def complementation(alg: BooleanAlgebra, a) -> bool:
    """``a ∨ ~a == 1`` and ``a ∧ ~a == 0``."""
    na = alg.complement(a)
    return alg.eq(alg.join(a, na), alg.top) and alg.is_zero(alg.meet(a, na))


def involution(alg: BooleanAlgebra, a) -> bool:
    """``~~a == a``."""
    return alg.eq(alg.complement(alg.complement(a)), a)


def de_morgan(alg: BooleanAlgebra, a, b) -> bool:
    """``~(a ∨ b) == ~a ∧ ~b`` and its dual."""
    return alg.eq(
        alg.complement(alg.join(a, b)),
        alg.meet(alg.complement(a), alg.complement(b)),
    ) and alg.eq(
        alg.complement(alg.meet(a, b)),
        alg.join(alg.complement(a), alg.complement(b)),
    )


def le_is_partial_order(alg: BooleanAlgebra, a, b) -> bool:
    """Antisymmetry of ``<=`` w.r.t. element equality."""
    if alg.le(a, b) and alg.le(b, a):
        return alg.eq(a, b)
    return True


def split_law(alg: BooleanAlgebra, a) -> bool:
    """On atomless carriers: split parts are nonzero, disjoint, exhaustive."""
    if alg.is_zero(a):
        return True
    p, q = alg.split(a)
    return (
        not alg.is_zero(p)
        and not alg.is_zero(q)
        and alg.is_zero(alg.meet(p, q))
        and alg.eq(alg.join(p, q), a)
    )


ALL_BINARY_LAWS = [commutativity, absorption, de_morgan, le_is_partial_order]
ALL_TERNARY_LAWS = [associativity, distributivity]
ALL_UNARY_LAWS = [identity_elements, complementation, involution]


def check_all_laws(alg: BooleanAlgebra, elements: Sequence) -> None:
    """Assert every law on all combinations drawn from ``elements``."""
    for a in elements:
        for law in ALL_UNARY_LAWS:
            assert law(alg, a), f"{law.__name__} failed on {a!r}"
        for b in elements:
            for law in ALL_BINARY_LAWS:
                assert law(alg, a, b), f"{law.__name__} failed"
            for c in elements:
                for law in ALL_TERNARY_LAWS:
                    assert law(alg, a, b, c), f"{law.__name__} failed"

"""Existential projection of Boolean constraint systems (paper §3).

The central technical device of the paper.  For a normalized system

    S:   f = 0  ∧  g_1 ≠ 0 ∧ … ∧ g_m ≠ 0

and a variable ``x``, write ``A = f[x←0]``, ``B = f[x←1]``,
``C_i = g_i[x←0]``, ``D_i = g_i[x←1]``.  Then (paper Definition after
Theorem 4)::

    proj(S, x)  =  A∧B = 0  ∧  ⋀_i ( (¬B∧D_i) ∨ (¬A∧C_i) ≠ 0 )

Facts implemented/verified here:

* **Theorem 2 (Boole)**: for pure equations, ``∃x (f = 0) ⟺ A∧B = 0`` —
  positive systems are closed under existential quantification.
* **Theorem 4**: for a single disequation, ``∃x S`` is *equivalent* to
  ``proj`` (via Lemma 3 on the witnesses ``x = f[x←0]`` / ``x = ¬f[x←1]``).
* **Theorem 5 (weak independence)** + **Theorem 7 (Independence)**: over
  atomless algebras the disequations project independently, so ``proj``
  is exact (Theorem 8); over arbitrary algebras it is the **best
  approximation** (Theorem 9) — ``∃x S ⟹ proj(S, x)`` always.
* Disequations not mentioning ``x`` pass through unchanged: with
  ``C_i = D_i = g_i`` the projected term is ``¬(A∧B) ∧ g_i``, which is
  equivalent to ``g_i`` under the projected equation ``A∧B = 0``.

The non-closure witness (paper Example 1) lives in the tests: for
``S: x∧y ≠ 0 ∧ ¬x∧y ≠ 0``, ``proj(S, x) = (y ≠ 0)``, but over an atomic
algebra ``∃x S`` additionally requires ``|y| ≥ 2``.

:func:`exists_equation` and :func:`project_disequation` are the paper's
definitions, on formulas.  :func:`project` builds the same functions from
nodes of the system's BDD manager; a part of the projected system, printed
when read, is ``simplify`` of what they build (why: see ``triangular``).
"""

from __future__ import annotations

from typing import Sequence

from ..boolean.syntax import Formula, conj, disj, neg
from .system import EquationalSystem


# paper: Theorem 2
def exists_equation(f: Formula, x: str) -> Formula:
    """Boole's elimination (Theorem 2): ``∃x (f = 0) ⟺ f[x←0]∧f[x←1] = 0``.

    Returns the new equation's left-hand side ``f[x←0] ∧ f[x←1]``.
    """
    lo, hi = f.cofactors(x)
    return conj(lo, hi)


# paper: Theorem 4
def project_disequation(f: Formula, g: Formula, x: str) -> Formula:
    """The disequation produced by projecting ``g ≠ 0`` out of ``x``.

    Given the accompanying equation ``f = 0``, the projected disequation's
    left-hand side is ``(¬f[x←1] ∧ g[x←1]) ∨ (¬f[x←0] ∧ g[x←0])``
    (Theorem 4's right conjunct).  If ``x`` does not occur in ``g``, ``g``
    itself is returned (equivalent modulo the projected equation, and it
    keeps compiled systems small and readable).
    """
    if not g.mentions(x):
        return g
    a, b = f.cofactors(x)  # A = f[x<-0], B = f[x<-1]
    c, d = g.cofactors(x)  # C = g[x<-0], D = g[x<-1]
    return disj(conj(neg(b), d), conj(neg(a), c))


def project(system: EquationalSystem, x: str) -> EquationalSystem:
    """``proj(S, x)`` — the best unquantified approximation of ``∃x S``.

    Exact over atomless algebras (Theorem 8), an upper approximation in
    general (Theorem 9).  The projected system shares ``system``'s
    manager, so repeated projection (Algorithm 1) never rewrites syntax.
    A disequation whose *function* does not depend on ``x`` passes through.
    """
    mgr, equation, disequations = system.lifted()
    a, b = mgr.restrict(equation, x, False), mgr.restrict(equation, x, True)
    not_a, not_b = mgr.apply_not(a), mgr.apply_not(b)
    projected = []
    for g in disequations:
        c, d = mgr.restrict(g, x, False), mgr.restrict(g, x, True)
        if c != d:
            g = mgr.apply_or(mgr.apply_and(not_b, d), mgr.apply_and(not_a, c))
        projected.append(g)
    return EquationalSystem.of_nodes(mgr, mgr.apply_and(a, b), projected)


def project_all(
    system: EquationalSystem, variables: Sequence[str]
) -> EquationalSystem:
    """Project out several variables in the given order."""
    out = system
    for x in variables:
        out = project(out, x)
    return out


def eliminate_to_ground(system: EquationalSystem) -> EquationalSystem:
    """Project out *all* variables, leaving a system over constants.

    Over atomless algebras this decides satisfiability (see
    :mod:`repro.constraints.decision`).
    """
    return project_all(system, sorted(system.variables()))

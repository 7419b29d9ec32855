"""Constructive models over atomless algebras (Independence theorem).

The proof of the paper's Independence theorem (Theorem 6) is
constructive: because the algebra is atomless, every requirement of the
form "meet this set in a nonzero piece" can be satisfied by carving out a
*proper* nonzero subset, and finitely many requirements can be satisfied
simultaneously by keeping the pieces disjoint.

This module turns that argument into an algorithm:

* :func:`disjoint_representatives` — given finitely many nonzero elements
  ``base_1..base_m`` of an atomless algebra, produce pairwise-disjoint
  nonzero pieces ``w_j ⊆ base_j`` (splitting, with "stealing" when a base
  is already covered by earlier pieces);
* :func:`choose_value` — given a solved constraint ``C_i`` whose
  projection conditions hold for a prefix, produce an actual value for
  ``x_i``;
* :func:`build_witness` — given a satisfiable system, produce a full
  assignment in the algebra, by running the Algorithm 1 elimination chain
  and re-introducing variables front to back.

Together with :func:`repro.constraints.decision.satisfiable_atomless`
this gives an end-to-end machine check of Theorems 7/8: a system passes
the symbolic decision procedure **iff** a concrete model can be built in
the interval/region algebras.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from ..boolean.semantics import evaluate
from ..errors import ReproError
from .projection import project
from .solved import SolvedConstraint, solve_for
from .system import ConstraintSystem, EquationalSystem


class WitnessError(ReproError):
    """Raised when no witness exists (system unsatisfiable at this point)."""


def disjoint_representatives(algebra, bases: Sequence) -> List:
    """Pairwise-disjoint nonzero ``w_j <= bases[j]`` in an atomless algebra.

    Implements the splitting argument of the Independence theorem's
    proof.  Every ``bases[j]`` must be nonzero.  Pieces are taken as
    proper subsets (via ``algebra.split``) so earlier choices never
    exhaust an element; if a base is nevertheless fully covered by
    earlier pieces, a sub-piece is *stolen* from one of them (both halves
    stay nonzero, so all invariants survive).
    """
    if not algebra.is_atomless():
        raise WitnessError(
            f"{type(algebra).__name__} is not atomless; "
            "disjoint representatives may not exist"
        )
    pieces: List = []
    for j, base in enumerate(bases):
        if algebra.is_zero(base):
            raise WitnessError(f"base {j} is zero; no representative exists")
        committed = algebra.join_all(pieces)
        avail = algebra.diff(base, committed)
        if not algebra.is_zero(avail):
            piece, _rest = algebra.split(avail)
            pieces.append(piece)
            continue
        # base ⊆ committed: steal half of someone's overlap with base.
        for k, other in enumerate(pieces):
            overlap = algebra.meet(other, base)
            if algebra.is_zero(overlap):
                continue
            half, _rest = algebra.split(overlap)
            pieces[k] = algebra.diff(other, half)
            pieces.append(half)
            break
        else:  # pragma: no cover - committed covers base => overlap exists
            raise WitnessError("invariant violation while stealing")
    return pieces


def choose_value(
    algebra,
    constraint: SolvedConstraint,
    env: Mapping[str, object],
):
    """A value for the solved variable satisfying ``C_i`` exactly.

    Preconditions (guaranteed when the prefix satisfies
    ``proj(S_i, x_i)``): the evaluated bounds satisfy ``s <= t`` and each
    disequation ``j`` satisfies ``t∧p_j ≠ 0 ∨ ¬s∧q_j ≠ 0``.

    Construction: start from the lower bound ``s``; for each disequation
    pick one of

    * (a) ``p_j ∧ s ≠ 0`` — already met, since ``x ⊇ s``;
    * (b) grow ``x`` by a piece of ``p_j ∧ t ∧ ¬s``;
    * (c) reserve a piece of ``q_j ∧ ¬s`` to stay *outside* ``x``;

    with all pieces pairwise disjoint via
    :func:`disjoint_representatives`.
    """
    s = evaluate(constraint.lower, algebra, env)
    t = evaluate(constraint.upper, algebra, env)
    if not algebra.le(s, t):
        raise WitnessError(
            f"range for {constraint.variable} is empty: lower !<= upper"
        )
    not_s = algebra.complement(s)

    modes: List[str] = []
    bases: List = []
    for r in constraint.disequations:
        p = evaluate(r.p, algebra, env)
        q = evaluate(r.q, algebra, env)
        if not algebra.is_zero(algebra.meet(p, s)):
            modes.append("a")
            bases.append(None)
        else:
            grow = algebra.meet(algebra.meet(p, t), not_s)
            keep = algebra.meet(q, not_s)
            if not algebra.is_zero(grow):
                modes.append("b")
                bases.append(grow)
            elif not algebra.is_zero(keep):
                modes.append("c")
                bases.append(keep)
            else:
                raise WitnessError(
                    f"disequation unsatisfiable for {constraint.variable}; "
                    "prefix does not satisfy the projected system"
                )

    active = [b for b in bases if b is not None]
    pieces = disjoint_representatives(algebra, active) if active else []
    value = s
    it = iter(pieces)
    for mode, base in zip(modes, bases):
        if base is None:
            continue
        piece = next(it)
        if mode == "b":
            value = algebra.join(value, piece)
        # mode "c": the piece stays outside x by disjointness.
    return value


def build_witness(
    system,
    algebra,
    order: Optional[Sequence[str]] = None,
    constants: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """A full satisfying assignment over an atomless algebra, or raise.

    Runs the elimination chain ``S_n .. S_0``, verifies the ground residue
    against ``constants``, then re-introduces the variables front to back
    with :func:`choose_value`.  Raises :class:`WitnessError` when the
    system is unsatisfiable (relative to the bound constants).
    """
    if isinstance(system, ConstraintSystem):
        normalized = system.normalize()
    else:
        normalized = system
    constants = dict(constants or {})
    if order is None:
        order = sorted(normalized.variables() - set(constants))

    chain: List[EquationalSystem] = [normalized]
    for x in reversed(list(order)):
        chain.append(project(chain[-1], x))
    chain.reverse()  # chain[i] == S_i, chain[0] == ground residue

    ground = chain[0]
    if not ground.holds(algebra, constants):
        raise WitnessError("ground residue fails for the bound constants")

    env: Dict[str, object] = dict(constants)
    for i, x in enumerate(order, start=1):
        constraint, _passed = solve_for(chain[i], x)
        env[x] = choose_value(algebra, constraint, env)
    return env

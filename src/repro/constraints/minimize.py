"""Constraint-system minimization.

An application of the atomless decision procedure
(:mod:`repro.constraints.decision`): remove constraints that are
entailed by the rest of the system.  Useful both as a front-end
optimization (fewer constraints → smaller formulas through Algorithm 1)
and as a specification-hygiene tool (report redundant integrity
constraints to the user).

Minimization is performed greedily in input order, so the result is a
(non-unique) irredundant core: no remaining constraint is implied by
the others.
"""

from __future__ import annotations

from typing import List, Tuple

from .decision import entails_atomless
from .system import ConstraintSystem


def _without(constraints: List, index: int) -> ConstraintSystem:
    rest = [c for k, c in enumerate(constraints) if k != index]
    return ConstraintSystem.build(*rest) if rest else ConstraintSystem()


def _single(constraint) -> ConstraintSystem:
    return ConstraintSystem.build(constraint)


# oracle: tests/test_join_minimize_cli.py
def redundant_constraints(system: ConstraintSystem) -> List:
    """Constraints implied by the remainder of the system.

    Each listed constraint can be dropped *individually*; dropping
    several at once is only safe through :func:`minimize_system`, which
    re-checks after every removal.
    """
    constraints = list(system.positives) + list(system.negatives)
    out = []
    for i, c in enumerate(constraints):
        if len(constraints) < 2:
            break
        rest = _without(constraints, i)
        if entails_atomless(rest, _single(c)):
            out.append(c)
    return out


def minimize_system(system: ConstraintSystem) -> Tuple[ConstraintSystem, List]:
    """Greedily remove entailed constraints until none remains.

    Returns ``(core, removed)``.  The core is equivalent to the input
    over every atomless Boolean algebra (hence over the region model).
    """
    constraints = list(system.positives) + list(system.negatives)
    removed: List = []
    changed = True
    while changed and len(constraints) > 1:
        changed = False
        for i, c in enumerate(constraints):
            rest = _without(constraints, i)
            if entails_atomless(rest, _single(c)):
                removed.append(c)
                del constraints[i]
                changed = True
                break
    return ConstraintSystem.build(*constraints), removed

"""Boolean constraint systems and their compilation (paper Section 3).

* :mod:`repro.constraints.system` — positive/negative constraints,
  Theorem 1 normalization.
* :mod:`repro.constraints.projection` — ``proj``, the best unquantified
  approximation of ``∃x S`` (exact over atomless algebras).
* :mod:`repro.constraints.solved` — Schröder/Boole solved form for one
  variable.
* :mod:`repro.constraints.triangular` — Algorithm 1.
* :mod:`repro.constraints.decision` — satisfiability/entailment over
  atomless algebras.
* :mod:`repro.constraints.witness` — constructive model building.
* :mod:`repro.constraints.examples` — the paper's running examples.
"""

from .decision import (
    entails_atomless,
    equivalent_atomless,
    ground_holds,
    satisfiable_atomless,
)
from .examples import (
    SMUGGLERS_CONSTANTS,
    SMUGGLERS_ORDER,
    nonclosure_example,
    smugglers_system,
)
from .minimize import minimize_system, redundant_constraints
from .parser import parse_constraint, parse_system
from .projection import (
    eliminate_to_ground,
    exists_equation,
    project,
    project_all,
    project_disequation,
)
from .solved import BoundConstraint, Disequation, SolvedConstraint, solve_for, solved_to_system
from .system import (
    ConstraintSystem,
    EquationalSystem,
    Negative,
    Positive,
    disjoint,
    empty,
    equal,
    nonempty,
    not_subset,
    overlaps,
    strict_subset,
    subset,
)
from .triangular import (
    TriangularForm,
    shared_triangular_forms,
    triangular_form,
    verify_necessity,
)
from .witness import (
    WitnessError,
    build_witness,
    choose_value,
    disjoint_representatives,
)

__all__ = [
    "BoundConstraint",
    "ConstraintSystem",
    "Disequation",
    "EquationalSystem",
    "Negative",
    "Positive",
    "SMUGGLERS_CONSTANTS",
    "SMUGGLERS_ORDER",
    "SolvedConstraint",
    "TriangularForm",
    "WitnessError",
    "build_witness",
    "choose_value",
    "disjoint",
    "disjoint_representatives",
    "eliminate_to_ground",
    "empty",
    "entails_atomless",
    "equal",
    "equivalent_atomless",
    "exists_equation",
    "ground_holds",
    "nonclosure_example",
    "minimize_system",
    "nonempty",
    "not_subset",
    "overlaps",
    "parse_constraint",
    "parse_system",
    "project",
    "project_all",
    "project_disequation",
    "redundant_constraints",
    "satisfiable_atomless",
    "shared_triangular_forms",
    "smugglers_system",
    "solve_for",
    "solved_to_system",
    "strict_subset",
    "subset",
    "triangular_form",
    "verify_necessity",
]

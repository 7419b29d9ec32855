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

from .decision import entails_atomless, equivalent_atomless, satisfiable_atomless
from .examples import SMUGGLERS_ORDER, smugglers_system
from .parser import parse_system
from .projection import eliminate_to_ground, project
from .system import ConstraintSystem, EquationalSystem, nonempty, overlaps, subset
from .triangular import triangular_form
from .witness import WitnessError, build_witness

__all__ = [
    "ConstraintSystem",
    "EquationalSystem",
    "SMUGGLERS_ORDER",
    "WitnessError",
    "build_witness",
    "eliminate_to_ground",
    "entails_atomless",
    "equivalent_atomless",
    "nonempty",
    "overlaps",
    "parse_system",
    "project",
    "satisfiable_atomless",
    "smugglers_system",
    "subset",
    "triangular_form",
]

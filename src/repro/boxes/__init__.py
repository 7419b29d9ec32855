"""Bounding boxes and bounding-box approximation (paper Section 4).

* :mod:`repro.boxes.box` — the box lattice (⊓, ⊔, ⊑) and the box↔point
  mapping of Figure 3;
* :mod:`repro.boxes.functions` — bounding-box function ASTs;
* :mod:`repro.boxes.approximation` — Algorithm 2 (best L/U via BCF);
* :mod:`repro.boxes.bconstraints` — the three range-query constraint
  forms and the solved-form conversion.
"""

from .approximation import approximate, lower_approximation, upper_approximation
from .bconstraints import BoxQuery, compile_solved_constraint
from .box import Box
from .functions import (
    TOP,
    BoxVar,
    bjoin,
    bmeet,
    evaluate_boxfunc,
    naive_transform,
    render_boxfunc,
)

__all__ = [
    "Box",
    "BoxQuery",
    "BoxVar",
    "TOP",
    "approximate",
    "bjoin",
    "bmeet",
    "compile_solved_constraint",
    "evaluate_boxfunc",
    "lower_approximation",
    "naive_transform",
    "render_boxfunc",
    "upper_approximation",
]

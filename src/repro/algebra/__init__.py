"""Boolean algebra carriers.

The constraint machinery of :mod:`repro.constraints` is parametric in a
Boolean algebra; this package supplies the carriers used by the paper:

* :class:`TwoValuedAlgebra` — B2 (atomic, degenerate);
* :class:`PowersetAlgebra` / :class:`BitVectorAlgebra` — finite atomic
  algebras (Example 1's approximation-only witnesses);
* :class:`IntervalAlgebra` — 1-D atomless (unions of half-open intervals);
* :class:`RegionAlgebra` — k-D atomless box-union regions: the spatial
  data model;
* :class:`FreeBooleanAlgebra` — the BDD-backed free algebra (test oracle).
"""

from .bitvec import BitVectorAlgebra
from .intervals import IntervalAlgebra
from .regions import Region, RegionAlgebra

__all__ = [
    "BitVectorAlgebra",
    "IntervalAlgebra",
    "Region",
    "RegionAlgebra",
]

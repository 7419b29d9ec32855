"""repro — Constraint-Based Query Optimization for Spatial Databases.

A full reproduction of Helm, Marriott & Odersky (PODS 1991): systems of
positive and negative Boolean constraints are compiled into a triangular
solved form (Algorithm 1), approximated by bounding-box functions computed
from Blake canonical forms (Algorithm 2), and executed as one range query
per retrieval step against a spatial index.

Subpackages
-----------
``repro.boolean``
    Symbolic formulas, Blake canonical form, BDDs, simplification.
``repro.algebra``
    Boolean algebra carriers: bits, sets, intervals, k-dim regions.
``repro.constraints``
    Constraint systems, projection (``proj``), triangular form, the
    atomless decision procedure, the textual constraint syntax.
``repro.boxes``
    Bounding boxes, bounding-box functions, best L/U approximations.
``repro.spatial``
    R-tree, grid file, the box-as-point single range query, z-order join.
``repro.engine``
    The query compiler and executors (naive / exact / box-plan).
``repro.datagen``
    Synthetic maps and workloads for examples and benchmarks.

This package exports the embedded API (:class:`Database`,
:class:`Session`), the root of the error hierarchy (:class:`ReproError`)
and the names the examples import; everything else is imported from its
defining module, e.g. ``from repro.spatial.table import SpatialTable``.

Quickstart
----------
>>> from repro import Database, Session
>>> # see examples/quickstart.py for the paper's smugglers query and
>>> # examples/service_quickstart.py for snapshots + the query service
"""

from .algebra.intervals import IntervalAlgebra
from .algebra.regions import Region
from .constraints.parser import parse_system
from .database import Database, Session
from .errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "Database",
    "IntervalAlgebra",
    "Region",
    "ReproError",
    "Session",
    "parse_system",
    "__version__",
]

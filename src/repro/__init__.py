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

Quickstart
----------
>>> from repro import Database, Session
>>> # see examples/quickstart.py for the paper's smugglers query and
>>> # examples/service_quickstart.py for snapshots + the query service
"""

from .algebra import (
    BitVectorAlgebra,
    IntervalAlgebra,
    IntervalSet,
    PowersetAlgebra,
    Region,
    RegionAlgebra,
    TwoValuedAlgebra,
)
from .boolean import (
    FALSE,
    TRUE,
    Formula,
    Var,
    blake_canonical_form,
    conj,
    disj,
    neg,
    parse,
    simplify,
    to_str,
    to_unicode,
    var,
    variables,
)
from .boxes import (
    Box,
    BoxQuery,
    approximate,
    compile_solved_constraint,
    lower_approximation,
    upper_approximation,
)
from .constraints import (
    ConstraintSystem,
    build_witness,
    entails_atomless,
    equal,
    nonempty,
    not_subset,
    overlaps,
    parse_system,
    project,
    satisfiable_atomless,
    smugglers_system,
    subset,
    triangular_form,
)
from .database import Database, QueryResult, Session
from .engine import (
    SpatialQuery,
    compile_query,
    execute,
)
from .errors import (
    CompilationError,
    ParseError,
    ReproError,
    UnsatisfiableError,
)
from .spatial import RTree, SpatialTable

__version__ = "1.0.0"

__all__ = [
    "BitVectorAlgebra",
    "Box",
    "BoxQuery",
    "CompilationError",
    "ConstraintSystem",
    "Database",
    "FALSE",
    "Formula",
    "IntervalAlgebra",
    "IntervalSet",
    "ParseError",
    "PowersetAlgebra",
    "QueryResult",
    "RTree",
    "Region",
    "RegionAlgebra",
    "ReproError",
    "Session",
    "SpatialQuery",
    "SpatialTable",
    "TRUE",
    "TwoValuedAlgebra",
    "UnsatisfiableError",
    "Var",
    "approximate",
    "blake_canonical_form",
    "build_witness",
    "compile_query",
    "compile_solved_constraint",
    "conj",
    "disj",
    "entails_atomless",
    "equal",
    "execute",
    "lower_approximation",
    "neg",
    "nonempty",
    "not_subset",
    "overlaps",
    "parse",
    "parse_system",
    "project",
    "satisfiable_atomless",
    "simplify",
    "smugglers_system",
    "subset",
    "to_str",
    "to_unicode",
    "triangular_form",
    "upper_approximation",
    "var",
    "variables",
    "__version__",
]

"""The query engine: compiler, physical plans, planner, catalog, stats.

The execution pipeline is three-stage: a :class:`SpatialQuery` is
compiled to a logical :class:`QueryPlan` (triangular solved forms + box
templates), lowered to a :class:`PhysicalPlan` (a tree of streaming
operators), and pulled as an iterator of answers.
"""

from ..spatial.table import ProbeCache
from .compiler import compile_query, repair_knn_order
from .executor import answers_as_oid_tuples, execute, execute_iter
from .physical import build_physical_plan
from .planner import choose_order, enumerate_orders, plan_order
from .query import AggregateSpec, KNNStep, SpatialQuery

__all__ = [
    "AggregateSpec",
    "KNNStep",
    "ProbeCache",
    "SpatialQuery",
    "answers_as_oid_tuples",
    "build_physical_plan",
    "choose_order",
    "compile_query",
    "enumerate_orders",
    "execute",
    "execute_iter",
    "plan_order",
    "repair_knn_order",
]

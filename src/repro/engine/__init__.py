"""The query engine: compiler, physical plans, planner, catalog, stats.

The execution pipeline is three-stage: a :class:`SpatialQuery` is
compiled to a logical :class:`QueryPlan` (triangular solved forms + box
templates), lowered to a :class:`PhysicalPlan` (a tree of streaming
operators), and pulled as an iterator of answers.
"""

from ..spatial.table import ProbeCache
from .catalog import (
    Catalog,
    Histogram,
    TableStatistics,
    collect_statistics,
)
from .compiler import QueryPlan, StepPlan, compile_query, repair_knn_order
from .executor import (
    MODES,
    answers_as_oid_tuples,
    execute,
    execute_iter,
)
from .physical import (
    Aggregate,
    AggregateRow,
    BoxFilter,
    CrossProduct,
    DistanceJoin,
    ExactFilter,
    ExtendStep,
    IndexCountAggregate,
    IndexProbe,
    KNNProbe,
    Once,
    PartitionedSpatialJoin,
    PhysicalOperator,
    PhysicalPlan,
    TableScan,
    VectorizedScanProbe,
    ZOrderJoin,
    build_physical_plan,
)
from .planner import (
    AGGREGATE_STRATEGIES,
    JOIN_STRATEGIES,
    KNN_ACCESS_STRATEGIES,
    ORDER_STRATEGIES,
    StepEstimate,
    best_order_by_estimate,
    choose_aggregate_strategy,
    choose_join_strategies,
    choose_knn_access,
    choose_order,
    enumerate_orders,
    estimate_order_cost_histogram,
    plan_order,
    rollout_step_estimates,
)
from .query import AGGREGATE_OPS, AggregateSpec, KNNStep, SpatialQuery
from .stats import ExecutionStats, StepStats

__all__ = [
    "AGGREGATE_OPS",
    "AGGREGATE_STRATEGIES",
    "Aggregate",
    "AggregateRow",
    "AggregateSpec",
    "BoxFilter",
    "Catalog",
    "CrossProduct",
    "DistanceJoin",
    "ExactFilter",
    "ExecutionStats",
    "ExtendStep",
    "Histogram",
    "IndexCountAggregate",
    "IndexProbe",
    "JOIN_STRATEGIES",
    "KNNProbe",
    "KNNStep",
    "KNN_ACCESS_STRATEGIES",
    "MODES",
    "ORDER_STRATEGIES",
    "Once",
    "PartitionedSpatialJoin",
    "PhysicalOperator",
    "PhysicalPlan",
    "ProbeCache",
    "QueryPlan",
    "SpatialQuery",
    "StepEstimate",
    "StepPlan",
    "StepStats",
    "TableScan",
    "TableStatistics",
    "VectorizedScanProbe",
    "ZOrderJoin",
    "answers_as_oid_tuples",
    "best_order_by_estimate",
    "build_physical_plan",
    "choose_aggregate_strategy",
    "choose_join_strategies",
    "choose_knn_access",
    "choose_order",
    "collect_statistics",
    "compile_query",
    "enumerate_orders",
    "estimate_order_cost_histogram",
    "execute",
    "execute_iter",
    "plan_order",
    "repair_knn_order",
    "rollout_step_estimates",
]

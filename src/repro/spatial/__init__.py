"""The spatial-database substrate (simulated per DESIGN.md §3).

R-tree [6], the :class:`SpatialTable` facade the query engine uses
(an R-tree or a scan over its rows), and a z-order join in the style
of PROBE [10].  The grid file [9] and the box-as-point range-query
reduction (:func:`compile_range`) reproduce Figure 3;
``benchmarks/bench_fig3_rangequery.py`` drives them directly.
"""

from .columnar import (
    BACKENDS,
    HAVE_NUMPY,
    ColumnStore,
    active_backend,
    forced_backend,
    pack_floats,
    unpack_floats,
)
from .gridfile import GridFile
from .partition import (
    DEFAULT_TILES,
    JoinStats,
    TileGrid,
    pbsm_join,
    probe_box,
)
from .rangequery import (
    OPEN_EPS,
    PointRange,
    compile_range,
    figure3_rectangle,
    matches_via_point,
)
from .rtree import RTree, RTreeStats
from .snapshot import (
    FORMAT_VERSION,
    read_snapshot,
    region_from_jsonable,
    region_to_jsonable,
    table_from_jsonable,
    table_to_jsonable,
    write_snapshot,
)
from .table import ProbeCache, SpatialObject, SpatialTable
from .zorder import (
    ZGrid,
    ZOrderIndex,
    ZRange,
    interleave,
    interleave_batch,
    zorder_join,
    zorder_overlap_query,
)

__all__ = [
    "BACKENDS",
    "ColumnStore",
    "DEFAULT_TILES",
    "FORMAT_VERSION",
    "GridFile",
    "HAVE_NUMPY",
    "JoinStats",
    "OPEN_EPS",
    "PointRange",
    "ProbeCache",
    "RTree",
    "RTreeStats",
    "SpatialObject",
    "SpatialTable",
    "TileGrid",
    "ZGrid",
    "ZOrderIndex",
    "ZRange",
    "active_backend",
    "compile_range",
    "forced_backend",
    "figure3_rectangle",
    "interleave",
    "interleave_batch",
    "matches_via_point",
    "pack_floats",
    "pbsm_join",
    "probe_box",
    "read_snapshot",
    "region_from_jsonable",
    "region_to_jsonable",
    "table_from_jsonable",
    "table_to_jsonable",
    "unpack_floats",
    "write_snapshot",
    "zorder_join",
    "zorder_overlap_query",
]

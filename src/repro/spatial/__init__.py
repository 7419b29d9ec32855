"""The spatial-database substrate (simulated per DESIGN.md §3).

R-tree [6], the :class:`SpatialTable` facade the query engine uses
(an R-tree or a scan over its rows), and a z-order join in the style
of PROBE [10].  The grid file [9] and the box-as-point range-query
reduction (:func:`compile_range`) reproduce Figure 3;
``benchmarks/bench_fig3_rangequery.py`` drives them directly.
"""

from .gridfile import GridFile
from .rangequery import compile_range, figure3_rectangle
from .table import SpatialTable
from .zorder import ZGrid, ZOrderIndex, zorder_join

__all__ = [
    "GridFile",
    "SpatialTable",
    "ZGrid",
    "ZOrderIndex",
    "compile_range",
    "figure3_rectangle",
    "zorder_join",
]

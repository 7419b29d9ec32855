"""Synthetic spatial data and benchmark workloads."""

from .maps import make_map
from .shapes import grid_partition, random_box
from .workloads import (
    containment_chain_query,
    overlay_query,
    sandwich_query,
    smugglers_query,
)

__all__ = [
    "containment_chain_query",
    "grid_partition",
    "make_map",
    "overlay_query",
    "random_box",
    "sandwich_query",
    "smugglers_query",
]

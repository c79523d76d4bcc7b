"""Hierarchical data-center network substrate.

Provides the four fabric generators the paper evaluates (Tree, Fat-Tree, VL2,
BCube — Figure 8b), the topology graph model and routing/equal-cost-path
utilities used by the policy optimiser.
"""

from .base import Link, Server, Switch, Tier, Topology, UNREACHABLE
from .bcube import BCubeConfig, build_bcube
from .describe import TopologySummary, ascii_tree, describe_topology
from .fattree import FatTreeConfig, build_fattree
from .routing import (
    bfs_layers,
    count_shortest_paths,
    enumerate_paths,
    iter_paths,
    path_is_valid,
    shortest_path_stages,
    single_source_unit_costs,
    stage_adjacency,
)
from .tree import TreeConfig, build_tree
from .vl2 import VL2Config, build_vl2

__all__ = [
    "Link",
    "Server",
    "Switch",
    "Tier",
    "Topology",
    "UNREACHABLE",
    "TreeConfig",
    "build_tree",
    "FatTreeConfig",
    "build_fattree",
    "VL2Config",
    "build_vl2",
    "BCubeConfig",
    "build_bcube",
    "shortest_path_stages",
    "stage_adjacency",
    "bfs_layers",
    "single_source_unit_costs",
    "iter_paths",
    "enumerate_paths",
    "count_shortest_paths",
    "path_is_valid",
    "TopologySummary",
    "describe_topology",
    "ascii_tree",
]

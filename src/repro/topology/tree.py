"""Canonical multi-tier tree topology (the paper's default fabric).

The paper's testbed network is "a tree topology of depth 3 and fanout 8"
built in Mininet (Section 7.1), and its motivating examples (Figures 2 and 3)
use a small tree **with redundant switches at each level** so that a shuffle
flow has alternative routes (``w_1`` overloaded → reroute via ``w_3``).

:func:`build_tree` therefore generalises the plain Mininet tree with a
``redundancy`` knob: every switch *position* in the tree is populated with
``redundancy`` parallel switches, each fully connected to the switches of the
parent position (and, for access positions, to the servers of its rack).
``redundancy=1`` reproduces the plain tree; ``redundancy>=2`` creates the
multi-path hierarchy in which network-policy optimisation (Algorithm 1) has
real choices to make.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import Link, Server, Switch, Tier, Topology

__all__ = ["TreeConfig", "build_tree"]


@dataclass(frozen=True)
class TreeConfig:
    """Parameters of the hierarchical tree.

    ``depth`` counts switch levels (depth 2 = access + core; depth 3 adds an
    aggregation level).  ``fanout`` is the branching factor at every level, so
    the tree hosts ``fanout ** depth`` servers.  ``redundancy`` is the number
    of parallel switches per tree position.  Capacities/bandwidths default to
    values that scale with the tier, mirroring real fabrics where core
    switches are provisioned larger.
    """

    depth: int = 2
    fanout: int = 8
    redundancy: int = 1
    access_capacity: float = 100.0
    aggregation_capacity: float = 200.0
    core_capacity: float = 400.0
    server_link_bandwidth: float = 10.0
    fabric_link_bandwidth: float = 40.0
    server_resources: tuple[float, ...] = (2.0,)

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("tree depth must be >= 1")
        if self.fanout < 1:
            raise ValueError("tree fanout must be >= 1")
        if self.redundancy < 1:
            raise ValueError("tree redundancy must be >= 1")

    @property
    def num_servers(self) -> int:
        return self.fanout**self.depth

    def tier_for_level(self, level: int) -> Tier:
        """Map tree level (1 = access, ``depth`` = root) to a switch tier."""
        if level == 1:
            return Tier.ACCESS
        if level == self.depth:
            return Tier.CORE if self.depth > 1 else Tier.ACCESS
        return Tier.AGGREGATION

    def capacity_for_tier(self, tier: Tier) -> float:
        return {
            Tier.ACCESS: self.access_capacity,
            Tier.AGGREGATION: self.aggregation_capacity,
            Tier.CORE: self.core_capacity,
        }[tier]


def build_tree(config: TreeConfig | None = None, **kwargs: object) -> Topology:
    """Build a hierarchical tree :class:`~repro.topology.base.Topology`.

    Either pass a :class:`TreeConfig` or keyword overrides for its fields::

        topo = build_tree(depth=3, fanout=4, redundancy=2)

    Node-id layout: servers first (``0 .. num_servers-1``), then switches level
    by level from access upward; within a level, positions in order and the
    ``redundancy`` replicas of a position contiguously.
    """
    if config is None:
        config = TreeConfig(**kwargs)  # type: ignore[arg-type]
    elif kwargs:
        raise TypeError("pass either a TreeConfig or keyword overrides, not both")

    servers = [
        Server(node_id=i, name=f"s{i}", resource_capacity=config.server_resources)
        for i in range(config.num_servers)
    ]

    switches: list[Switch] = []
    links: list[Link] = []
    next_id = config.num_servers

    # positions_per_level[level] = number of switch positions at that level.
    # Level l (1-based from access) has fanout ** (depth - l) positions.
    level_switch_ids: list[list[list[int]]] = []  # [level][position] -> replica ids
    for level in range(1, config.depth + 1):
        tier = config.tier_for_level(level)
        positions = config.fanout ** (config.depth - level)
        ids_for_level: list[list[int]] = []
        for pos in range(positions):
            replicas: list[int] = []
            for rep in range(config.redundancy):
                switch = Switch(
                    node_id=next_id,
                    name=f"w{level}.{pos}.{rep}",
                    tier=tier,
                    capacity=config.capacity_for_tier(tier),
                )
                switches.append(switch)
                replicas.append(next_id)
                next_id += 1
            ids_for_level.append(replicas)
        level_switch_ids.append(ids_for_level)

    # Server -> access replicas of its rack position.
    for server in servers:
        rack = server.node_id // config.fanout
        for access_id in level_switch_ids[0][rack]:
            links.append(
                Link(
                    u=server.node_id,
                    v=access_id,
                    bandwidth=config.server_link_bandwidth,
                )
            )

    # Level l position p -> level l+1 position p // fanout, all replica pairs.
    for level_idx in range(config.depth - 1):
        for pos, replicas in enumerate(level_switch_ids[level_idx]):
            parent_pos = pos // config.fanout
            for child_id in replicas:
                for parent_id in level_switch_ids[level_idx + 1][parent_pos]:
                    links.append(
                        Link(
                            u=child_id,
                            v=parent_id,
                            bandwidth=config.fabric_link_bandwidth,
                        )
                    )

    name = (
        f"tree(d={config.depth},f={config.fanout},r={config.redundancy})"
    )
    topo = Topology(servers=servers, switches=switches, links=links, name=name)
    topo.validate()
    return topo

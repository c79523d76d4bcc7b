"""VL2 topology (Greenberg et al., SIGCOMM 2009).

The second alternative fabric of Figure 8(b).  VL2 is a folded Clos: top-of-
rack (ToR) switches connect to two aggregation switches; aggregation switches
form a complete bipartite graph with the intermediate switches.  The
abundance of intermediate-layer paths (valiant load balancing in the original
system) is what the paper's Probabilistic Network-Aware baseline "cannot
handle" (Section 7.3) — it assumes a single static path, whereas
Hit-Scheduler's policy optimisation picks among the intermediate switches by
residual capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import Link, Server, Switch, Tier, Topology

__all__ = ["VL2Config", "build_vl2"]


@dataclass(frozen=True)
class VL2Config:
    """Parameters of the VL2 Clos fabric.

    ``num_intermediate`` (``D_i``) and ``num_aggregation`` (``D_a``) size the
    upper layers; ``num_tor`` ToR switches each host ``servers_per_tor``
    servers and uplink to ``tor_uplinks`` aggregation switches (2 in the
    original design).
    """

    num_intermediate: int = 4
    num_aggregation: int = 4
    num_tor: int = 8
    servers_per_tor: int = 8
    tor_uplinks: int = 2
    tor_capacity: float = 100.0
    aggregation_capacity: float = 200.0
    intermediate_capacity: float = 400.0
    server_link_bandwidth: float = 10.0
    fabric_link_bandwidth: float = 40.0
    server_resources: tuple[float, ...] = (2.0,)

    def __post_init__(self) -> None:
        if min(self.num_intermediate, self.num_aggregation, self.num_tor) < 1:
            raise ValueError("VL2 layer sizes must be >= 1")
        if self.servers_per_tor < 1:
            raise ValueError("servers_per_tor must be >= 1")
        if not 1 <= self.tor_uplinks <= self.num_aggregation:
            raise ValueError("tor_uplinks must be in [1, num_aggregation]")

    @property
    def num_servers(self) -> int:
        return self.num_tor * self.servers_per_tor


def build_vl2(config: VL2Config | None = None, **kwargs: object) -> Topology:
    """Build a VL2 :class:`~repro.topology.base.Topology`."""
    if config is None:
        config = VL2Config(**kwargs)  # type: ignore[arg-type]
    elif kwargs:
        raise TypeError("pass either a VL2Config or keyword overrides, not both")

    servers = [
        Server(node_id=i, name=f"s{i}", resource_capacity=config.server_resources)
        for i in range(config.num_servers)
    ]
    switches: list[Switch] = []
    links: list[Link] = []
    next_id = config.num_servers

    tor_ids: list[int] = []
    for t in range(config.num_tor):
        switches.append(
            Switch(
                node_id=next_id,
                name=f"tor{t}",
                tier=Tier.ACCESS,
                capacity=config.tor_capacity,
            )
        )
        tor_ids.append(next_id)
        next_id += 1

    agg_ids: list[int] = []
    for a in range(config.num_aggregation):
        switches.append(
            Switch(
                node_id=next_id,
                name=f"agg{a}",
                tier=Tier.AGGREGATION,
                capacity=config.aggregation_capacity,
            )
        )
        agg_ids.append(next_id)
        next_id += 1

    int_ids: list[int] = []
    for i in range(config.num_intermediate):
        switches.append(
            Switch(
                node_id=next_id,
                name=f"int{i}",
                tier=Tier.CORE,
                capacity=config.intermediate_capacity,
            )
        )
        int_ids.append(next_id)
        next_id += 1

    # Servers -> their ToR.
    for server in servers:
        tor = server.node_id // config.servers_per_tor
        links.append(
            Link(
                u=server.node_id,
                v=tor_ids[tor],
                bandwidth=config.server_link_bandwidth,
            )
        )

    # ToR -> tor_uplinks aggregation switches, round-robin so load spreads.
    for t, tor_id in enumerate(tor_ids):
        for u in range(config.tor_uplinks):
            agg = (t + u) % config.num_aggregation
            links.append(
                Link(
                    u=tor_id,
                    v=agg_ids[agg],
                    bandwidth=config.fabric_link_bandwidth,
                )
            )

    # Aggregation <-> intermediate: complete bipartite (VL2's defining mesh).
    for a_id in agg_ids:
        for i_id in int_ids:
            links.append(
                Link(
                    u=a_id,
                    v=i_id,
                    bandwidth=config.fabric_link_bandwidth,
                )
            )

    topo = Topology(
        servers=servers,
        switches=switches,
        links=links,
        name=(
            f"vl2(Di={config.num_intermediate},Da={config.num_aggregation},"
            f"tor={config.num_tor})"
        ),
    )
    topo.validate()
    return topo

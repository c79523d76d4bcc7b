"""k-ary Fat-Tree topology (Leiserson; Al-Fares et al. layout).

One of the four fabrics of the paper's Figure 8(b) scalability study.  A
``k``-ary fat-tree has ``k`` pods; each pod contains ``k/2`` edge (access)
switches and ``k/2`` aggregation switches, and ``(k/2)^2`` core switches join
the pods.  Each edge switch serves ``k/2`` servers, for ``k^3 / 4`` servers in
total.  Every server pair in different pods has ``(k/2)^2`` equal-cost paths,
which is exactly the multiplicity Hit-Scheduler's policy optimisation
exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import Link, Server, Switch, Tier, Topology

__all__ = ["FatTreeConfig", "build_fattree"]


@dataclass(frozen=True)
class FatTreeConfig:
    """Parameters of the ``k``-ary fat-tree.  ``k`` must be even."""

    k: int = 4
    edge_capacity: float = 100.0
    aggregation_capacity: float = 200.0
    core_capacity: float = 400.0
    server_link_bandwidth: float = 10.0
    fabric_link_bandwidth: float = 40.0
    server_resources: tuple[float, ...] = (2.0,)

    def __post_init__(self) -> None:
        if self.k < 2 or self.k % 2:
            raise ValueError("fat-tree k must be an even integer >= 2")

    @property
    def num_servers(self) -> int:
        return self.k**3 // 4


def build_fattree(config: FatTreeConfig | None = None, **kwargs: object) -> Topology:
    """Build a ``k``-ary fat-tree :class:`~repro.topology.base.Topology`."""
    if config is None:
        config = FatTreeConfig(**kwargs)  # type: ignore[arg-type]
    elif kwargs:
        raise TypeError("pass either a FatTreeConfig or keyword overrides, not both")

    k = config.k
    half = k // 2
    servers = [
        Server(node_id=i, name=f"s{i}", resource_capacity=config.server_resources)
        for i in range(config.num_servers)
    ]

    switches: list[Switch] = []
    links: list[Link] = []
    next_id = config.num_servers

    # Edge switches: pod p, index e.
    edge_ids: list[list[int]] = []
    for pod in range(k):
        row: list[int] = []
        for e in range(half):
            switches.append(
                Switch(
                    node_id=next_id,
                    name=f"edge{pod}.{e}",
                    tier=Tier.ACCESS,
                    capacity=config.edge_capacity,
                )
            )
            row.append(next_id)
            next_id += 1
        edge_ids.append(row)

    agg_ids: list[list[int]] = []
    for pod in range(k):
        row = []
        for a in range(half):
            switches.append(
                Switch(
                    node_id=next_id,
                    name=f"agg{pod}.{a}",
                    tier=Tier.AGGREGATION,
                    capacity=config.aggregation_capacity,
                )
            )
            row.append(next_id)
            next_id += 1
        agg_ids.append(row)

    core_ids: list[int] = []
    for c in range(half * half):
        switches.append(
            Switch(
                node_id=next_id,
                name=f"core{c}",
                tier=Tier.CORE,
                capacity=config.core_capacity,
            )
        )
        core_ids.append(next_id)
        next_id += 1

    # Servers -> edge: server s belongs to pod s // (half*half), edge
    # (s // half) % half within the pod.
    for server in servers:
        sid = server.node_id
        pod = sid // (half * half)
        edge = (sid // half) % half
        links.append(
            Link(
                u=sid,
                v=edge_ids[pod][edge],
                bandwidth=config.server_link_bandwidth,
            )
        )

    # Edge <-> aggregation: complete bipartite within a pod.
    for pod in range(k):
        for e_id in edge_ids[pod]:
            for a_id in agg_ids[pod]:
                links.append(
                    Link(
                        u=e_id,
                        v=a_id,
                        bandwidth=config.fabric_link_bandwidth,
                    )
                )

    # Aggregation <-> core: agg switch a of any pod connects to cores
    # [a*half, (a+1)*half).
    for pod in range(k):
        for a, a_id in enumerate(agg_ids[pod]):
            for c in range(a * half, (a + 1) * half):
                links.append(
                    Link(
                        u=a_id,
                        v=core_ids[c],
                        bandwidth=config.fabric_link_bandwidth,
                    )
                )

    topo = Topology(
        servers=servers,
        switches=switches,
        links=links,
        name=f"fattree(k={k})",
    )
    topo.validate()
    return topo

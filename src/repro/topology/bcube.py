"""BCube topology (Guo et al., SIGCOMM 2009).

The third alternative fabric of Figure 8(b).  BCube is server-centric:
``BCube(n, 0)`` is ``n`` servers on one switch; ``BCube(n, k)`` is built from
``n`` copies of ``BCube(n, k-1)`` plus ``n^k`` level-``k`` switches.  A server
with address ``(a_k, ..., a_0)`` (each digit in ``[0, n)``) connects to one
switch at every level ``l``: the level-``l`` switch indexed by the address
with digit ``a_l`` removed.  Servers therefore have degree ``k+1`` and may
relay traffic; paths through the graph legitimately pass through intermediate
servers, and the hop/switch accounting in the rest of the library handles
that transparently.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import Link, Server, Switch, Tier, Topology

__all__ = ["BCubeConfig", "build_bcube"]


@dataclass(frozen=True)
class BCubeConfig:
    """Parameters of ``BCube(n, k)``: ``n^(k+1)`` servers, ``(k+1) * n^k``
    switches."""

    n: int = 4
    k: int = 1
    switch_capacity: float = 100.0
    link_bandwidth: float = 10.0
    server_resources: tuple[float, ...] = (2.0,)

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("BCube n must be >= 2")
        if self.k < 0:
            raise ValueError("BCube k must be >= 0")

    @property
    def num_servers(self) -> int:
        return self.n ** (self.k + 1)

    @property
    def switches_per_level(self) -> int:
        return self.n**self.k


def _tier_for_level(level: int, top_level: int) -> Tier:
    if level == 0:
        return Tier.ACCESS
    if level == top_level:
        return Tier.CORE
    return Tier.AGGREGATION


def build_bcube(config: BCubeConfig | None = None, **kwargs: object) -> Topology:
    """Build a ``BCube(n, k)`` :class:`~repro.topology.base.Topology`."""
    if config is None:
        config = BCubeConfig(**kwargs)  # type: ignore[arg-type]
    elif kwargs:
        raise TypeError("pass either a BCubeConfig or keyword overrides, not both")

    n, k = config.n, config.k
    servers = [
        Server(node_id=i, name=f"s{i}", resource_capacity=config.server_resources)
        for i in range(config.num_servers)
    ]
    switches: list[Switch] = []
    links: list[Link] = []
    next_id = config.num_servers

    # switch_ids[level][index] with index in [0, n^k).
    switch_ids: list[list[int]] = []
    for level in range(k + 1):
        row: list[int] = []
        tier = _tier_for_level(level, k) if k > 0 else Tier.ACCESS
        for idx in range(config.switches_per_level):
            switches.append(
                Switch(
                    node_id=next_id,
                    name=f"b{level}.{idx}",
                    tier=tier,
                    capacity=config.switch_capacity,
                )
            )
            row.append(next_id)
            next_id += 1
        switch_ids.append(row)

    # Server address digits: server id s has digit_l = (s // n^l) % n.
    # Removing digit l and collapsing yields the level-l switch index.
    for server in servers:
        sid = server.node_id
        for level in range(k + 1):
            low = sid % (n**level)
            high = sid // (n ** (level + 1))
            switch_index = high * (n**level) + low
            links.append(
                Link(
                    u=sid,
                    v=switch_ids[level][switch_index],
                    bandwidth=config.link_bandwidth,
                )
            )

    topo = Topology(
        servers=servers,
        switches=switches,
        links=links,
        name=f"bcube(n={n},k={k})",
    )
    topo.validate()
    return topo

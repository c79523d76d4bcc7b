"""ResourceManager: grants containers against resource requests (Section 6.3).

The RM owns the NodeManagers and answers ``allocate`` calls from
ApplicationMasters.  Placement policy:

* a :class:`~repro.yarnsim.request.HitResourceRequest` is granted on its
  preferred host when that node has headroom — the paper's
  ``getContainer(Hit-ResourceRequest, node)`` match — falling back to the
  closest (fewest-switches) feasible node when ``relax_locality`` allows;
* a plain wildcard request is granted heartbeat-round-robin, the Capacity
  Scheduler behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.resources import Resources
from ..topology.base import Topology
from .nm import LaunchedContainer, NodeManager
from .request import HitResourceRequest, ResourceRequest

__all__ = ["GrantedContainer", "ResourceManager"]


@dataclass(frozen=True)
class GrantedContainer:
    """The RM's reply to a satisfied request."""

    container_id: int
    hostname: str
    server_id: int
    capability: Resources


class ResourceManager:
    """Cluster-wide resource arbiter with pluggable request semantics."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self.nodes: dict[str, NodeManager] = {}
        for server in topology.servers():
            self.nodes[server.name] = NodeManager(
                server_id=server.node_id,
                hostname=server.name,
                capacity=Resources.from_tuple(server.resource_capacity),
            )
        self._heartbeat_order = sorted(self.nodes)
        self._cursor = 0
        self._next_container_id = 0
        self._applications: dict[int, str] = {}
        self._next_app_id = 0

    # ----------------------------------------------------------- applications
    def register_application(self, name: str) -> int:
        app_id = self._next_app_id
        self._next_app_id += 1
        self._applications[app_id] = name
        return app_id

    def application_name(self, app_id: int) -> str:
        return self._applications[app_id]

    # -------------------------------------------------------------- allocate
    def allocate(
        self, app_id: int, requests: list[ResourceRequest]
    ) -> list[GrantedContainer]:
        """Grant containers for a batch of requests (all-or-error).

        Raises ``RuntimeError`` when a request cannot be satisfied anywhere;
        a real RM would defer it to a later heartbeat, but for the simulation
        workloads an unsatisfiable batch is a configuration bug worth
        surfacing immediately.
        """
        if app_id not in self._applications:
            raise KeyError(f"unknown application {app_id}")
        granted: list[GrantedContainer] = []
        for request in requests:
            for _ in range(request.num_containers):
                granted.append(self._grant_one(request))
        return granted

    def _grant_one(self, request: ResourceRequest) -> GrantedContainer:
        node = self._select_node(request)
        if node is None:
            raise RuntimeError(
                f"no node can satisfy request {request.resource_name!r} "
                f"({request.capability})"
            )
        cid = self._next_container_id
        self._next_container_id += 1
        node.launch(
            LaunchedContainer(
                container_id=cid,
                capability=request.capability,
                task=str(request.task) if request.task else None,
            )
        )
        return GrantedContainer(
            container_id=cid,
            hostname=node.hostname,
            server_id=node.server_id,
            capability=request.capability,
        )

    def _select_node(self, request: ResourceRequest) -> NodeManager | None:
        if isinstance(request, HitResourceRequest) or not request.is_anywhere:
            preferred = self.nodes.get(request.resource_name)
            if preferred is None:
                raise KeyError(f"unknown host {request.resource_name!r}")
            if preferred.can_launch(request.capability):
                return preferred
            if not request.relax_locality:
                return None
            return self._closest_feasible(preferred, request.capability)
        return self._round_robin(request.capability)

    def _round_robin(self, capability: Resources) -> NodeManager | None:
        n = len(self._heartbeat_order)
        for offset in range(n):
            node = self.nodes[self._heartbeat_order[(self._cursor + offset) % n]]
            if node.can_launch(capability):
                self._cursor = (self._cursor + offset + 1) % n
                return node
        return None

    def _closest_feasible(
        self, preferred: NodeManager, capability: Resources
    ) -> NodeManager | None:
        """Fallback for a full preferred host: nearest node in switch hops."""
        dist = self.topology.hop_distances_from(preferred.server_id)
        candidates = [
            node
            for node in self.nodes.values()
            if node is not preferred and node.can_launch(capability)
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda n: (dist[n.server_id], n.hostname))

    # ------------------------------------------------------------------ misc
    def release(self, granted: GrantedContainer) -> None:
        self.nodes[granted.hostname].release(granted.container_id)

    def cluster_available(self) -> Resources:
        total = Resources.zero()
        for node in self.nodes.values():
            total = total + node.available
        return total

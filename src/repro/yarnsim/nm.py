"""NodeManager: per-server container launcher (Section 6.3).

Tracks the containers granted on one node and enforces the node's resource
capacity — the last line of defence behind the scheduler's bookkeeping, just
like the real NodeManager refuses launches that exceed its advertised
resources.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.resources import Resources

__all__ = ["LaunchedContainer", "NodeManager"]


@dataclass(frozen=True)
class LaunchedContainer:
    """A granted container running on a node."""

    container_id: int
    capability: Resources
    task: str | None = None


class NodeManager:
    """One node's manager: capacity accounting + container lifecycle."""

    def __init__(self, server_id: int, hostname: str, capacity: Resources) -> None:
        self.server_id = server_id
        self.hostname = hostname
        self.capacity = capacity
        self._running: dict[int, LaunchedContainer] = {}
        self._used = Resources.zero()

    @property
    def used(self) -> Resources:
        return self._used

    @property
    def available(self) -> Resources:
        return self.capacity - self._used

    def can_launch(self, capability: Resources) -> bool:
        return capability.fits_in(self.available)

    def launch(self, container: LaunchedContainer) -> None:
        """Start a container; raises when the node lacks headroom."""
        if container.container_id in self._running:
            raise ValueError(f"container {container.container_id} already running")
        if not container.capability.fits_in(self.available):
            raise RuntimeError(
                f"node {self.hostname}: insufficient resources for "
                f"container {container.container_id}"
            )
        self._running[container.container_id] = container
        self._used = self._used + container.capability

    def release(self, container_id: int) -> LaunchedContainer:
        """Stop a container and refund its resources."""
        container = self._running.pop(container_id)
        self._used = self._used - container.capability
        return container

    def heartbeat(self) -> dict[str, object]:
        """Node status report, as the RM would receive it."""
        return {
            "hostname": self.hostname,
            "running": sorted(self._running),
            "used": self._used.as_tuple(),
            "available": self.available.as_tuple(),
        }

    def __len__(self) -> int:
        return len(self._running)

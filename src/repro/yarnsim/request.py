"""ResourceRequest and Hit-ResourceRequest (Section 6.2).

In YARN, an ApplicationMaster asks the ResourceManager for containers via
``ResourceRequest`` objects; the request's *resource-name* scopes where the
container may land (``*`` = anywhere, a hostname = that node, a rack name =
that rack).  The paper's ``Hit-ResourceRequest`` "specif[ies] resource-name
as the preferred host for the specific task", with the preferred host read
from the ``mapred.job.topologyaware.taskdict`` class file that the offline
Hit optimisation populates.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.container import TaskRef
from ..cluster.resources import Resources

__all__ = ["ANY_HOST", "ResourceRequest", "HitResourceRequest"]

#: YARN's wildcard resource-name: the scheduler may pick any node.
ANY_HOST = "*"


@dataclass(frozen=True)
class ResourceRequest:
    """A request for one or more identical containers.

    ``resource_name`` is a hostname, a rack name, or :data:`ANY_HOST`;
    ``relax_locality`` allows the scheduler to fall back to other nodes when
    the preferred one has no headroom (YARN's default behaviour).
    """

    priority: int
    capability: Resources
    num_containers: int = 1
    resource_name: str = ANY_HOST
    relax_locality: bool = True
    task: TaskRef | None = None

    def __post_init__(self) -> None:
        if self.num_containers < 1:
            raise ValueError("num_containers must be >= 1")
        if self.priority < 0:
            raise ValueError("priority must be >= 0")

    @property
    def is_anywhere(self) -> bool:
        return self.resource_name == ANY_HOST


@dataclass(frozen=True)
class HitResourceRequest(ResourceRequest):
    """A topology-aware request: the preferred host comes from the Hit
    optimisation's task dictionary (Section 6.2).

    Semantically a :class:`ResourceRequest` whose ``resource_name`` is always
    a concrete hostname; the separate type lets the ResourceManager (and
    tests) distinguish requests that carry placement intent.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.resource_name == ANY_HOST:
            raise ValueError(
                "HitResourceRequest requires a concrete preferred host"
            )

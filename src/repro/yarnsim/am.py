"""ApplicationMaster: per-job request generation (Section 6.2-6.3).

The AM turns a job's task list into resource requests.  With a
:class:`~repro.yarnsim.topologyaware.TopologyAwareTaskDict` attached, it
emits :class:`~repro.yarnsim.request.HitResourceRequest` objects whose
resource-name is each task's preferred host (the paper's online phase);
without one, it emits plain wildcard requests (stock behaviour).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster.container import TaskKind, TaskRef
from ..cluster.resources import Resources
from ..mapreduce.job import JobSpec
from .request import ANY_HOST, HitResourceRequest, ResourceRequest
from .rm import GrantedContainer, ResourceManager
from .topologyaware import TopologyAwareTaskDict

__all__ = ["ApplicationMaster"]

#: YARN priorities: maps before reduces (lower value = higher priority).
_MAP_PRIORITY = 5
_REDUCE_PRIORITY = 10


@dataclass
class ApplicationMaster:
    """Drives one job's container acquisition against a ResourceManager."""

    rm: ResourceManager
    job: JobSpec
    container_capability: Resources = field(
        default_factory=lambda: Resources(1.0, 0.0)
    )
    taskdict: TopologyAwareTaskDict | None = None
    app_id: int = -1
    granted: dict[str, GrantedContainer] = field(default_factory=dict)

    def register(self) -> int:
        self.app_id = self.rm.register_application(self.job.name)
        return self.app_id

    # --------------------------------------------------------------- requests
    def build_requests(self) -> list[ResourceRequest]:
        """One request per task, maps first (YARN priority order)."""
        requests: list[ResourceRequest] = []
        for kind, count, priority in (
            (TaskKind.MAP, self.job.num_maps, _MAP_PRIORITY),
            (TaskKind.REDUCE, self.job.num_reduces, _REDUCE_PRIORITY),
        ):
            for index in range(count):
                task = TaskRef(self.job.job_id, kind, index)
                requests.append(self._request_for(task, priority))
        return requests

    def _request_for(self, task: TaskRef, priority: int) -> ResourceRequest:
        preferred = (
            self.taskdict.preferred_host(task) if self.taskdict else None
        )
        if preferred is not None:
            return HitResourceRequest(
                priority=priority,
                capability=self.container_capability,
                resource_name=preferred,
                task=task,
            )
        return ResourceRequest(
            priority=priority,
            capability=self.container_capability,
            resource_name=ANY_HOST,
            task=task,
        )

    # ----------------------------------------------------------------- driving
    def acquire_containers(self) -> dict[str, GrantedContainer]:
        """Register (if needed), request, and record the granted containers.

        Returns ``{str(task): granted}`` for every task of the job.
        """
        if self.app_id < 0:
            self.register()
        requests = self.build_requests()
        granted = self.rm.allocate(self.app_id, requests)
        for request, grant in zip(requests, granted):
            assert request.task is not None
            self.granted[str(request.task)] = grant
        return dict(self.granted)

    def release_all(self) -> None:
        for grant in self.granted.values():
            self.rm.release(grant)
        self.granted.clear()

"""Measurement plane of the simulator.

Collects exactly the quantities the paper's evaluation section reports:

* per-job completion times (Figure 6a's CDF),
* per-task Map / Reduce execution times (Figures 6b/6c),
* per-flow route length in switch hops and packet-delay estimate
  (Figures 7a/7b),
* shuffle traffic volume and shuffle *cost* in size x switch-hops units —
  the GB.T currency of the Section 2.3 case study (Figures 8 and 10),
* remote-Map traffic volume (Figure 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "JobRecord",
    "FlowRecord",
    "RejectionRecord",
    "TaskRecord",
    "MetricsCollector",
    "jain_fairness",
]


def jain_fairness(values) -> float:
    """Jain's fairness index ``(sum x)^2 / (n * sum x^2)`` over ``values``.

    1.0 = perfectly even, ``1/n`` = one value dominates.  Defined as 1.0
    for empty input or an all-zero vector (nothing to be unfair about), so
    report code can call it unconditionally.
    """
    x = np.asarray(list(values), dtype=float)
    if x.size == 0:
        return 1.0
    if np.any(x < 0):
        raise ValueError("fairness index is defined for non-negative values")
    square_sum = float(np.sum(x * x))
    if square_sum == 0.0:
        return 1.0
    return float(np.sum(x)) ** 2 / (x.size * square_sum)


@dataclass
class TaskRecord:
    """One finished task attempt."""

    job_id: int
    kind: str  # "map" | "reduce"
    index: int
    start: float
    finish: float
    #: Server that hosted the committing attempt (-1 when unknown).
    server: int = -1
    #: Attempt number of the committing execution (0 = first attempt;
    #: higher values mean failure-induced re-executions happened).
    attempt: int = 0
    #: True when a speculative backup attempt committed instead of the
    #: original (maps only).
    speculative: bool = False
    #: Simulated time the final attempt's compute started.  For reduces this
    #: is when the last inbound shuffle byte arrived (the compute phase's
    #: start); for maps it equals ``start``.  -1.0 when never scheduled.
    compute_start: float = -1.0

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass
class FlowRecord:
    """One completed shuffle flow."""

    flow_id: int
    job_id: int
    size: float
    start: float
    finish: float
    num_switches: int
    delay_us: float
    #: Endpoints in task-index space (-1 when the producer is unknown).
    map_index: int = -1
    reduce_index: int = -1

    @property
    def duration(self) -> float:
        return self.finish - self.start

    @property
    def cost(self) -> float:
        """Size x switch-hops: the paper's GB.T shuffle-cost unit."""
        return self.size * self.num_switches


@dataclass
class JobRecord:
    """One finished job."""

    job_id: int
    name: str
    shuffle_class: str
    submit_time: float
    start_time: float
    finish_time: float
    shuffle_volume: float
    remote_map_traffic: float
    #: Owning tenant (0 for single-tenant batch workloads).
    tenant: int = 0

    @property
    def completion_time(self) -> float:
        """JCT measured from *arrival* (submission), so it includes the
        admission-queue wait — the open-loop definition, not time since
        batch start."""
        return self.finish_time - self.submit_time

    @property
    def wait_time(self) -> float:
        """Time spent queued between arrival and admission."""
        return self.start_time - self.submit_time

    @property
    def service_time(self) -> float:
        """Time from admission to completion (the in-cluster portion)."""
        return self.finish_time - self.start_time

    @property
    def slowdown(self) -> float:
        """Queueing slowdown: arrival-relative JCT over service time.

        ``1.0`` means the job never waited; larger values measure how much
        the admission queue stretched the job.  A zero-duration service
        (degenerate instant job) is defined as slowdown ``1.0`` so the
        metric is always finite and NaN-free.
        """
        service = self.service_time
        if service <= 0.0:
            return 1.0
        return self.completion_time / service


@dataclass
class RejectionRecord:
    """One job explicitly rejected by the admission controller.

    ``reason`` is a machine-readable reason code (see
    :mod:`repro.workload.admission`); rejected jobs never produce a
    :class:`JobRecord`, but they stay accountable through these records —
    the overload contract's "no silent drops" leg.
    """

    job_id: int
    name: str
    tenant: int
    time: float
    reason: str


class MetricsCollector:
    """Accumulates records during a run and answers aggregate queries."""

    def __init__(self) -> None:
        self.jobs: list[JobRecord] = []
        self.tasks: list[TaskRecord] = []
        self.flows: list[FlowRecord] = []
        self.rejections: list[RejectionRecord] = []

    # -------------------------------------------------------------- recording
    def record_job(self, record: JobRecord) -> None:
        self.jobs.append(record)

    def record_task(self, record: TaskRecord) -> None:
        self.tasks.append(record)

    def record_flow(self, record: FlowRecord) -> None:
        self.flows.append(record)

    def record_rejection(self, record: RejectionRecord) -> None:
        self.rejections.append(record)

    # ------------------------------------------------------------- aggregates
    def job_completion_times(self) -> np.ndarray:
        return np.array([j.completion_time for j in self.jobs])

    def task_durations(self, kind: str) -> np.ndarray:
        return np.array([t.duration for t in self.tasks if t.kind == kind])

    def mean_jct(self) -> float:
        times = self.job_completion_times()
        return float(times.mean()) if times.size else 0.0

    def jct_percentile(self, q: float) -> float:
        """JCT percentile ``q`` in [0, 100]; 0.0 on an empty record set.

        A single-sample distribution returns that sample for every ``q`` —
        never NaN — so report code can call this unconditionally.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        times = self.job_completion_times()
        return float(np.percentile(times, q)) if times.size else 0.0

    def p99_jct(self) -> float:
        """Tail (99th percentile) arrival-relative JCT; 0.0 with no jobs."""
        return self.jct_percentile(99.0)

    # ------------------------------------------- open-loop (online) aggregates
    def slowdowns(self) -> np.ndarray:
        """Per-job queueing slowdowns (arrival-relative JCT / service)."""
        return np.array([j.slowdown for j in self.jobs])

    def mean_slowdown(self) -> float:
        values = self.slowdowns()
        return float(values.mean()) if values.size else 0.0

    def slowdown_percentile(self, q: float) -> float:
        """Slowdown percentile ``q`` in [0, 100]; 0.0 on an empty set."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        values = self.slowdowns()
        return float(np.percentile(values, q)) if values.size else 0.0

    def mean_wait(self) -> float:
        """Mean admission-queue wait over completed jobs; 0.0 when none."""
        if not self.jobs:
            return 0.0
        return float(np.mean([j.wait_time for j in self.jobs]))

    def tenants(self) -> list[int]:
        """Sorted tenant ids present in completed or rejected records."""
        seen = {j.tenant for j in self.jobs}
        seen.update(r.tenant for r in self.rejections)
        return sorted(seen)

    def per_tenant_mean_slowdown(self) -> dict[int, float]:
        """Mean slowdown per tenant, over tenants that completed jobs."""
        by_tenant: dict[int, list[float]] = {}
        for job in self.jobs:
            by_tenant.setdefault(job.tenant, []).append(job.slowdown)
        return {
            tenant: float(np.mean(values))
            for tenant, values in sorted(by_tenant.items())
        }

    def tenant_fairness(self) -> float:
        """Jain fairness of per-tenant *mean slowdown* (1.0 = even stretch).

        Slowdown, not raw JCT, so tenants submitting bigger jobs are not
        counted as "unfairly" treated; 1.0 when at most one tenant ran.
        """
        return jain_fairness(self.per_tenant_mean_slowdown().values())

    def rejection_count(self) -> dict[str, int]:
        """Rejections grouped by reason code (sorted, deterministic)."""
        counts: dict[str, int] = {}
        for record in self.rejections:
            counts[record.reason] = counts.get(record.reason, 0) + 1
        return dict(sorted(counts.items()))

    def mean_task_duration(self, kind: str) -> float:
        """Mean duration of finished ``kind`` tasks; 0.0 when none ran."""
        durations = self.task_durations(kind)
        return float(durations.mean()) if durations.size else 0.0

    def average_route_length(self) -> float:
        """Mean switch count over *networked* shuffle flows (Figure 7a).

        Co-located (zero-switch) flows are included — a scheduler that
        co-locates endpoints legitimately shortens the average route.
        """
        if not self.flows:
            return 0.0
        return float(np.mean([f.num_switches for f in self.flows]))

    def average_shuffle_delay_us(self) -> float:
        """Mean packet-delay estimate over networked flows (Figure 7b)."""
        networked = [f.delay_us for f in self.flows if f.num_switches > 0]
        return float(np.mean(networked)) if networked else 0.0

    def average_flow_duration(self) -> float:
        networked = [f.duration for f in self.flows if f.num_switches > 0]
        return float(np.mean(networked)) if networked else 0.0

    def total_shuffle_cost(self) -> float:
        """Sum of size x switch-hops over all flows (GB.T units)."""
        return float(sum(f.cost for f in self.flows))

    def total_shuffle_volume(self) -> float:
        return float(sum(f.size for f in self.flows))

    def total_remote_map_traffic(self) -> float:
        return float(sum(j.remote_map_traffic for j in self.jobs))

    def throughput(self) -> float:
        """Shuffle bytes delivered per unit makespan.

        0.0 when no flows ran *or* every flow was an instant local delivery
        (zero makespan) — finite and NaN-free in both degenerate cases.
        """
        if not self.flows:
            return 0.0
        makespan = max(f.finish for f in self.flows) - min(
            f.start for f in self.flows
        )
        if makespan <= 0:
            return 0.0
        return self.total_shuffle_volume() / makespan

    def makespan(self) -> float:
        if not self.jobs:
            return 0.0
        return max(j.finish_time for j in self.jobs) - min(
            j.submit_time for j in self.jobs
        )

    def online_summary(self) -> dict[str, float]:
        """Open-loop aggregates for the online workload plane.

        Kept separate from :meth:`summary` so batch-mode artifacts (sweep
        cells, bench baselines, chaos fingerprints) stay byte-identical.
        """
        return {
            "jobs": float(len(self.jobs)),
            "rejected": float(len(self.rejections)),
            "mean_jct": self.mean_jct(),
            "p99_jct": self.p99_jct(),
            "mean_slowdown": self.mean_slowdown(),
            "p99_slowdown": self.slowdown_percentile(99.0),
            "mean_wait": self.mean_wait(),
            "tenant_fairness": self.tenant_fairness(),
        }

    def summary(self) -> dict[str, float]:
        """One-line dictionary for experiment tables."""
        return {
            "jobs": float(len(self.jobs)),
            "mean_jct": self.mean_jct(),
            "avg_route_hops": self.average_route_length(),
            "avg_shuffle_delay_us": self.average_shuffle_delay_us(),
            "avg_flow_duration": self.average_flow_duration(),
            "shuffle_cost": self.total_shuffle_cost(),
            "shuffle_volume": self.total_shuffle_volume(),
            "remote_map_traffic": self.total_remote_map_traffic(),
            "makespan": self.makespan(),
        }

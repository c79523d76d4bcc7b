"""Overload campaigns: open-loop arrivals graded against the overload contract.

The batch harnesses answer *how fast does a fixed job set finish*; this one
answers *what happens when jobs keep coming*.  A campaign sweeps an
arrival-rate multiplier through and past the cluster's estimated saturation
point, for each (scheduler, topology) pair, with seeded multi-tenant arrival
streams flowing through the admission plane (:mod:`repro.workload`).  Every
cell is machine-checked against the **overload contract**:

* **exhaustive accounting** — every submitted job is exactly one of
  completed / still queued at end of run / rejected with a reason code;
  ``completed + rejected + queued == submitted``, per tenant and globally;
* **no silent drops** — the arrival stream's length must match the
  admission layer's submitted count, and every rejection carries a record;
* **bounded queues** — under the ``queue-bound`` policy no tenant queue
  ever exceeds its bound (peak, not just final, length);
* **liveness** — a watchdog (shared with the chaos harness) flags sim-time
  stalls independently of the engine's ``max_events`` guard;
* **determinism** — rerunning a cell from its seed is byte-identical
  (same fingerprint over summary + counters + event count).

Anything outside those buckets is a **contract violation** and is reported
as such; the harness never swallows one.  Per cell the report carries the
overload metrics the evaluation reads: mean/p99 job completion time,
mean/p99 slowdown, mean wait, Jain fairness across tenants, and the
rejection breakdown.

Like :mod:`repro.faults.chaos`, this module is not imported from the
experiments package ``__init__`` — it pulls in the whole engine.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable

from ..analysis.report import canonical_digest, canonical_json
from ..faults.chaos import CHAOS_TOPOLOGIES, WatchdogSimulator, graded_trial
from ..mapreduce.job import JobSpec
from ..obs import InvariantChecker, ProvenanceConfig, observe
from ..schedulers import make_scheduler
from ..simulator import MapReduceSimulator, MetricsCollector, SimulationConfig
from ..topology.base import Topology
from ..workload import (
    ADMISSION_POLICIES,
    ARRIVAL_PROFILES,
    AdmissionConfig,
    ArrivalConfig,
    TenantSpec,
    estimate_saturation_rate,
    generate_arrivals,
)

__all__ = [
    "ONLINE_TOPOLOGIES",
    "OnlineCellResult",
    "OnlineConfig",
    "OnlineReport",
    "build_arrival_plan",
    "build_online_simulator",
    "graded_online_run",
    "online_outcome",
    "overload_campaign",
    "run_online_cell",
]

#: Named fabrics the campaign cycles through (same redundancy-2 trees as the
#: chaos harness, so overload and fault campaigns are directly comparable).
ONLINE_TOPOLOGIES: dict[str, Callable[[], Topology]] = dict(CHAOS_TOPOLOGIES)


@dataclass(frozen=True)
class OnlineConfig:
    """Knobs of one overload campaign."""

    #: Arrival-rate multipliers, in units of the *estimated* saturation
    #: rate — 1.0 offers roughly what the cluster can serve, 2.0 is
    #: guaranteed overload.
    multipliers: tuple[float, ...] = (0.5, 1.0, 2.0)
    seed: int = 0
    schedulers: tuple[str, ...] = ("capacity", "hit")
    topologies: tuple[str, ...] = ("small", "deep")
    tenants: int = 2
    profile: str = "poisson"
    policy: str = "queue-bound"
    queue_bound: int = 8
    #: Submission window (sim time); the cluster then drains its backlog.
    duration: float = 3.0
    min_size: float = 2.0
    max_size: float = 6.0
    #: Consecutive same-timestamp events tolerated before the liveness
    #: watchdog declares a sim-time stall.
    stall_limit: int = 50_000
    #: Re-run every cell from its seed and compare fingerprints.
    rerun: bool = True

    def __post_init__(self) -> None:
        if not self.multipliers or any(m <= 0 for m in self.multipliers):
            raise ValueError("multipliers must be positive and non-empty")
        if not self.schedulers or not self.topologies:
            raise ValueError("need at least one scheduler and one topology")
        unknown = [t for t in self.topologies if t not in ONLINE_TOPOLOGIES]
        if unknown:
            raise ValueError(
                f"unknown online topologies {unknown}; "
                f"known: {sorted(ONLINE_TOPOLOGIES)}"
            )
        if self.tenants < 1:
            raise ValueError("need at least one tenant")
        if self.profile not in ARRIVAL_PROFILES:
            raise ValueError(f"unknown profile {self.profile!r}")
        if self.policy not in ADMISSION_POLICIES:
            raise ValueError(f"unknown admission policy {self.policy!r}")

    def to_dict(self) -> dict:
        return {
            "multipliers": list(self.multipliers),
            "seed": self.seed,
            "schedulers": list(self.schedulers),
            "topologies": list(self.topologies),
            "tenants": self.tenants,
            "profile": self.profile,
            "policy": self.policy,
            "queue_bound": self.queue_bound,
            "duration": self.duration,
            "min_size": self.min_size,
            "max_size": self.max_size,
            "stall_limit": self.stall_limit,
            "rerun": self.rerun,
        }


@dataclass(frozen=True)
class OnlineCellResult:
    """Outcome of one graded overload cell (after its optional rerun)."""

    cell: int
    seed: int
    scheduler: str
    topology: str
    multiplier: float
    submitted: int
    #: ``"ok"`` or ``"failed"`` (an escape classified by the grader).
    status: str
    reason: str
    #: sha256 over the canonical JSON of (summary, counters, events).
    fingerprint: str
    summary: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    #: Overload-contract violations — empty on a passing cell.
    violations: tuple[str, ...] = ()
    #: Decision-provenance digest from a provenance-enabled rerun;
    #: attached only to failed/violating cells.
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        body = {
            "cell": self.cell,
            "seed": self.seed,
            "scheduler": self.scheduler,
            "topology": self.topology,
            "multiplier": self.multiplier,
            "submitted": self.submitted,
            "status": self.status,
            "reason": self.reason,
            "fingerprint": self.fingerprint,
            "summary": {k: self.summary[k] for k in sorted(self.summary)},
            "counters": dict(sorted(self.counters.items())),
            "violations": list(self.violations),
        }
        if self.provenance:
            body["provenance"] = self.provenance
        return body


@dataclass
class OnlineReport:
    """A full campaign: config + per-cell results, canonically hashable."""

    config: OnlineConfig
    cells: list[OnlineCellResult] = field(default_factory=list)

    @property
    def violations(self) -> list[OnlineCellResult]:
        return [c for c in self.cells if c.violations]

    def summary(self) -> dict:
        return {
            "cells": len(self.cells),
            "ok": sum(1 for c in self.cells if c.status == "ok"),
            "submitted": sum(c.submitted for c in self.cells),
            "completed": sum(
                c.counters.get("online.completed", 0) for c in self.cells
            ),
            "rejected": sum(
                c.counters.get("admission.rejected", 0) for c in self.cells
            ),
            "queued": sum(
                c.counters.get("admission.queued", 0) for c in self.cells
            ),
            "violations": sum(len(c.violations) for c in self.cells),
        }

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "summary": self.summary(),
            "cells": [c.to_dict() for c in self.cells],
        }

    def canonical(self) -> str:
        """Canonical JSON body — byte-identical across reruns of the same
        campaign (the contract the CI smoke compares with ``cmp``)."""
        return canonical_json(self.to_dict())


# ------------------------------------------------------------- plan building
def _topology_slots(topology: Topology, memory_per_container: float) -> int:
    """Container slots the fabric offers (memory being the binding axis)."""
    total = sum(
        float(s.resource_capacity[0]) for s in topology.servers()
    )
    return max(1, int(total / max(memory_per_container, 1e-9)))


def build_arrival_plan(
    topology: Topology,
    *,
    multiplier: float,
    tenants: int = 2,
    profile: str = "poisson",
    duration: float = 3.0,
    min_size: float = 2.0,
    max_size: float = 6.0,
    memory_per_container: float = 1.0,
) -> ArrivalConfig:
    """Arrival plan whose aggregate nominal rate is the fabric's estimated
    saturation rate — ``multiplier`` then scales it through/past the knee.

    The rate is split evenly across tenants; tenant weights stay 1.0 (the
    fairness the campaign measures is the admission layer's doing, not the
    offered load's).
    """
    specs = tuple(
        TenantSpec(
            tenant_id=i,
            rate=1.0,  # placeholder, replaced below once saturation is known
            input_size_range=(min_size, max_size),
        )
        for i in range(tenants)
    )
    saturation = estimate_saturation_rate(
        _topology_slots(topology, memory_per_container), specs
    )
    specs = tuple(
        dataclasses.replace(s, rate=saturation / tenants) for s in specs
    )
    return ArrivalConfig(
        tenants=specs,
        profile=profile,
        duration=duration,
        rate_multiplier=multiplier,
    )


def build_online_simulator(
    topology_factory: Callable[[], Topology],
    scheduler: Any,
    config: SimulationConfig,
    *,
    seed: int,
    multiplier: float = 1.5,
    tenants: int = 2,
    profile: str = "poisson",
    policy: str = "queue-bound",
    queue_bound: int = 8,
    duration: float = 3.0,
    min_size: float = 2.0,
    max_size: float = 6.0,
    stall_limit: int = 50_000,
) -> tuple[WatchdogSimulator, list[JobSpec]]:
    """A fresh watchdog engine fed seeded open-loop arrivals at
    ``multiplier`` times the fabric's estimated saturation rate.

    ``config`` is the base simulation config; the admission plane and seed
    are set here (``queue_bound`` applies only to the ``queue-bound``
    policy).  Returns ``(simulator, jobs)``.
    """
    plan = build_arrival_plan(
        topology_factory(),
        multiplier=multiplier,
        tenants=tenants,
        profile=profile,
        duration=duration,
        min_size=min_size,
        max_size=max_size,
        memory_per_container=config.container_demand.memory,
    )
    jobs = generate_arrivals(plan, seed=seed)
    admission = AdmissionConfig(
        policy=policy,
        queue_bound=queue_bound if policy == "queue-bound" else None,
    )
    sim = WatchdogSimulator(
        topology_factory(),
        scheduler,
        jobs,
        dataclasses.replace(config, seed=seed, admission=admission),
        stall_limit=stall_limit,
    )
    return sim, jobs


def online_outcome(
    sim: MapReduceSimulator, metrics: MetricsCollector
) -> tuple[dict[str, float], dict[str, int], str]:
    """``(summary, counters, fingerprint)`` of a finished online run.

    The counters are the admission plane's plus ``online.completed``; the
    fingerprint (the rerun-compare token) is the canonical digest of both
    and the event count.
    """
    assert sim.admission is not None
    counters = {k: int(v) for k, v in sim.admission.counters().items()}
    counters["online.completed"] = len(metrics.jobs)
    summary = {k: float(v) for k, v in metrics.online_summary().items()}
    fingerprint = canonical_digest(
        {
            "summary": summary,
            "counters": counters,
            "events": sim.events_processed,
        }
    )
    return summary, counters, fingerprint


# ------------------------------------------------------------------- grading
def graded_online_run(
    build: Callable[[], tuple[MapReduceSimulator, list[JobSpec]]],
) -> tuple[str, str, str, dict[str, float], dict[str, int], list[str]]:
    """One contract-graded engine pass over an open-loop workload.

    ``build`` returns a fresh ``(simulator, jobs)`` — everything must be
    rebuilt inside it (calling ``graded_online_run(build)`` twice is the
    rerun-determinism probe).  The simulator must carry an admission plane.
    Returns ``(status, reason, fingerprint, summary, counters, violations)``.
    """
    sim, jobs = build()
    if sim.admission is None:
        raise ValueError("graded_online_run needs an admission-plane config")
    violations: list[str] = []
    try:
        with observe(checker=InvariantChecker(mode="raise")):
            metrics = sim.run()
    except Exception as exc:  # noqa: BLE001 — every escape is classified
        reason = f"{type(exc).__name__}: {exc}"
        if "sim-time stall" in reason:
            violations.append(f"liveness: {reason}")
        else:
            violations.append(f"unaccounted failure: {reason}")
        counters = {
            k: int(v) for k, v in sim.admission.counters().items()
        }
        return (
            "failed",
            reason,
            canonical_digest({"error": reason, "counters": counters}),
            {},
            counters,
            violations,
        )
    summary, counters, fingerprint = online_outcome(sim, metrics)
    completed = counters["online.completed"]
    submitted = counters.get("admission.submitted", 0)
    rejected = counters.get("admission.rejected", 0)
    queued = counters.get("admission.queued", 0)
    if submitted != len(jobs):
        violations.append(
            f"arrival loss: {len(jobs)} jobs generated, "
            f"{submitted} reached admission"
        )
    if completed + rejected + queued != submitted:
        violations.append(
            "accounting hole: "
            f"completed({completed}) + rejected({rejected}) + "
            f"queued({queued}) != submitted({submitted})"
        )
    if len(metrics.rejections) != rejected:
        violations.append(
            f"silent rejection: {rejected} counted, "
            f"{len(metrics.rejections)} carry records"
        )
    admission_cfg = sim.admission.config
    if admission_cfg.policy == "queue-bound":
        bound = admission_cfg.queue_bound
        peak = sim.admission.max_queue_len()
        if bound is not None and peak > bound:
            violations.append(
                f"unbounded queue: peak tenant queue length {peak} "
                f"exceeds bound {bound}"
            )
    return "ok", "", fingerprint, summary, counters, violations


# ---------------------------------------------------------------- cell runner
def run_online_cell(
    topology_factory: Callable[[], Topology],
    scheduler_factory: Callable[[], Any],
    config: SimulationConfig,
    *,
    seed: int,
    rerun: bool = True,
    **knobs: Any,
) -> dict[str, Any]:
    """One overload arm as a self-contained cell: seeded arrivals graded
    against the overload contract (plus an optional byte-identity rerun).

    ``knobs`` are :func:`build_online_simulator`'s arrival, admission and
    watchdog keywords.  The factories must return *fresh* objects on every
    call — the cell, its determinism rerun and its provenance pass each
    rebuild the whole stack, preserving the sweep's cell-isolation
    contract.  Returns plain JSON-serialisable data.
    """

    def make_build(provenance: ProvenanceConfig | None):
        return lambda: build_online_simulator(
            topology_factory,
            scheduler_factory(),
            dataclasses.replace(config, provenance=provenance),
            seed=seed,
            **knobs,
        )

    status, reason, fingerprint, summary, counters, violations, provenance = (
        graded_trial(make_build, graded_online_run, rerun=rerun)
    )
    result = {
        "summary": {k: float(v) for k, v in sorted(summary.items())},
        "counters": dict(sorted(counters.items())),
        "status": status,
        "reason": reason,
        "fingerprint": fingerprint,
        "violations": violations,
    }
    if provenance:
        result["provenance"] = provenance
    return result


# ------------------------------------------------------------------ campaign
def overload_campaign(config: OnlineConfig | None = None) -> OnlineReport:
    """Sweep arrival-rate multipliers over the schedulers x topologies grid.

    Cell *i* uses seed ``config.seed + i``; the grid enumerates
    ``multiplier x topology x scheduler`` in declaration order, so a report
    reads as a rate sweep with scheduler/topology columns.
    """
    config = config or OnlineConfig()
    report = OnlineReport(config=config)
    sim_config = SimulationConfig(map_slots_per_job=16)
    index = 0
    for multiplier in config.multipliers:
        for topology in config.topologies:
            for scheduler in config.schedulers:
                seed = config.seed + index
                result = run_online_cell(
                    ONLINE_TOPOLOGIES[topology],
                    lambda scheduler=scheduler, seed=seed: make_scheduler(
                        scheduler, seed=seed
                    ),
                    sim_config,
                    seed=seed,
                    multiplier=multiplier,
                    tenants=config.tenants,
                    profile=config.profile,
                    policy=config.policy,
                    queue_bound=config.queue_bound,
                    duration=config.duration,
                    min_size=config.min_size,
                    max_size=config.max_size,
                    stall_limit=config.stall_limit,
                    rerun=config.rerun,
                )
                report.cells.append(
                    OnlineCellResult(
                        cell=index,
                        seed=seed,
                        scheduler=scheduler,
                        topology=topology,
                        multiplier=multiplier,
                        submitted=result["counters"].get(
                            "admission.submitted", 0
                        ),
                        status=result["status"],
                        reason=result["reason"],
                        fingerprint=result["fingerprint"],
                        summary=result["summary"],
                        counters=result["counters"],
                        violations=tuple(result["violations"]),
                        provenance=result.get("provenance", {}),
                    )
                )
                index += 1
    return report

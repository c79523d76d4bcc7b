"""Randomized chaos harness enforcing the survivability contract.

A *chaos run* drives many seeded randomized fault timelines — correlated
failure domains, switch/server crashes, link failures and degradations,
optionally fabric partitions — through the full engine, across a grid of
schedulers × topologies, and machine-checks the **survivability contract**
on every trial:

* **no silent loss** — every admitted job either completes or the run is
  accounted failed with an explicit reason (``exceeded max_task_retries``);
  a completed run must report exactly one record per submitted job;
* **retry budgets respected** — no task consumes more failure re-executions
  than ``max_task_retries``;
* **routing safety** — no flow ever traverses a failed switch or a dead
  (failed / degraded-to-zero) link; checked continuously by the engine's
  ``assert_path_clear`` guard on every install and the observation layer's
  path-liveness invariant on every clock advance (``raise`` mode), both
  asking the policy controller, the one owner of switch and link liveness;
* **no parked leaks** — a completed run leaves no flow parked forever;
* **determinism** — rerunning a trial from its seed is byte-identical
  (same fingerprint, or the same failure reason);
* **liveness** — a watchdog flags sim-time stalls (unbounded event churn at
  one timestamp) independently of the engine's global ``max_events`` guard.

Anything outside those buckets — an invariant error, an unfinished job at
queue exhaustion, a livelock, a stall — is a **contract violation** and is
reported as such; the harness never swallows one.

This module deliberately is *not* imported from :mod:`repro.faults`'s
package ``__init__`` — it pulls in the whole engine, which the spec/injector
layers must not depend on.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..analysis.report import canonical_digest, canonical_json
from ..mapreduce import WorkloadGenerator
from ..obs import (
    InvariantChecker,
    ProvenanceConfig,
    decision_digest,
    observe,
)
from ..schedulers import make_scheduler
from ..simulator import MapReduceSimulator, SimulationConfig
from ..topology.base import Topology
from ..topology.tree import TreeConfig, build_tree
from .spec import FaultSpec, generate_timeline

__all__ = [
    "CHAOS_TOPOLOGIES",
    "ChaosConfig",
    "ChaosReport",
    "ChaosTrialResult",
    "WatchdogSimulator",
    "chaos_trial",
    "graded_run",
    "graded_trial",
    "run_chaos",
    "sample_chaos_timeline",
]

#: Named fabrics the harness cycles through.  Both are redundancy-2 trees —
#: single-element outages never partition them, so partition trials exercise
#: the ``allow_partition`` path of the timeline sampler rather than tripping
#: over an accidentally fragile fabric.
CHAOS_TOPOLOGIES: dict[str, Callable[[], Topology]] = {
    "small": lambda: build_tree(TreeConfig(depth=2, fanout=4, redundancy=2)),
    "deep": lambda: build_tree(TreeConfig(depth=3, fanout=2, redundancy=2)),
}


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs of one chaos campaign."""

    trials: int = 50
    seed: int = 0
    schedulers: tuple[str, ...] = ("capacity", "hit")
    topologies: tuple[str, ...] = ("small", "deep")
    jobs_per_trial: int = 3
    horizon: float = 4.0
    max_task_retries: int = 8
    #: Every ``partition_every``-th trial samples with ``allow_partition=True``
    #: (0 disables partition trials entirely).
    partition_every: int = 4
    #: Consecutive same-timestamp events tolerated before the liveness
    #: watchdog declares a sim-time stall.
    stall_limit: int = 20_000
    #: Re-run every trial from its seed and compare fingerprints.
    rerun: bool = True

    def __post_init__(self) -> None:
        if self.trials <= 0:
            raise ValueError(f"trials must be positive, got {self.trials}")
        if not self.schedulers or not self.topologies:
            raise ValueError("need at least one scheduler and one topology")
        unknown = [t for t in self.topologies if t not in CHAOS_TOPOLOGIES]
        if unknown:
            raise ValueError(
                f"unknown chaos topologies {unknown}; "
                f"known: {sorted(CHAOS_TOPOLOGIES)}"
            )

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "schedulers": list(self.schedulers),
            "topologies": list(self.topologies),
            "jobs_per_trial": self.jobs_per_trial,
            "horizon": self.horizon,
            "max_task_retries": self.max_task_retries,
            "partition_every": self.partition_every,
            "stall_limit": self.stall_limit,
            "rerun": self.rerun,
        }


@dataclass(frozen=True)
class ChaosTrialResult:
    """Outcome of one seeded trial (after its optional rerun compare)."""

    trial: int
    seed: int
    scheduler: str
    topology: str
    allow_partition: bool
    num_specs: int
    #: ``"ok"`` (all jobs completed) or ``"failed"`` (accounted failure —
    #: the run aborted with an explicit retry-budget reason).
    status: str
    #: The accounted-failure reason; empty for ``"ok"`` runs.
    reason: str
    #: sha256 over the canonical JSON of (summary, counters, events).
    fingerprint: str
    counters: dict[str, float] = field(default_factory=dict)
    #: Survivability-contract violations — empty on a passing trial.
    violations: tuple[str, ...] = ()
    #: Decision-provenance digest (fingerprint + kind:reason tallies) from
    #: a provenance-enabled rerun; attached only to failed/violating
    #: trials so they ship their own explanation.
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        body = {
            "trial": self.trial,
            "seed": self.seed,
            "scheduler": self.scheduler,
            "topology": self.topology,
            "allow_partition": self.allow_partition,
            "num_specs": self.num_specs,
            "status": self.status,
            "reason": self.reason,
            "fingerprint": self.fingerprint,
            "counters": dict(sorted(self.counters.items())),
            "violations": list(self.violations),
        }
        if self.provenance:
            body["provenance"] = self.provenance
        return body


@dataclass
class ChaosReport:
    """A full campaign: config + per-trial results, canonically hashable."""

    config: ChaosConfig
    trials: list[ChaosTrialResult] = field(default_factory=list)

    @property
    def violations(self) -> list[ChaosTrialResult]:
        return [t for t in self.trials if t.violations]

    def summary(self) -> dict:
        return {
            "trials": len(self.trials),
            "ok": sum(1 for t in self.trials if t.status == "ok"),
            # A failure that broke the contract is counted under
            # ``violations``, not as accounted.
            "failed_accounted": sum(
                1
                for t in self.trials
                if t.status == "failed" and not t.violations
            ),
            "violations": sum(len(t.violations) for t in self.trials),
        }

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "summary": self.summary(),
            "trials": [t.to_dict() for t in self.trials],
        }

    def canonical(self) -> str:
        """Canonical JSON body — byte-identical across reruns of the same
        campaign (the contract the CI smoke compares with ``cmp``)."""
        return canonical_json(self.to_dict())


class WatchdogSimulator(MapReduceSimulator):
    """Engine with a liveness watchdog layered on the dispatch loop.

    The engine's ``max_events`` cap catches global runaway; the watchdog
    catches the sharper failure mode where simulated time stops advancing —
    e.g. a retry loop rescheduling at zero delay.  Read-only: a watchdog
    that never fires leaves the run byte-identical to the plain engine.
    Shared by the chaos harness and the overload campaigns
    (:mod:`repro.experiments.online`), whose liveness legs are the same
    contract.
    """

    def __init__(self, *args, stall_limit: int = 20_000, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._stall_limit = int(stall_limit)
        self._stall_time: float | None = None
        self._stall_count = 0

    def _dispatch(self, event) -> None:
        if event.time == self._stall_time:
            self._stall_count += 1
            if self._stall_count > self._stall_limit:
                raise RuntimeError(
                    f"chaos watchdog: {self._stall_count} consecutive events "
                    f"at sim time {event.time!r} — sim-time stall"
                )
        else:
            self._stall_time = event.time
            self._stall_count = 1
        super()._dispatch(event)


def sample_chaos_timeline(
    topology: Topology,
    *,
    seed: int,
    horizon: float = 4.0,
    allow_partition: bool = False,
) -> tuple[FaultSpec, ...]:
    """Sample one randomized mixed-class fault timeline.

    A seeded meta-draw first picks which fault classes are active this trial
    and their MTBF/MTTR intensities, then :func:`generate_timeline` samples
    the actual episodes (with its partition guard unless
    ``allow_partition``).  Same seed → byte-identical timeline.
    """
    rng = np.random.default_rng(np.uint64(seed) ^ np.uint64(0xC4A05))
    kwargs: dict = {}
    if rng.random() < 0.7:
        kwargs.update(
            server_mtbf=float(rng.uniform(4.0, 12.0)), server_mttr=0.5
        )
    if rng.random() < 0.6:
        kwargs.update(
            switch_mtbf=float(rng.uniform(8.0, 20.0)), switch_mttr=0.5
        )
    if rng.random() < 0.6:
        kwargs.update(link_mtbf=float(rng.uniform(6.0, 16.0)), link_mttr=0.5)
    if rng.random() < 0.5:
        kwargs.update(
            domain_mtbf=float(rng.uniform(8.0, 24.0)),
            domain_mttr=0.5,
            domain_kind=str(rng.choice(("rack", "pod", "power"))),
        )
    if rng.random() < 0.5:
        kwargs.update(
            link_degrade_mtbf=float(rng.uniform(6.0, 16.0)),
            link_degrade_mttr=0.5,
            link_degrade_factor=float(rng.uniform(0.0, 0.5)),
        )
    return generate_timeline(
        topology,
        seed=seed,
        horizon=horizon,
        allow_partition=allow_partition,
        **kwargs,
    )


def graded_run(
    build: Callable[[], tuple[MapReduceSimulator, int]],
    *,
    max_task_retries: int,
) -> tuple[str, str, str, dict, list[str]]:
    """One contract-graded engine pass.

    ``build`` returns a fresh ``(simulator, num_jobs)`` — everything must be
    rebuilt inside it (calling ``graded_run(build)`` twice is the
    rerun-determinism probe).  Returns ``(status, reason, fingerprint,
    counters, violations)``.
    """
    sim, num_jobs = build()
    violations: list[str] = []
    try:
        with observe(checker=InvariantChecker(mode="raise")):
            metrics = sim.run()
    except Exception as exc:  # noqa: BLE001 — every escape is classified
        reason = f"{type(exc).__name__}: {exc}"
        # Only the engine's explicit retry-budget abort is an accounted
        # failure: the job did not finish, but nothing was lost silently.
        if not (
            isinstance(exc, RuntimeError)
            and "exceeded max_task_retries" in str(exc)
        ):
            violations.append(f"unaccounted failure: {reason}")
        counters = dict(sim.faults.summary()) if sim.faults is not None else {}
        return (
            "failed",
            reason,
            canonical_digest({"error": reason, "counters": counters}),
            counters,
            violations,
        )
    counters = dict(sim.faults.summary()) if sim.faults is not None else {}
    if len(metrics.jobs) != num_jobs:
        violations.append(
            f"silent loss: {num_jobs} jobs submitted, "
            f"{len(metrics.jobs)} accounted"
        )
    retries = getattr(sim, "_retries", {})
    worst = max(retries.values(), default=0)
    if worst > max_task_retries:
        violations.append(
            f"retry budget exceeded: a task consumed {worst} retries "
            f"(budget {max_task_retries})"
        )
    if getattr(sim, "_parked", None):
        violations.append(
            f"parked leak: {len(sim._parked)} flows still parked at end"
        )
    fingerprint = canonical_digest(
        {
            "summary": metrics.summary(),
            "counters": counters,
            "events": sim.events_processed,
        }
    )
    return "ok", "", fingerprint, counters, violations


def graded_trial(
    make_build: Callable[[ProvenanceConfig | None], Callable[[], tuple]],
    grade: Callable[[Callable[[], tuple]], tuple],
    *,
    rerun: bool,
) -> tuple:
    """Grade one trial, probe its determinism, and explain a failure.

    The one trial loop of the chaos and overload campaigns.
    ``make_build(provenance)`` returns a ``build`` callable that rebuilds
    the whole stack and returns ``(simulator, ...)``; ``grade(build)`` is a
    contract grader (:func:`graded_run`, or the overload campaign's
    ``graded_online_run``) whose outcome starts with ``(status, reason,
    fingerprint)`` and ends with its violations list.  With ``rerun`` the
    trial is graded a second time and any difference in those three is a
    violation.  A failed or violating trial gets one more pass with the
    decision-audit plane on (faithful by the byte-identity contract), and
    its :func:`decision_digest` is the explanation.

    Returns the grader's outcome with the rerun verdict folded into its
    violations, plus the digest (empty for a clean trial).
    """
    build = make_build(None)
    outcome = grade(build)
    violations = list(outcome[-1])
    if rerun:
        again = grade(build)
        if again[:3] != outcome[:3]:
            violations.append(
                f"nondeterministic rerun: {outcome[2][:12]} vs {again[2][:12]}"
            )
    provenance: dict = {}
    if outcome[0] == "failed" or violations:
        audited = make_build(ProvenanceConfig(ring_size=1024))
        sims: list[MapReduceSimulator] = []

        def build_audited() -> tuple:
            built = audited()
            sims.append(built[0])
            return built

        grade(build_audited)
        provenance = decision_digest(sims[-1].provenance)
    return (*outcome[:-1], violations, provenance)


def chaos_trial(
    topology_factory: Callable[[], Topology],
    scheduler_factory: Callable[[], object],
    jobs_factory: Callable[[], list],
    config: SimulationConfig,
    *,
    seed: int,
    horizon: float = 4.0,
    allow_partition: bool = False,
    max_task_retries: int = 8,
    stall_limit: int = 20_000,
    rerun: bool = True,
) -> dict:
    """One seeded randomized fault timeline through a fresh stack, graded
    against the survivability contract.

    The factories must return *fresh* objects on every call: the trial, its
    determinism rerun and its provenance pass each rebuild the whole stack.
    ``config`` is the base simulation config; the trial sets its seed,
    timeline and retry budget.  Returns plain data; ``"provenance"`` is
    present only on a failed or violating trial.
    """
    timeline = sample_chaos_timeline(
        topology_factory(),
        seed=seed,
        horizon=horizon,
        allow_partition=allow_partition,
    )

    def make_build(provenance: ProvenanceConfig | None):
        def build() -> tuple[MapReduceSimulator, int]:
            jobs = jobs_factory()
            sim = WatchdogSimulator(
                topology_factory(),
                scheduler_factory(),
                jobs,
                dataclasses.replace(
                    config,
                    seed=seed,
                    faults=tuple(timeline),
                    max_task_retries=max_task_retries,
                    provenance=provenance,
                ),
                stall_limit=stall_limit,
            )
            return sim, len(jobs)

        return build

    status, reason, fingerprint, counters, violations, provenance = (
        graded_trial(
            make_build,
            lambda build: graded_run(build, max_task_retries=max_task_retries),
            rerun=rerun,
        )
    )
    row = {
        "seed": seed,
        "allow_partition": allow_partition,
        "num_specs": len(timeline),
        "status": status,
        "reason": reason,
        "fingerprint": fingerprint,
        "counters": counters,
        "violations": violations,
    }
    if provenance:
        row["provenance"] = provenance
    return row


def run_chaos(config: ChaosConfig | None = None) -> ChaosReport:
    """Run a full chaos campaign over the schedulers × topologies grid.

    Trial *i* uses seed ``config.seed + i`` and cycles through the grid
    round-robin, so every (scheduler, topology) pair sees a spread of
    timelines; every ``partition_every``-th trial drops the partition guard.
    """
    config = config or ChaosConfig()
    report = ChaosReport(config=config)
    grid = [
        (s, t) for t in config.topologies for s in config.schedulers
    ]
    for i in range(config.trials):
        scheduler, topology = grid[i % len(grid)]
        seed = config.seed + i
        row = chaos_trial(
            CHAOS_TOPOLOGIES[topology],
            lambda: make_scheduler(scheduler, seed=seed),
            lambda: WorkloadGenerator(
                seed=seed, input_size_range=(2.0, 4.0)
            ).make_workload(config.jobs_per_trial, interarrival=0.5),
            SimulationConfig(server_speed_spread=0.2),
            seed=seed,
            horizon=config.horizon,
            allow_partition=(
                config.partition_every > 0
                and i % config.partition_every == config.partition_every - 1
            ),
            max_task_retries=config.max_task_retries,
            stall_limit=config.stall_limit,
            rerun=config.rerun,
        )
        row["violations"] = tuple(row["violations"])
        report.trials.append(
            ChaosTrialResult(
                trial=i, scheduler=scheduler, topology=topology, **row
            )
        )
    return report

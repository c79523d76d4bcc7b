"""The benchmark's named workloads.

``BENCHMARK.json`` gates ``hit-online`` and ``capacity-faults``;
``hit-fattree`` and ``capacity-tree512`` stay runnable by name for per-layer
attribution (``perfbench/README.md`` says why they are not gated).

Each workload turns a seed into a list of *cells*.  A cell is a zero-argument
builder that does the whole set-up of one simulation — build the fabric,
generate the jobs (and arrivals, and fault timeline), construct the
``MapReduceSimulator`` — and returns it ready for ``run()``.  Calling a
builder twice gives two independent simulators with identical inputs, which
is what the repeat and fingerprint checks rely on.

All are open loops in simulated time: jobs arrive on their generated
schedule whatever the cluster state.  In host time a cell is one batch call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.experiments.configs import large_tree, testbed_tree
from repro.experiments.online import build_arrival_plan
from repro.faults import generate_timeline
from repro.mapreduce.job import JobSpec
from repro.mapreduce.workload import PUMA_BENCHMARKS, WorkloadGenerator
from repro.schedulers import make_scheduler
from repro.simulator import MapReduceSimulator
from repro.simulator.engine import SimulationConfig
from repro.speculation import SpeculationConfig
from repro.topology.fattree import FatTreeConfig, build_fattree
from repro.workload import AdmissionConfig, generate_arrivals

__all__ = ["WORKLOADS", "Workload", "Builder"]

Builder = Callable[[], MapReduceSimulator]

#: Table-1 job sizes of the two large-fabric batch workloads.
INPUT_RANGE = (8.0, 24.0)
#: The testbed-sized mix (``configs.testbed_workload``): smaller inputs,
#: map/reduce compute at rate 8 so that shuffle dominates job time.
TESTBED_INPUT_RANGE = (4.0, 12.0)
TESTBED_RATE = 8.0
INTERARRIVAL = 0.5
MAP_SLOTS_PER_JOB = 16


@dataclass(frozen=True)
class Workload:
    name: str
    #: cell seed -> a fully set-up simulator (fabric, inputs, engine).
    build: Callable[[int], MapReduceSimulator]
    #: Simulations per timed pass, each on its own seed derived from the
    #: workload seed.  Several cells average out the seed-to-seed swing in
    #: host time that one simulation of these sizes shows.
    cells: int
    #: Leading cells that the traced and invariant-checked passes run.
    traced_cells: int
    #: Decision-latency tail percentile: the highest multiple of 5 that keeps
    #: at least ten decisions beyond it over the traced cells on any seed.
    tail_pct: float

    def builders(self, seed: int, count: int | None = None) -> list[Builder]:
        seeds = np.random.default_rng(seed).integers(0, 2**31, self.cells)
        return [functools.partial(self.build, int(s)) for s in seeds[:count]]


def _stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` uniform draws on [0, 1), one per equal-width stratum, shuffled."""
    return (rng.permutation(n) + rng.uniform(size=n)) / n


def _batch_jobs(
    seed: int,
    num_jobs: int,
    input_range: tuple[float, float] = INPUT_RANGE,
    rate: float = 2.0,
) -> list[JobSpec]:
    """A stratified sample of the Table-1 batch mix.

    Benchmark counts follow the Table-1 proportions exactly (largest
    remainder), input sizes cover ``input_range`` one stratum per job and the
    exponential inter-arrival gaps (mean ``INTERARRIVAL``) are stratified the
    same way.  The seed draws the job order, the position inside each stratum
    and which job gets which size and gap.  Independent draws would let the
    job mix alone move host time by 2x between seeds at these job counts.
    """
    rng = np.random.default_rng(seed)
    quotas = np.array([b.proportion for b in PUMA_BENCHMARKS]) * num_jobs
    counts = np.floor(quotas).astype(int)
    short = num_jobs - int(counts.sum())
    counts[np.argsort(counts - quotas, kind="stable")[:short]] += 1
    benches = [b for b, c in zip(PUMA_BENCHMARKS, counts) for _ in range(c)]
    order = rng.permutation(num_jobs)
    lo, hi = input_range
    sizes = lo + (hi - lo) * _stratified(rng, num_jobs)
    gaps = -INTERARRIVAL * np.log1p(-_stratified(rng, num_jobs - 1))
    times = np.concatenate(([0.0], np.cumsum(gaps)))
    gen = WorkloadGenerator(
        seed=rng, input_size_range=input_range, map_rate=rate, reduce_rate=rate
    )
    return [
        gen.make_job(benches[i], float(size), float(t))
        for i, size, t in zip(order, sizes, times)
    ]


def _hit_fattree(seed: int) -> MapReduceSimulator:
    topology = build_fattree(
        FatTreeConfig(
            k=8,
            server_resources=(2.0,),
            edge_capacity=8.0,
            aggregation_capacity=24.0,
            core_capacity=64.0,
        )
    )
    return MapReduceSimulator(
        topology,
        make_scheduler("hit", seed=seed),
        _batch_jobs(seed, FATTREE_JOBS),
        SimulationConfig(map_slots_per_job=MAP_SLOTS_PER_JOB, seed=seed),
    )


#: Jobs per cell.  Cells are kept short so that a run can average over
#: many independent ones: host time per task swings by 2x between seeds of
#: a single simulation, and the machine's speed drifts within seconds.  The
#: arrival intensity is the full workload's, so each layer sees the same
#: concurrency once a cell is past its first few arrivals.
FATTREE_JOBS = 10
TREE512_JOBS = 40


def _capacity_tree512(seed: int) -> MapReduceSimulator:
    return MapReduceSimulator(
        large_tree(512),
        make_scheduler("capacity", seed=seed),
        _batch_jobs(seed, TREE512_JOBS),
        SimulationConfig(map_slots_per_job=MAP_SLOTS_PER_JOB, seed=seed),
    )


#: Submission window of one hit-online cell (sim-time units).
ONLINE_DURATION = 1.0


def _hit_online(seed: int) -> MapReduceSimulator:
    topology = testbed_tree()
    plan = build_arrival_plan(
        topology,
        multiplier=1.5,
        tenants=2,
        duration=ONLINE_DURATION,
        min_size=TESTBED_INPUT_RANGE[0],
        max_size=TESTBED_INPUT_RANGE[1],
    )
    return MapReduceSimulator(
        topology,
        make_scheduler("hit", seed=seed),
        generate_arrivals(plan, seed=seed),
        SimulationConfig(
            map_slots_per_job=MAP_SLOTS_PER_JOB,
            seed=seed,
            admission=AdmissionConfig(policy="queue-bound", queue_bound=8),
        ),
    )


def _capacity_faults(seed: int) -> MapReduceSimulator:
    topology = testbed_tree()
    timeline = generate_timeline(
        topology,
        seed=seed,
        horizon=16.0,
        server_mtbf=8.0,
        server_mttr=0.5,
        switch_mtbf=20.0,
        switch_mttr=0.5,
        link_mtbf=20.0,
        link_mttr=0.5,
        slowdown_mtbf=4.0,
        slowdown_mttr=0.5,
    )
    return MapReduceSimulator(
        topology,
        make_scheduler("capacity", seed=seed),
        _batch_jobs(seed, 40, TESTBED_INPUT_RANGE, TESTBED_RATE),
        SimulationConfig(
            map_slots_per_job=MAP_SLOTS_PER_JOB,
            seed=seed,
            faults=timeline,
            max_task_retries=10,
            speculation=SpeculationConfig(),
        ),
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Alg-1/Alg-2: capacity pruning empties the shortest-path DAG, so the
        # slack-path fallback runs.  Not gated: too seed-sensitive (README).
        Workload(
            "hit-fattree",
            _hit_fattree,
            cells=8,
            traced_cells=2,
            tail_pct=65.0,
        ),
        # Max-min allocator and engine dispatch; Alg-1, grading and matching
        # bypassed.  Not gated: too seed-sensitive (README).
        Workload(
            "capacity-tree512",
            _capacity_tree512,
            cells=10,
            traced_cells=1,
            tail_pct=80.0,
        ),
        # Admission plane, per-arrival Hit decisions, allocator churn.
        Workload(
            "hit-online",
            _hit_online,
            cells=32,
            traced_cells=2,
            tail_pct=75.0,
        ),
        # Fault plane, speculation, failure-masked routing, engine recovery.
        Workload(
            "capacity-faults",
            _capacity_faults,
            cells=28,
            traced_cells=4,
            tail_pct=90.0,
        ),
    )
}

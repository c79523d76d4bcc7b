"""Whole-system fault properties, checked over seeded random timelines.

Three contracts from ``docs/fault_model.md``:

* **no silent loss** — whatever the timeline, every submitted job finishes
  and every task spec is accounted for;
* **routing safety** — no flow is ever installed or rerouted onto a path
  through a currently-failed switch;
* **determinism** — a faulty run is bit-identical when repeated.
"""

import dataclasses

import pytest

from repro.faults import generate_timeline
from repro.mapreduce import WorkloadGenerator
from repro.obs import InvariantChecker, observe
from repro.schedulers import make_scheduler
from repro.simulator import MapReduceSimulator, SimulationConfig


def faulty_run(topology, scheduler_name, seed, spy=None):
    jobs = WorkloadGenerator(seed=seed, input_size_range=(2.0, 4.0)).make_workload(
        3, interarrival=0.5
    )
    faults = generate_timeline(
        topology,
        seed=seed,
        horizon=4.0,
        server_mtbf=6.0,
        server_mttr=0.5,
        switch_mtbf=10.0,
        switch_mttr=0.5,
    )
    assert faults, "chosen seeds must actually produce fault activity"
    config = SimulationConfig(
        seed=seed, faults=faults, max_task_retries=10, server_speed_spread=0.2
    )
    sim = MapReduceSimulator(
        topology, make_scheduler(scheduler_name, seed=seed), jobs, config
    )
    if spy is not None:
        spy(sim)
    with observe(checker=InvariantChecker(mode="raise")):
        metrics = sim.run()
    return jobs, sim, metrics


@pytest.mark.parametrize("scheduler_name", ["capacity", "hit", "random"])
@pytest.mark.parametrize("seed", [3, 11])
def test_no_task_lost_under_random_timeline(small_tree, scheduler_name, seed):
    jobs, _, metrics = faulty_run(small_tree, scheduler_name, seed)
    assert len(metrics.jobs) == len(jobs)
    # Re-executions may add records, but nothing may go missing.
    assert metrics.task_durations("map").size >= sum(j.num_maps for j in jobs)
    assert metrics.task_durations("reduce").size >= sum(j.num_reduces for j in jobs)
    assert all(j.finish_time >= j.submit_time for j in metrics.jobs)


@pytest.mark.parametrize("seed", [3, 11])
def test_no_flow_installed_through_failed_switch(small_tree, seed):
    """Intercept every path install/reroute and check it against the live
    failed-switch set at that instant (independent of the engine's own
    ``assert_path_clear`` guard)."""
    installs = []

    def spy(sim):
        orig_add, orig_reroute = sim.network.add_flow, sim.network.reroute_flow

        def add_flow(flow_id, path, size, now=0.0, remaining=None):
            assert not (set(path) & sim.controller.failed_switches), (
                f"flow {flow_id} installed through failed switch on {path}"
            )
            installs.append(tuple(path))
            return orig_add(flow_id, path, size, now, remaining=remaining)

        def reroute_flow(flow_id, path):
            assert not (set(path) & sim.controller.failed_switches)
            installs.append(tuple(path))
            return orig_reroute(flow_id, path)

        sim.network.add_flow = add_flow
        sim.network.reroute_flow = reroute_flow

    faulty_run(small_tree, "capacity", seed, spy=spy)
    assert installs, "the workload must exercise the network at all"


@pytest.mark.parametrize("scheduler_name", ["capacity", "random"])
def test_faulty_run_is_bit_identical(small_tree, scheduler_name):
    _, sim_a, a = faulty_run(small_tree, scheduler_name, seed=11)
    _, sim_b, b = faulty_run(small_tree, scheduler_name, seed=11)
    for field in ("jobs", "tasks", "flows"):
        assert [dataclasses.astuple(r) for r in getattr(a, field)] == [
            dataclasses.astuple(r) for r in getattr(b, field)
        ]
    assert a.summary() == b.summary()
    assert sim_a.faults.summary() == sim_b.faults.summary()

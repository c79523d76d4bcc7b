"""FaultInjector: event scheduling, fault transitions applied to their
owners (cluster for servers, controller for switches), counters."""

import pytest

from repro.cluster import ClusterState
from repro.core.policy import PolicyController
from repro.faults import FaultInjector, FaultKind, FaultSpec
from repro.simulator.events import EventKind, EventQueue


def make_injector(topology, specs=()):
    """An injector over fresh liveness owners, outside any simulator."""
    return FaultInjector(
        topology, specs, ClusterState(topology), PolicyController(topology)
    )


class TestScheduling:
    def test_one_event_per_spec(self, flat_tree):
        switch = flat_tree.switch_ids[0]
        injector = make_injector(
            flat_tree,
            [
                FaultSpec(0.5, FaultKind.SERVER_FAIL, 1),
                FaultSpec(1.0, FaultKind.SWITCH_FAIL, switch),
                FaultSpec(2.0, FaultKind.SERVER_RECOVER, 1),
            ],
        )
        queue = EventQueue()
        assert injector.schedule(queue) == 3
        events = [queue.pop() for _ in range(3)]
        assert [e.kind for e in events] == [
            EventKind.SERVER_FAIL,
            EventKind.SWITCH_FAIL,
            EventKind.SERVER_RECOVER,
        ]
        assert [e.payload for e in events] == [1, switch, 1]

    def test_slowdown_payload_carries_factor(self, flat_tree):
        injector = make_injector(
            flat_tree, [FaultSpec(0.2, FaultKind.TASK_SLOWDOWN, 3, factor=2.5)]
        )
        queue = EventQueue()
        injector.schedule(queue)
        event = queue.pop()
        assert event.kind is EventKind.TASK_SLOWDOWN
        assert event.payload == (3, 2.5)

    def test_constructor_validates_targets(self, flat_tree):
        with pytest.raises(ValueError, match="not a switch"):
            make_injector(flat_tree, [FaultSpec(1.0, FaultKind.SWITCH_FAIL, 0)])


class TestLiveState:
    def test_mark_and_recover_server(self, flat_tree):
        injector = make_injector(flat_tree)
        assert injector.mark_server_failed(2)
        assert injector.cluster.failed_servers == frozenset({2})
        # Duplicate failure is a no-op and is not double-counted.
        assert not injector.mark_server_failed(2)
        assert injector.counters["faults.server_fail"] == 1
        assert injector.mark_server_recovered(2)
        assert injector.cluster.failed_servers == frozenset()
        assert not injector.mark_server_recovered(2)

    def test_mark_and_recover_switch(self, flat_tree):
        switch = flat_tree.switch_ids[0]
        injector = make_injector(flat_tree)
        assert injector.mark_switch_failed(switch)
        assert injector.controller.failed_switches == frozenset({switch})
        assert not injector.mark_switch_failed(switch)
        assert injector.mark_switch_recovered(switch)
        assert injector.controller.failed_switches == frozenset()
        assert injector.counters["faults.switch_recover"] == 1

    def test_assert_path_clear(self, flat_tree):
        tor, core = flat_tree.switch_ids[0], max(flat_tree.switch_ids)
        injector = make_injector(flat_tree)
        injector.mark_switch_failed(core)
        injector.assert_path_clear((0, tor, 1))  # core not on this path
        with pytest.raises(RuntimeError, match=f"failed switch {core}"):
            injector.assert_path_clear((0, tor, core, tor, 2))

    def test_summary_sorted(self, flat_tree):
        injector = make_injector(flat_tree)
        injector.count("retries.map", 2)
        injector.count("faults.server_fail")
        assert list(injector.summary()) == ["faults.server_fail", "retries.map"]
        assert injector.summary() == {"faults.server_fail": 1, "retries.map": 2}


class TestOwners:
    def test_engine_injector_writes_to_engine_owners(self, flat_tree):
        from repro.mapreduce import WorkloadGenerator
        from repro.schedulers import make_scheduler
        from repro.simulator import MapReduceSimulator, SimulationConfig

        switch = flat_tree.switch_ids[0]
        sim = MapReduceSimulator(
            flat_tree,
            make_scheduler("capacity", seed=0),
            WorkloadGenerator(seed=0).make_workload(1),
            SimulationConfig(
                faults=(FaultSpec(1e9, FaultKind.SERVER_FAIL, 1),)
            ),
        )
        assert sim.faults.cluster is sim.cluster
        assert sim.faults.controller is sim.controller
        sim.faults.mark_server_failed(1)
        sim.faults.mark_switch_failed(switch)
        assert sim.cluster.is_failed(1)
        assert sim.controller.failed_switches == frozenset({switch})

    def test_assert_path_clear_names_dead_link(self, flat_tree):
        injector = make_injector(flat_tree)
        tor = flat_tree.switch_ids[0]
        injector.mark_link_failed(tor, 0)
        with pytest.raises(RuntimeError, match=rf"dead link \(0, {tor}\)"):
            injector.assert_path_clear((0, tor, 1))


def test_repeated_fabric_event_is_a_no_op(flat_tree):
    """A transition that changes nothing is neither counted nor audited."""
    from repro.mapreduce import WorkloadGenerator
    from repro.obs import ProvenanceConfig
    from repro.schedulers import make_scheduler
    from repro.simulator import MapReduceSimulator, SimulationConfig

    switch = max(flat_tree.switch_ids)
    timeline = (
        FaultSpec(0.1, FaultKind.SWITCH_FAIL, switch),
        FaultSpec(0.2, FaultKind.SWITCH_FAIL, switch),
        FaultSpec(0.3, FaultKind.SERVER_FAIL, 1),
        FaultSpec(0.4, FaultKind.SERVER_FAIL, 1),
        FaultSpec(0.9, FaultKind.SERVER_RECOVER, 1),
        FaultSpec(1.0, FaultKind.SWITCH_RECOVER, switch),
    )
    sim = MapReduceSimulator(
        flat_tree,
        make_scheduler("capacity", seed=0),
        WorkloadGenerator(seed=0).make_workload(2, interarrival=0.5),
        SimulationConfig(
            faults=timeline, max_task_retries=10, provenance=ProvenanceConfig()
        ),
    )
    sim.run()
    faults = [r.reason for r in sim.provenance.records() if r.kind == "fault"]
    assert faults == [
        "switch-fail", "server-fail", "server-recover", "switch-recover"
    ]
    assert sim.faults.counters["faults.switch_fail"] == 1
    assert sim.faults.counters["faults.server_fail"] == 1
    assert not sim.cluster.failed_servers and not sim.controller.has_failures

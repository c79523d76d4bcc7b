"""Each invariant check must accept honest state and catch seeded corruption.

The corruption cases reach into private attributes on purpose: the point of
the checker is to detect exactly the states no public API should produce.
"""

import numpy as np
import pytest

from repro.cluster import Resources
from repro.core.matching import MatchingResult
from repro.core.policy import Policy, PolicyController
from repro.core.preference import PreferenceMatrix
from repro.mapreduce import ShuffleFlow
from repro.obs import InvariantChecker, InvariantError
from repro.simulator.network import FlowNetwork
from repro.topology import TreeConfig, build_tree

from tests.core.test_matching import make_cluster


@pytest.fixture
def tree():
    return build_tree(
        TreeConfig(depth=2, fanout=4, redundancy=2, server_resources=(2.0,))
    )


@pytest.fixture
def controller(tree):
    return PolicyController(tree)


def collect() -> InvariantChecker:
    return InvariantChecker(mode="collect")


def flow(fid=0, rate=1.0):
    return ShuffleFlow(fid, 0, 0, 0, 100, 101, rate, rate)


def invariants_of(violations):
    return {v.invariant for v in violations}


class TestModes:
    def test_raise_mode_raises_with_violations_attached(self, controller):
        controller.route_flow(flow(), 0, 15)
        w = controller.policy_of(0).switch_list[0]
        controller._cap_load[w] = controller.topology.switch(w).capacity + 5
        checker = InvariantChecker(mode="raise")
        with pytest.raises(InvariantError) as exc:
            checker.check_switch_capacity(controller)
        assert invariants_of(exc.value.violations) == {"switch-capacity"}
        assert checker.violations  # raise mode still records

    def test_collect_mode_accumulates_and_resets(self, controller):
        checker = collect()
        checker.check_switch_capacity(controller)
        assert checker.violations == []
        assert checker.checks_run == 1
        controller._cap_load[controller.topology.switch_ids[0]] = 1e9
        checker.check_switch_capacity(controller)
        assert len(checker.violations) == 1
        summary = checker.summary()
        assert summary["violations"] == 1
        assert summary["by_invariant"] == {"switch-capacity": 1}
        checker.reset()
        assert checker.violations == [] and checker.checks_run == 0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            InvariantChecker(mode="warn")


class TestServerCapacity:
    def test_honest_cluster_passes(self):
        cluster = make_cluster([2.0, 2.0], [1.0, 1.0, 1.0])
        cluster.place(0, 0)
        cluster.place(1, 0)
        cluster.place(2, 1)
        assert collect().check_server_capacity(cluster) == []

    def test_oversubscription_detected(self):
        cluster = make_cluster([1.0], [1.0, 1.0])
        cluster.place(0, 0)
        # Force a second container past capacity behind place()'s back.
        cluster.container(1).server_id = 0
        cluster._hosted[0].add(1)
        cluster._used[0] = Resources(2.0, 0.0)
        found = collect().check_server_capacity(cluster)
        assert "server-capacity" in invariants_of(found)

    def test_stale_usage_cache_detected(self):
        cluster = make_cluster([2.0], [1.0])
        cluster.place(0, 0)
        cluster._used[0] = Resources(0.5, 0.0)  # cache no longer honest
        found = collect().check_server_capacity(cluster)
        assert "server-capacity" in invariants_of(found)


class TestSwitchCapacity:
    def test_honest_controller_passes(self, controller):
        controller.route_flow(flow(), 0, 15)
        assert collect().check_switch_capacity(controller) == []

    def test_overload_detected_and_scoped_scan_works(self, controller):
        controller.route_flow(flow(), 0, 15)
        w = controller.policy_of(0).switch_list[0]
        controller._cap_load[w] = controller.topology.switch(w).capacity + 1
        checker = collect()
        assert checker.check_switch_capacity(controller, switches=[w])
        other = [x for x in controller.topology.switch_ids if x != w]
        checker.reset()
        assert checker.check_switch_capacity(controller, switches=other) == []

    def test_uncapacitated_installs_are_exempt(self, controller, tree):
        # A baseline-style install may exceed Eq 4 without tripping the check.
        w = tree.switch_ids[0]
        huge = flow(rate=tree.switch(w).capacity * 10)
        controller.route_flow(huge, 0, 15, enforce_capacity=False)
        assert collect().check_switch_capacity(controller) == []
        # ...but the raw load accounting still sees the traffic.
        assert any(
            controller.load(x) > tree.switch(x).capacity
            for x in tree.switch_ids
        )


class TestSwitchLoadConsistency:
    def test_honest_controller_passes(self, controller):
        controller.route_flow(flow(0), 0, 15)
        controller.route_flow(flow(1, rate=0.5), 1, 14)
        assert collect().check_switch_load_consistency(controller) == []

    def test_drift_detected(self, controller):
        controller.route_flow(flow(), 0, 15)
        w = controller.policy_of(0).switch_list[0]
        controller._load[w] += 0.25
        found = collect().check_switch_load_consistency(controller)
        assert "switch-load-consistency" in invariants_of(found)

    def test_negative_load_detected(self, controller):
        w = controller.topology.switch_ids[0]
        controller._load[w] = -0.5
        found = collect().check_switch_load_consistency(controller)
        assert "switch-load-consistency" in invariants_of(found)


class TestPolicySatisfaction:
    def test_honest_policies_pass(self, controller):
        controller.route_flow(flow(), 0, 15)
        assert collect().check_policy_satisfaction(controller) == []

    def test_corrupted_switch_list_detected(self, controller):
        policy = controller.route_flow(flow(), 0, 15)
        controller._policies[0] = Policy(
            flow_id=0,
            path=policy.path,
            switch_list=policy.switch_list[:-1],  # drop the last hop
            types=policy.types[:-1],
        )
        found = collect().check_policy_satisfaction(controller)
        assert "policy-satisfaction" in invariants_of(found)

    def test_nonphysical_hop_detected(self, controller, tree):
        policy = controller.route_flow(flow(), 0, 15)
        fake_path = (policy.path[0], policy.path[-1])  # server->server, no link
        controller._policies[0] = Policy(
            flow_id=0, path=fake_path, switch_list=(), types=()
        )
        found = collect().check_policy_satisfaction(controller)
        assert "policy-satisfaction" in invariants_of(found)


class TestMatchingStability:
    def test_stable_assignment_passes(self):
        cluster = make_cluster([1.0], [1.0, 1.0])
        preferences = PreferenceMatrix(
            server_ids=(0,),
            container_ids=(0, 1),
            cost=np.array([[1.0, 5.0]]),
            current_cost=np.array([np.inf, np.inf]),
        )
        result = MatchingResult(assignment={0: 0}, unmatched=[1], proposals=2, evictions=0)
        assert collect().check_matching_stability(
            result, preferences, cluster
        ) == []

    def test_blocking_pair_detected(self):
        cluster = make_cluster([1.0], [1.0, 1.0])
        preferences = PreferenceMatrix(
            server_ids=(0,),
            container_ids=(0, 1),
            cost=np.array([[1.0, 5.0]]),
            current_cost=np.array([np.inf, np.inf]),
        )
        # The worse container holds the slot: (0, server 0) blocks.
        result = MatchingResult(assignment={1: 0}, unmatched=[0], proposals=2, evictions=0)
        found = collect().check_matching_stability(result, preferences, cluster)
        assert invariants_of(found) == {"matching-stability"}


class TestFlowConservation:
    def test_honest_network_passes(self, tree):
        network = FlowNetwork(tree)
        path = tree.shortest_path(tree.server_ids[0], tree.server_ids[-1])
        network.add_flow(0, path, size=4.0)
        network.add_flow(1, path, size=2.0)
        assert collect().check_flow_conservation(network) == []

    def test_negative_remaining_detected(self, tree):
        network = FlowNetwork(tree)
        path = tree.shortest_path(tree.server_ids[0], tree.server_ids[1])
        network.add_flow(0, path, size=4.0)
        network.ensure_rates()
        network._flows[0].remaining = -1.0
        found = collect().check_flow_conservation(network)
        assert "flow-conservation" in invariants_of(found)

    def test_wrong_switch_count_detected(self, tree):
        network = FlowNetwork(tree)
        path = tree.shortest_path(tree.server_ids[0], tree.server_ids[-1])
        network.add_flow(0, path, size=4.0)
        network.ensure_rates()
        network._flows[0].num_switches += 1
        found = collect().check_flow_conservation(network)
        assert "flow-conservation" in invariants_of(found)


class TestPathLiveness:
    """The invariant reads liveness from the controller, its one owner."""

    def test_flow_over_dead_elements_detected(self, tree, controller):
        network = FlowNetwork(tree)
        path = tree.shortest_path(tree.server_ids[0], tree.server_ids[-1])
        network.add_flow(0, path, size=4.0)
        assert collect().check_path_liveness(network, controller) == []
        controller.fail_link(path[0], path[1])
        found = collect().check_path_liveness(network, controller)
        assert invariants_of(found) == {"path-liveness"}
        assert f"dead link ({path[0]}, {path[1]})" in found[0].detail
        controller.fail_switch(path[2])
        found = collect().check_path_liveness(network, controller)
        assert len(found) == 1 and f"failed switch {path[2]}" in found[0].detail

    def test_flow_off_the_dead_switch_passes(self, tree, controller):
        network = FlowNetwork(tree)
        path = tree.shortest_path(tree.server_ids[0], tree.server_ids[1])
        network.add_flow(0, path, size=4.0)
        controller.fail_switch(max(tree.switch_ids))
        assert collect().check_path_liveness(network, controller) == []


class TestQuiescence:
    def test_drained_controller_passes(self, controller):
        f = flow()
        controller.route_flow(f, 0, 15)
        controller.release(f.flow_id)
        assert collect().check_quiescent(controller) == []

    def test_exactness_catches_float_dust(self, controller):
        # Even 1e-17 of leftover load is a failure: release() must snap to 0.
        controller._load[controller.topology.switch_ids[0]] = 1e-17
        found = collect().check_quiescent(controller)
        assert "quiescence" in invariants_of(found)

    def test_leftover_policy_detected(self, controller):
        controller.route_flow(flow(), 0, 15)
        found = collect().check_quiescent(controller)
        assert "quiescence" in invariants_of(found)

    def test_active_flow_detected(self, controller, tree):
        network = FlowNetwork(tree)
        path = tree.shortest_path(tree.server_ids[0], tree.server_ids[1])
        network.add_flow(0, path, size=4.0)
        found = collect().check_quiescent(controller, network)
        assert "quiescence" in invariants_of(found)

"""Timed slowdown episodes: spec validation, injector pairing, engine effect."""

import pytest

from repro.faults import FaultKind, FaultSpec, generate_timeline
from repro.schedulers import make_scheduler
from repro.simulator import MapReduceSimulator, SimulationConfig
from repro.simulator.events import EventKind, EventQueue
from repro.topology import TreeConfig, build_tree

from ..conftest import make_job
from .test_injector import make_injector


@pytest.fixture
def topo():
    return build_tree(
        TreeConfig(depth=2, fanout=2, redundancy=1, server_resources=(2.0,))
    )


class TestSpec:
    def test_duration_rejected_on_non_slowdown_kinds(self):
        with pytest.raises(ValueError, match="task-slowdown"):
            FaultSpec(0.0, FaultKind.SERVER_FAIL, 0, duration=1.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            FaultSpec(0.0, FaultKind.TASK_SLOWDOWN, 0, factor=2.0, duration=-1.0)

    def test_round_trip_preserves_duration(self):
        spec = FaultSpec(0.5, FaultKind.TASK_SLOWDOWN, 3, factor=4.0, duration=0.25)
        assert FaultSpec.from_dict(spec.as_dict()) == spec

    def test_untimed_slowdown_serialises_without_duration(self):
        spec = FaultSpec(0.5, FaultKind.TASK_SLOWDOWN, 3, factor=4.0)
        assert "duration" not in spec.as_dict()


class TestInjector:
    def test_timed_slowdown_schedules_its_restore(self, topo):
        server = topo.server_ids[0]
        injector = make_injector(
            topo,
            [FaultSpec(0.1, FaultKind.TASK_SLOWDOWN, server, factor=4.0,
                       duration=0.3)],
        )
        queue = EventQueue()
        assert injector.schedule(queue) == 2
        first, second = queue.pop(), queue.pop()
        assert first.kind is EventKind.TASK_SLOWDOWN
        assert first.payload == (server, 4.0)
        assert second.kind is EventKind.TASK_SLOWDOWN
        assert second.time == pytest.approx(0.4)
        assert second.payload == (server, 1.0)

    def test_untimed_slowdown_schedules_one_event(self, topo):
        injector = make_injector(
            topo,
            [FaultSpec(0.1, FaultKind.TASK_SLOWDOWN, topo.server_ids[0],
                       factor=4.0)],
        )
        queue = EventQueue()
        assert injector.schedule(queue) == 1


class TestEngine:
    def test_speed_restored_after_duration(self, topo):
        server = topo.server_ids[0]
        config = SimulationConfig(
            seed=0,
            faults=(
                FaultSpec(0.0, FaultKind.TASK_SLOWDOWN, server, factor=4.0,
                          duration=0.2),
            ),
            max_task_retries=10,
        )
        sim = MapReduceSimulator(
            topo, make_scheduler("capacity", seed=0),
            [make_job(num_maps=4, num_reduces=2)], config,
        )
        metrics = sim.run()
        assert len(metrics.jobs) == 1
        assert sim.server_speeds[server] == sim._base_speeds[server]
        assert sim.faults.counters.get("faults.slowdown") == 1
        assert sim.faults.counters.get("faults.slowdown_restore") == 1


class TestSampling:
    def test_slowdown_draws_extend_without_perturbing_failures(self, topo):
        base = generate_timeline(
            topo, seed=3, horizon=5.0, server_mtbf=4.0, server_mttr=0.5
        )
        extended = generate_timeline(
            topo, seed=3, horizon=5.0, server_mtbf=4.0, server_mttr=0.5,
            slowdown_mtbf=3.0, slowdown_mttr=0.4, slowdown_factor=5.0,
        )
        failures = tuple(
            s for s in extended if s.kind is not FaultKind.TASK_SLOWDOWN
        )
        assert failures == base
        slowdowns = [
            s for s in extended if s.kind is FaultKind.TASK_SLOWDOWN
        ]
        assert slowdowns
        assert all(s.duration > 0 and s.factor == 5.0 for s in slowdowns)

    def test_rejects_factor_at_or_below_one(self, topo):
        with pytest.raises(ValueError, match="exceed 1.0"):
            generate_timeline(
                topo, seed=0, horizon=1.0, slowdown_mtbf=1.0,
                slowdown_factor=1.0,
            )

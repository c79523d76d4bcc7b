"""TimelineRecorder unit behaviour: grid, gauges, queries, summaries."""

import json

import numpy as np
import pytest

from repro.mapreduce import WorkloadGenerator
from repro.obs import TimelineRecorder
from repro.schedulers import make_scheduler
from repro.simulator import MapReduceSimulator, SimulationConfig
from repro.topology import TreeConfig, build_tree


def _topology():
    return build_tree(
        TreeConfig(depth=2, fanout=4, redundancy=2, server_resources=(2.0,))
    )


def _recorded_sim(dt=0.1, num_jobs=3, seed=0):
    jobs = WorkloadGenerator(
        seed=seed, input_size_range=(4.0, 8.0), map_rate=8.0, reduce_rate=8.0
    ).make_workload(num_jobs, interarrival=0.3)
    sim = MapReduceSimulator(
        _topology(),
        make_scheduler("hit-online", seed=seed),
        jobs,
        SimulationConfig(seed=seed, timeline_dt=dt),
    )
    sim.run()
    return sim


def test_dt_must_be_positive():
    with pytest.raises(ValueError):
        TimelineRecorder(_topology(), dt=0.0)
    with pytest.raises(ValueError):
        TimelineRecorder(_topology(), dt=-1.0)


def test_recorder_off_by_default():
    jobs = WorkloadGenerator(seed=0).make_workload(1)
    sim = MapReduceSimulator(
        _topology(), make_scheduler("capacity", seed=0), jobs,
        SimulationConfig(),
    )
    assert sim.timeline is None


def test_samples_lie_on_the_grid():
    sim = _recorded_sim(dt=0.1)
    recorder = sim.timeline
    times = recorder.times()
    # All but the final drain sample sit exactly on multiples of dt.
    grid = times[:-1]
    assert np.allclose(grid, np.round(grid / 0.1) * 0.1)
    assert np.all(np.diff(times) >= 0)
    # The grid covers the whole run: one sample per step plus the drain.
    assert len(times) >= int(times[-1] / 0.1)


def test_sample_shapes_match_fabric():
    recorder = _recorded_sim().timeline
    sample = recorder.samples[0]
    assert sample.switch_util.shape == (len(recorder.switch_ids),)
    assert sample.server_occupancy.shape == (len(recorder.server_ids),)
    assert recorder.link_keys is not None
    assert sample.link_util.shape == (len(recorder.link_keys),)


def test_utilisation_bounded_and_active_at_some_point():
    recorder = _recorded_sim().timeline
    max_util = recorder.series("max_switch_util")
    assert np.all(max_util >= 0.0)
    assert np.all(max_util <= 1.0 + 1e-9)
    assert max_util.max() > 0.0, "no shuffle traffic ever observed"
    occupancy = recorder.series("mean_occupancy")
    assert occupancy.max() > 0.0, "no container ever occupied a server"


def test_series_queries():
    recorder = _recorded_sim().timeline
    n = len(recorder.samples)
    for name in (
        "max_switch_util", "max_link_util", "mean_link_util",
        "queue_depth", "active_flows", "parked_flows",
        "running_containers", "mean_occupancy",
    ):
        series = recorder.series(name)
        assert series.shape == (n,)
        assert np.all(np.isfinite(series))
    # Unknown names read as a flat-zero gauge (subsystem was off).
    assert np.all(recorder.series("failed_servers") == 0.0)
    sid = recorder.switch_ids[0]
    assert recorder.switch_series(sid).shape == (n,)


def test_summary_reports_peaks():
    recorder = _recorded_sim().timeline
    summary = recorder.summary()
    assert summary["samples"] == len(recorder.samples)
    assert summary["dt"] == recorder.dt
    assert summary["peak_switch_util"] == pytest.approx(
        max(s.max_switch_util for s in recorder.samples)
    )
    assert summary["peak_active_flows"] >= 1


def test_empty_recorder_summary():
    recorder = TimelineRecorder(_topology(), dt=0.5)
    assert recorder.summary() == {"samples": 0, "markers": 0}
    assert recorder.times().size == 0


def test_finish_is_idempotent():
    sim = _recorded_sim()
    recorder = sim.timeline
    n = len(recorder.samples)
    recorder.finish(sim, 99.0)  # engine already finished the recorder
    assert len(recorder.samples) == n


def _bounded_sim(ring_size, path=None, dt=0.05, seed=0):
    """The ``_recorded_sim(dt=0.05)`` run with a small in-memory ring."""
    jobs = WorkloadGenerator(
        seed=seed, input_size_range=(4.0, 8.0), map_rate=8.0, reduce_rate=8.0
    ).make_workload(3, interarrival=0.3)
    sim = MapReduceSimulator(
        _topology(),
        make_scheduler("hit-online", seed=seed),
        jobs,
        SimulationConfig(seed=seed, timeline_dt=dt),
    )
    sim.timeline = TimelineRecorder(
        sim.topology, dt, ring_size=ring_size, path=path
    )
    sim.run()
    return sim


def test_max_samples_must_be_positive():
    with pytest.raises(ValueError):
        TimelineRecorder(_topology(), ring_size=0)


def test_spill_bounds_memory_and_keeps_every_sample(tmp_path):
    """Streamed ring: memory holds exactly the last N samples, the file
    holds every sample of the unbounded run, in order."""
    path = tmp_path / "timeline.jsonl"
    unbounded = _recorded_sim(dt=0.05).timeline
    all_t = [s.t for s in unbounded.samples]
    assert len(all_t) > 16, "scenario too small to exercise the bound"

    bounded = _bounded_sim(16, path).timeline
    assert bounded.total_samples == len(all_t)
    assert [s.t for s in bounded.samples] == all_t[-16:]
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert [row["t"] for row in lines] == all_t
    assert bounded.sink.lines == len(all_t) and bounded.sink.closed
    assert set(lines[0]) >= {"t", "switch_util", "link_util",
                             "server_occupancy", "active_flows"}
    # Each streamed row is the unbounded run's sample, field for field.
    last = unbounded.samples[-1]
    assert lines[-1]["switch_util"] == last.switch_util.tolist()
    assert lines[-1]["queue_depth"] == last.queue_depth


def test_bounded_summary_matches_unbounded(tmp_path):
    unbounded = _recorded_sim(dt=0.05).timeline
    bounded = _bounded_sim(16, tmp_path / "tl.jsonl").timeline
    # Peaks and counts come from running aggregates, not the ring.
    assert bounded.summary() == pytest.approx(unbounded.summary())


def test_spill_without_path_drops_but_counts():
    """Sink-less ring: the oldest samples are dropped, summary stays exact."""
    unbounded = _recorded_sim(dt=0.05).timeline
    bounded = _bounded_sim(16, path=None).timeline
    assert bounded.sink is None
    assert len(bounded.samples) == 16
    assert bounded.total_samples == len(unbounded.samples) > 16
    assert bounded.times().tolist() == unbounded.times().tolist()[-16:]
    assert bounded.summary() == pytest.approx(unbounded.summary())


def test_link_faults_become_markers():
    from repro.experiments.configs import testbed_tree
    from repro.faults import FaultKind, FaultSpec

    jobs = WorkloadGenerator(
        seed=0, input_size_range=(4.0, 8.0), map_rate=8.0, reduce_rate=8.0
    ).make_workload(3, interarrival=0.3)
    sim = MapReduceSimulator(
        testbed_tree(),
        make_scheduler("capacity", seed=0),
        jobs,
        SimulationConfig(
            seed=0,
            timeline_dt=0.1,
            faults=(
                FaultSpec(0.3, FaultKind.LINK_FAIL, 0, target2=64),
                FaultSpec(0.4, FaultKind.SERVER_FAIL, 5),
                FaultSpec(0.8, FaultKind.LINK_RECOVER, 0, target2=64),
                FaultSpec(0.9, FaultKind.SERVER_RECOVER, 5),
            ),
        ),
    )
    sim.run()
    assert sim.faults.summary()["faults.link_fail"] == 1
    assert [(m.t, m.kind) for m in sim.timeline.markers] == [
        (0.3, "link_fail"),
        (0.4, "server_fail"),
        (0.8, "link_recover"),
        (0.9, "server_recover"),
    ]

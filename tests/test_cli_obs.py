"""``--obs DIR``: one run directory with fixed file names."""

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    run = tmp_path_factory.mktemp("obs") / "run"
    assert main([
        "simulate", "--jobs", "2", "--obs", str(run), "--provenance",
        "--timeline", "0.2", "--scheduler", "capacity", "hit",
    ]) == 0
    return run


def _lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def test_exact_file_set(run_dir):
    assert sorted(p.name for p in run_dir.iterdir()) == [
        "decisions.capacity.jsonl",
        "decisions.hit.jsonl",
        "history.capacity.jsonl",
        "history.hit.jsonl",
        "perfetto.capacity.json",
        "perfetto.hit.json",
        "report.html",
        "timeline.capacity.jsonl",
        "timeline.hit.jsonl",
        "trace.jsonl",
    ]


def test_perfetto_exports_are_valid_with_counters(run_dir):
    from repro.obs import validate_chrome_trace

    for name in ("capacity", "hit"):
        trace = json.loads((run_dir / f"perfetto.{name}.json").read_text())
        assert validate_chrome_trace(trace) == []
        assert any(e["ph"] == "C" for e in trace["traceEvents"])


def test_explain_reads_the_run_directory(run_dir, capsys):
    capsys.readouterr()
    assert main(["explain", "--run", str(run_dir), "--summary"]) == 0
    out = capsys.readouterr().out
    assert "capacity" in out and "hit" in out


def test_streams_hold_every_record(run_dir):
    """Each decision log has ``recorder.emitted`` lines and each timeline
    file ``total_samples`` lines: rerun the same scenario in-process."""
    import dataclasses

    from repro.experiments import configs
    from repro.mapreduce import WorkloadGenerator
    from repro.obs import ProvenanceConfig
    from repro.schedulers import make_scheduler
    from repro.simulator import MapReduceSimulator

    jobs = WorkloadGenerator(
        seed=0, input_size_range=(4.0, 12.0), map_rate=8.0, reduce_rate=8.0
    ).make_workload(2, interarrival=0.5)
    config = dataclasses.replace(
        configs.testbed_simulation_config(seed=0),
        timeline_dt=0.2,
        provenance=ProvenanceConfig(),
    )
    for name in ("capacity", "hit"):
        sim = MapReduceSimulator(
            configs.testbed_tree(), make_scheduler(name, seed=0),
            list(jobs), config,
        )
        sim.run()
        decisions = _lines(run_dir / f"decisions.{name}.jsonl")
        assert len(decisions) == sim.provenance.emitted > 0
        timeline = _lines(run_dir / f"timeline.{name}.jsonl")
        assert len(timeline) == sim.timeline.total_samples > 0
        assert [json.loads(l)["t"] for l in timeline] == list(
            sim.timeline.times()
        )


def test_trace_ends_in_summary(run_dir):
    records = [json.loads(l) for l in _lines(run_dir / "trace.jsonl")]
    assert records and records[-1]["ev"] == "summary"


def test_crashed_run_still_closes_trace(tmp_path, monkeypatch):
    from repro.simulator import MapReduceSimulator

    real_run = MapReduceSimulator.run
    calls = []

    def crash_on_second(self):
        calls.append(self.scheduler.name)
        if len(calls) == 2:
            raise RuntimeError("mid-run crash")
        return real_run(self)

    monkeypatch.setattr(MapReduceSimulator, "run", crash_on_second)
    run = tmp_path / "run"
    with pytest.raises(RuntimeError, match="mid-run crash"):
        main([
            "simulate", "--jobs", "2", "--obs", str(run), "--provenance",
            "--scheduler", "capacity", "hit",
        ])
    records = [json.loads(l) for l in _lines(run / "trace.jsonl")]
    assert any(r["ev"] == "event" for r in records)  # the first run traced
    assert records[-1]["ev"] == "summary"
    assert (run / "history.capacity.jsonl").exists()

"""CLI behaviour of ``repro sweep``: exit codes, resume, shard identity."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

GRID_FLAGS = [
    "--seeds", "0", "1",
    "--schedulers", "capacity", "hit",
    "--topologies", "mini",
    "--arms", "baseline",
    "--jobs", "2",
    "--interarrival", "0.25",
]


def sweep_cmd(cache_dir, out=None, extra=()):
    argv = ["sweep", *GRID_FLAGS, "--cache-dir", str(cache_dir), *extra]
    if out is not None:
        argv += ["--out", str(out)]
    return argv


class TestExitCodes:
    def test_success_is_zero_and_prints_table(self, tmp_path, capsys):
        assert main(sweep_cmd(tmp_path / "cache")) == 0
        out = capsys.readouterr().out
        assert "4 cells — 4 ran, 0 cached, 0 failed" in out
        assert "capacity" in out and "hit" in out
        assert "mean_jct" in out

    def test_any_failed_cell_is_nonzero(self, tmp_path, capsys, monkeypatch):
        import repro.experiments.sweep as sweep_mod

        real_run_cell = sweep_mod.run_cell

        def flaky(cell):
            if cell.scheduler == "hit" and cell.seed == 1:
                raise RuntimeError("boom")
            return real_run_cell(cell)

        monkeypatch.setattr(sweep_mod, "run_cell", flaky)
        assert main(sweep_cmd(tmp_path / "cache")) == 1
        captured = capsys.readouterr()
        assert "1 failed" in captured.out
        assert "FAILED mini/hit/seed1/baseline" in captured.err
        assert "boom" in captured.err

    def test_force_and_resume_conflict_is_usage_error(self, tmp_path, capsys):
        assert main(
            sweep_cmd(tmp_path / "cache", extra=["--force", "--resume"])
        ) == 2
        assert "contradictory" in capsys.readouterr().err


class TestResumeFlag:
    def test_resume_on_empty_cache_dir_runs_everything(
        self, tmp_path, capsys
    ):
        cache = tmp_path / "never-populated"
        assert main(sweep_cmd(cache, extra=["--resume"])) == 0
        assert "4 ran, 0 cached" in capsys.readouterr().out

    def test_second_invocation_skips_cached_cells(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(sweep_cmd(cache)) == 0
        capsys.readouterr()
        assert main(sweep_cmd(cache, extra=["--resume"])) == 0
        assert "0 ran, 4 cached" in capsys.readouterr().out


class TestShardByteIdentity:
    def test_two_worker_smoke_equals_serial_bytes(self, tmp_path, capsys):
        """The 2x2 grid merged through two workers is byte-for-byte the
        serial run's output."""
        serial_out = tmp_path / "serial.json"
        sharded_out = tmp_path / "sharded.json"
        assert main(sweep_cmd(tmp_path / "c1", out=serial_out)) == 0
        assert main(
            sweep_cmd(tmp_path / "c2", out=sharded_out,
                      extra=["--workers", "2"])
        ) == 0
        capsys.readouterr()
        assert serial_out.read_bytes() == sharded_out.read_bytes()
        doc = json.loads(serial_out.read_text())
        assert doc["format"] == "repro.sweep.v1"
        assert len(doc["cells"]) == 4


class TestGridFile:
    def test_grid_file_overrides_inline_flags(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "seeds": [5],
            "schedulers": ["capacity"],
            "topologies": ["mini"],
            "arms": ["baseline", "static"],
            "workload": {"num_jobs": 2, "interarrival": 0.25},
        }))
        out = tmp_path / "merged.json"
        assert main([
            "sweep", "--grid", str(grid),
            "--cache-dir", str(tmp_path / "cache"), "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["cells"]) == 2
        arms = {c["config"]["arm"] for c in doc["cells"]}
        assert arms == {"baseline", "static"}

    def test_bad_grid_spec_raises(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"schedulers": ["nope"]}))
        with pytest.raises(ValueError, match="unknown scheduler"):
            main(["sweep", "--grid", str(grid),
                  "--cache-dir", str(tmp_path / "cache")])


class TestObservability:
    def test_trace_records_cell_timers_and_summary(self, tmp_path, capsys):
        trace = tmp_path / "obs" / "trace.jsonl"
        assert main(
            sweep_cmd(tmp_path / "cache", extra=["--obs", str(trace.parent)])
        ) == 0
        records = [
            json.loads(line)
            for line in trace.read_text().splitlines()
            if line.strip()
        ]
        cell_events = [r for r in records if r.get("name") == "sweep.cell"]
        assert len(cell_events) == 4
        assert all(r["ok"] and r["dur_ms"] >= 0 for r in cell_events)
        summaries = [r for r in records if r.get("name") == "sweep.summary"]
        assert len(summaries) == 1
        assert summaries[0]["cells"] == 4 and summaries[0]["ran"] == 4
        final = records[-1]
        assert final["ev"] == "summary"
        assert final["counters"].get("sweep.cells_ran") == 4
        assert "sweep.cell" in final["timers"]

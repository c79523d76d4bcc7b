"""``repro explain`` — decision-chain reconstruction from spilled logs.

The chain test runs against a hand-crafted ``decisions.*.jsonl`` so the
expected output is an exact golden string; the end-to-end test drives a
real ``simulate --obs DIR --provenance`` run and then explains a task from it.
"""

import json

import pytest

from repro.cli import main
from repro.obs import DecisionRecord


def _write_log(path, scheduler, rows):
    lines = []
    for seq, row in enumerate(rows):
        record = DecisionRecord(seq=seq, scheduler=scheduler, **row)
        lines.append(json.dumps(record.to_dict(), sort_keys=True,
                                separators=(",", ":")))
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def run_dir(tmp_path):
    _write_log(
        tmp_path / "decisions.hit.jsonl",
        "hit",
        [
            {"t": 0.0, "kind": "admission", "reason": "batch-fifo", "job": 1},
            {"t": 0.1, "kind": "placement", "reason": "node-local",
             "job": 1, "task": "m3", "attempt": 0,
             "detail": {"chosen": 11}},
            {"t": 0.2, "kind": "placement", "reason": "rack-local",
             "job": 1, "task": "m4", "attempt": 0},
            {"t": 0.9, "kind": "route", "reason": "policy-optimal",
             "job": 1, "task": "m3->r0"},
            {"t": 1.1, "kind": "placement", "reason": "node-local",
             "job": 2, "task": "m3"},
        ],
    )
    _write_log(
        tmp_path / "decisions.pna.jsonl",
        "pna",
        [
            {"t": 0.0, "kind": "admission", "reason": "batch-fifo", "job": 1},
            {"t": 0.3, "kind": "placement", "reason": "remote",
             "job": 1, "task": "m3", "attempt": 0},
        ],
    )
    return tmp_path


class TestExplainChain:
    def test_golden_chain_output(self, run_dir, capsys):
        assert main(["explain", "--run", str(run_dir), "--scheduler", "hit",
                     "--job", "1", "--task", "m3"]) == 0
        out = capsys.readouterr().out
        assert out == (
            "decision chain for job 1 task m3 (hit, 3 records):\n"
            '  #0 t=0.000000 admission batch-fifo job=1\n'
            '  #1 t=0.100000 placement node-local job=1 task=m3 attempt=0'
            ' {"chosen":11}\n'
            "  #3 t=0.900000 route policy-optimal job=1 task=m3->r0\n"
        )

    def test_chains_never_interleave_across_schedulers(self, run_dir, capsys):
        assert main(["explain", "--run", str(run_dir),
                     "--job", "1", "--task", "m3"]) == 0
        out = capsys.readouterr().out
        # One chain per scheduler, each internally seq-ordered.
        assert "(hit, 3 records)" in out
        assert "(pna, 2 records)" in out
        hit_part = out.split("(pna, 2 records)")[0]
        assert "remote" not in hit_part

    def test_job_level_chain(self, run_dir, capsys):
        assert main(["explain", "--run", str(run_dir), "--scheduler", "hit",
                     "--job", "2"]) == 0
        out = capsys.readouterr().out
        assert "decision chain for job 2 (hit, 1 records):" in out
        assert "task=m3" in out

    def test_single_file_target(self, run_dir, capsys):
        log = run_dir / "decisions.pna.jsonl"
        assert main(["explain", "--run", str(log), "--job", "1"]) == 0
        assert "(pna, 2 records)" in capsys.readouterr().out


class TestExplainSummary:
    def test_summary_table(self, run_dir, capsys):
        assert main(["explain", "--run", str(run_dir), "--summary"]) == 0
        out = capsys.readouterr().out
        assert "placement:node-local" in out
        assert "placement:remote" in out
        for scheduler in ("hit", "pna"):
            assert scheduler in out


class TestExplainErrors:
    def test_no_logs_is_exit_2(self, tmp_path, capsys):
        assert main(["explain", "--run", str(tmp_path), "--job", "1"]) == 2
        assert "no decision logs" in capsys.readouterr().err

    def test_missing_job_without_summary_is_exit_2(self, run_dir, capsys):
        assert main(["explain", "--run", str(run_dir)]) == 2

    def test_unmatched_query_is_exit_1(self, run_dir, capsys):
        assert main(["explain", "--run", str(run_dir), "--job", "99"]) == 1


class TestExplainEndToEnd:
    def test_simulate_then_explain(self, tmp_path, capsys):
        prov = tmp_path / "prov"
        assert main([
            "simulate", "--scheduler", "hit", "--jobs", "3", "--seed", "0",
            "--obs", str(prov), "--provenance",
        ]) == 0
        capsys.readouterr()
        assert main(["explain", "--run", str(prov), "--job", "0",
                     "--task", "m0"]) == 0
        out = capsys.readouterr().out
        assert "decision chain for job 0 task m0 (hit," in out
        assert "placement" in out
        capsys.readouterr()
        assert main(["explain", "--run", str(prov), "--summary"]) == 0
        assert "admission:batch-fifo" in capsys.readouterr().out

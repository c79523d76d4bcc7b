"""The sweep's chaos arm: contract-clean cells, hash preservation."""

from __future__ import annotations

import json
import re

import pytest

from repro.experiments.sweep import (
    DEFAULT_CHAOS,
    CellConfig,
    SweepSpec,
    run_cell,
)

from .conftest import mini_spec_dict


def chaos_cell(trials=3, **overrides) -> CellConfig:
    chaos = dict(DEFAULT_CHAOS, trials=trials, **overrides)
    return CellConfig.from_dict(
        {
            "seed": 0,
            "scheduler": "capacity",
            "topology": {"name": "mini"},
            "arm": "chaos",
            "workload": {"num_jobs": 2, "interarrival": 0.25},
            "chaos": chaos,
        }
    )


class TestHashPreservation:
    def test_non_chaos_cells_have_no_chaos_key(self):
        spec = SweepSpec.from_dict(mini_spec_dict())
        for cell in spec.cells():
            assert "chaos" not in cell.to_dict()

    def test_chaos_cells_carry_the_section(self):
        raw = mini_spec_dict()
        raw["arms"] = ["baseline", "chaos"]
        spec = SweepSpec.from_dict(raw)
        by_arm = {}
        for cell in spec.cells():
            by_arm.setdefault(cell.arm, cell.to_dict())
        assert "chaos" not in by_arm["baseline"]
        assert by_arm["chaos"]["chaos"]["trials"] == DEFAULT_CHAOS["trials"]

    def test_spec_roundtrip_keeps_chaos_knobs(self):
        raw = mini_spec_dict()
        raw["arms"] = ["chaos"]
        raw["chaos"] = dict(DEFAULT_CHAOS, trials=9)
        spec = SweepSpec.from_dict(raw)
        body = spec.to_dict()
        body.pop("format")  # to_dict stamps it; grid files omit it
        again = SweepSpec.from_dict(body)
        assert again.chaos["trials"] == 9
        assert again.to_dict() == spec.to_dict()


class TestChaosCell:
    def test_cell_is_contract_clean_and_plain_data(self):
        result = run_cell(chaos_cell())
        assert result["summary"]["violations"] == 0.0
        assert result["summary"]["trials"] == 3.0
        assert (
            result["summary"]["ok"] + result["summary"]["failed_accounted"]
            == 3.0
        )
        assert len(result["trials"]) == 3
        # Plain JSON data, round-trippable without loss.
        assert json.loads(json.dumps(result, sort_keys=True)) == result

    def test_cell_is_deterministic(self):
        a = run_cell(chaos_cell())
        b = run_cell(chaos_cell())
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_rerun_flag_checks_byte_identity(self):
        result = run_cell(chaos_cell(rerun=1))
        assert all(
            "nondeterministic rerun" not in v
            for row in result["trials"]
            for v in row.get("violations", ())
        )

    def test_failed_trials_carry_provenance_digest(self):
        result = run_cell(chaos_cell(trials=4, max_task_retries=0))
        failed = [t for t in result["trials"] if t["status"] == "failed"]
        assert failed, "a zero retry budget must fail some trial"
        assert result["summary"]["failed_accounted"] == float(len(failed))
        for row in result["trials"]:
            if row["status"] == "failed":
                assert row["provenance"]["decisions"] > 0
                assert re.fullmatch(
                    r"[0-9a-f]{64}", row["provenance"]["fingerprint"]
                )
            else:
                assert "provenance" not in row

    def test_chaos_section_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="chaos"):
            CellConfig.from_dict(
                {
                    "seed": 0,
                    "scheduler": "capacity",
                    "topology": {"name": "mini"},
                    "arm": "chaos",
                    "workload": {"num_jobs": 2, "interarrival": 0.25},
                    "chaos": {"trails": 3},
                }
            )

"""Chaos harness: the survivability contract over randomized campaigns.

The headline test is the acceptance gate: 52 seeded randomized timelines
(correlated domains, link faults and degradations, partition trials every
4th seed) across 2 topologies × 2 schedulers, each rerun for byte-identity,
with zero contract violations.
"""

import json
import re
from types import SimpleNamespace

import pytest

from repro.faults.chaos import (
    CHAOS_TOPOLOGIES,
    ChaosConfig,
    ChaosReport,
    WatchdogSimulator,
    graded_trial,
    run_chaos,
    sample_chaos_timeline,
)
from repro.mapreduce import WorkloadGenerator
from repro.schedulers import make_scheduler
from repro.simulator import MapReduceSimulator, SimulationConfig


class TestSurvivabilityCampaign:
    def test_52_trials_zero_violations(self):
        report = run_chaos(ChaosConfig(trials=52, seed=0))
        assert len(report.trials) == 52
        assert report.violations == [], [
            (t.trial, t.violations) for t in report.violations
        ]
        # The campaign must actually exercise the whole grid...
        grids = {(t.scheduler, t.topology) for t in report.trials}
        assert grids == {
            (s, t) for s in ("capacity", "hit") for t in ("small", "deep")
        }
        # ...and actual fault activity, including partition trials.
        assert sum(t.num_specs for t in report.trials) > 0
        assert any(t.allow_partition for t in report.trials)
        fired = set()
        for t in report.trials:
            fired.update(t.counters)
        assert "faults.link_fail" in fired or "faults.link_degrade" in fired
        assert "faults.domain_fail" in fired

    def test_report_canonical_and_stable(self):
        a = run_chaos(ChaosConfig(trials=4, seed=7, rerun=False))
        b = run_chaos(ChaosConfig(trials=4, seed=7, rerun=False))
        assert a.canonical() == b.canonical()
        doc = json.loads(a.canonical())
        assert doc["summary"]["trials"] == 4
        assert len(doc["trials"]) == 4


class TestNoFaultByteIdentity:
    def test_chaos_engine_matches_plain_engine(self, small_tree):
        """A chaos simulator with no fault timeline is the plain engine:
        same metrics, same event count, byte for byte."""

        def run(cls):
            jobs = WorkloadGenerator(
                seed=5, input_size_range=(2.0, 4.0)
            ).make_workload(3, interarrival=0.5)
            sim = cls(
                small_tree,
                make_scheduler("hit", seed=5),
                jobs,
                SimulationConfig(seed=5),
            )
            metrics = sim.run()
            return metrics.summary(), sim.events_processed

        plain = run(MapReduceSimulator)
        chaos = run(WatchdogSimulator)
        assert plain == chaos


class TestWatchdogAndFailures:
    def test_watchdog_trips_on_stall(self, small_tree):
        """An absurdly low stall limit must trip on any real run — proving
        the watchdog is live — and be reported as a contract violation."""
        jobs = WorkloadGenerator(
            seed=5, input_size_range=(2.0, 4.0)
        ).make_workload(2, interarrival=0.5)
        sim = WatchdogSimulator(
            small_tree,
            make_scheduler("capacity", seed=5),
            jobs,
            SimulationConfig(seed=5),
            stall_limit=0,
        )
        with pytest.raises(RuntimeError, match="chaos watchdog"):
            sim.run()

    def test_retry_exhaustion_is_accounted_not_violation(self):
        """With a zero retry budget under heavy faults, the run aborts with
        the engine's explicit reason — an accounted failure, not a
        contract violation."""
        report = run_chaos(
            ChaosConfig(
                trials=10,
                seed=0,
                schedulers=("capacity",),
                topologies=("small",),
                max_task_retries=0,
                partition_every=0,
            )
        )
        assert [t.seed for t in report.trials] == list(range(10))
        failures = 0
        for trial in report.trials:
            assert trial.violations == ()
            if trial.status == "failed":
                failures += 1
                assert "exceeded max_task_retries" in trial.reason
                # The failed trial ships its own explanation.
                assert trial.provenance["decisions"] > 0
                assert re.fullmatch(
                    r"[0-9a-f]{64}", trial.provenance["fingerprint"]
                )
            else:
                assert trial.provenance == {}
        assert failures > 0, "some seed must exhaust a zero retry budget"
        assert report.summary()["failed_accounted"] == failures

    def test_violating_failures_are_not_counted_as_accounted(self):
        """A stalled trial fails *and* violates the contract: the summary
        counts it as a violation only."""
        report = run_chaos(ChaosConfig(trials=2, stall_limit=0, rerun=False))
        assert all(t.status == "failed" for t in report.trials)
        assert report.summary() == {
            "trials": 2,
            "ok": 0,
            "failed_accounted": 0,
            "violations": 2,
        }


class TestGradedTrial:
    def test_graded_trial_flags_nondeterminism_and_explains_it(self):
        """A grader whose fingerprint drifts between passes is flagged on
        the rerun compare, and the flagged trial gets a provenance pass."""
        calls: list = []

        def make_build(provenance):
            return lambda: (SimpleNamespace(provenance=None), provenance)

        def grade(build):
            _, provenance = build()
            calls.append(provenance)
            return "ok", "", str(len(calls)) * 64, []

        status, reason, fingerprint, violations, digest = graded_trial(
            make_build, grade, rerun=True
        )
        assert (status, reason) == ("ok", "")
        assert fingerprint == "1" * 64
        assert violations == [
            "nondeterministic rerun: 111111111111 vs 222222222222"
        ]
        assert calls[:2] == [None, None]
        assert calls[2].ring_size == 1024
        assert digest == {}


class TestTimelineSampling:
    def test_deterministic(self):
        topo = CHAOS_TOPOLOGIES["small"]()
        a = sample_chaos_timeline(topo, seed=12)
        b = sample_chaos_timeline(topo, seed=12)
        assert a == b

    def test_seeds_vary_fault_mix(self):
        topo = CHAOS_TOPOLOGIES["small"]()
        mixes = {
            frozenset(s.kind for s in sample_chaos_timeline(topo, seed=seed))
            for seed in range(12)
        }
        assert len(mixes) > 1


class TestConfigValidation:
    def test_rejects_unknown_topology(self):
        with pytest.raises(ValueError, match="unknown chaos topologies"):
            ChaosConfig(topologies=("möbius",))

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials"):
            ChaosConfig(trials=0)

    def test_report_summary_counts(self):
        report = ChaosReport(config=ChaosConfig())
        assert report.summary() == {
            "trials": 0,
            "ok": 0,
            "failed_accounted": 0,
            "violations": 0,
        }

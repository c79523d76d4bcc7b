"""End-to-end simulation benchmark with per-layer host-time attribution.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload hit-online --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload hit-online --seed 1 --trace 1
    python3 perfbench/run.py --workload hit-online --seed 1      # print all

``--trace 0`` runs whole simulations back to back for ``--seconds`` seconds
with only the decision-latency hook on and reports the end-to-end metrics.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics.  Both end with an invariant-checked pass.  Without
``--trace`` it does both and prints every metric, one per line.  The last
stdout line of a ``--trace`` run is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``); ``perfbench/README.md`` describes
the metrics and the checks behind ``correct``.
"""

from __future__ import annotations

import os

# One process, no extra threads: a multithreaded BLAS would put the host
# time of small-matrix numpy calls at the mercy of whatever else runs on
# the machine.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

#: Duration of :func:`speed_probe` at the reference machine speed.
PROBE_REFERENCE_S = 0.02
#: Invariants a run may violate and still count as correct.  Eq-4 switch
#: capacity is overcommitted by design when Alg-1 falls back to
#: uncapacitated routing; it is reported as a count, not an error.
TOLERATED_INVARIANTS = frozenset({"switch-capacity"})

END_TO_END = {
    "setup_s": "s",
    "tasks_per_s": "tasks/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    # decision latency of the untraced pass (the one hook left on)
    "decision_ms_p50": "ms",
    "decision_ms_tail": "ms",
    # simulated outcomes and failure accounting (deterministic per seed)
    "runs_failed_frac": "ratio",
    "jobs_failed_frac": "ratio",
    "jct_sim_mean": "sim-time",
    "jct_sim_tail": "sim-time",
    "shuffle_cost_sim": "GB.T",
    "eq4_overcommit_frac": "ratio",
    "invariants.switch_capacity": "count",
    "decision.samples": "count",
    "decision.tail_pct": "pct",
    # simulator.engine
    "engine.events": "count",
    "engine.self_s": "s",
    "engine.us_per_event": "us",
    # simulator.network
    "network.recompute.calls": "count",
    "network.recompute.self_s": "s",
    "network.flow_ops": "count",
    "network.flow_ops.self_s": "s",
    "network.reroutes": "count",
    "network.advance.self_s": "s",
    # core.policy (Alg-1)
    "policy.optimal_path.calls": "count",
    "policy.optimal_path.self_s": "s",
    "policy.no_feasible": "count",
    "policy.capacitated_ratio": "ratio",
    "policy.assign_release.self_s": "s",
    "policy.route_flow.self_s": "s",
    # topology.routing / topology.base
    "routing.enumerate_paths.calls": "count",
    "routing.enumerate_paths.self_s": "s",
    "routing.shortest_path.self_s": "s",
    # core.taa
    "taa.install_all.calls": "count",
    "taa.install_all.self_s": "s",
    # core.preference
    "preference.build.calls": "count",
    "preference.build.self_s": "s",
    "preference.columns": "count",
    "preference.columns.self_s": "s",
    # core.matching (Alg-2)
    "matching.calls": "count",
    "matching.self_s": "s",
    "matching.proposals": "count",
    "matching.evictions": "count",
    # core.hit
    "hit.waves": "count",
    "hit.sweeps": "count",
    "hit.improving_sweep_ratio": "ratio",
    "hit.self_s": "s",
    # schedulers.*
    "schedulers.decisions": "count",
    "schedulers.self_s": "s",
    "schedulers.rank_backup.calls": "count",
    "schedulers.rank_backup.self_s": "s",
    # workload.admission
    "admission.offers": "count",
    "admission.self_s": "s",
    "admission.deferrals": "count",
    "admission.rejected": "count",
    # faults.injector
    "faults.events": "count",
    "faults.self_s": "s",
    "faults.flows_rerouted": "count",
    "faults.retries": "count",
    # speculation.*
    "speculation.sweeps.self_s": "s",
    "speculation.launched": "count",
    "speculation.win_ratio": "ratio",
    # cluster.state
    "cluster.place_unplace.calls": "count",
    "cluster.place_unplace.self_s": "s",
    "cluster.candidates.self_s": "s",
    # mapreduce.hdfs
    "hdfs.place.self_s": "s",
    # the benchmark itself
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}

#: Span names whose self time each ``*.self_s`` metric reports; together
#: with ``engine.self_s`` they must cover every span the tracer records.
SELF_TIME_SPANS = {
    "network.recompute.self_s": "network.recompute",
    "network.flow_ops.self_s": "network.flow_ops",
    "network.advance.self_s": "network.advance",
    "policy.optimal_path.self_s": "policy.optimal_path",
    "policy.assign_release.self_s": "policy.assign_release",
    "policy.route_flow.self_s": "policy.route_flow",
    "routing.enumerate_paths.self_s": "routing.enumerate_paths",
    "routing.shortest_path.self_s": "routing.shortest_path",
    "taa.install_all.self_s": "taa.install_all",
    "preference.build.self_s": "preference.build",
    "preference.columns.self_s": "preference.columns",
    "matching.self_s": "matching",
    "hit.self_s": "hit",
    "schedulers.self_s": "schedulers",
    "schedulers.rank_backup.self_s": "schedulers.rank_backup",
    "admission.self_s": "admission",
    "faults.self_s": "faults",
    "speculation.sweeps.self_s": "speculation.sweeps",
    "cluster.place_unplace.self_s": "cluster.place_unplace",
    "cluster.candidates.self_s": "cluster.candidates",
    "hdfs.place.self_s": "hdfs.place",
}

FAULT_EVENT_KEYS = (
    "faults.server_fail",
    "faults.server_recover",
    "faults.switch_fail",
    "faults.switch_recover",
    "faults.link_fail",
    "faults.link_recover",
    "faults.link_degrade",
    "faults.link_restore",
    "faults.slowdown",
    "faults.slowdown_restore",
)


# ------------------------------------------------------------ one simulation
@dataclass
class CellRun:
    """Outcome of one simulation (one cell of one pass)."""

    run_s: float
    submitted: int
    completed_jobs: int
    completed_tasks: int
    jcts: list[float]
    shuffle_cost: float
    events: int
    error: str | None
    fingerprint: str
    admission: dict[str, int] = field(default_factory=dict)
    faults: dict[str, float] = field(default_factory=dict)
    speculation: dict[str, int] = field(default_factory=dict)


def _fingerprint(sim, error: str | None) -> str:
    """Canonical digest of a run's simulated outputs."""
    body = {
        "summary": sim.metrics.summary(),
        "admission": sim.admission.counters() if sim.admission else {},
        "events": sim.events_processed,
        "error": error,
        "jobs": len(sim.metrics.jobs),
        "tasks": len(sim.metrics.tasks),
    }
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cell(sim) -> CellRun:
    """Run one built simulator; a raise is recorded, never retried."""
    error = None
    start = time.perf_counter()
    try:
        sim.run()
    except Exception as exc:  # every escape is a counted, reported outcome
        error = f"{type(exc).__name__}: {exc}"
    run_s = time.perf_counter() - start
    metrics = sim.metrics
    return CellRun(
        run_s=run_s,
        submitted=len(sim.jobs),
        completed_jobs=len(metrics.jobs),
        completed_tasks=len(metrics.tasks),
        jcts=[float(x) for x in metrics.job_completion_times()],
        shuffle_cost=metrics.total_shuffle_cost(),
        events=sim.events_processed,
        error=error,
        fingerprint=_fingerprint(sim, error),
        admission=sim.admission.counters() if sim.admission else {},
        faults=sim.faults.summary() if sim.faults else {},
        speculation=sim.speculation.summary() if sim.speculation else {},
    )


@dataclass
class Pass:
    """One pass: every cell of the workload, set up and run once."""

    setups: list[float]
    cells: list[CellRun]
    decisions: list[float]
    probes: list[float] = field(default_factory=list)

    @property
    def run_s(self) -> float:
        return sum(c.run_s for c in self.cells)

    @property
    def fingerprint(self) -> str:
        return hashlib.sha256(
            "".join(c.fingerprint for c in self.cells).encode()
        ).hexdigest()


def build_all(builders) -> tuple[list, list[float]]:
    """Set up every cell; returns the simulators and each one's set-up time."""
    sims, setups = [], []
    for build in builders:
        start = time.perf_counter()
        sims.append(build())
        setups.append(time.perf_counter() - start)
    return sims, setups


def run_pass(builders, context=None, probe: bool = False) -> Pass:
    """Set up and run every cell; ``context(sim)`` wraps each ``run()``.

    With ``probe``, the machine-speed probe runs before the first cell and
    after every cell.
    """
    from tracing import DecisionTimer

    gc.collect()
    sims, setups = build_all(builders)
    timer = DecisionTimer()
    cells = []
    probes = [speed_probe()] if probe else []
    for sim in sims:
        with timer.installed(type(sim.scheduler)):
            if context is None:
                cells.append(run_cell(sim))
            else:
                with context(sim):
                    cells.append(run_cell(sim))
        if probe:
            probes.append(speed_probe())
    return Pass(setups, cells, timer.samples, probes)


# ----------------------------------------------------------- machine speed
_PROBE_RNG = np.random.default_rng(0)
_PROBE_MATRIX = _PROBE_RNG.random((48, 48))
_PROBE_ROWS = _PROBE_RNG.integers(0, 48, 256)


def speed_probe() -> float:
    """Seconds a fixed mix of interpreter and small-array work takes now.

    The work imitates the simulator's (dict updates, integer arithmetic,
    small numpy gathers and reductions) but calls none of its code, so a
    change to the program never changes the probe.
    """
    start = time.perf_counter()
    counts: dict[int, int] = {}
    acc = 0.0
    for i in range(24_000):
        key = i % 211
        counts[key] = counts.get(key, 0) + 1
        acc += (i * 7) % 13
    for _ in range(300):
        rows = _PROBE_MATRIX[_PROBE_ROWS % 48]
        acc += float(np.where(rows > 0.5, rows, 0.0).min(axis=0).sum())
        acc += int(_PROBE_MATRIX.argmin(axis=1).sum())
    return time.perf_counter() - start


# ------------------------------------------------------------------- checks
def check_pass(workload: str, p: Pass) -> list[str]:
    """Online accounting: every submitted job completed, rejected or queued."""
    problems = []
    for i, cell in enumerate(p.cells):
        if workload == "hit-online" and cell.error is None:
            a = cell.admission
            accounted = (
                cell.completed_jobs + a["admission.rejected"] + a["admission.queued"]
            )
            if accounted != a["admission.submitted"]:
                problems.append(
                    f"cell {i}: completed {cell.completed_jobs} + rejected "
                    f"{a['admission.rejected']} + queued {a['admission.queued']}"
                    f" != submitted {a['admission.submitted']}"
                )
    return problems


def invariant_pass(builders) -> tuple[Pass, dict[str, int]]:
    """One untimed pass with the program's invariant checker collecting."""
    from repro.obs import InvariantChecker, observe

    checkers = []

    def checked(sim):
        checker = InvariantChecker(mode="collect")
        checkers.append(checker)
        return observe(checker=checker)

    p = run_pass(builders, checked)
    by_invariant: dict[str, int] = {}
    for checker in checkers:
        for name, n in checker.summary()["by_invariant"].items():
            by_invariant[name] = by_invariant.get(name, 0) + n
    return p, by_invariant


# ------------------------------------------------------------------ metrics
def percentile(values: list[float], pct: float) -> float:
    return float(np.percentile(values, pct))


def tail_pct(n: int) -> float:
    """Highest multiple-of-5 percentile with at least ten samples beyond."""
    return max(0.0, 5.0 * math.floor(20.0 * (1.0 - 10.0 / n)))


def outcome_metrics(p: Pass) -> dict[str, float]:
    cells = p.cells
    jcts = [x for c in cells for x in c.jcts]
    submitted = sum(c.submitted for c in cells)
    completed = sum(c.completed_jobs for c in cells)
    return {
        "runs_failed_frac": sum(c.error is not None for c in cells) / len(cells),
        "jobs_failed_frac": (submitted - completed) / submitted,
        "jct_sim_mean": statistics.fmean(jcts) if jcts else 0.0,
        "jct_sim_tail": percentile(jcts, tail_pct(len(jcts))) if jcts else 0.0,
        "shuffle_cost_sim": sum(c.shuffle_cost for c in cells),
    }


def timed(workload, seed: int, seconds: float):
    """The measured window: whole passes, with only decisions timed.

    Passes repeat every cell; one starts only while it is expected to end
    inside the window, and at least one runs.  Host seconds are rescaled
    to the reference machine speed: times ``PROBE_REFERENCE_S`` over the
    median duration of the speed probe taken between the simulations.
    ``tasks_per_s`` is completed tasks over those seconds of ``run()``,
    summed over every simulation of the window; ``setup_s`` is the median
    set-up time of one simulation over the same simulations.
    """
    builders = workload.builders(seed)
    passes: list[Pass] = []
    start = time.perf_counter()
    while not passes or (
        (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds
    ):
        passes.append(run_pass(builders, probe=True))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cells = [c for p in passes for c in p.cells]
    speed = PROBE_REFERENCE_S / statistics.median(
        t for p in passes for t in p.probes
    )
    raw_tasks_per_s = sum(c.completed_tasks for c in cells) / sum(
        c.run_s for c in cells
    )
    metrics = {
        "setup_s": speed * statistics.median(t for p in passes for t in p.setups),
        "tasks_per_s": raw_tasks_per_s / speed,
        "peak_rss_mb": peak_rss_mb,
    }
    print(
        f"unscaled: tasks_per_s {raw_tasks_per_s:.6g} tasks/s "
        f"at machine speed {speed:.4g}"
    )
    return metrics, passes, []


def traced(workload, seed: int):
    """One untraced, one traced and one invariant-checked pass over the
    workload's leading ``traced_cells`` cells."""
    from tracing import SpanTracer, layer_hooks

    builders = workload.builders(seed, workload.traced_cells)
    plain = run_pass(builders)
    tracer = SpanTracer()
    run_ids = iter(range(1, len(builders) + 1))

    def tracing(sim):
        tracer.run_id = next(run_ids)
        return tracer.installed(layer_hooks(type(sim.scheduler)))

    traced_pass = run_pass(builders, tracing)
    wall = traced_pass.run_s
    c = tracer.counts
    m: dict[str, float] = {
        name: tracer.self_s(span) for name, span in SELF_TIME_SPANS.items()
    }
    problems = []
    unreported = set(tracer.stats) - set(SELF_TIME_SPANS.values())
    if unreported:
        problems.append(f"spans with no self-time metric: {unreported}")
    events = sum(cell.events for cell in traced_pass.cells)
    m["engine.self_s"] = wall - tracer.total_self_s()
    m["engine.events"] = events
    m["engine.us_per_event"] = 1e6 * m["engine.self_s"] / max(events, 1)
    covered = sum(m[name] for name in SELF_TIME_SPANS) + m["engine.self_s"]
    if m["engine.self_s"] < 0 or abs(covered - wall) > 1e-9 * max(wall, 1.0):
        problems.append(f"self times sum to {covered}, wall is {wall}")
    installs = c["policy.installs"]
    admission = _sum_dicts(cell.admission for cell in traced_pass.cells)
    faults = _sum_dicts(cell.faults for cell in traced_pass.cells)
    spec = _sum_dicts(cell.speculation for cell in traced_pass.cells)
    settled = spec.get("spec.wins", 0) + spec.get("spec.losses", 0)
    m.update(
        {
            "network.recompute.calls": tracer.calls("network.recompute"),
            "network.flow_ops": tracer.calls("network.flow_ops"),
            "network.reroutes": c["network.reroutes"],
            "policy.optimal_path.calls": tracer.calls("policy.optimal_path"),
            "policy.no_feasible": c[
                "policy.optimal_path.raised.NoFeasiblePathError"
            ],
            "policy.capacitated_ratio": (
                c["policy.installs_capacitated"] / installs if installs else 0.0
            ),
            "eq4_overcommit_frac": (
                (installs - c["policy.installs_capacitated"]) / installs
                if installs
                else 0.0
            ),
            "routing.enumerate_paths.calls": tracer.calls(
                "routing.enumerate_paths"
            ),
            "taa.install_all.calls": tracer.calls("taa.install_all"),
            "preference.build.calls": tracer.calls("preference.build"),
            "preference.columns": tracer.calls("preference.columns"),
            "matching.calls": tracer.calls("matching"),
            "matching.proposals": c["matching.proposals"],
            "matching.evictions": c["matching.evictions"],
            "hit.waves": c["hit.waves"],
            "hit.sweeps": c["hit.sweeps"],
            "hit.improving_sweep_ratio": (
                c["hit.improving_sweeps"] / c["hit.sweeps"]
                if c["hit.sweeps"]
                else 0.0
            ),
            "schedulers.decisions": len(traced_pass.decisions),
            "schedulers.rank_backup.calls": tracer.calls(
                "schedulers.rank_backup"
            ),
            "admission.offers": c["admission.offers"],
            "admission.deferrals": admission.get("admission.deferrals", 0),
            "admission.rejected": admission.get("admission.rejected", 0),
            "faults.events": sum(faults.get(k, 0) for k in FAULT_EVENT_KEYS),
            "faults.flows_rerouted": faults.get("faults.flows_rerouted", 0),
            "faults.retries": sum(
                v for k, v in faults.items() if k.startswith("retries.")
            ),
            "speculation.launched": spec.get("spec.launched", 0),
            "speculation.win_ratio": (
                spec.get("spec.wins", 0) / settled if settled else 0.0
            ),
            "cluster.place_unplace.calls": tracer.calls(
                "cluster.place_unplace"
            ),
            "trace.wall_s": wall,
            "trace.overhead_frac": (wall - plain.run_s) / plain.run_s,
            "decision_ms_p50": 1e3 * percentile(plain.decisions, 50.0),
            "decision_ms_tail": 1e3
            * percentile(plain.decisions, workload.tail_pct),
            "decision.samples": len(plain.decisions),
            "decision.tail_pct": workload.tail_pct,
        }
    )
    m.update(outcome_metrics(plain))
    checked, violations = invariant_pass(builders)
    m["invariants.switch_capacity"] = violations.get("switch-capacity", 0)
    bad = {k: v for k, v in violations.items() if k not in TOLERATED_INVARIANTS}
    if bad:
        problems.append(f"invariant violations: {bad}")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_perfetto(
        OUT_DIR / f"{workload.name}-seed{seed}.trace.json",
        {i + 1: f"{workload.name} cell {i}" for i in range(len(builders))},
    )
    return m, [plain, traced_pass, checked], problems


def _sum_dicts(dicts) -> dict[str, float]:
    total: dict[str, float] = {}
    for d in dicts:
        for k, v in d.items():
            total[k] = total.get(k, 0) + v
    return total


# --------------------------------------------------------------------- main
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put the checkout's ``src`` first on the path; fail if it is absent."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: program sources not found at {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    sys.path.insert(0, str(BENCH_DIR))


def describe_crashes(passes: list[Pass]) -> list[str]:
    """One line per raised simulation of the first pass (all passes agree)."""
    return [
        f"crash: cell {i}: {c.error} (completed {c.completed_jobs}/"
        f"{c.submitted} jobs, {c.completed_tasks} tasks)"
        for i, c in enumerate(passes[0].cells)
        if c.error is not None
    ]


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]
    modes = (0, 1) if args.trace is None else (args.trace,)
    metrics: dict[str, float] = {}
    passes: list[Pass] = []
    problems: list[str] = []
    for mode in modes:
        if mode == 0:
            found, ran, issues = timed(workload, args.seed, args.seconds)
        else:
            found, ran, issues = traced(workload, args.seed)
        metrics.update(found)
        passes.extend(ran)
        problems.extend(issues)
        for p in ran:
            problems.extend(check_pass(workload.name, p))
            if p.fingerprint != ran[0].fingerprint:
                problems.append(
                    "outputs differ between runs of one seed "
                    f"({p.fingerprint[:12]} vs {ran[0].fingerprint[:12]})"
                )
    correct = not problems
    cells = [c for p in passes for c in p.cells]
    lines = describe_crashes(passes) + [f"incorrect: {r}" for r in problems]
    wanted = dict(END_TO_END) if 0 in modes else {}
    if 1 in modes:
        wanted.update(PER_LAYER)
    for name, unit in wanted.items():
        lines.append(f"{name} {metrics[name]:.6g} {unit}")
    print("\n".join(lines))
    if args.trace is None:
        return 0 if correct else 1
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(cells),
                "failed": sum(c.error is not None for c in cells),
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in wanted.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

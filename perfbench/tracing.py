"""Spans around the program's layer boundaries, recorded from outside.

Nothing under ``src/`` knows about this module.  :func:`layer_hooks` lists
the public entry points of each ``repro`` layer; :class:`SpanTracer` replaces
each one with a wrapper for the duration of a ``with tracer.installed(...)``
block and puts the original back on exit.  Class methods are patched on the
class; functions imported by name are patched at the consumer's binding
(``repro.core.hit.stable_match``, ``repro.core.policy.enumerate_paths``),
since patching the defining module would not reach them.

A span records its name, start, end, parent span and run id.  A span's
*self* time is its duration minus the durations of its wrapped children, so
the self times of all spans plus the unwrapped remainder (attributed to the
engine) add up to the wall time of the traced run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import repro.core.hit as core_hit
import repro.core.policy as core_policy
import repro.topology.routing as topo_routing
from repro.cluster.state import ClusterState
from repro.core.hit import HitOptimizer
from repro.core.policy import PolicyController
from repro.core.preference import PairCostCache
from repro.core.taa import TAAInstance
from repro.faults.injector import FaultInjector
from repro.mapreduce.hdfs import HdfsModel
from repro.simulator.network import FlowNetwork
from repro.speculation.detector import ProgressTracker
from repro.topology.base import Topology
from repro.workload.admission import AdmissionController

__all__ = ["SpanTracer", "DecisionTimer", "layer_hooks", "patched"]

#: (owner, attribute, span name, optional after-hook(tracer, result, args)).
Hook = tuple[Any, str, str, "Callable[[SpanTracer, Any, tuple], None] | None"]

_MISSING = object()


@contextmanager
def patched(replacements: list[tuple[Any, str, Callable]]) -> Iterator[None]:
    """Set ``owner.attr = value`` for each triple; restore all on exit."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


class DecisionTimer:
    """Host time of each outermost scheduler placement call.

    The one hook that stays on in timed runs: a ``perf_counter`` pair per
    ``place_initial_wave`` / ``place_map_wave``.  Nested calls (a base-class
    ``place_map_wave`` delegating to ``place_initial_wave``) count once.
    """

    ENTRY_POINTS = ("place_initial_wave", "place_map_wave")

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._depth = 0

    def _wrap(self, fn: Callable) -> Callable:
        clock = time.perf_counter
        samples = self.samples

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self._depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self._depth -= 1
                if self._depth == 0:
                    samples.append(elapsed)

        return timed

    def installed(self, scheduler_cls: type):
        return patched(
            [
                (scheduler_cls, name, self._wrap(getattr(scheduler_cls, name)))
                for name in self.ENTRY_POINTS
            ]
        )


class SpanTracer:
    """In-memory span recorder with per-name call and self-time totals."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        #: (name id, start, end, parent span index or -1, run id)
        self.spans: list[tuple[int, float, float, int, int]] = []
        #: span name -> [calls, self seconds]
        self.stats: dict[str, list] = {}
        #: counts taken at the same boundaries (after-hooks, raised errors)
        self.counts: Counter[str] = Counter()
        self.run_id = 0
        self._stack: list[list] = []

    def _wrap(self, name: str, fn: Callable, after) -> Callable:
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        stat = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack
        spans = self.spans
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)  # type: ignore[arg-type]
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                spans[index] = (name_id, start, end, parent, self.run_id)
            if after is not None:
                after(self, result, args)
            return result

        return span

    @contextmanager
    def installed(self, hooks: list[Hook]) -> Iterator[None]:
        replacements = [
            (owner, attr, self._wrap(name, getattr(owner, attr), after))
            for owner, attr, name, after in hooks
        ]
        with patched(replacements):
            yield

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0])[0]

    def total_self_s(self) -> float:
        return sum(stat[1] for stat in self.stats.values())

    def write_perfetto(self, path, labels: dict[int, str]) -> None:
        """Chrome trace-event JSON (complete events), which Perfetto opens.

        One process per run id, named by ``labels``; nesting on the single
        thread shows the parent chain, and each event carries its parent
        span index.
        """
        if not self.spans:
            return
        origin = min(span[1] for span in self.spans)
        with open(path, "w", encoding="utf-8") as out:
            out.write('{"displayTimeUnit":"ms","traceEvents":[\n')
            for run_id, label in sorted(labels.items()):
                out.write(
                    json.dumps(
                        {
                            "ph": "M",
                            "name": "process_name",
                            "pid": run_id,
                            "args": {"name": label},
                        }
                    )
                    + ",\n"
                )
            last = len(self.spans) - 1
            for index, (name_id, start, end, parent, run_id) in enumerate(
                self.spans
            ):
                out.write(
                    '{"ph":"X","name":"%s","pid":%d,"tid":1,"ts":%.3f,'
                    '"dur":%.3f,"args":{"span":%d,"parent":%d}}%s\n'
                    % (
                        self.names[name_id],
                        run_id,
                        (start - origin) * 1e6,
                        (end - start) * 1e6,
                        index,
                        parent,
                        "" if index == last else ",",
                    )
                )
            out.write("]}\n")


# ------------------------------------------------------------- count hooks
def _count_route(tracer: SpanTracer, policy, args: tuple) -> None:
    controller, flow = args[0], args[1]
    tracer.counts["policy.installs"] += 1
    if controller.is_capacitated(flow.flow_id):
        tracer.counts["policy.installs_capacitated"] += 1


def _count_reroute(tracer: SpanTracer, result, args: tuple) -> None:
    tracer.counts["network.reroutes"] += 1


def _count_offer(tracer: SpanTracer, result, args: tuple) -> None:
    tracer.counts["admission.offers"] += 1


def _count_matching(tracer: SpanTracer, result, args: tuple) -> None:
    tracer.counts["matching.proposals"] += result.proposals
    tracer.counts["matching.evictions"] += result.evictions


def _count_hit(tracer: SpanTracer, result, args: tuple) -> None:
    trace = result.cost_trace
    tracer.counts["hit.waves"] += 1
    tracer.counts["hit.sweeps"] += len(trace) - 1
    tracer.counts["hit.improving_sweeps"] += sum(
        1 for before, after in zip(trace, trace[1:]) if after < before
    )


def layer_hooks(scheduler_cls: type) -> list[Hook]:
    """Every wrapped entry point, by layer (span name = ``<layer>.<op>``)."""
    hooks: list[Hook] = [
        # simulator.network: the max-min allocator and flow table
        (FlowNetwork, "recompute_rates", "network.recompute", None),
        (FlowNetwork, "add_flow", "network.flow_ops", None),
        (FlowNetwork, "remove_flow", "network.flow_ops", None),
        (FlowNetwork, "reroute_flow", "network.flow_ops", _count_reroute),
        (FlowNetwork, "advance", "network.advance", None),
        (FlowNetwork, "time_to_next_completion", "network.advance", None),
        # core.policy: Algorithm 1
        (PolicyController, "optimal_path", "policy.optimal_path", None),
        (PolicyController, "route_flow", "policy.route_flow", _count_route),
        (PolicyController, "assign", "policy.assign_release", None),
        (PolicyController, "release", "policy.assign_release", None),
        (PolicyController, "clear", "policy.assign_release", None),
        # topology.routing / topology.base: path search, at every binding
        (core_policy, "enumerate_paths", "routing.enumerate_paths", None),
        (topo_routing, "enumerate_paths", "routing.enumerate_paths", None),
        (Topology, "shortest_path", "routing.shortest_path", None),
        # core.taa: policy install over a whole instance
        (TAAInstance, "install_all_policies", "taa.install_all", None),
        (TAAInstance, "install_static_policies", "taa.install_all", None),
        # core.preference: grading
        (core_hit, "build_preference_matrix", "preference.build", None),
        (PairCostCache, "column", "preference.columns", None),
        # core.matching: Algorithm 2
        (core_hit, "stable_match", "matching", _count_matching),
        # core.hit: the joint optimiser
        (HitOptimizer, "optimize_initial_wave", "hit", _count_hit),
        (HitOptimizer, "optimize_subsequent_wave", "hit", _count_hit),
        # schedulers.*
        (scheduler_cls, "place_initial_wave", "schedulers", None),
        (scheduler_cls, "place_map_wave", "schedulers", None),
        (scheduler_cls, "route_flows", "schedulers", None),
        (scheduler_cls, "rank_backup_servers", "schedulers.rank_backup", None),
        # workload.admission
        (AdmissionController, "offer", "admission", _count_offer),
        (AdmissionController, "peek", "admission", None),
        (AdmissionController, "commit", "admission", None),
        (AdmissionController, "defer", "admission", None),
        (AdmissionController, "queued_jobs", "admission", None),
        # faults.injector
        (FaultInjector, "schedule", "faults", None),
        (FaultInjector, "assert_path_clear", "faults", None),
        *(
            (FaultInjector, f"mark_{what}", "faults", None)
            for what in (
                "server_failed",
                "server_recovered",
                "switch_failed",
                "switch_recovered",
                "link_failed",
                "link_recovered",
                "link_degraded",
            )
        ),
        # speculation.*
        (ProgressTracker, "candidates", "speculation.sweeps", None),
        # cluster.state
        (ClusterState, "place", "cluster.place_unplace", None),
        (ClusterState, "unplace", "cluster.place_unplace", None),
        (ClusterState, "move", "cluster.place_unplace", None),
        (ClusterState, "candidate_servers", "cluster.candidates", None),
        # mapreduce.hdfs
        (HdfsModel, "place_job_blocks", "hdfs.place", None),
    ]
    return hooks

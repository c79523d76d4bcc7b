"""Simulated-time telemetry plane: gauge timelines keyed to the event clock.

Where :mod:`repro.obs.tracer` records *wall-clock* spans of the optimiser's
hot paths, this module records what the simulated cluster looks like as
**simulated time** advances: per-switch and per-link utilisation, per-server
container occupancy, event-queue depth, active/parked shuffle flows, and the
live fault/speculation state.  That is the instrumentation behind "where do
time and traffic go" questions — link saturation during a shuffle burst,
straggler onset, fault-recovery churn — that end-of-run aggregates
(:class:`~repro.simulator.metrics.MetricsCollector`) cannot answer.

The recorder is **opt-in** (``SimulationConfig.timeline_dt``; CLI
``--timeline [DT]``) and **provably non-perturbing**:

* it samples on a fixed grid ``t_k = k * dt`` of the *simulated* clock, at
  event boundaries — rates are piecewise constant between events, so the
  pre-dispatch state is exact for every grid point inside the elapsed
  interval;
* every read is side-effect free.  The only shared computation it can
  trigger is :meth:`~repro.simulator.network.FlowNetwork.ensure_rates`,
  which is idempotent and deterministic (the engine would run the same
  recomputation at its next advance), so a recorded run is byte-identical
  to an unrecorded one — enforced by
  ``tests/simulator/test_nonperturbation.py`` across seeds, fault timelines
  and speculation.

The gauge catalogue is documented in ``docs/observability.md``; exports
(Perfetto trace, HTML report) live in :mod:`repro.obs.export`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from .sink import JsonlSink

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simulator.engine import MapReduceSimulator
    from ..simulator.events import Event
    from ..topology.base import Topology

__all__ = ["TimelineMarker", "TimelineRecorder", "TimelineSample"]


#: Event kinds that become discrete markers on the timeline (compared by
#: name so this module never imports the simulator at import time).
_MARKER_KINDS = frozenset(
    {
        "SERVER_FAIL",
        "SERVER_RECOVER",
        "SWITCH_FAIL",
        "SWITCH_RECOVER",
        "LINK_FAIL",
        "LINK_RECOVER",
        "LINK_DEGRADE",
        "TASK_SLOWDOWN",
        "KILL_ATTEMPT",
    }
)


@dataclass(frozen=True)
class TimelineSample:
    """One snapshot of the simulated cluster at grid time ``t``."""

    t: float
    #: Utilisation (rate / capacity) per switch, ordered by switch id.
    switch_util: np.ndarray
    #: Utilisation per *directed* link, ordered by (u, v).
    link_util: np.ndarray
    #: Fraction of each server's memory capacity in use, ordered by id.
    server_occupancy: np.ndarray
    #: Containers currently placed somewhere.
    running_containers: int
    #: Events still queued (including future fault-timeline entries).
    queue_depth: int
    active_flows: int
    parked_flows: int
    #: Subsystem gauges: ``failed_servers`` / ``failed_switches`` (faults),
    #: ``live_backups`` / ``live_pairs`` (speculation).  Empty when the
    #: corresponding subsystem is off.
    gauges: dict[str, float]

    @property
    def max_switch_util(self) -> float:
        return float(self.switch_util.max()) if self.switch_util.size else 0.0

    @property
    def max_link_util(self) -> float:
        return float(self.link_util.max()) if self.link_util.size else 0.0

    @property
    def mean_link_util(self) -> float:
        return float(self.link_util.mean()) if self.link_util.size else 0.0


@dataclass(frozen=True)
class TimelineMarker:
    """A discrete fault/speculation occurrence pinned to the event clock."""

    t: float
    kind: str
    detail: str


def _sample_to_dict(sample: TimelineSample) -> dict[str, Any]:
    """JSON-serialisable form of one sample (one line of the sink)."""
    return {
        k: v.tolist() if isinstance(v, np.ndarray) else v
        for k, v in vars(sample).items()
    }


class TimelineRecorder:
    """Samples gauges on a fixed simulated-time grid during a run.

    The engine calls :meth:`observe` with each event *before* dispatching
    it, and :meth:`finish` once the queue drains.  All state reads are
    side-effect free; see the module docstring for the non-perturbation
    argument.
    """

    def __init__(
        self,
        topology: "Topology",
        dt: float = 0.05,
        *,
        ring_size: int | None = None,
        path: str | Path | None = None,
    ) -> None:
        if dt <= 0:
            raise ValueError(f"timeline dt must be positive, got {dt}")
        if ring_size is not None and ring_size < 1:
            raise ValueError("timeline ring_size must be >= 1")
        self.topology = topology
        self.dt = float(dt)
        #: In-memory samples: every one with ``ring_size=None``, else the
        #: most recent ``ring_size``.  Queries (:meth:`times`,
        #: :meth:`series`, :meth:`switch_series`) cover this ring;
        #: :meth:`summary` stays exact via running aggregates.
        self.samples: deque[TimelineSample] = deque(maxlen=ring_size)
        self.markers: list[TimelineMarker] = []
        self.switch_ids: tuple[int, ...] = tuple(topology.switch_ids)
        self.server_ids: tuple[int, ...] = tuple(topology.server_ids)
        #: Directed-link keys in sample order (fixed on the first sample).
        self.link_keys: tuple[tuple[int, int], ...] | None = None
        #: Receives every sample as one JSON line (None = memory only).
        self.sink = None if path is None else JsonlSink(path)
        #: Samples taken over the whole run, in the ring or not.
        self.total_samples = 0
        self._tick = 0
        self._finished = False
        # Running aggregates so summary() is exact whatever the ring holds.
        self._peak_switch_util = 0.0
        self._peak_link_util = 0.0
        self._peak_queue_depth = 0
        self._peak_active_flows = 0
        self._peak_occupancy = 0.0

    # -------------------------------------------------------------- recording
    def observe(self, sim: "MapReduceSimulator", event: "Event") -> None:
        """Record grid samples up to ``event.time`` (pre-dispatch state)."""
        while self._tick * self.dt <= event.time:
            self._sample(sim, self._tick * self.dt)
            self._tick += 1
        kind = event.kind.name
        if kind in _MARKER_KINDS:
            self.markers.append(
                TimelineMarker(event.time, kind.lower(), str(event.payload))
            )

    def finish(self, sim: "MapReduceSimulator", t_end: float) -> None:
        """Record the drained end-of-run state exactly once."""
        if self._finished:
            return
        self._finished = True
        self._sample(sim, t_end)

    def _sample(self, sim: "MapReduceSimulator", t: float) -> None:
        network = sim.network
        network.ensure_rates()
        by_switch = network.utilisation_by_switch()
        by_link = network.utilisation_by_link()
        if self.link_keys is None:
            self.link_keys = tuple(sorted(by_link))
        cluster = sim.cluster
        occupancy = np.empty(len(self.server_ids), dtype=np.float64)
        running = 0
        for i, sid in enumerate(self.server_ids):
            cap = cluster.capacity(sid).memory
            occupancy[i] = cluster.used(sid).memory / cap if cap > 0 else 0.0
            running += len(cluster.hosted_on(sid))
        gauges: dict[str, float] = {}
        if sim.faults is not None:
            gauges.update(sim.faults.gauges())
        if sim.speculation is not None:
            gauges.update(sim.speculation.gauges())
        sample = TimelineSample(
            t=t,
            switch_util=np.array(
                [by_switch[w] for w in self.switch_ids], dtype=np.float64
            ),
            link_util=np.array(
                [by_link[k] for k in self.link_keys], dtype=np.float64
            ),
            server_occupancy=occupancy,
            running_containers=running,
            queue_depth=len(sim._queue),
            active_flows=len(network.active_flows),
            parked_flows=len(sim._parked),
            gauges=gauges,
        )
        self.total_samples += 1
        self._peak_switch_util = max(
            self._peak_switch_util, sample.max_switch_util
        )
        self._peak_link_util = max(self._peak_link_util, sample.max_link_util)
        self._peak_queue_depth = max(self._peak_queue_depth, sample.queue_depth)
        self._peak_active_flows = max(
            self._peak_active_flows, sample.active_flows
        )
        if occupancy.size:
            self._peak_occupancy = max(
                self._peak_occupancy, float(occupancy.max())
            )
        self.samples.append(sample)
        if self.sink is not None:
            self.sink.write(_sample_to_dict(sample))

    # ---------------------------------------------------------------- queries
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    def series(self, name: str) -> np.ndarray:
        """Scalar gauge timeline by name.

        Built-ins: ``max_switch_util``, ``max_link_util``,
        ``mean_link_util``, ``queue_depth``, ``active_flows``,
        ``parked_flows``, ``running_containers``, ``mean_occupancy`` — plus
        any subsystem gauge key (``failed_servers``, ``live_backups``, …),
        which reads 0.0 on samples where the subsystem was off.
        """
        out = np.empty(len(self.samples), dtype=np.float64)
        for i, s in enumerate(self.samples):
            if name == "mean_occupancy":
                out[i] = (
                    float(s.server_occupancy.mean())
                    if s.server_occupancy.size
                    else 0.0
                )
            elif hasattr(s, name):
                out[i] = float(getattr(s, name))
            else:
                out[i] = s.gauges.get(name, 0.0)
        return out

    def switch_series(self, switch_id: int) -> np.ndarray:
        """Utilisation timeline of one switch."""
        idx = self.switch_ids.index(switch_id)
        return np.array([s.switch_util[idx] for s in self.samples])

    def summary(self) -> dict[str, Any]:
        """Aggregates for reports: peaks and means over the run.

        Computed from running aggregates maintained at sample time, so the
        values cover *every* sample taken, whatever the ring still holds.
        """
        if self.total_samples == 0:
            return {"samples": 0, "markers": len(self.markers)}
        return {
            "samples": self.total_samples,
            "markers": len(self.markers),
            "dt": self.dt,
            "peak_switch_util": float(self._peak_switch_util),
            "peak_link_util": float(self._peak_link_util),
            "peak_queue_depth": int(self._peak_queue_depth),
            "peak_active_flows": int(self._peak_active_flows),
            "peak_occupancy": float(self._peak_occupancy),
        }

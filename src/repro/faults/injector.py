"""Fault injection layer: timeline → simulator events + fault transitions.

:class:`FaultInjector` owns the boundary between a declarative timeline
(:mod:`repro.faults.spec`) and the discrete-event engine: it validates the
timeline against the fabric, pushes one event per fault into the
:class:`~repro.simulator.events.EventQueue`, applies each fault transition
to the component that owns the element, and keeps the ``faults.*`` /
``retries.*`` counters the observability layer reports.

Liveness has one owner per element: the
:class:`~repro.cluster.state.ClusterState` records dead servers and the
:class:`~repro.core.policy.PolicyController` records dead switches and dead
links and answers the one path-liveness question
(:meth:`~repro.core.policy.PolicyController.dead_element`).  The injector's
``mark_*`` methods apply a transition there, count it, and report whether
the state changed.  The *effects* of each event (killing tasks, rerouting
flows, restoring capacity) are applied by the engine's recovery layer.

Domain specs (:attr:`~repro.faults.spec.FaultKind.DOMAIN_FAIL` /
``DOMAIN_RECOVER``) are expanded *at schedule time* into one per-element
server/switch event each (servers first, then switches, each ascending), so
the engine's recovery layer never needs to know about domains — a rack
outage is exactly the deterministic event sequence a hand-written timeline
of its members would produce.

Links carry two factors only the injector knows: hard failure and a
fail-slow capacity factor (< 1.0).  A link is *dead* — unroutable — when it
is failed or degraded to factor 0.0; the injector marks exactly those links
failed in the controller, and :meth:`FaultInjector.link_capacity_factor`
gives the fluid network the effective capacity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from ..simulator.events import Event, EventKind, EventQueue
from .domains import FailureDomain, domains_of
from .spec import FaultKind, FaultSpec, validate_timeline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.state import ClusterState
    from ..core.policy import PolicyController
    from ..topology.base import Topology

__all__ = ["FaultInjector", "FAULT_EVENT_KINDS"]


#: Simulator event kinds owned by the fault subsystem.
FAULT_EVENT_KINDS = frozenset(
    {
        EventKind.SERVER_FAIL,
        EventKind.SERVER_RECOVER,
        EventKind.SWITCH_FAIL,
        EventKind.SWITCH_RECOVER,
        EventKind.TASK_SLOWDOWN,
        EventKind.LINK_FAIL,
        EventKind.LINK_RECOVER,
        EventKind.LINK_DEGRADE,
    }
)

_EVENT_KIND_OF: dict[FaultKind, EventKind] = {
    FaultKind.SERVER_FAIL: EventKind.SERVER_FAIL,
    FaultKind.SERVER_RECOVER: EventKind.SERVER_RECOVER,
    FaultKind.SWITCH_FAIL: EventKind.SWITCH_FAIL,
    FaultKind.SWITCH_RECOVER: EventKind.SWITCH_RECOVER,
    FaultKind.TASK_SLOWDOWN: EventKind.TASK_SLOWDOWN,
    FaultKind.LINK_FAIL: EventKind.LINK_FAIL,
    FaultKind.LINK_RECOVER: EventKind.LINK_RECOVER,
    FaultKind.LINK_DEGRADE: EventKind.LINK_DEGRADE,
}


def _canonical(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


class FaultInjector:
    """Validated fault timeline plus the fault transitions it applies to
    ``cluster`` (server liveness) and ``controller`` (switch and link
    liveness)."""

    def __init__(
        self,
        topology: "Topology",
        specs: Iterable[FaultSpec],
        cluster: "ClusterState",
        controller: "PolicyController",
    ) -> None:
        self.topology = topology
        self.timeline: tuple[FaultSpec, ...] = validate_timeline(topology, specs)
        self.cluster = cluster
        self.controller = controller
        self._failed_links: set[tuple[int, int]] = set()
        self._degraded_links: dict[tuple[int, int], float] = {}
        self._domain_cache: dict[str, tuple[FailureDomain, ...]] = {}
        self._park_time: dict[int, float] = {}
        self.parked_dwell: float = 0.0
        self.counters: dict[str, int] = {}

    # ------------------------------------------------------------ scheduling
    def _domains(self, kind: str) -> tuple[FailureDomain, ...]:
        if kind not in self._domain_cache:
            self._domain_cache[kind] = domains_of(self.topology, kind)
        return self._domain_cache[kind]

    def schedule(self, queue: EventQueue) -> int:
        """Push every timeline entry into the queue; returns the count.

        Slowdown events carry ``(server, factor)`` payloads, link events
        ``(u, v)`` (degrades ``(u, v, factor)``); every other fault carries
        the bare target node id.  A timed slowdown (positive ``duration``)
        also schedules its restore — the same event kind with factor 1.0 —
        at ``time + duration``.  A domain spec expands into one event per
        member element (servers ascending, then switches ascending).  The
        returned count includes synthesised restores and expansions.
        """
        pushed = 0
        for spec in self.timeline:
            if spec.kind in (FaultKind.DOMAIN_FAIL, FaultKind.DOMAIN_RECOVER):
                domain = self._domains(spec.domain)[spec.target]
                failing = spec.kind is FaultKind.DOMAIN_FAIL
                self.count(
                    "faults.domain_fail" if failing else "faults.domain_recover"
                )
                for sid in domain.servers:
                    queue.push(
                        Event(
                            spec.time,
                            EventKind.SERVER_FAIL if failing
                            else EventKind.SERVER_RECOVER,
                            sid,
                        )
                    )
                    pushed += 1
                for wid in domain.switches:
                    queue.push(
                        Event(
                            spec.time,
                            EventKind.SWITCH_FAIL if failing
                            else EventKind.SWITCH_RECOVER,
                            wid,
                        )
                    )
                    pushed += 1
                continue
            payload: object = spec.target
            if spec.kind is FaultKind.TASK_SLOWDOWN:
                payload = (spec.target, spec.factor)
            elif spec.kind is FaultKind.LINK_DEGRADE:
                payload = (spec.target, spec.target2, spec.factor)
            elif spec.kind in (FaultKind.LINK_FAIL, FaultKind.LINK_RECOVER):
                payload = (spec.target, spec.target2)
            queue.push(Event(spec.time, _EVENT_KIND_OF[spec.kind], payload))
            pushed += 1
            if spec.kind is FaultKind.TASK_SLOWDOWN and spec.duration > 0:
                queue.push(
                    Event(
                        spec.time + spec.duration,
                        EventKind.TASK_SLOWDOWN,
                        (spec.target, 1.0),
                    )
                )
                pushed += 1
        return pushed

    # ------------------------------------------------------------ live state
    def link_capacity_factor(self, u: int, v: int) -> float:
        """Effective capacity multiplier for the link (0.0 when failed)."""
        key = _canonical(u, v)
        if key in self._failed_links:
            return 0.0
        return self._degraded_links.get(key, 1.0)

    def mark_server_failed(self, server_id: int) -> bool:
        """Fail a server in the cluster; False when it was already down."""
        if self.cluster.is_failed(server_id):
            return False
        self.cluster.fail_server(server_id)
        self.count("faults.server_fail")
        return True

    def mark_server_recovered(self, server_id: int) -> bool:
        if not self.cluster.is_failed(server_id):
            return False
        self.cluster.recover_server(server_id)
        self.count("faults.server_recover")
        return True

    def mark_switch_failed(self, switch_id: int) -> bool:
        """Fail a switch in the controller; False when it was already down."""
        if switch_id in self.controller.failed_switches:
            return False
        self.controller.fail_switch(switch_id)
        self.count("faults.switch_fail")
        return True

    def mark_switch_recovered(self, switch_id: int) -> bool:
        if switch_id not in self.controller.failed_switches:
            return False
        self.controller.recover_switch(switch_id)
        self.count("faults.switch_recover")
        return True

    def _sync_link(self, key: tuple[int, int]) -> None:
        """Mirror the link's routability into the controller: dead when
        failed or degraded to factor 0.0."""
        if self.link_capacity_factor(*key) == 0.0:
            self.controller.fail_link(*key)
        else:
            self.controller.recover_link(*key)

    def mark_link_failed(self, u: int, v: int) -> bool:
        key = _canonical(u, v)
        if key in self._failed_links:
            return False
        self._failed_links.add(key)
        self._sync_link(key)
        self.count("faults.link_fail")
        return True

    def mark_link_recovered(self, u: int, v: int) -> bool:
        key = _canonical(u, v)
        if key not in self._failed_links:
            return False
        self._failed_links.discard(key)
        self._sync_link(key)
        self.count("faults.link_recover")
        return True

    def mark_link_degraded(self, u: int, v: int, factor: float) -> bool:
        """Set the link's capacity factor; False when already at ``factor``.

        Factor 1.0 restores nominal capacity (counted as a restore); any
        value below 1.0 is a degradation episode.
        """
        if not 0.0 <= factor <= 1.0:
            raise ValueError(f"link degrade factor must be in [0, 1], got {factor}")
        key = _canonical(u, v)
        if self._degraded_links.get(key, 1.0) == factor:
            return False
        if factor == 1.0:
            self._degraded_links.pop(key)
            self.count("faults.link_restore")
        else:
            self._degraded_links[key] = factor
            self.count("faults.link_degrade")
        self._sync_link(key)
        return True

    def assert_path_clear(self, path: Sequence[int]) -> None:
        """Hard guard: no path may traverse a failed switch or a dead link
        (failed or degraded to zero).

        Called by the engine on every path install/reroute while faults are
        live; a violation is a recovery-layer bug, so it raises rather than
        degrades.
        """
        dead = self.controller.dead_element(path)
        if dead is not None:
            what = "dead link" if isinstance(dead, tuple) else "failed switch"
            raise RuntimeError(
                f"routing violation: path {tuple(path)} traverses {what} {dead}"
            )

    # -------------------------------------------------------- parked dwell
    def note_parked(self, flow_id: int, now: float) -> None:
        """A flow was parked (no live route) at sim-time ``now``."""
        self._park_time.setdefault(flow_id, now)

    def note_resumed(self, flow_id: int, now: float) -> None:
        """A parked flow left the park (resumed or killed) at ``now``.

        Accumulates the flow's sim-time dwell into ``parked_dwell`` /
        the ``faults.parked_dwell`` summary entry.
        """
        start = self._park_time.pop(flow_id, None)
        if start is not None:
            self.parked_dwell += now - start

    def provenance_context(self) -> dict[str, int]:
        """Failure-state snapshot for fault, reroute and park decision
        records: the fault pressure each repair decision was taken under."""
        return {
            "failed_servers": len(self.cluster.failed_servers),
            "failed_switches": len(self.controller.failed_switches),
            "failed_links": len(self._failed_links),
            "degraded_links": len(self._degraded_links),
        }

    def gauges(self) -> dict[str, float]:
        """Instantaneous fault-state gauges for the telemetry plane.

        Pure reads — sampling them cannot perturb a run (the
        non-perturbation contract of :mod:`repro.obs.timeline`).
        """
        gauges = {k: float(v) for k, v in self.provenance_context().items()}
        gauges["parked_dwell"] = self.parked_dwell
        return gauges

    # -------------------------------------------------------------- counters
    def count(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def summary(self) -> dict[str, int]:
        """Counter snapshot (sorted keys, for stable reports).

        Includes the cumulative ``faults.parked_dwell`` sim-time (a float)
        whenever any flow was ever parked.
        """
        out: dict[str, int] = dict(self.counters)
        if "faults.flows_parked" in out:
            out["faults.parked_dwell"] = round(self.parked_dwell, 9)  # type: ignore[assignment]
        return dict(sorted(out.items()))

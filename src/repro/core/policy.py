"""Network policies and the Policy Optimization Algorithm (Algorithm 1).

A *policy* ``p_k`` (Section 3.1) is the ordered list of switches a shuffle
flow must traverse, each with a required type; a policy is **satisfied** when
every allocated switch matches its required type in order.  Policies and
flows are one-to-one.

The :class:`PolicyController` plays the role of the paper's centralised
OpenFlow controller: it tracks the rate load ``sum(f.rate for p in A(w))`` on
every switch, exposes the candidate-switch set of Eq 4, and computes the
optimal routing path of a flow (Algorithm 1, line 5) as one layered
min-plus dynamic program over the stages between the two end servers: first
over the shortest paths, then — when Eq 4 capacity pruning or failures empty
them — over walks of up to :data:`MAX_SLACK` extra hops.  Rescheduling a
switch ``p.list[i] -> w_hat`` (Eq 5) falls out of the DP: the returned path
differs from the current one exactly in the switches whose replacement has
positive utility.

Cost model: traversing switch ``w`` costs ``rate * unit_cost(w)`` where
``unit_cost`` is the per-switch delay unit ``c_s`` (1 T in the case study of
Section 2.3) times an optional tier weight, plus an optional congestion term
proportional to the switch's current utilisation.  With the defaults the
model reduces to the paper's "cost = rate x number of switches traversed",
and the congestion term only breaks ties toward less-loaded switches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..mapreduce.shuffle import ShuffleFlow
from ..obs.runtime import STATE as _OBS
from ..topology.base import Tier, Topology
# `enumerate_paths` is unused here; perfbench/tracing.py wraps this binding.
from ..topology.routing import enumerate_paths, stage_adjacency  # noqa: F401

__all__ = ["Policy", "CostModel", "PolicyController", "NoFeasiblePathError"]

_INF = float("inf")

#: Extra hops beyond the shortest path Algorithm 1 may take when capacity
#: pruning or failures leave no shortest path.
MAX_SLACK = 2


def _link_key(u: int, v: int) -> tuple[int, int]:
    """Canonical (min, max) key of an undirected physical link."""
    return (u, v) if u <= v else (v, u)


class NoFeasiblePathError(RuntimeError):
    """Raised when no policy can carry a flow within switch capacities."""


@dataclass(frozen=True)
class Policy:
    """A satisfied policy: the route of one flow.

    ``path`` is the full node sequence (servers included); ``switch_list``
    the switches in traversal order (the paper's ``p.list``) and ``types``
    their required types (``p.type``).
    """

    flow_id: int
    path: tuple[int, ...]
    switch_list: tuple[int, ...]
    types: tuple[str, ...]

    @property
    def length(self) -> int:
        """``p.len`` — the number of switches on the route."""
        return len(self.switch_list)

    def is_satisfied_by(self, topology: Topology) -> bool:
        """Sixth constraint of Eq 3: every switch matches its required type."""
        return all(
            topology.switch(w).switch_type == t
            for w, t in zip(self.switch_list, self.types)
        )


@dataclass(frozen=True)
class CostModel:
    """Per-switch traversal cost parameters.

    ``unit_cost`` is ``c_s``; ``tier_weights`` lets experiments price core
    switches differently; ``congestion_weight`` adds
    ``congestion_weight * load / capacity`` per switch so that, at equal hop
    count, the optimiser prefers idle switches (this is what makes policy
    optimisation useful on symmetric fabrics, mirroring Figure 2's overloaded
    ``w_1``).
    """

    unit_cost: float = 1.0
    tier_weights: Mapping[Tier, float] = field(
        default_factory=lambda: {
            Tier.ACCESS: 1.0,
            Tier.AGGREGATION: 1.0,
            Tier.CORE: 1.0,
        }
    )
    congestion_weight: float = 0.25

    def switch_cost(self, topology: Topology, switch_id: int, load: float) -> float:
        """Cost contribution of traversing one switch at the given load."""
        switch = topology.switch(switch_id)
        base = self.unit_cost * self.tier_weights.get(switch.tier, 1.0)
        if self.congestion_weight > 0 and switch.capacity > 0:
            base += self.congestion_weight * (load / switch.capacity)
        return base


class PolicyController:
    """Central policy manager: switch loads, Eq 4 candidates, Algorithm 1.

    The controller owns the mutable network side of a TAA instance.  The
    compute side (container placement) lives in
    :class:`~repro.cluster.state.ClusterState`; the two meet in
    :class:`~repro.core.taa.TAAInstance`.
    """

    def __init__(
        self,
        topology: Topology,
        cost_model: CostModel | None = None,
    ) -> None:
        self.topology = topology
        self.cost_model = cost_model or CostModel()
        self._load: dict[int, float] = {w: 0.0 for w in topology.switch_ids}
        self._base_load: dict[int, float] = {w: 0.0 for w in topology.switch_ids}
        self._policies: dict[int, Policy] = {}
        self._flow_rates: dict[int, float] = {}
        # Per-switch count of installed flows traversing it: when a switch
        # empties, its incremental load is snapped back to exactly 0.0 so
        # repeated assign/release round-trips cannot accumulate float drift.
        self._flows_on: dict[int, int] = {w: 0 for w in topology.switch_ids}
        # Capacity-negotiated accounting (Eq 4): flows routed with the
        # capacity constraint enforced.  Baseline policies (static/ECMP) and
        # the saturation fallback are installed uncapacitated and are exempt
        # from the switch-capacity invariant by design.
        self._capacitated: set[int] = set()
        self._cap_load: dict[int, float] = {w: 0.0 for w in topology.switch_ids}
        self._cap_flows_on: dict[int, int] = {w: 0 for w in topology.switch_ids}
        # Monotone counter bumped on every load mutation; consumers that
        # cache load-derived quantities (the all-pairs unit-cost matrix)
        # compare it to decide when to invalidate.
        self._load_version: int = 0
        # Switches currently failed (fault injection).  A failed switch is
        # unroutable for *every* path computation — including the
        # capacity-relaxed fallback: saturation degrades a route, a dead
        # switch forbids it.  Kept as both a set (queries) and a node mask
        # (the vectorised DP); empty in normal operation so the hot path
        # pays one truthiness check.
        self._failed_switches: set[int] = set()
        self._failed_mask = np.zeros(topology.num_nodes, dtype=bool)
        # Decision-provenance breadcrumb channel: when the engine's audit
        # plane enables `provenance_notes`, every `route_flow` leaves the
        # path cost and capacity mode it decided with in `last_route`.  A
        # pure annotation — routing never reads it — so enabling it cannot
        # perturb a run.
        self.provenance_notes = False
        self.last_route: dict[str, object] | None = None
        # Physical links currently failed (canonical (min, max) keys) plus a
        # dense (n, n) boolean hop mask for the vectorised DP.  The mask is
        # allocated lazily on the first link failure, so fabrics that never
        # see link faults pay nothing.
        self._failed_links: set[tuple[int, int]] = set()
        self._failed_link_mask: np.ndarray | None = None
        # Node-indexed mirrors of the `_load`/`_base_load` dicts (servers
        # stay 0.0) plus the static per-node cost-model terms, so the DP can
        # gather whole stages without per-node dict/attribute chasing.  The
        # dicts remain the canonical accounting; mirrors are re-assigned from
        # them after every mutation.
        n = topology.num_nodes
        self._load_arr = np.zeros(n, dtype=np.float64)
        self._base_arr = np.zeros(n, dtype=np.float64)
        self._switch_mask = np.zeros(n, dtype=bool)
        self._cost_base = np.zeros(n, dtype=np.float64)
        self._switch_cap = np.zeros(n, dtype=np.float64)
        cm = self.cost_model
        for w in topology.switch_ids:
            switch = topology.switch(w)
            self._switch_mask[w] = True
            self._cost_base[w] = cm.unit_cost * cm.tier_weights.get(switch.tier, 1.0)
            self._switch_cap[w] = switch.capacity
        # Per-node traversal cost under *current* loads, maintained
        # incrementally: only the switches a mutation touches are re-priced,
        # so cost queries (the DP stage gathers, path_cost) never rebuild
        # per-node costs from the load dicts.  Failed switches keep their
        # finite price here — the infinite mask is applied at gather time.
        self._cost_arr = self._cost_base.copy()

    @property
    def load_version(self) -> int:
        """Bumped whenever any switch load changes (install/release/base)."""
        return self._load_version

    # ------------------------------------------------------------------ state
    def load(self, switch_id: int) -> float:
        """Aggregate rate currently routed through a switch (incl. base load)."""
        return self._load[switch_id] + self._base_load[switch_id]

    def base_load(self, switch_id: int) -> float:
        """The external (background) component of a switch's load."""
        return self._base_load[switch_id]

    def capacitated_load(self, switch_id: int) -> float:
        """Load from capacity-negotiated flows only (what Eq 4 bounds),
        including the base load the negotiation had to route around."""
        return self._cap_load[switch_id] + self._base_load[switch_id]

    def is_capacitated(self, flow_id: int) -> bool:
        """Whether a flow's policy was installed under the Eq 4 constraint."""
        return flow_id in self._capacitated

    def flow_rate(self, flow_id: int) -> float:
        """Rate an installed flow is charged at (KeyError when absent)."""
        return self._flow_rates[flow_id]

    def recomputed_loads(self) -> dict[int, float]:
        """Per-switch load re-derived from scratch off the installed
        policies — the ground truth the incremental ``_load`` accounting is
        verified against by the switch-load-consistency invariant."""
        loads = {w: 0.0 for w in self.topology.switch_ids}
        for fid, policy in self._policies.items():
            rate = self._flow_rates[fid]
            for w in policy.switch_list:
                loads[w] += rate
        return loads

    def _reprice(self, switches: Iterable[int]) -> None:
        """Refresh ``_cost_arr`` for the switches whose load just changed.

        The scalar expression mirrors :meth:`CostModel.switch_cost` (and the
        vectorised form it replaced) operation for operation, so the stored
        floats stay bit-identical to a from-scratch pricing.
        """
        cw = self.cost_model.congestion_weight
        if cw <= 0:
            return
        for w in switches:
            cap = self._switch_cap[w]
            if cap > 0:
                self._cost_arr[w] = self._cost_base[w] + cw * (
                    (self._load_arr[w] + self._base_arr[w]) / cap
                )

    def set_base_load(self, switch_id: int, rate: float) -> None:
        """External (background) load on a switch.

        Planning instances use this to mirror the traffic other jobs already
        impose on the fabric without importing their flows.
        """
        if rate < 0:
            raise ValueError("base load must be non-negative")
        self._base_load[switch_id] = rate
        self._base_arr[switch_id] = rate
        self._reprice((switch_id,))
        self._load_version += 1

    def base_loads_from(self, other: "PolicyController") -> None:
        """Copy another controller's *total* loads in as base load."""
        for w in self.topology.switch_ids:
            self._base_load[w] = other.load(w)
            self._base_arr[w] = self._base_load[w]
        self._reprice(self.topology.switch_ids)
        self._load_version += 1

    def residual(self, switch_id: int) -> float:
        if switch_id in self._failed_switches:
            return float("-inf")
        return self.topology.switch(switch_id).capacity - self.load(switch_id)

    # --------------------------------------------------------- failure state
    # The controller is the one record of which switches and links are
    # dead; the fault injector applies every transition here.

    @property
    def failed_switches(self) -> frozenset[int]:
        """Switches currently failed (empty when no faults are live)."""
        return frozenset(self._failed_switches)

    @property
    def has_failures(self) -> bool:
        """True while any switch or link is dead."""
        return bool(self._failed_switches or self._failed_links)

    def dead_element(
        self, path: Sequence[int]
    ) -> int | tuple[int, int] | None:
        """The first failed switch on ``path``, else its first dead hop
        ``(a, b)`` in path order; ``None`` when the path is live.

        The one path-liveness predicate: the routing guard, the
        path-liveness invariant, baseline failure masking and the
        fault-time reroute test all ask it.
        """
        failed = self._failed_switches
        if failed and not failed.isdisjoint(path):
            return next(node for node in path if node in failed)
        links = self._failed_links
        if links:
            for a, b in zip(path, path[1:]):
                if ((a, b) if a <= b else (b, a)) in links:
                    return (a, b)
        return None

    def fail_switch(self, switch_id: int) -> None:
        """Mark a switch failed: every path query routes around it.

        Bumps :attr:`load_version` so cached load/cost-derived structures
        (the all-pairs unit-cost matrix behind the preference grading) are
        rebuilt with the switch priced unroutable.  Installed policies that
        traverse the switch are *not* touched here — the simulator's
        recovery layer reroutes or parks the affected flows.
        """
        if switch_id not in self._load:
            raise KeyError(f"unknown switch {switch_id}")
        if switch_id in self._failed_switches:
            return
        self._failed_switches.add(switch_id)
        self._failed_mask[switch_id] = True
        self._load_version += 1

    def recover_switch(self, switch_id: int) -> None:
        """Return a failed switch to service (idempotent)."""
        if switch_id not in self._load:
            raise KeyError(f"unknown switch {switch_id}")
        if switch_id not in self._failed_switches:
            return
        self._failed_switches.discard(switch_id)
        self._failed_mask[switch_id] = False
        self._load_version += 1

    # ------------------------------------------------------ link failure state
    @property
    def failed_links(self) -> frozenset[tuple[int, int]]:
        """Physical links currently failed, as canonical (min, max) keys."""
        return frozenset(self._failed_links)

    def is_link_failed(self, u: int, v: int) -> bool:
        return _link_key(u, v) in self._failed_links

    def fail_link(self, u: int, v: int) -> None:
        """Mark the physical link ``u``—``v`` unroutable.

        Every path computation — the stage DP at every slack level, ECMP
        candidate filtering — routes around it.  (Preference *grading* keeps
        using the unit-cost matrix, which only prices dead switches; the
        grading may rank an affected pairing optimistically, but installed
        routes are always link-safe because routing itself is masked.)
        Bumps :attr:`load_version`; installed policies over the link are
        rerouted or parked by the simulator's recovery layer.
        """
        if not self.topology.has_link(u, v):
            raise KeyError(f"no physical link between {u} and {v}")
        key = _link_key(u, v)
        if key in self._failed_links:
            return
        self._failed_links.add(key)
        if self._failed_link_mask is None:
            n = self.topology.num_nodes
            self._failed_link_mask = np.zeros((n, n), dtype=bool)
        self._failed_link_mask[key[0], key[1]] = True
        self._failed_link_mask[key[1], key[0]] = True
        self._load_version += 1

    def recover_link(self, u: int, v: int) -> None:
        """Return a failed link to service (idempotent)."""
        if not self.topology.has_link(u, v):
            raise KeyError(f"no physical link between {u} and {v}")
        key = _link_key(u, v)
        if key not in self._failed_links:
            return
        self._failed_links.discard(key)
        if self._failed_link_mask is not None:
            self._failed_link_mask[key[0], key[1]] = False
            self._failed_link_mask[key[1], key[0]] = False
        self._load_version += 1

    def sync_failures_from(self, other: "PolicyController") -> None:
        """Mirror another controller's failed-switch/failed-link sets
        (planning instances must see the same dead fabric as the live
        controller)."""
        if (
            other._failed_switches == self._failed_switches
            and other._failed_links == self._failed_links
        ):
            return
        self._failed_switches = set(other._failed_switches)
        self._failed_mask[:] = False
        for w in self._failed_switches:
            self._failed_mask[w] = True
        self._failed_links = set(other._failed_links)
        if self._failed_link_mask is not None:
            self._failed_link_mask[:] = False
        if self._failed_links:
            if self._failed_link_mask is None:
                n = self.topology.num_nodes
                self._failed_link_mask = np.zeros((n, n), dtype=bool)
            for a, b in self._failed_links:
                self._failed_link_mask[a, b] = True
                self._failed_link_mask[b, a] = True
        self._load_version += 1

    def policy_of(self, flow_id: int) -> Policy | None:
        return self._policies.get(flow_id)

    def policies(self) -> dict[int, Policy]:
        return dict(self._policies)

    # ------------------------------------------------------------ Eq 4 helper
    def candidate_switches(self, policy: Policy, position: int, rate: float) -> list[int]:
        """Eq 4: same-type switches with residual capacity for the flow.

        ``position`` indexes ``policy.switch_list``.  The current switch is
        excluded, exactly as in the paper (``w_hat in W \\ p.list[i]``).
        """
        required_type = policy.types[position]
        current = policy.switch_list[position]
        return [
            w
            for w in self.topology.switch_ids
            if w != current
            and self.topology.switch(w).switch_type == required_type
            and self.residual(w) >= rate
        ]

    # -------------------------------------------------------------- mutation
    def assign(
        self, flow: ShuffleFlow, policy: Policy, *, capacitated: bool = True
    ) -> None:
        """Install a policy for a flow, charging its rate to the switches.

        ``capacitated`` records whether the route was negotiated under the
        Eq 4 capacity constraint; uncapacitated installs (baselines, the
        saturation fallback) are exempt from the switch-capacity invariant.
        """
        if flow.flow_id in self._policies:
            self.release(flow.flow_id)
        for w in policy.switch_list:
            self._load[w] += flow.rate
            self._load_arr[w] = self._load[w]
            self._flows_on[w] += 1
        self._reprice(policy.switch_list)
        self._load_version += 1
        if capacitated:
            self._capacitated.add(flow.flow_id)
            for w in policy.switch_list:
                self._cap_load[w] += flow.rate
                self._cap_flows_on[w] += 1
        self._policies[flow.flow_id] = policy
        self._flow_rates[flow.flow_id] = flow.rate
        _OBS.tracer.count("alg1.assign")
        if _OBS.checker is not None:
            _OBS.checker.check_switch_capacity(
                self,
                where=f"assign flow {flow.flow_id}",
                switches=policy.switch_list,
            )

    def release(self, flow_id: int) -> None:
        """Remove a flow's policy, refunding its rate.

        Loads are snapped back to exactly ``0.0`` whenever a switch's last
        flow leaves, so assign→release round-trips restore ``_load`` to its
        base value bit-for-bit (no float drift, no stale entries).
        """
        policy = self._policies.pop(flow_id, None)
        if policy is None:
            return
        rate = self._flow_rates.pop(flow_id)
        capacitated = flow_id in self._capacitated
        if capacitated:
            self._capacitated.discard(flow_id)
        for w in policy.switch_list:
            self._flows_on[w] -= 1
            if self._flows_on[w] <= 0:
                self._flows_on[w] = 0
                self._load[w] = 0.0
            else:
                self._load[w] = max(self._load[w] - rate, 0.0)
            self._load_arr[w] = self._load[w]
            if capacitated:
                self._cap_flows_on[w] -= 1
                if self._cap_flows_on[w] <= 0:
                    self._cap_flows_on[w] = 0
                    self._cap_load[w] = 0.0
                else:
                    self._cap_load[w] = max(self._cap_load[w] - rate, 0.0)
        self._reprice(policy.switch_list)
        self._load_version += 1
        _OBS.tracer.count("alg1.release")

    def clear(self) -> None:
        """Drop every installed policy and reset loads to exactly zero."""
        self._policies.clear()
        self._flow_rates.clear()
        self._capacitated.clear()
        for w in self.topology.switch_ids:
            self._load[w] = 0.0
            self._cap_load[w] = 0.0
            self._flows_on[w] = 0
            self._cap_flows_on[w] = 0
        self._load_arr[:] = 0.0
        self._reprice(self.topology.switch_ids)
        self._load_version += 1

    # --------------------------------------------------------- cost queries
    def path_cost(self, path: Sequence[int], rate: float) -> float:
        """Cost of carrying ``rate`` along a node path under current loads."""
        arr = self._cost_arr
        mask = self._switch_mask
        total = 0.0
        for n in path:
            if mask[n]:
                total += arr[n]
        return float(rate * total)

    def all_node_costs(self) -> np.ndarray:
        """Traversal-cost vector over every node id under current loads.

        A copy of the incrementally-maintained ``_cost_arr`` — element for
        element exactly what :meth:`CostModel.switch_cost` returns (servers
        contribute 0.0) — with failed switches priced infinite: dead
        switches are unroutable at any price, so every DP (capacitated or
        not) routes around them.  Recompute after any load mutation (see
        :attr:`load_version`).
        """
        costs = self._cost_arr.copy()
        if self._failed_switches:
            costs[self._failed_mask] = _INF
        return costs

    def policy_cost(self, flow: ShuffleFlow) -> float:
        """Shuffle cost of a flow under its installed policy (Eq 2).

        The flow's own load is excluded from the congestion term so the cost
        is comparable with candidate paths it is *not* yet installed on.
        """
        policy = self._policies.get(flow.flow_id)
        if policy is None:
            raise KeyError(f"flow {flow.flow_id} has no policy")
        total = 0.0
        for w in policy.switch_list:
            total += self.cost_model.switch_cost(
                self.topology, w, self.load(w) - flow.rate
            )
        return flow.rate * total

    # ------------------------------------------------- Algorithm 1 machinery
    def optimal_path(
        self,
        src_server: int,
        dst_server: int,
        rate: float,
        enforce_capacity: bool = True,
    ) -> tuple[tuple[int, ...], float]:
        """Optimal shuffle path between two servers (Algorithm 1, line 5).

        Runs the stage DP over walks of exactly ``D + slack`` hops for
        ``slack = 0..MAX_SLACK`` and returns the first level's cheapest
        feasible path as ``(path, cost)``, cost ``rate``-scaled per the cost
        model; raises :class:`NoFeasiblePathError` when no level has one.
        A level runs only when every shorter one came back empty, so its
        cheapest walk is a simple path: cutting a cycle out of a feasible
        walk would leave a shorter feasible walk.
        """
        if src_server == dst_server:
            return ((src_server,), 0.0)
        tracer = _OBS.tracer
        tracer.count("alg1.optimal_path")
        with tracer.timeit("alg1.optimal_path"):
            try:
                return self._optimal_path_impl(
                    src_server, dst_server, rate, enforce_capacity
                )
            except NoFeasiblePathError:
                tracer.count("alg1.no_feasible_path")
                raise

    def _optimal_path_impl(
        self, src_server: int, dst_server: int, rate: float,
        enforce_capacity: bool,
    ) -> tuple[tuple[int, ...], float]:
        costs = self.all_node_costs()
        if enforce_capacity:
            # Eq 4 pruning: a switch without residual capacity for the flow
            # is as unroutable as a failed one.
            loads = self._load_arr + self._base_arr
            costs[self._switch_mask & (self._switch_cap - loads < rate)] = _INF
        for slack in range(MAX_SLACK + 1):
            if slack == 1:
                _OBS.tracer.count("alg1.slack_fallback")
            path = self._dag_best_path(src_server, dst_server, costs, slack)
            if path is not None:
                return path, self.path_cost(path, rate)
        raise NoFeasiblePathError(
            f"no feasible path for rate {rate} between servers "
            f"{src_server} and {dst_server}"
        )

    def _dag_best_path(
        self, src: int, dst: int, costs: np.ndarray, slack: int
    ) -> tuple[int, ...] | None:
        """Masked-array min-plus DP over one slack level's stage adjacency.

        ``costs`` prices every node, infinite where unroutable.  Per stage
        transition, candidate totals are a ``(prev, cur)`` matrix built from
        the boolean adjacency (:func:`stage_adjacency`), and ``argmin`` over
        the prev axis both selects parents and reproduces the scalar
        tie-break (lowest prev node id — stages are ascending).  Returns
        ``None`` when pruning empties a stage or ``dst`` ends unreachable.
        """
        stages, mats = stage_adjacency(self.topology, src, dst, slack)
        parent_idx: list[np.ndarray] = []
        current = np.zeros(1, dtype=np.float64)
        for k in range(1, len(stages)):
            nodes = stages[k]
            trans = mats[k - 1]
            if self._failed_links:
                # Hop-level masking: a transition over a failed physical
                # link is as unroutable as one into a failed switch.
                trans = trans & ~self._failed_link_mask[
                    stages[k - 1][:, None], nodes
                ]
            totals = (
                np.where(trans, current[:, None], _INF) + costs[nodes][None, :]
            )
            best = totals.min(axis=0)
            parents = totals.argmin(axis=0)
            if not np.isfinite(best).any():
                return None
            parent_idx.append(parents)
            current = best
        # Last stage is (dst,) alone; backtrack through the parent indices.
        path = [dst]
        idx = 0
        for k in range(len(stages) - 1, 0, -1):
            idx = int(parent_idx[k - 1][idx])
            path.append(int(stages[k - 1][idx]))
        return tuple(reversed(path))

    # --------------------------------------------------------- policy builds
    def make_policy(self, flow: ShuffleFlow, path: Sequence[int]) -> Policy:
        """Wrap a node path as a satisfied policy for a flow."""
        switch_list = tuple(n for n in path if self.topology.is_switch(n))
        types = tuple(self.topology.switch(w).switch_type for w in switch_list)
        return Policy(
            flow_id=flow.flow_id,
            path=tuple(path),
            switch_list=switch_list,
            types=types,
        )

    def route_flow(
        self,
        flow: ShuffleFlow,
        src_server: int,
        dst_server: int,
        enforce_capacity: bool = True,
    ) -> Policy:
        """Compute + install the optimal policy for a flow (Algorithm 1 body)."""
        self.release(flow.flow_id)
        path, cost = self.optimal_path(
            src_server, dst_server, flow.rate, enforce_capacity
        )
        policy = self.make_policy(flow, path)
        self.assign(flow, policy, capacitated=enforce_capacity)
        if self.provenance_notes:
            self.last_route = {
                "cost": float(cost),
                "capacitated": enforce_capacity,
            }
        return policy

    def install_route(
        self, flow: ShuffleFlow, src_server: int, dst_server: int
    ) -> Policy:
        """Route + install a flow under Eq 4; when the fabric is saturated
        for it, carry it anyway on the least-cost uncapacitated route (the
        congestion term prices the overload; :meth:`is_capacitated` tells
        the two apart).  Raises :class:`NoFeasiblePathError` only when
        failures disconnect the pair."""
        try:
            return self.route_flow(flow, src_server, dst_server)
        except NoFeasiblePathError:
            return self.route_flow(
                flow, src_server, dst_server, enforce_capacity=False
            )

    def total_cost(self, flows: Iterable[ShuffleFlow]) -> float:
        """Objective of Eq 3 over installed policies."""
        return sum(
            self.policy_cost(f) for f in flows if f.flow_id in self._policies
        )

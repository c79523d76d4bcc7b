"""Utility-driven local search over a TAA instance.

The paper defines per-move *utilities* — the cost reduction of rescheduling
one switch of a flow's policy (Eq 5/7) or one container's hosting server
(Eq 10) — and proves they are additive (Eqs 6/11).  The stable-matching
solver of Section 5.2 consumes these utilities wholesale; this module uses
them *directly* as a hill-climbing local search:

    repeat until no move helps:
        best container move  = argmax U(A(c) -> s)   over c, s  (Eq 10)
        best switch move     = argmax U(p.list[i] -> w)  over flows, i, w (Eq 5)
        apply whichever is better

Local search is the natural alternative a systems builder would try before
reaching for matching theory, so the ``bench_ablation_localsearch`` ablation
compares the two: matching converges in a couple of sweeps; hill climbing
needs many more evaluations for a similar final cost on small instances and
trails on larger ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .policy import NoFeasiblePathError
from .taa import TAAInstance
from .utility import container_reschedule_utility, switch_reschedule_utility

__all__ = ["LocalSearchConfig", "LocalSearchResult", "LocalSearchOptimizer"]


@dataclass(frozen=True)
class LocalSearchConfig:
    """Hill-climbing knobs.

    ``min_utility`` ignores moves whose gain is below the threshold (noise
    floor); ``max_moves`` bounds the climb; ``container_moves`` /
    ``switch_moves`` toggle the two move families so ablations can isolate
    them.
    """

    min_utility: float = 1e-9
    max_moves: int = 10_000
    container_moves: bool = True
    switch_moves: bool = True


@dataclass
class LocalSearchResult:
    """Climb statistics."""

    initial_cost: float
    final_cost: float
    moves_applied: int
    container_moves: int
    switch_moves: int
    utilities_evaluated: int
    move_trace: list[float] = field(default_factory=list)

    @property
    def improvement(self) -> float:
        if self.initial_cost == 0:
            return 0.0
        return 1.0 - self.final_cost / self.initial_cost


class LocalSearchOptimizer:
    """Greedy best-move hill climbing on (placement x policies)."""

    def __init__(
        self, taa: TAAInstance, config: LocalSearchConfig | None = None
    ) -> None:
        self.taa = taa
        self.config = config or LocalSearchConfig()

    # ------------------------------------------------------------ move scans
    def best_container_move(self) -> tuple[float, int, int] | None:
        """Highest-utility container relocation ``(utility, cid, server)``.

        Scans every placed, flow-bearing container against its Eq-8 candidate
        servers.  Returns ``None`` when no move clears ``min_utility``.
        """
        taa = self.taa
        best: tuple[float, int, int] | None = None
        self._evaluations = getattr(self, "_evaluations", 0)
        for container in taa.cluster.containers():
            cid = container.container_id
            flows = taa.flows_of_container(cid)
            if not flows or container.server_id is None:
                continue
            for sid in taa.cluster.candidate_servers(cid):
                if sid == container.server_id:
                    continue
                utility = container_reschedule_utility(
                    taa.controller, taa.cluster, cid, sid, flows
                )
                self._evaluations += 1
                if utility > self.config.min_utility and (
                    best is None or utility > best[0]
                ):
                    best = (utility, cid, sid)
        return best

    def best_switch_move(self) -> tuple[float, int, int, int] | None:
        """Highest-utility switch reschedule ``(utility, flow_id, pos, w)``."""
        taa = self.taa
        best: tuple[float, int, int, int] | None = None
        self._evaluations = getattr(self, "_evaluations", 0)
        for flow in taa.flows:
            policy = taa.controller.policy_of(flow.flow_id)
            if policy is None:
                continue
            for pos in range(policy.length):
                for cand in taa.controller.candidate_switches(
                    policy, pos, flow.rate
                ):
                    utility = switch_reschedule_utility(
                        taa.controller, flow, pos, cand
                    )
                    self._evaluations += 1
                    if utility > self.config.min_utility and (
                        best is None or utility > best[0]
                    ):
                        best = (utility, flow.flow_id, pos, cand)
        return best

    # ---------------------------------------------------------- application
    def _apply_container_move(self, cid: int, sid: int) -> None:
        self.taa.cluster.move(cid, sid)
        # Moving an endpoint invalidates the policies of its flows only.
        for flow in self.taa.flows_of_container(cid):
            src = self.taa.cluster.container(flow.src_container).server_id
            dst = self.taa.cluster.container(flow.dst_container).server_id
            if src is None or dst is None:
                continue
            try:
                self.taa.controller.install_route(flow, src, dst)
            except NoFeasiblePathError:
                # Disconnected pair (partitioned fabric): skip — the
                # engine parks the flow at launch until recovery.
                continue

    def _apply_switch_move(self, flow_id: int, position: int, new_switch: int) -> None:
        controller = self.taa.controller
        flow = next(f for f in self.taa.flows if f.flow_id == flow_id)
        policy = controller.policy_of(flow_id)
        assert policy is not None
        # Rebuild the path with the switch swapped in.
        path = list(policy.path)
        seen = -1
        for idx, node in enumerate(path):
            if controller.topology.is_switch(node):
                seen += 1
                if seen == position:
                    path[idx] = new_switch
                    break
        new_policy = controller.make_policy(flow, tuple(path))
        controller.release(flow_id)
        controller.assign(flow, new_policy)

    # -------------------------------------------------------------- climbing
    def optimize(self) -> LocalSearchResult:
        """Climb until no move clears the utility threshold."""
        taa = self.taa
        if taa.cluster.unplaced_containers():
            raise ValueError("local search requires a fully placed instance")
        if not taa.controller.policies():
            taa.install_all_policies()
        self._evaluations = 0
        initial = taa.total_shuffle_cost()
        trace = [initial]
        moves = container_moves = switch_moves = 0

        while moves < self.config.max_moves:
            c_move = (
                self.best_container_move() if self.config.container_moves else None
            )
            w_move = self.best_switch_move() if self.config.switch_moves else None
            if c_move is None and w_move is None:
                break
            c_utility = c_move[0] if c_move else float("-inf")
            w_utility = w_move[0] if w_move else float("-inf")
            if c_utility >= w_utility:
                assert c_move is not None
                self._apply_container_move(c_move[1], c_move[2])
                container_moves += 1
            else:
                assert w_move is not None
                self._apply_switch_move(w_move[1], w_move[2], w_move[3])
                switch_moves += 1
            moves += 1
            trace.append(taa.total_shuffle_cost())

        return LocalSearchResult(
            initial_cost=initial,
            final_cost=taa.total_shuffle_cost(),
            moves_applied=moves,
            container_moves=container_moves,
            switch_moves=switch_moves,
            utilities_evaluated=self._evaluations,
            move_trace=trace,
        )

"""Differential tests for Algorithm 1 and the Hit pipeline.

Two oracles:

* **brute force** — `optimal_path`'s slack-layered stage DP must return a
  simple path of at most ``D + MAX_SLACK`` hops that costs exactly what the
  cheapest path found by uncapped explicit enumeration costs — and be that
  very path when the minimum is unique — on small Tree, FatTree, VL2 and
  BCube fabrics, under random switch loads and random switch/link
  failures, with and without the capacity constraint;
* **baselines** — on identical seeds and workloads, the Hit placement can
  never produce a higher shuffle cost than the Random or ECMP baselines
  (the whole point of the optimisation).
"""

import numpy as np
import pytest

from repro.core.policy import (
    MAX_SLACK,
    CostModel,
    NoFeasiblePathError,
    PolicyController,
)
from repro.experiments import build_static_workload, run_static_placement
from repro.experiments import configs
from repro.mapreduce import WorkloadGenerator
from repro.schedulers import make_scheduler
from repro.topology import (
    BCubeConfig,
    FatTreeConfig,
    TreeConfig,
    VL2Config,
    build_bcube,
    build_fattree,
    build_tree,
    build_vl2,
    iter_paths,
    path_is_valid,
    shortest_path_stages,
)


def _usable(controller, path, rate, enforce_capacity):
    """No failed switch or link on the path; Eq 4 residuals when enforced."""
    topo = controller.topology
    if any(n in controller.failed_switches for n in path):
        return False
    if any(
        (min(a, b), max(a, b)) in controller.failed_links
        for a, b in zip(path, path[1:])
    ):
        return False
    return not enforce_capacity or all(
        controller.residual(n) >= rate for n in path if topo.is_switch(n)
    )


def brute_force_best(controller, src, dst, rate, enforce_capacity, slack_max):
    """Cheapest usable path by uncapped explicit enumeration
    (slack-extended); also whether that minimum is unique."""
    best, best_cost, ties = None, float("inf"), 0
    for slack in range(slack_max + 1):
        for path in iter_paths(controller.topology, src, dst, slack=slack):
            if not _usable(controller, path, rate, enforce_capacity):
                continue
            cost = controller.path_cost(path, rate)
            if cost < best_cost - 1e-9:
                best, best_cost, ties = path, cost, 1
            elif cost <= best_cost + 1e-9:
                ties += 1
        if best is not None:
            # Mirror the DP's semantics: shortest feasible length wins; only
            # extend the slack when everything shorter is pruned.
            return best, best_cost, ties == 1
    return best, best_cost, False


def assert_matches_brute_force(controller, src, dst, rate, enforce):
    """One differential check of `optimal_path` against enumeration."""
    expected, expected_cost, unique = brute_force_best(
        controller, src, dst, rate, enforce, MAX_SLACK
    )
    topo = controller.topology
    try:
        path, cost = controller.optimal_path(
            src, dst, rate, enforce_capacity=enforce
        )
    except NoFeasiblePathError:
        assert expected is None, (
            f"DP failed but enumeration found {expected}"
        )
        return
    assert expected is not None, f"DP found {path}, enumeration nothing"
    where = f"{topo.name} {src}->{dst} enforce={enforce}"
    assert path[0] == src and path[-1] == dst
    assert path_is_valid(topo, path), f"{where}: {path} not simple/linked"
    assert len(path) - 1 <= topo.hop_distance(src, dst) + MAX_SLACK
    assert _usable(controller, path, rate, enforce), f"{where}: {path}"
    assert cost == pytest.approx(expected_cost), (
        f"{where}: DP {path} costs {cost}, brute force {expected} "
        f"costs {expected_cost}"
    )
    if unique:
        assert path == expected, where


TOPOLOGIES = {
    "tree": lambda: build_tree(
        TreeConfig(depth=2, fanout=3, redundancy=2, server_resources=(2.0,))
    ),
    "fattree": lambda: build_fattree(FatTreeConfig(k=4, server_resources=(2.0,))),
    "vl2": lambda: build_vl2(
        VL2Config(
            num_intermediate=2, num_aggregation=2, num_tor=4,
            servers_per_tor=2,
        )
    ),
    "bcube": lambda: build_bcube(BCubeConfig(n=3, k=1)),
}


@pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
@pytest.mark.parametrize("seed", range(12))
def test_dp_matches_brute_force_under_random_load(kind, seed):
    topo = TOPOLOGIES[kind]()
    rng = np.random.default_rng(seed)
    controller = PolicyController(
        topo, cost_model=CostModel(congestion_weight=0.5)
    )
    # Random background load pattern, below capacity so paths stay feasible.
    for w in topo.switch_ids:
        cap = topo.switch(w).capacity
        controller.set_base_load(w, float(rng.uniform(0.0, 0.6 * cap)))
    servers = list(topo.server_ids)
    for _ in range(6):
        src, dst = rng.choice(servers, size=2, replace=False)
        src, dst = int(src), int(dst)
        rate = float(rng.uniform(0.1, 1.5))
        for enforce in (False, True):
            assert_matches_brute_force(controller, src, dst, rate, enforce)


@pytest.mark.parametrize("seed", range(8))
def test_dp_matches_brute_force_with_tight_capacity(seed):
    """Capacity pruning: load a random switch to the brim and re-compare."""
    topo = TOPOLOGIES["tree"]()
    rng = np.random.default_rng(100 + seed)
    controller = PolicyController(topo)
    # Saturate a random third of the switches.
    for w in topo.switch_ids:
        if rng.random() < 0.33:
            controller.set_base_load(w, topo.switch(w).capacity)
    servers = list(topo.server_ids)
    src, dst = (int(x) for x in rng.choice(servers, size=2, replace=False))
    assert_matches_brute_force(controller, src, dst, 0.5, True)


@pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
@pytest.mark.parametrize("seed", range(16))
def test_dp_matches_brute_force_under_failures(kind, seed):
    """Failed switches, failed links and saturated switches together, so
    the slack levels run, with and without the capacity constraint.

    Besides sparse fabric-wide failures, each pair has the interior of its
    shortest-path stages (away from the endpoints' own attachments) cut at
    random — that is what forces detours onto the slack levels."""
    topo = TOPOLOGIES[kind]()
    rng = np.random.default_rng(200 + seed)
    servers = list(topo.server_ids)
    for _ in range(6):
        src, dst = (int(x) for x in rng.choice(servers, size=2, replace=False))
        controller = PolicyController(
            topo, cost_model=CostModel(congestion_weight=0.5)
        )
        for w in topo.switch_ids:
            cap = topo.switch(w).capacity
            controller.set_base_load(w, float(rng.uniform(0.0, 0.6 * cap)))
            if rng.random() < 0.05:
                controller.fail_switch(w)
        for link in topo.links:
            if rng.random() < 0.05:
                controller.fail_link(*link.key)
        stages = shortest_path_stages(topo, src, dst)
        for stage in stages[2:-2]:
            for n in stage:
                if topo.is_switch(n) and rng.random() < 0.4:
                    if rng.random() < 0.5:
                        controller.fail_switch(n)
                    else:
                        controller.set_base_load(n, topo.switch(n).capacity)
        for here, there in zip(stages[1:-1], stages[2:-1]):
            for a in here:
                for b in there:
                    if topo.has_link(a, b) and rng.random() < 0.3:
                        controller.fail_link(a, b)
        rate = float(rng.uniform(0.1, 1.5))
        for enforce in (False, True):
            assert_matches_brute_force(controller, src, dst, rate, enforce)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hit_no_worse_than_random_and_ecmp(seed):
    """Same seed, same workload: Hit's static shuffle cost must not exceed
    the Random or ECMP baselines'."""
    generator = WorkloadGenerator(
        seed=seed, input_size_range=(4.0, 10.0), map_rate=8.0, reduce_rate=8.0
    )
    jobs = generator.make_workload(4)
    costs = {}
    for name in ("hit", "random", "capacity-ecmp"):
        topology = configs.testbed_tree()
        workload = build_static_workload(topology, jobs, seed=seed)
        result = run_static_placement(
            workload, make_scheduler(name, seed=seed), seed=seed
        )
        costs[name] = result.shuffle_cost
    assert costs["hit"] <= costs["random"] + 1e-9, costs
    assert costs["hit"] <= costs["capacity-ecmp"] + 1e-9, costs

"""Routing utilities: stage DAGs, path enumeration and their consistency."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import (
    bfs_layers,
    build_bcube,
    build_fattree,
    build_tree,
    count_shortest_paths,
    build_vl2,
    enumerate_paths,
    iter_paths,
    path_is_valid,
    shortest_path_stages,
    single_source_unit_costs,
    stage_adjacency,
)


SMALL_FABRICS = {
    "tree": lambda: build_tree(depth=2, fanout=3, redundancy=2),
    "fattree": lambda: build_fattree(k=4),
    "vl2": lambda: build_vl2(
        num_intermediate=2, num_aggregation=2, num_tor=4, servers_per_tor=2
    ),
    "bcube": lambda: build_bcube(n=3, k=1),
}


@pytest.fixture(scope="module")
def tree():
    return build_tree(depth=2, fanout=4, redundancy=2)


class TestStages:
    def test_endpoints_are_singleton_stages(self, tree):
        stages = shortest_path_stages(tree, 0, 15)
        assert stages[0] == (0,)
        assert stages[-1] == (15,)

    def test_stage_count_matches_distance(self, tree):
        stages = shortest_path_stages(tree, 0, 15)
        assert len(stages) == tree.hop_distance(0, 15) + 1

    def test_same_node(self, tree):
        assert shortest_path_stages(tree, 3, 3) == [(3,)]

    def test_consecutive_stages_connected(self, tree):
        stages = shortest_path_stages(tree, 0, 15)
        for a_stage, b_stage in zip(stages, stages[1:]):
            assert any(
                tree.has_link(a, b) for a in a_stage for b in b_stage
            )

    def test_stage_nodes_lie_on_shortest_paths(self, tree):
        stages = shortest_path_stages(tree, 0, 15)
        total = tree.hop_distance(0, 15)
        for j, stage in enumerate(stages):
            for node in stage:
                assert tree.hop_distance(0, node) == j
                assert tree.hop_distance(node, 15) == total - j

    def test_redundant_switches_appear(self, tree):
        # Within-rack stage should offer both access replicas.
        stages = shortest_path_stages(tree, 0, 1)
        assert len(stages[1]) == 2

    def test_cached_identity(self, tree):
        assert shortest_path_stages(tree, 0, 15) is shortest_path_stages(tree, 0, 15)


class TestStageAdjacency:
    def test_matches_has_link(self, tree):
        stages, mats = stage_adjacency(tree, 0, 15)
        assert [tuple(int(n) for n in s) for s in stages] == [
            tuple(s) for s in shortest_path_stages(tree, 0, 15)
        ]
        for k, mat in enumerate(mats):
            for i, a in enumerate(stages[k]):
                for j, b in enumerate(stages[k + 1]):
                    assert mat[i, j] == tree.has_link(int(a), int(b))

    def test_cached_identity(self, tree):
        assert stage_adjacency(tree, 0, 15) is stage_adjacency(tree, 0, 15)

    @pytest.mark.parametrize("kind", sorted(SMALL_FABRICS))
    def test_slack_zero_layers_are_shortest_path_stages(self, kind):
        topo = SMALL_FABRICS[kind]()
        servers = topo.server_ids
        for src, dst in zip(servers, reversed(servers)):
            stages, _ = stage_adjacency(topo, src, dst)
            assert [tuple(int(n) for n in s) for s in stages] == [
                tuple(s) for s in shortest_path_stages(topo, src, dst)
            ]

    @pytest.mark.parametrize("kind", sorted(SMALL_FABRICS))
    @pytest.mark.parametrize("slack", [0, 1, 2])
    def test_slack_layers_hold_every_simple_path(self, kind, slack):
        """Every simple path of exactly ``D + slack`` hops runs through the
        slack layers position by position, over their adjacency."""
        topo = SMALL_FABRICS[kind]()
        servers = topo.server_ids
        checked = 0
        for src, dst in [(servers[0], servers[-1]), (servers[1], servers[2])]:
            hops = topo.hop_distance(src, dst) + slack
            stages, mats = stage_adjacency(topo, src, dst, slack)
            assert len(stages) == hops + 1
            assert stages[0].tolist() == [src] and stages[-1].tolist() == [dst]
            for stage in stages:
                assert np.all(np.diff(stage) > 0)
            index = [{int(n): i for i, n in enumerate(s)} for s in stages]
            for path in iter_paths(topo, src, dst, slack):
                if len(path) - 1 != hops:
                    continue
                for k, (a, b) in enumerate(zip(path, path[1:])):
                    assert mats[k][index[k][a], index[k + 1][b]]
                checked += 1
        # These fabrics are bipartite, so odd slack admits no path at all.
        assert checked > 0 or slack % 2 == 1

    def test_adjacency_matrix_symmetric(self, tree):
        matrix = tree.adjacency_matrix()
        assert np.array_equal(matrix, matrix.T)
        assert not matrix.diagonal().any()
        assert matrix.sum() == 2 * len(tree.links)


class TestSingleSourceUnitCosts:
    def test_layers_partition_reachable_nodes(self, tree):
        layers, mats = bfs_layers(tree, 0)
        seen = np.concatenate(layers)
        assert len(seen) == len(set(seen.tolist())) == tree.num_nodes
        dist = tree.hop_distances_from(0)
        for d, layer in enumerate(layers):
            assert all(dist[n] == d for n in layer)
        assert len(mats) == len(layers) - 1

    def test_unit_hop_costs_equal_switch_count(self, tree):
        """With unit node costs on switches, the solver returns the number
        of switches on a shortest path — the paper's default cost model."""
        costs = np.zeros(tree.num_nodes)
        for w in tree.switch_ids:
            costs[w] = 1.0
        best = single_source_unit_costs(tree, 0, costs)
        for dst in tree.server_ids:
            if dst == 0:
                assert best[dst] == 0.0
                continue
            path = tree.shortest_path(0, dst)
            assert best[dst] == len(tree.switches_on_path(path))

    def test_minimises_over_equal_length_paths(self, tree):
        """Skewed per-switch costs: the solver must pick the cheapest of the
        equal-length alternatives, matching brute-force enumeration."""
        rng = np.random.default_rng(3)
        costs = np.zeros(tree.num_nodes)
        for w in tree.switch_ids:
            costs[w] = float(rng.uniform(0.5, 2.0))
        best = single_source_unit_costs(tree, 0, costs)
        for dst in (1, 5, 15):
            brute = min(
                sum(costs[n] for n in path if tree.is_switch(n))
                for path in enumerate_paths(tree, 0, dst, slack=0)
            )
            assert best[dst] == pytest.approx(brute)


class TestEnumeration:
    def test_slack0_paths_all_shortest(self, tree):
        d = tree.hop_distance(0, 15)
        for path in enumerate_paths(tree, 0, 15, slack=0):
            assert len(path) == d + 1
            assert path_is_valid(tree, path)

    def test_count_matches_dp(self, tree):
        paths = enumerate_paths(tree, 0, 15, slack=0)
        assert len(paths) == count_shortest_paths(tree, 0, 15)

    def test_count_matches_dp_fattree(self):
        ft = build_fattree(k=4)
        assert len(enumerate_paths(ft, 0, 8, slack=0)) == count_shortest_paths(
            ft, 0, 8
        )

    def test_slack_extends_path_set(self, tree):
        shortest = enumerate_paths(tree, 0, 15, slack=0)
        extended = enumerate_paths(tree, 0, 15, slack=2)
        assert set(shortest) <= set(extended)
        assert len(extended) > len(shortest)

    def test_paths_are_simple(self, tree):
        for path in enumerate_paths(tree, 0, 15, slack=2):
            assert len(path) == len(set(path))

    def test_limit_respected(self, tree):
        assert len(enumerate_paths(tree, 0, 15, slack=2, limit=3)) == 3

    def test_negative_slack_rejected(self, tree):
        with pytest.raises(ValueError):
            enumerate_paths(tree, 0, 15, slack=-1)

    def test_same_node(self, tree):
        assert enumerate_paths(tree, 2, 2) == [(2,)]

    def test_deterministic_order(self, tree):
        assert enumerate_paths(tree, 0, 15, slack=1) == enumerate_paths(
            tree, 0, 15, slack=1
        )


class TestPathValidity:
    def test_valid_path(self, tree):
        assert path_is_valid(tree, tree.shortest_path(0, 15))

    def test_rejects_repeats(self, tree):
        p = tree.shortest_path(0, 15)
        assert not path_is_valid(tree, p + (p[-2],))

    def test_rejects_non_adjacent(self, tree):
        assert not path_is_valid(tree, (0, 15))


@settings(max_examples=30, deadline=None)
@given(
    src=st.integers(min_value=0, max_value=15),
    dst=st.integers(min_value=0, max_value=15),
)
def test_property_stage_dag_counts_all_enumerated_paths(src, dst):
    """For every server pair, DP path counting equals brute enumeration."""
    tree = build_tree(depth=2, fanout=4, redundancy=2)
    assert count_shortest_paths(tree, src, dst) == len(
        enumerate_paths(tree, src, dst, slack=0)
    )


@settings(max_examples=20, deadline=None)
@given(
    src=st.integers(min_value=0, max_value=15),
    dst=st.integers(min_value=0, max_value=15),
)
def test_property_bcube_paths_valid(src, dst):
    """BCube enumeration returns simple, physically connected paths."""
    topo = build_bcube(n=4, k=1)
    for path in enumerate_paths(topo, src, dst, slack=0, limit=64):
        assert path_is_valid(topo, path)
        assert path[0] == src and path[-1] == dst

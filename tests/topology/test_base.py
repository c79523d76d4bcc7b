"""Unit tests for the topology graph model."""

import numpy as np
import pytest

from repro.topology import (
    Link,
    Server,
    Switch,
    Tier,
    Topology,
    UNREACHABLE,
    build_tree,
)
from repro.topology.tree import TreeConfig


def line_topology():
    """s0 - w2 - w3 - s1: two servers joined by two switches in series."""
    servers = [Server(0, "s0"), Server(1, "s1")]
    switches = [
        Switch(2, "w2", Tier.ACCESS, capacity=10.0),
        Switch(3, "w3", Tier.ACCESS, capacity=10.0),
    ]
    links = [Link(0, 2, 5.0), Link(2, 3, 5.0), Link(3, 1, 5.0)]
    return Topology(servers, switches, links, name="line")


class TestSwitch:
    def test_requires_positive_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            Switch(0, "w", Tier.ACCESS, capacity=0.0)

    def test_type_defaults_to_tier_label(self):
        assert Switch(0, "w", Tier.AGGREGATION, 1.0).switch_type == "aggregation"

    def test_explicit_type_preserved(self):
        w = Switch(0, "w", Tier.CORE, 1.0, switch_type="spine")
        assert w.switch_type == "spine"

    def test_tier_ordering(self):
        assert Tier.ACCESS < Tier.AGGREGATION < Tier.CORE


class TestServer:
    def test_rejects_negative_resources(self):
        with pytest.raises(ValueError, match="negative"):
            Server(0, "s", resource_capacity=(-1.0,))

    def test_default_capacity(self):
        assert Server(0, "s").resource_capacity == (1.0,)


class TestLink:
    def test_rejects_self_link(self):
        with pytest.raises(ValueError, match="self-link"):
            Link(1, 1, 1.0)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth"):
            Link(0, 1, 0.0)

    def test_key_is_canonical(self):
        assert Link(3, 1, 1.0).key == (1, 3)
        assert Link(1, 3, 1.0).key == (1, 3)


class TestTopologyConstruction:
    def test_rejects_overlapping_ids(self):
        with pytest.raises(ValueError, match="overlap"):
            Topology(
                [Server(0, "s0")],
                [Switch(0, "w0", Tier.ACCESS, 1.0)],
                [],
            )

    def test_rejects_non_contiguous_ids(self):
        with pytest.raises(ValueError, match="contiguous"):
            Topology([Server(0, "s0"), Server(5, "s5")], [], [])

    def test_rejects_duplicate_links(self):
        with pytest.raises(ValueError, match="duplicate"):
            Topology(
                [Server(0, "s0"), Server(1, "s1")],
                [],
                [Link(0, 1, 1.0), Link(1, 0, 1.0)],
            )

    def test_rejects_link_to_unknown_node(self):
        with pytest.raises(ValueError, match="unknown node"):
            Topology([Server(0, "s0"), Server(1, "s1")], [], [Link(0, 7, 1.0)])

    def test_counts(self):
        topo = line_topology()
        assert topo.num_nodes == 4
        assert topo.num_servers == 2
        assert topo.num_switches == 2
        assert len(topo.links) == 3

    def test_node_kind_queries(self):
        topo = line_topology()
        assert topo.is_server(0) and topo.is_server(1)
        assert topo.is_switch(2) and topo.is_switch(3)
        assert not topo.is_switch(0)

    def test_validate_detects_disconnected_server(self):
        topo = Topology(
            [Server(0, "s0"), Server(1, "s1")],
            [Switch(2, "w", Tier.ACCESS, 1.0)],
            [Link(0, 2, 1.0)],
        )
        with pytest.raises(ValueError, match="disconnected"):
            topo.validate()

    def test_validate_detects_stranded_server(self):
        topo = Topology(
            [Server(0, "s0"), Server(1, "s1"), Server(2, "s2")],
            [Switch(3, "wA", Tier.ACCESS, 1.0), Switch(4, "wB", Tier.ACCESS, 1.0)],
            [Link(0, 3, 1.0), Link(1, 3, 1.0), Link(2, 4, 1.0)],
        )
        with pytest.raises(ValueError, match="unreachable"):
            topo.validate()


class TestDistances:
    def test_hop_distances_basics(self):
        topo = line_topology()
        assert topo.hop_distance(0, 0) == 0
        assert topo.hop_distance(0, 2) == 1
        assert topo.hop_distance(0, 3) == 2
        assert topo.hop_distance(0, 1) == 3
        assert topo.hop_distance(1, 0) == 3  # symmetric

    def test_distances_cached_and_readonly(self):
        topo = line_topology()
        d1 = topo.hop_distances_from(0)
        d2 = topo.hop_distances_from(0)
        assert d1 is d2
        with pytest.raises(ValueError):
            d1[0] = 99

    def test_unreachable_marker(self):
        # Build a connected fabric, then query an isolated switch pair via a
        # topology that validate() would reject but construction allows.
        topo = Topology(
            [Server(0, "s0"), Server(1, "s1")],
            [Switch(2, "w", Tier.ACCESS, 1.0)],
            [Link(0, 2, 1.0)],
        )
        assert topo.hop_distance(0, 1) == UNREACHABLE

    def test_shortest_path_endpoints_and_adjacency(self):
        topo = build_tree(TreeConfig(depth=2, fanout=4, redundancy=2))
        path = topo.shortest_path(0, 15)
        assert path[0] == 0 and path[-1] == 15
        assert len(path) == topo.hop_distance(0, 15) + 1
        for a, b in zip(path, path[1:]):
            assert topo.has_link(a, b)

    def test_shortest_path_deterministic(self):
        topo = build_tree(TreeConfig(depth=2, fanout=4, redundancy=2))
        assert topo.shortest_path(0, 15) == topo.shortest_path(0, 15)

    def test_shortest_path_same_node(self):
        topo = line_topology()
        assert topo.shortest_path(1, 1) == (1,)

    def test_shortest_path_raises_when_disconnected(self):
        topo = Topology(
            [Server(0, "s0"), Server(1, "s1")],
            [Switch(2, "w", Tier.ACCESS, 1.0)],
            [Link(0, 2, 1.0)],
        )
        with pytest.raises(ValueError, match="no path"):
            topo.shortest_path(0, 1)


class TestPathHelpers:
    def test_switches_on_path(self):
        topo = line_topology()
        assert topo.switches_on_path((0, 2, 3, 1)) == (2, 3)

    def test_path_links_directed(self):
        topo = line_topology()
        assert topo.path_links((0, 2, 3)) == ((0, 2), (2, 3))

    def test_min_bandwidth_on_path(self):
        servers = [Server(0, "s0"), Server(1, "s1")]
        switches = [Switch(2, "w", Tier.ACCESS, 10.0)]
        links = [Link(0, 2, 3.0), Link(2, 1, 7.0)]
        topo = Topology(servers, switches, links)
        assert topo.min_bandwidth_on_path((0, 2, 1)) == 3.0

    def test_link_lookup_is_undirected(self):
        topo = line_topology()
        assert topo.link(0, 2) is topo.link(2, 0)

    def test_switches_of_tier(self):
        topo = build_tree(TreeConfig(depth=2, fanout=2, redundancy=1))
        access = topo.switches_of_tier(Tier.ACCESS)
        core = topo.switches_of_tier(Tier.CORE)
        assert len(access) == 2
        assert len(core) == 1
        assert all(topo.tier_of(w) == Tier.ACCESS for w in access)

"""YARN-like control plane: requests, NodeManager, ResourceManager, AM."""

import pytest

from repro.cluster import Resources, TaskKind, TaskRef
from repro.core import HitConfig, HitOptimizer
from repro.yarnsim import (
    ANY_HOST,
    ApplicationMaster,
    HitResourceRequest,
    LaunchedContainer,
    NodeManager,
    ResourceManager,
    ResourceRequest,
    TopologyAwareTaskDict,
)

from ..conftest import make_job, make_taa


@pytest.fixture
def rm(small_tree):
    return ResourceManager(small_tree)


class TestRequests:
    def test_wildcard_default(self):
        r = ResourceRequest(priority=1, capability=Resources(1, 0))
        assert r.is_anywhere

    def test_rejects_zero_containers(self):
        with pytest.raises(ValueError):
            ResourceRequest(priority=1, capability=Resources(1, 0), num_containers=0)

    def test_rejects_negative_priority(self):
        with pytest.raises(ValueError):
            ResourceRequest(priority=-1, capability=Resources(1, 0))

    def test_hit_request_requires_host(self):
        with pytest.raises(ValueError, match="concrete preferred host"):
            HitResourceRequest(priority=1, capability=Resources(1, 0))

    def test_hit_request_with_host(self):
        r = HitResourceRequest(
            priority=1, capability=Resources(1, 0), resource_name="s3"
        )
        assert not r.is_anywhere


class TestNodeManager:
    def test_launch_and_release(self):
        nm = NodeManager(0, "s0", Resources(2, 0))
        nm.launch(LaunchedContainer(0, Resources(1, 0)))
        assert nm.used == Resources(1, 0)
        assert len(nm) == 1
        nm.release(0)
        assert nm.used.is_zero

    def test_capacity_enforced(self):
        nm = NodeManager(0, "s0", Resources(1, 0))
        nm.launch(LaunchedContainer(0, Resources(1, 0)))
        with pytest.raises(RuntimeError, match="insufficient"):
            nm.launch(LaunchedContainer(1, Resources(1, 0)))

    def test_duplicate_container_rejected(self):
        nm = NodeManager(0, "s0", Resources(2, 0))
        nm.launch(LaunchedContainer(0, Resources(1, 0)))
        with pytest.raises(ValueError, match="already running"):
            nm.launch(LaunchedContainer(0, Resources(1, 0)))

    def test_heartbeat_report(self):
        nm = NodeManager(0, "s0", Resources(2, 0))
        nm.launch(LaunchedContainer(5, Resources(1, 0), task="j0.M0"))
        hb = nm.heartbeat()
        assert hb["hostname"] == "s0"
        assert hb["running"] == [5]


class TestResourceManager:
    def test_one_node_per_server(self, rm, small_tree):
        assert len(rm.nodes) == small_tree.num_servers

    def test_wildcard_round_robin(self, rm):
        app = rm.register_application("job")
        grants = rm.allocate(
            app,
            [ResourceRequest(priority=1, capability=Resources(1, 0), num_containers=4)],
        )
        hosts = [g.hostname for g in grants]
        assert len(set(hosts)) == 4  # spread across nodes

    def test_hit_request_lands_on_preferred(self, rm):
        app = rm.register_application("job")
        req = HitResourceRequest(
            priority=1, capability=Resources(1, 0), resource_name="s7"
        )
        (grant,) = rm.allocate(app, [req])
        assert grant.hostname == "s7"

    def test_hit_request_falls_back_to_nearest(self, rm, small_tree):
        app = rm.register_application("job")
        cap = Resources(1, 0)
        # Fill s0 (capacity 2 in the fixture tree).
        rm.allocate(app, [
            HitResourceRequest(priority=1, capability=cap, resource_name="s0",
                               num_containers=2)
        ])
        (grant,) = rm.allocate(app, [
            HitResourceRequest(priority=1, capability=cap, resource_name="s0")
        ])
        assert grant.hostname != "s0"
        # Nearest = same rack (servers s1..s3 in the 4-per-rack tree).
        assert grant.hostname in {"s1", "s2", "s3"}

    def test_strict_locality_failure(self, rm):
        app = rm.register_application("job")
        cap = Resources(1, 0)
        rm.allocate(app, [
            HitResourceRequest(priority=1, capability=cap, resource_name="s0",
                               num_containers=2)
        ])
        with pytest.raises(RuntimeError, match="no node"):
            rm.allocate(app, [
                HitResourceRequest(priority=1, capability=cap,
                                   resource_name="s0", relax_locality=False)
            ])

    def test_unknown_host_rejected(self, rm):
        app = rm.register_application("job")
        with pytest.raises(KeyError):
            rm.allocate(app, [
                HitResourceRequest(priority=1, capability=Resources(1, 0),
                                   resource_name="nope")
            ])

    def test_unknown_app_rejected(self, rm):
        with pytest.raises(KeyError):
            rm.allocate(99, [])

    def test_release_refunds(self, rm):
        app = rm.register_application("job")
        before = rm.cluster_available()
        (grant,) = rm.allocate(app, [
            ResourceRequest(priority=1, capability=Resources(1, 0))
        ])
        rm.release(grant)
        assert rm.cluster_available() == before


class TestTaskDict:
    def test_from_placement(self, small_tree):
        taa, map_ids, reduce_ids = make_taa(small_tree)
        HitOptimizer(taa, HitConfig(seed=0)).optimize_initial_wave()
        td = TopologyAwareTaskDict.from_placement(
            taa.cluster, small_tree, taa.cluster.placement_snapshot()
        )
        assert len(td) == len(map_ids) + len(reduce_ids)
        task = taa.cluster.container(map_ids[0]).task
        expected = small_tree.server(
            taa.cluster.container(map_ids[0]).server_id
        ).name
        assert td.preferred_host(task) == expected

    def test_set_and_contains(self):
        td = TopologyAwareTaskDict()
        task = TaskRef(0, TaskKind.MAP, 0)
        assert task not in td
        td.set_preferred_host(task, "s5")
        assert task in td
        assert td.preferred_host(task) == "s5"


class TestApplicationMaster:
    def test_stock_am_emits_wildcards(self, rm):
        job = make_job()
        am = ApplicationMaster(rm=rm, job=job)
        requests = am.build_requests()
        assert len(requests) == job.num_maps + job.num_reduces
        assert all(r.resource_name == ANY_HOST for r in requests)

    def test_hit_am_emits_preferred_hosts(self, rm, small_tree):
        job = make_job()
        taa, map_ids, reduce_ids = make_taa(small_tree, job)
        HitOptimizer(taa, HitConfig(seed=0)).optimize_initial_wave()
        td = TopologyAwareTaskDict.from_placement(
            taa.cluster, small_tree, taa.cluster.placement_snapshot()
        )
        am = ApplicationMaster(rm=rm, job=job, taskdict=td)
        requests = am.build_requests()
        assert all(isinstance(r, HitResourceRequest) for r in requests)

    def test_acquire_and_release_cycle(self, rm, small_tree):
        job = make_job()
        taa, *_ = make_taa(small_tree, job)
        HitOptimizer(taa, HitConfig(seed=0)).optimize_initial_wave()
        td = TopologyAwareTaskDict.from_placement(
            taa.cluster, small_tree, taa.cluster.placement_snapshot()
        )
        am = ApplicationMaster(rm=rm, job=job, taskdict=td)
        granted = am.acquire_containers()
        assert len(granted) == job.num_maps + job.num_reduces
        before = rm.cluster_available()
        am.release_all()
        assert rm.cluster_available().dominates(before)

    def test_grants_match_hit_placement_when_room(self, rm, small_tree):
        """End-to-end Section 6 flow: TAA optimisation -> taskdict ->
        Hit-ResourceRequests -> RM grants on the preferred hosts."""
        job = make_job()
        taa, *_ = make_taa(small_tree, job)
        HitOptimizer(taa, HitConfig(seed=0)).optimize_initial_wave()
        td = TopologyAwareTaskDict.from_placement(
            taa.cluster, small_tree, taa.cluster.placement_snapshot()
        )
        am = ApplicationMaster(rm=rm, job=job, taskdict=td)
        granted = am.acquire_containers()
        for c in taa.cluster.containers():
            expected = small_tree.server(c.server_id).name
            assert granted[str(c.task)].hostname == expected

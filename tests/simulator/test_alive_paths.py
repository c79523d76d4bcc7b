"""Baseline routing under failures: the lazy ``_alive_paths`` walk against
the enumerate-then-filter rule it replaced.

The reference below is that rule verbatim: per slack level, list the first
64 paths with the recursive oracle, drop the ones crossing a failed switch
or dead link, and return the first non-empty level.  The engine must agree
on the first path (static baselines), the whole level (ECMP's draw) and the
level's size (the ``candidates`` count in the route provenance record).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scalar_ref import enumerate_paths_scalar
from repro.experiments import configs
from repro.faults import FaultKind, FaultSpec
from repro.mapreduce import WorkloadGenerator
from repro.mapreduce.shuffle import ShuffleFlow
from repro.obs.provenance import ProvenanceConfig
from repro.schedulers import make_scheduler
from repro.simulator import MapReduceSimulator, SimulationConfig
from repro.topology import FatTreeConfig, build_fattree

TOPOLOGIES = {
    "testbed": configs.testbed_tree(),
    "fattree": build_fattree(FatTreeConfig(k=4, server_resources=(2.0,))),
}

FLOW = ShuffleFlow(
    flow_id=0, job_id=0, map_index=0, reduce_index=0,
    src_container=0, dst_container=1, size=1.0, rate=1.0,
)


def is_alive(path, failed, dead):
    if any(n in failed for n in path):
        return False
    return not any(
        ((a, b) if a <= b else (b, a)) in dead for a, b in zip(path, path[1:])
    )


def reference_alive_paths(topo, failed, dead, src, dst, max_slack=4):
    for slack in range(max_slack + 1):
        level = [
            p
            for p in enumerate_paths_scalar(topo, src, dst, slack=slack, limit=64)
            if is_alive(p, failed, dead)
        ]
        if level:
            return level
    return []


def faulty_sim(topo, scheduler, failed, dead, provenance=False):
    """A simulator whose fault plane has ``failed``/``dead`` marked, so
    routing runs the failure branch without running the simulation."""
    workload = WorkloadGenerator(seed=0).make_workload(1)
    config = SimulationConfig(
        seed=0,
        # Any timeline turns the fault plane on; this one never fires.
        faults=(FaultSpec(1e9, FaultKind.SERVER_FAIL, topo.server_ids[0]),),
        provenance=ProvenanceConfig() if provenance else None,
    )
    sim = MapReduceSimulator(
        topo, make_scheduler(scheduler, seed=0), workload, config
    )
    for switch in failed:
        sim.faults.mark_switch_failed(switch)
    for u, v in dead:
        sim.faults.mark_link_failed(u, v)
    return sim


@st.composite
def failure_cases(draw):
    topo = TOPOLOGIES[draw(st.sampled_from(sorted(TOPOLOGIES)))]
    switches = st.sampled_from(topo.switch_ids)
    failed = draw(st.frozensets(switches, max_size=4))
    links = st.sampled_from([link.key for link in topo.links])
    dead = draw(st.frozensets(links, min_size=0 if failed else 1, max_size=6))
    servers = st.sampled_from(topo.server_ids)
    src = draw(servers)
    dst = draw(servers.filter(lambda s: s != src))
    return topo, failed, dead, src, dst


@settings(max_examples=60, deadline=None)
@given(case=failure_cases())
def test_lazy_walk_matches_enumerate_then_filter(case):
    topo, failed, dead, src, dst = case
    expected = reference_alive_paths(topo, failed, dead, src, dst)

    # (a) static baselines take the first live path, or park on none.
    sim = faulty_sim(topo, "capacity", failed, dead)
    assert sim._route(FLOW, src, dst) == (expected[0] if expected else None)

    # (b) ECMP draws from the whole level.
    sim = faulty_sim(topo, "capacity-ecmp", failed, dead)
    assert list(sim._alive_paths(src, dst)) == expected

    # (c) the audit log counts the whole level.
    sim = faulty_sim(topo, "capacity", failed, dead, provenance=True)
    sim._route(FLOW, src, dst)
    record = sim.provenance.ring[-1]
    if expected:
        assert record.detail["path"] == list(expected[0])
        assert record.detail["candidates"] == len(expected)
    else:
        assert record.reason == "no-path"


def test_level_with_64_dead_paths_falls_through():
    """Only the first 64 paths of a slack level are tried.

    Server 16's first ToR link is dead and its second ToR's uplinks are
    dead, so every live path enters through the second ToR via a sibling
    server.  At slack 2 such detours exist but sit past the first 64
    enumerated paths, so the walk skips to slack 4 even though a live
    slack-2 path exists.
    """
    topo = TOPOLOGIES["testbed"]
    src, dst = 0, 16
    tor_a, tor_b = topo.neighbors(dst)
    dead = {(dst, tor_a)} | {
        (tor_b, n) for n in topo.neighbors(tor_b) if topo.is_switch(n)
    }
    shortest = topo.hop_distance(src, dst)
    live_at_slack_2 = [
        p
        for p in enumerate_paths_scalar(topo, src, dst, slack=2)
        if is_alive(p, set(), dead)
    ]
    assert live_at_slack_2 and len(live_at_slack_2[0]) - 1 == shortest + 2
    expected = reference_alive_paths(topo, set(), dead, src, dst)
    assert expected and len(expected[0]) - 1 == shortest + 4

    sim = faulty_sim(topo, "capacity", set(), dead, provenance=True)
    assert list(sim._alive_paths(src, dst)) == expected
    assert sim._route(FLOW, src, dst) == expected[0]
    assert sim.provenance.ring[-1].detail["candidates"] == len(expected)

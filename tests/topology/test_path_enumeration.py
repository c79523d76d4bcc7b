"""Differential suite: the iterative path enumerator against the recursive
oracle kept in ``repro.core.scalar_ref``.

``enumerate_paths`` (and the lazy ``iter_paths`` under it) must return the
oracle's list exactly — same paths, same order, same truncation, including
the few paths the recursive search appends past ``limit`` — on every
fabric family the paper evaluates, at slack 0–3, with limits that do and do
not cut the enumeration short.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scalar_ref import enumerate_paths_scalar
from repro.topology import (
    BCubeConfig,
    FatTreeConfig,
    TreeConfig,
    VL2Config,
    build_bcube,
    build_fattree,
    build_tree,
    build_vl2,
    enumerate_paths,
    iter_paths,
)

TOPOLOGIES = {
    "tree": build_tree(TreeConfig(depth=2, fanout=3, redundancy=2)),
    "fattree": build_fattree(FatTreeConfig(k=4)),
    "vl2": build_vl2(VL2Config()),
    "bcube": build_bcube(BCubeConfig()),
}


@st.composite
def queries(draw):
    """(topology, src, dst, slack) over every node pair, switches included."""
    kind = draw(st.sampled_from(sorted(TOPOLOGIES)))
    topo = TOPOLOGIES[kind]
    node = st.integers(min_value=0, max_value=topo.num_nodes - 1)
    return topo, draw(node), draw(node), draw(st.integers(0, 3))


@settings(max_examples=400, deadline=None)
@given(query=queries(), limit=st.integers(min_value=1, max_value=200))
def test_enumerate_paths_matches_oracle(query, limit):
    topo, src, dst, slack = query
    assert enumerate_paths(topo, src, dst, slack=slack, limit=limit) == (
        enumerate_paths_scalar(topo, src, dst, slack=slack, limit=limit)
    )
    assert list(iter_paths(topo, src, dst, slack)) == (
        enumerate_paths_scalar(topo, src, dst, slack=slack)
    )


def test_truncation_overshoot_matches_oracle():
    """The recursive search lets enclosing prefixes append their direct hop
    to ``dst`` after the limit is reached; the iterative walk keeps that."""
    topo = TOPOLOGIES["tree"]
    expected = enumerate_paths_scalar(topo, 0, 2, slack=2, limit=1)
    assert len(expected) > 1
    assert enumerate_paths(topo, 0, 2, slack=2, limit=1) == expected


@pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
def test_drawn_limits_straddle_the_path_counts(kind):
    """The drawn limits (1–200) both truncate and do not: from its first
    server, each family has a pair with several slack-3 paths and none with
    more than 200."""
    topo = TOPOLOGIES[kind]
    src = topo.server_ids[0]
    counts = [
        len(enumerate_paths_scalar(topo, src, dst, slack=3))
        for dst in range(topo.num_nodes)
    ]
    assert 1 < max(counts) <= 200


def test_iter_paths_raises_at_call_time():
    topo = TOPOLOGIES["tree"]
    with pytest.raises(ValueError, match="slack"):
        iter_paths(topo, 0, 1, slack=-1)

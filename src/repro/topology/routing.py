"""Routing utilities: equal-cost path structure for policy optimisation.

A network *policy* in the paper (Section 3.1) is an ordered list of typed
switches a shuffle flow must traverse.  Optimising a policy (Algorithm 1)
means replacing individual switches with same-type alternatives that have
residual capacity (Eq 4).  On a hierarchical fabric the alternatives at each
position are exactly the nodes that lie at the same depth on *some*
equal-length route — the stages of the shortest-path DAG between the two
endpoints.  This module computes that structure:

* :func:`shortest_path_stages` — for a node pair, the list of candidate node
  sets per hop index of a shortest path;
* :func:`stage_adjacency` — the same layers, widened by a hop ``slack``, as
  arrays plus inter-layer adjacency: the layered graph Algorithm 1's DP runs
  over, one slack level at a time;
* :func:`iter_paths` / :func:`enumerate_paths` — explicit, lazy or listed,
  enumeration of equal-cost (optionally slack-extended) paths, used by the
  baselines' ECMP and failure routing and by tests as ground truth.
"""

from __future__ import annotations

import weakref
from typing import Callable, Iterator, Sequence

import numpy as np

from .base import Topology, UNREACHABLE

#: Per-topology memo of stage decompositions, keyed by the topology object
#: (weakly — entries vanish with their topology) then (src, dst).
#: Topologies are immutable after construction, so entries never go stale;
#: failed switches and links are masked when a path search runs.  A plain id(topology)-keyed dict would be wrong: once a topology is
#: garbage-collected a *new* topology can reuse the same id() and silently
#: inherit the old one's stages, making the policy DP walk a graph that no
#: longer exists (surfaced by the randomized property suite, which builds
#: hundreds of short-lived topologies).
_STAGE_CACHE: "weakref.WeakKeyDictionary[Topology, dict[tuple[int, int], list[tuple[int, ...]]]]" = (
    weakref.WeakKeyDictionary()
)

#: Memo of :func:`stage_adjacency` at slack 0: per (src, dst), the stages as
#: integer arrays plus the boolean adjacency matrix between each pair of
#: consecutive stages.  Same weak keying and staleness argument as above.
_STAGE_ADJ_CACHE: "weakref.WeakKeyDictionary[Topology, dict[tuple[int, int], tuple[list[np.ndarray], list[np.ndarray]]]]" = (
    weakref.WeakKeyDictionary()
)

#: Per-source BFS layer decomposition used by the batched unit-cost solver:
#: layer node arrays plus consecutive-layer adjacency matrices.
_LAYER_CACHE: "weakref.WeakKeyDictionary[Topology, dict[int, tuple[list[np.ndarray], list[np.ndarray]]]]" = (
    weakref.WeakKeyDictionary()
)

__all__ = [
    "shortest_path_stages",
    "stage_adjacency",
    "bfs_layers",
    "single_source_unit_costs",
    "iter_paths",
    "enumerate_paths",
    "count_shortest_paths",
]


def shortest_path_stages(
    topology: Topology, src: int, dst: int
) -> list[tuple[int, ...]]:
    """Candidate node sets per position of any shortest ``src``→``dst`` path.

    Returns ``stages`` with ``stages[0] == (src,)``, ``stages[-1] == (dst,)``
    and ``stages[j]`` = every node ``n`` with ``d(src, n) == j`` and
    ``d(n, dst) == D - j`` where ``D`` is the shortest-path hop distance.  Two
    consecutive stages are always joined by at least one physical link, but
    not every cross-stage node pair is adjacent — the policy DP must check
    adjacency edge by edge.

    Raises ``ValueError`` when the endpoints are disconnected.
    """
    if src == dst:
        return [(src,)]
    per_topo = _STAGE_CACHE.setdefault(topology, {})
    cached = per_topo.get((src, dst))
    if cached is not None:
        return cached
    dist_src = topology.hop_distances_from(src)
    dist_dst = topology.hop_distances_from(dst)
    total = int(dist_src[dst])
    if total == UNREACHABLE:
        raise ValueError(f"no path between {src} and {dst}")
    # Nodes on some shortest path satisfy d(src, n) + d(n, dst) == total.
    on_path = dist_src + dist_dst == total
    stages: list[tuple[int, ...]] = [(src,)]
    for j in range(1, total):
        stage = tuple(
            int(n) for n in np.nonzero(on_path & (dist_src == j))[0]
        )
        stages.append(stage)
    stages.append((dst,))
    per_topo[(src, dst)] = stages
    return stages


def stage_adjacency(
    topology: Topology, src: int, dst: int, slack: int = 0
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Layered graph of every ``src``→``dst`` walk of ``D + slack`` hops
    (``D`` the shortest-path hop distance), for the policy DP.

    Returns ``(stages, mats)`` where ``stages[k]`` (``k = 0..D+slack``) is
    every node ``n`` with ``d(src, n) <= k`` and ``d(n, dst) <= D+slack-k``
    as an int64 array of ascending ids — at slack 0 exactly
    :func:`shortest_path_stages` — and ``mats[k][i, j]`` is True iff
    ``stages[k][i]`` and ``stages[k+1][j]`` are physically adjacent.  Only
    slack 0 is memoised.  Raises ``ValueError`` when the endpoints are
    disconnected.
    """
    if slack == 0:
        per_topo = _STAGE_ADJ_CACHE.setdefault(topology, {})
        cached = per_topo.get((src, dst))
        if cached is not None:
            return cached
    dist_src = topology.hop_distances_from(src)
    dist_dst = topology.hop_distances_from(dst)
    if dist_src[dst] == UNREACHABLE:
        raise ValueError(f"no path between {src} and {dst}")
    hops = int(dist_src[dst]) + slack
    k = np.arange(hops + 1)[:, None]
    inside = (dist_src != UNREACHABLE) & (dist_src <= k) & (dist_dst <= hops - k)
    # Copies: a nonzero() row is a view that would pin its 2-D base.
    stages = [np.nonzero(row)[0].copy() for row in inside]
    adjacency = topology.adjacency_matrix()
    mats = [adjacency[stages[k][:, None], stages[k + 1]] for k in range(hops)]
    entry = (stages, mats)
    if slack == 0:
        per_topo[(src, dst)] = entry
    return entry


def bfs_layers(
    topology: Topology, src: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """BFS layer decomposition from ``src`` with inter-layer adjacency.

    ``layers[d]`` holds every node at hop distance ``d`` from ``src``
    (ascending ids; unreachable nodes appear in no layer) and ``mats[d]`` is
    the boolean adjacency between ``layers[d]`` and ``layers[d+1]``.  This is
    the structure :func:`single_source_unit_costs` prices routes over — any
    hop-shortest path to a node at layer ``d`` enters it from layer ``d-1``.
    Cached per (topology, src).
    """
    per_topo = _LAYER_CACHE.setdefault(topology, {})
    cached = per_topo.get(src)
    if cached is not None:
        return cached
    dist = topology.hop_distances_from(src)
    reachable = dist != UNREACHABLE
    max_depth = int(dist[reachable].max()) if reachable.any() else 0
    layers = [
        np.nonzero(dist == d)[0].astype(np.int64)
        for d in range(max_depth + 1)
    ]
    adjacency = topology.adjacency_matrix()
    mats = [
        adjacency[np.ix_(layers[d], layers[d + 1])]
        for d in range(len(layers) - 1)
    ]
    entry = (layers, mats)
    per_topo[src] = entry
    return entry


def single_source_unit_costs(
    topology: Topology, src: int, node_costs: np.ndarray
) -> np.ndarray:
    """Minimum traversal cost over hop-shortest paths from ``src`` to every
    node, in one layered min-plus pass.

    ``node_costs[n]`` is the cost contributed by traversing node ``n``
    (0.0 for servers, the load-derived switch cost for switches).  The return
    value ``best`` has ``best[n]`` equal to the minimum, over all
    *hop-shortest* ``src → n`` paths, of the sum of node costs along the path
    (``inf`` for unreachable nodes).  For a destination server this is
    exactly the relaxed-capacity pair cost the per-pair stage DP computes —
    every prefix of a hop-shortest path is itself hop-shortest, so the
    per-layer recurrence ``best[n] = min over adjacent prev of best[prev]``
    plus ``node_costs[n]`` prices all destinations at once.
    """
    layers, mats = bfs_layers(topology, src)
    best = np.full(topology.num_nodes, np.inf, dtype=np.float64)
    current = np.asarray([node_costs[src]], dtype=np.float64)
    best[src] = current[0]
    for depth, mat in enumerate(mats):
        nodes = layers[depth + 1]
        reached = np.where(mat, current[:, None], np.inf).min(axis=0)
        current = reached + node_costs[nodes]
        best[nodes] = current
    return best


def iter_paths(
    topology: Topology,
    src: int,
    dst: int,
    slack: int = 0,
    limit: int | None = None,
) -> Iterator[tuple[int, ...]]:
    """Lazily yield the paths :func:`enumerate_paths` lists, in its order.

    The walk is an iterative depth-first search in lexicographic neighbour
    order, pruned with the distance-to-target labels so it only ever expands
    prefixes that can still finish within budget.  Callers that need only
    the first few paths (the first live one, say) stop early and pay for
    nothing further.  ``limit=None`` walks every path; otherwise see
    :func:`enumerate_paths` for how the limit truncates.  Argument errors
    (negative slack, disconnected endpoints) raise at call time, not on the
    first ``next()``.
    """
    if slack < 0:
        raise ValueError("slack must be >= 0")
    if src == dst:
        return iter([(src,)])
    dist_dst = topology.hop_distances_from(dst).tolist()
    if dist_dst[src] == UNREACHABLE:
        raise ValueError(f"no path between {src} and {dst}")
    if limit is not None and limit <= 0:
        return iter(())
    return _walk_paths(topology.neighbors, dist_dst, src, dst,
                       dist_dst[src] + slack, limit)


def _walk_paths(
    neighbors: Callable[[int], tuple[int, ...]],
    dist_dst: list[int],
    src: int,
    dst: int,
    budget: int,
    limit: int | None,
) -> Iterator[tuple[int, ...]]:
    """The DFS behind :func:`iter_paths`: ``stack[i]`` iterates the
    neighbours of ``prefix[i]``; ``remaining`` is the hop budget left at the
    prefix's tip."""
    prefix = [src]
    on_path = {src}
    stack = [iter(neighbors(src))]
    remaining = budget
    found = 0
    while stack:
        for neigh in stack[-1]:
            if neigh in on_path:
                continue
            if neigh == dst:
                yield (*prefix, dst)
                found += 1
                if found == limit:
                    # Unwind: each enclosing prefix still takes its direct
                    # hop to dst when that hop is later in neighbour order.
                    for depth in range(len(stack) - 2, -1, -1):
                        if dst in stack[depth]:
                            yield (*prefix[: depth + 1], dst)
                    return
                continue
            needed = dist_dst[neigh]
            if needed == UNREACHABLE or needed >= remaining:
                continue
            prefix.append(neigh)
            on_path.add(neigh)
            stack.append(iter(neighbors(neigh)))
            remaining -= 1
            break
        else:
            stack.pop()
            on_path.remove(prefix.pop())
            remaining += 1


def enumerate_paths(
    topology: Topology,
    src: int,
    dst: int,
    slack: int = 0,
    limit: int = 10_000,
) -> list[tuple[int, ...]]:
    """All simple paths from ``src`` to ``dst`` of length ≤ shortest + slack.

    Paths come in lexicographic neighbour order, so the output is
    deterministic.  ``limit`` caps the enumeration (a fat-tree pair can have
    hundreds of paths) the way the original recursive search did: once the
    ``limit``-th path is found, each prefix on the way back up still
    contributes its direct hop to ``dst`` if that hop comes later in its
    neighbour order, so a truncated list can run a few paths past
    ``limit``.
    """
    return list(iter_paths(topology, src, dst, slack, limit))


def count_shortest_paths(topology: Topology, src: int, dst: int) -> int:
    """Number of distinct shortest paths between two nodes.

    Computed by dynamic programming over the shortest-path DAG (product of
    per-stage adjacency counts), so it stays cheap even when explicit
    enumeration would blow up.
    """
    if src == dst:
        return 1
    stages = shortest_path_stages(topology, src, dst)
    counts = {src: 1}
    for stage in stages[1:]:
        nxt: dict[int, int] = {}
        for node in stage:
            total = sum(
                c for prev, c in counts.items() if topology.has_link(prev, node)
            )
            if total:
                nxt[node] = total
        counts = nxt
    return counts.get(dst, 0)


def path_is_valid(topology: Topology, path: Sequence[int]) -> bool:
    """True when consecutive nodes of ``path`` are physically adjacent and no
    node repeats."""
    if len(path) != len(set(path)):
        return False
    return all(topology.has_link(a, b) for a, b in zip(path, path[1:]))

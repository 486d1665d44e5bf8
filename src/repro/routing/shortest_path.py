"""Shortest-path algorithms (implemented from scratch; networkx is used only
in tests as an oracle).

Every search in the package runs one kernel, :func:`_search`: Dijkstra on
Python lists over a ``(link_id, dst)`` adjacency that a routing
construction builds once.  Weights are per-directed-link, indexed by link
id.  Ties are broken deterministically by node id so routing schemes are
reproducible.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Sequence

import numpy as np

from ..errors import RoutingError
from ..topology import Topology

__all__ = ["dijkstra", "shortest_path", "all_pairs_shortest_paths"]

#: ``adjacency[u]`` lists the links leaving ``u`` as ``(link_id, dst)``.
Adjacency = list[list[tuple[int, int]]]


def _adjacency(topology: Topology) -> Adjacency:
    return [
        [(link.id, link.dst) for link in topology.out_links(node)]
        for node in range(topology.num_nodes)
    ]


def _validated(
    topology: Topology,
    weights: Sequence[float] | None,
    source: int | None = None,
    target: int | None = None,
) -> list[float]:
    """The checks every search runs; returns the weights as a fresh list.

    Weights default to 1.0 per hop.  ``+inf`` marks a link as unusable;
    NaN is rejected, because every comparison with it is False and the
    search would silently treat the link as missing.
    """
    n = topology.num_nodes
    for role, node in (("source", source), ("target", target)):
        if node is not None and not 0 <= node < n:
            raise RoutingError(f"{role} node {node} outside [0, {n})")
    if weights is None:
        return [1.0] * topology.num_links
    w = np.asarray(weights, dtype=float)
    if w.shape != (topology.num_links,):
        raise RoutingError(
            f"weights must have one entry per link ({topology.num_links}), got {w.shape}"
        )
    if np.isnan(w).any():
        raise RoutingError("NaN link weights are not supported")
    if (w < 0).any():
        raise RoutingError("negative link weights are not supported")
    return w.tolist()


def _search(
    adjacency: Adjacency,
    w: list[float],
    source: int,
    target: int = -1,
    banned_links: Iterable[int] = (),
    banned_nodes: Iterable[int] = (),
) -> tuple[list[float], list[int]]:
    """Dijkstra from ``source``; returns ``(dist, prev)`` lists.

    A distance improves only when strictly smaller by more than 1e-15, and
    the heap orders by ``(distance, node)``: together they make tie-breaking
    deterministic.  The search stops once ``target`` is settled, whose path
    is final then because weights are non-negative.

    ``banned_nodes`` start at distance -inf, which no candidate improves
    on, so they are never entered.  ``banned_links`` get weight +inf for
    the duration of the call, which no candidate uses either.
    """
    inf = math.inf
    n = len(adjacency)
    dist = [inf] * n
    prev = [-1] * n
    done = [False] * n
    for node in banned_nodes:
        dist[node] = -inf
    saved = [(link, w[link]) for link in banned_links]
    for link, _ in saved:
        w[link] = inf
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    pop, push = heapq.heappop, heapq.heappush
    try:
        while heap:
            d, u = pop(heap)
            if done[u]:
                continue
            done[u] = True
            if u == target:
                break
            for link, v in adjacency[u]:
                nd = d + w[link]
                if nd < dist[v] - 1e-15:
                    dist[v] = nd
                    prev[v] = u
                    push(heap, (nd, v))
    finally:
        for link, weight in saved:
            w[link] = weight
    return dist, prev


def dijkstra(
    topology: Topology,
    source: int,
    weights: Sequence[float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Single-source shortest paths.

    Args:
        topology: The network.
        source: Source node.
        weights: Per-link weights (defaults to 1.0 per hop).  Must be
            non-negative and not NaN.

    Returns:
        ``(dist, prev)`` where ``dist[v]`` is the distance from ``source``
        and ``prev[v]`` is the predecessor node on the best path (-1 for the
        source and for unreachable nodes).
    """
    w = _validated(topology, weights, source)
    dist, prev = _search(_adjacency(topology), w, source)
    return np.array(dist), np.array(prev, dtype=int)


def _walk_back(prev: Sequence[int], source: int, target: int) -> list[int]:
    path = [target]
    while path[-1] != source:
        p = int(prev[path[-1]])
        if p < 0:
            raise RoutingError(f"node {target} unreachable from {source}")
        path.append(p)
    path.reverse()
    return path


def shortest_path(
    topology: Topology,
    source: int,
    target: int,
    weights: Sequence[float] | None = None,
) -> list[int]:
    """Shortest path from ``source`` to ``target`` as a node sequence."""
    if source == target:
        raise RoutingError("source and target must differ")
    w = _validated(topology, weights, source, target)
    _, prev = _search(_adjacency(topology), w, source, target)
    return _walk_back(prev, source, target)


def all_pairs_shortest_paths(
    topology: Topology,
    weights: Sequence[float] | None = None,
) -> dict[tuple[int, int], list[int]]:
    """Shortest path (node sequence) for every ordered node pair."""
    w = _validated(topology, weights)
    adjacency = _adjacency(topology)
    paths: dict[tuple[int, int], list[int]] = {}
    for source in range(topology.num_nodes):
        _, prev = _search(adjacency, w, source)
        for target in range(topology.num_nodes):
            if target != source:
                paths[(source, target)] = _walk_back(prev, source, target)
    return paths

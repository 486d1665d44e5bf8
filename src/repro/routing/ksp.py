"""Yen's k-shortest loopless paths.

Used to generate the "wide variety of routing schemes" of the paper's
training set: picking random alternatives among each pair's k best paths
yields valid but non-shortest routings.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterator, Sequence

from ..errors import RoutingError
from ..topology import Topology
from .shortest_path import Adjacency, _adjacency, _search, _validated, _walk_back

__all__ = ["k_shortest_paths", "iter_k_shortest_paths"]


def _path_cost(topology: Topology, path: Sequence[int], w: list[float]) -> float:
    # Summed left to right, one link at a time (``sum`` may compensate).
    cost = 0.0
    for u, v in zip(path[:-1], path[1:]):
        cost += w[topology.link_id(u, v)]
    return cost


def _yen(
    topology: Topology,
    adjacency: Adjacency,
    w: list[float],
    source: int,
    target: int,
    k: int,
    tree: list[int],
) -> list[list[int]]:
    """Yen's algorithm for one pair, starting from ``tree``: the ``prev``
    list of a search from ``source`` that settled ``target``."""
    best = _walk_back(tree, source, target)
    found: list[list[int]] = [best]
    # Candidate heap keyed by (cost, path) with path as tuple for tie-breaks.
    candidates: list[tuple[float, tuple[int, ...]]] = []
    seen: set[tuple[int, ...]] = {tuple(best)}

    while len(found) < k:
        last = found[-1]
        for i in range(len(last) - 1):
            spur_node = last[i]
            root = last[: i + 1]
            banned_links = {
                topology.link_id(path[i], path[i + 1])
                for path in found
                if len(path) > i and path[: i + 1] == root
            }
            dist, prev = _search(
                adjacency, w, spur_node, target, banned_links, root[:-1]
            )
            if dist[target] == math.inf:
                continue
            candidate = tuple(root[:-1] + _walk_back(prev, spur_node, target))
            if candidate in seen:
                continue
            seen.add(candidate)
            heapq.heappush(candidates, (_path_cost(topology, candidate, w), candidate))
        if not candidates:
            break
        _, next_path = heapq.heappop(candidates)
        found.append(list(next_path))
    return found


def k_shortest_paths(
    topology: Topology,
    source: int,
    target: int,
    k: int,
    weights: Sequence[float] | None = None,
) -> list[list[int]]:
    """Return up to ``k`` loopless paths in non-decreasing cost order.

    Implements Yen's algorithm on the shortest-path search kernel.  Fewer
    than ``k`` paths are returned when the graph does not contain that many
    loopless alternatives.
    """
    if k < 1:
        raise RoutingError(f"k must be >= 1, got {k}")
    if source == target:
        raise RoutingError("source and target must differ")
    w = _validated(topology, weights, source, target)
    adjacency = _adjacency(topology)
    _, tree = _search(adjacency, w, source, target)
    return _yen(topology, adjacency, w, source, target, k, tree)


def iter_k_shortest_paths(
    topology: Topology,
    k: int,
    weights: Sequence[float] | None = None,
) -> Iterator[tuple[tuple[int, int], list[list[int]]]]:
    """Yield ``(pair, k_shortest_paths(topology, *pair, k, weights))`` for
    every pair, in :meth:`Topology.node_pairs` order.

    One full search per source serves all of its targets, and the pairs
    stream: no all-pairs table of paths is held.
    """
    if k < 1:
        raise RoutingError(f"k must be >= 1, got {k}")
    w = _validated(topology, weights)
    adjacency = _adjacency(topology)
    for source in range(topology.num_nodes):
        _, tree = _search(adjacency, w, source)
        for target in range(topology.num_nodes):
            if target != source:
                yield (source, target), _yen(
                    topology, adjacency, w, source, target, k, tree
                )

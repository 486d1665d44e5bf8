"""Routing schemes: one loop-free path per source-destination pair.

A :class:`RoutingScheme` is the routing input of RouteNet and of the
simulator.  Factories cover the variety used by the paper's datasets:

* :meth:`RoutingScheme.shortest_path` — plain hop-count shortest paths;
* :meth:`RoutingScheme.random_weighted` — shortest paths under random link
  weights (a different valid scheme per draw);
* :meth:`RoutingScheme.random_ksp` — uniform choice among each pair's k
  shortest paths.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

import numpy as np

from ..errors import RoutingError
from ..random import make_rng
from ..topology import Topology
from .ksp import iter_k_shortest_paths
from .shortest_path import all_pairs_shortest_paths

__all__ = ["RoutingScheme"]


class RoutingScheme:
    """Immutable per-pair single-path routing over a topology."""

    def __init__(
        self,
        topology: Topology,
        paths: Mapping[tuple[int, int], Sequence[int]],
        name: str = "routing",
    ) -> None:
        self.topology = topology
        self.name = name
        self._paths: dict[tuple[int, int], tuple[int, ...]] = {}
        self._link_paths: dict[tuple[int, int], tuple[int, ...]] = {}
        for pair, node_path in paths.items():
            node_path = tuple(int(n) for n in node_path)
            self._validate_path(pair, node_path)
            self._paths[pair] = node_path
            self._link_paths[pair] = tuple(
                topology.link_id(u, v) for u, v in zip(node_path[:-1], node_path[1:])
            )

    def _validate_path(self, pair: tuple[int, int], path: tuple[int, ...]) -> None:
        src, dst = pair
        if len(path) < 2:
            raise RoutingError(f"path for {pair} has fewer than 2 nodes")
        if path[0] != src or path[-1] != dst:
            raise RoutingError(f"path {path} does not join pair {pair}")
        if len(set(path)) != len(path):
            raise RoutingError(f"path {path} for {pair} contains a loop")
        for u, v in zip(path[:-1], path[1:]):
            if not self.topology.has_link(u, v):
                raise RoutingError(f"path {path} uses missing link {u}->{v}")

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    @classmethod
    def shortest_path(cls, topology: Topology) -> "RoutingScheme":
        """Hop-count shortest-path routing for every ordered pair."""
        return cls(topology, all_pairs_shortest_paths(topology), name="shortest-path")

    @classmethod
    def random_weighted(
        cls,
        topology: Topology,
        seed: int | np.random.Generator | None = None,
        weight_low: float = 0.5,
        weight_high: float = 2.0,
    ) -> "RoutingScheme":
        """Shortest paths under uniformly random link weights.

        Every draw yields a consistent (destination-based trees per weight
        vector) but generally non-minimal-hop routing scheme; this mirrors
        how the public datasets vary routing between samples.
        """
        rng = make_rng(seed)
        weights = rng.uniform(weight_low, weight_high, size=topology.num_links)
        return cls(
            topology,
            all_pairs_shortest_paths(topology, weights),
            name="random-weighted",
        )

    @classmethod
    def random_ksp(
        cls,
        topology: Topology,
        k: int = 3,
        seed: int | np.random.Generator | None = None,
    ) -> "RoutingScheme":
        """Uniform random choice among each pair's k shortest loopless paths."""
        rng = make_rng(seed)
        paths: dict[tuple[int, int], list[int]] = {}
        for pair, options in iter_k_shortest_paths(topology, k):
            paths[pair] = options[int(rng.integers(0, len(options)))]
        return cls(topology, paths, name=f"random-{k}sp")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def pairs(self) -> list[tuple[int, int]]:
        """Routed (src, dst) pairs in deterministic sorted order."""
        return sorted(self._paths)

    def node_path(self, src: int, dst: int) -> tuple[int, ...]:
        """The routed path for ``(src, dst)`` as a node sequence."""
        try:
            return self._paths[(src, dst)]
        except KeyError:
            raise RoutingError(f"no path routed for pair ({src}, {dst})") from None

    def link_path(self, src: int, dst: int) -> tuple[int, ...]:
        """The routed path for ``(src, dst)`` as a link-id sequence."""
        try:
            return self._link_paths[(src, dst)]
        except KeyError:
            raise RoutingError(f"no path routed for pair ({src}, {dst})") from None

    def items(self) -> Iterator[tuple[tuple[int, int], tuple[int, ...]]]:
        """Iterate ``(pair, node_path)`` sorted by pair."""
        for pair in self.pairs:
            yield pair, self._paths[pair]

    def __len__(self) -> int:
        return len(self._paths)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return pair in self._paths

    def max_path_length(self) -> int:
        """Longest routed path, in hops."""
        return max(len(p) for p in self._link_paths.values())

    def links_used(self) -> set[int]:
        """Set of link ids traversed by at least one path."""
        used: set[int] = set()
        for link_path in self._link_paths.values():
            used.update(link_path)
        return used

    def paths_through_link(self, link_id: int) -> list[tuple[int, int]]:
        """Pairs whose route traverses ``link_id``."""
        return [
            pair
            for pair in self.pairs
            if link_id in self._link_paths[pair]
        ]

    def to_dict(self) -> dict[str, list[int]]:
        """JSON-friendly representation ``{"src-dst": [nodes...]}``."""
        return {f"{s}-{d}": list(p) for (s, d), p in self.items()}

    @classmethod
    def from_dict(
        cls, topology: Topology, data: Mapping[str, Sequence[int]], name: str = "routing"
    ) -> "RoutingScheme":
        """Inverse of :meth:`to_dict`."""
        paths: dict[tuple[int, int], list[int]] = {}
        for key, path in data.items():
            s, d = key.split("-")
            paths[(int(s), int(d))] = list(path)
        return cls(topology, paths, name=name)

    def __repr__(self) -> str:
        return (
            f"RoutingScheme(name={self.name!r}, topology={self.topology.name!r}, "
            f"pairs={len(self)})"
        )

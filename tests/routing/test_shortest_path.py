"""Tests for Dijkstra and all-pairs shortest paths (networkx as oracle)."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.routing import dijkstra, shortest_path, all_pairs_shortest_paths
from repro.topology import Topology, nsfnet, synthetic_topology


def line(n=4) -> Topology:
    return Topology.from_edges(n, [(i, i + 1) for i in range(n - 1)])


class TestDijkstra:
    def test_distances_on_line(self):
        dist, _ = dijkstra(line(), 0)
        np.testing.assert_array_equal(dist, [0, 1, 2, 3])

    def test_predecessors_on_line(self):
        _, prev = dijkstra(line(), 0)
        assert prev[3] == 2 and prev[1] == 0 and prev[0] == -1

    def test_weighted_route_change(self):
        # square 0-1-2 and 0-3-2; make 0-1 expensive
        topo = Topology.from_edges(4, [(0, 1), (1, 2), (0, 3), (3, 2)])
        w = np.ones(topo.num_links)
        w[topo.link_id(0, 1)] = 10.0
        path = shortest_path(topo, 0, 2, weights=w)
        assert path == [0, 3, 2]

    def test_bad_source_raises(self):
        with pytest.raises(RoutingError):
            dijkstra(line(), 99)

    def test_wrong_weight_shape_raises(self):
        with pytest.raises(RoutingError, match="one entry per link"):
            dijkstra(line(), 0, weights=[1.0, 2.0])

    def test_negative_weights_raise(self):
        topo = line()
        w = -np.ones(topo.num_links)
        with pytest.raises(RoutingError, match="negative"):
            dijkstra(topo, 0, weights=w)

    def test_matches_networkx_on_nsfnet_unit_weights(self):
        topo = nsfnet()
        g = topo.to_networkx()
        dist, _ = dijkstra(topo, 0)
        expected = nx.single_source_shortest_path_length(g, 0)
        for node, d in expected.items():
            assert dist[node] == d

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_matches_networkx_random_weights(self, seed):
        """Property: Dijkstra distances equal networkx on random graphs."""
        rng = np.random.default_rng(seed)
        topo = synthetic_topology(12, seed=seed)
        w = rng.uniform(0.1, 5.0, size=topo.num_links)
        g = topo.to_networkx()
        for link in topo.links:
            g[link.src][link.dst]["w"] = w[link.id]
        dist, _ = dijkstra(topo, 0, weights=w)
        expected = nx.single_source_dijkstra_path_length(g, 0, weight="w")
        for node, d in expected.items():
            assert dist[node] == pytest.approx(d)


class TestShortestPath:
    @pytest.mark.parametrize("target", [-1, 14, 99])
    def test_target_out_of_range_raises(self, target):
        with pytest.raises(RoutingError, match=f"target node {target} outside"):
            shortest_path(nsfnet(), 0, target)

    def test_nan_weight_raises(self):
        topo = nsfnet()
        w = np.ones(topo.num_links)
        w[0] = np.nan
        with pytest.raises(RoutingError, match="NaN"):
            shortest_path(topo, 0, 1, w)
        with pytest.raises(RoutingError, match="NaN"):
            dijkstra(topo, 0, w)

    def test_infinite_weight_means_unusable_link(self):
        topo = Topology.from_edges(4, [(0, 1), (1, 2), (0, 3), (3, 2)])
        w = np.ones(topo.num_links)
        w[topo.link_id(0, 1)] = np.inf
        assert shortest_path(topo, 0, 2, w) == [0, 3, 2]

    def test_same_endpoints_raise(self):
        with pytest.raises(RoutingError):
            shortest_path(line(), 1, 1)

    def test_unreachable_raises(self):
        topo = Topology.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(RoutingError, match="unreachable"):
            shortest_path(topo, 0, 3)

    def test_path_is_valid_walk(self):
        topo = nsfnet()
        path = shortest_path(topo, 0, 13)
        for u, v in zip(path[:-1], path[1:]):
            assert topo.has_link(u, v)
        assert path[0] == 0 and path[-1] == 13


class TestAllPairs:
    def test_every_pair_present(self):
        topo = nsfnet()
        paths = all_pairs_shortest_paths(topo)
        assert len(paths) == 14 * 13

    def test_paths_minimal_hop_count(self):
        topo = nsfnet()
        g = topo.to_networkx()
        paths = all_pairs_shortest_paths(topo)
        lengths = dict(nx.all_pairs_shortest_path_length(g))
        for (s, d), path in paths.items():
            assert len(path) - 1 == lengths[s][d]

    def test_disconnected_raises(self):
        topo = Topology.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(RoutingError):
            all_pairs_shortest_paths(topo)

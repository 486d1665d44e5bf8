"""Tests for Yen's k-shortest paths (networkx shortest_simple_paths oracle)."""

from itertools import islice

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.routing import k_shortest_paths
from repro.topology import Topology, nsfnet, synthetic_topology


def square() -> Topology:
    return Topology.from_edges(4, [(0, 1), (1, 2), (0, 3), (3, 2), (0, 2)])


class TestKsp:
    def test_first_path_is_shortest(self):
        paths = k_shortest_paths(square(), 0, 2, k=3)
        assert paths[0] == [0, 2]

    def test_costs_nondecreasing(self):
        paths = k_shortest_paths(nsfnet(), 0, 13, k=5)
        lengths = [len(p) for p in paths]
        assert lengths == sorted(lengths)

    def test_paths_unique(self):
        paths = k_shortest_paths(nsfnet(), 0, 9, k=6)
        assert len({tuple(p) for p in paths}) == len(paths)

    def test_paths_loopless(self):
        for path in k_shortest_paths(nsfnet(), 3, 8, k=6):
            assert len(set(path)) == len(path)

    def test_fewer_paths_when_graph_small(self):
        topo = Topology.from_edges(2, [(0, 1)])
        assert k_shortest_paths(topo, 0, 1, k=5) == [[0, 1]]

    def test_k_one_matches_shortest(self):
        paths = k_shortest_paths(square(), 0, 2, k=1)
        assert len(paths) == 1

    def test_bad_k_raises(self):
        with pytest.raises(RoutingError):
            k_shortest_paths(square(), 0, 2, k=0)

    def test_same_endpoints_raise(self):
        with pytest.raises(RoutingError):
            k_shortest_paths(square(), 1, 1, k=2)

    def test_unreachable_raises(self):
        topo = Topology.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(RoutingError, match="unreachable"):
            k_shortest_paths(topo, 0, 2, k=2)

    @pytest.mark.parametrize("target", [-1, 14, 99])
    def test_target_out_of_range_raises(self, target):
        with pytest.raises(RoutingError, match=f"target node {target} outside"):
            k_shortest_paths(nsfnet(), 0, target, 3)

    def test_nan_weights_raise(self):
        topo = nsfnet()
        with pytest.raises(RoutingError, match="NaN"):
            k_shortest_paths(topo, 0, 5, 3, np.full(topo.num_links, np.nan))

    def test_negative_weights_raise(self):
        topo = nsfnet()
        with pytest.raises(RoutingError, match="negative"):
            k_shortest_paths(topo, 0, 5, 3, -np.ones(topo.num_links))

    def test_matches_networkx_hop_counts_on_nsfnet(self):
        topo = nsfnet()
        g = topo.to_networkx()
        ours = k_shortest_paths(topo, 0, 12, k=4)
        reference = list(islice(nx.shortest_simple_paths(g, 0, 12), 4))
        assert [len(p) for p in ours] == [len(p) for p in reference]

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=10, deadline=None)
    def test_property_matches_networkx_on_random_graphs(self, seed):
        topo = synthetic_topology(10, seed=seed)
        g = topo.to_networkx()
        rng = np.random.default_rng(seed)
        s, d = rng.choice(10, size=2, replace=False)
        ours = k_shortest_paths(topo, int(s), int(d), k=3)
        reference = list(islice(nx.shortest_simple_paths(g, int(s), int(d)), 3))
        assert [len(p) for p in ours] == [len(p) for p in reference]

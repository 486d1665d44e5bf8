"""Tests for the end-to-end discrete-event simulator.

Includes validation against closed-form M/M/1 results: a single-link network
with Poisson arrivals and exponential packet sizes *is* an M/M/1 queue, so
the simulator's mean delay must converge to 1/(mu - lambda).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.queueing import mm1_mean_delay
from repro.routing import RoutingScheme
from repro.simulator import NetworkSimulator, SimulationConfig, simulate
from repro.topology import Topology, nsfnet
from repro.traffic import TrafficMatrix, processes, scale_to_utilization, uniform_traffic


def two_node(capacity=10_000.0) -> Topology:
    return Topology.from_edges(2, [(0, 1)], capacity=capacity)


def one_flow_tm(n, src, dst, rate) -> TrafficMatrix:
    rates = np.zeros((n, n))
    rates[src, dst] = rate
    return TrafficMatrix(rates)


class TestConfig:
    def test_bad_duration(self):
        with pytest.raises(SimulationError):
            SimulationConfig(duration=0.0)

    def test_bad_warmup(self):
        with pytest.raises(SimulationError):
            SimulationConfig(duration=10.0, warmup=10.0)

    def test_bad_packet_size_model(self):
        with pytest.raises(SimulationError):
            SimulationConfig(packet_size="pareto")


class TestBasicRuns:
    def test_conservation_reported(self):
        topo = two_node()
        routing = RoutingScheme.shortest_path(topo)
        tm = one_flow_tm(2, 0, 1, 3_000.0)
        res = simulate(topo, routing, tm, SimulationConfig(duration=30.0, seed=1))
        assert res.generated == res.delivered + res.dropped
        assert res.in_flight == 0

    def test_no_traffic_raises(self):
        topo = two_node()
        routing = RoutingScheme.shortest_path(topo)
        with pytest.raises(SimulationError, match="no routed positive-demand"):
            simulate(topo, routing, TrafficMatrix(np.zeros((2, 2))))

    def test_wrong_tm_size_raises(self):
        topo = two_node()
        routing = RoutingScheme.shortest_path(topo)
        with pytest.raises(SimulationError):
            NetworkSimulator(topo, routing, one_flow_tm(3, 0, 1, 100.0))

    def test_event_scheduled_in_the_past_raises(self, monkeypatch):
        class Backwards:
            mean_rate = 1.0

            def __init__(self, rate_pps, seed=None):
                pass

            def interarrivals(self):
                yield 1.0
                yield -5.0

        monkeypatch.setitem(processes._ARRIVALS, "poisson", Backwards)
        topo = two_node()
        routing = RoutingScheme.shortest_path(topo)
        with pytest.raises(SimulationError, match="before current time t=1.0"):
            simulate(topo, routing, one_flow_tm(2, 0, 1, 3_000.0))

    def test_simultaneous_events_run_in_schedule_order(self):
        """Flows 0->1 and 0->2 emit at the same instants onto link 0->1.
        Flow 0->1 is scheduled first at every instant, so it is always
        served first and never waits."""
        topo = Topology.from_edges(3, [(0, 1), (1, 2)], capacity=10_000.0)
        routing = RoutingScheme.shortest_path(topo)
        rates = np.zeros((3, 3))
        rates[0, 1] = rates[0, 2] = 1_000.0
        cfg = SimulationConfig(
            duration=20.0, warmup=1.0, arrivals="deterministic",
            packet_size="constant", seed=0,
        )
        res = simulate(topo, routing, TrafficMatrix(rates), cfg)
        service = cfg.mean_packet_bits / 10_000.0
        first, second = res.flows[(0, 1)], res.flows[(0, 2)]
        assert first.max_delay == pytest.approx(service)
        assert second.min_delay == pytest.approx(3 * service)

    def test_deterministic_under_seed(self):
        topo = nsfnet()
        routing = RoutingScheme.shortest_path(topo)
        tm = scale_to_utilization(
            uniform_traffic(14, 1.0, seed=0), topo, routing, 0.5
        )
        cfg = SimulationConfig(duration=10.0, seed=42)
        a = simulate(topo, routing, tm, cfg)
        b = simulate(topo, routing, tm, cfg)
        assert a.generated == b.generated
        for pair in a.flows:
            np.testing.assert_equal(
                a.flows[pair].mean_delay, b.flows[pair].mean_delay
            )  # nan-aware equality: unobserved flows stay unobserved

    def test_different_seed_changes_run(self):
        topo = two_node()
        routing = RoutingScheme.shortest_path(topo)
        tm = one_flow_tm(2, 0, 1, 3_000.0)
        a = simulate(topo, routing, tm, SimulationConfig(duration=20.0, seed=1))
        b = simulate(topo, routing, tm, SimulationConfig(duration=20.0, seed=2))
        assert a.flows[(0, 1)].mean_delay != b.flows[(0, 1)].mean_delay

    def test_propagation_delay_adds_to_path_delay(self):
        base = Topology.from_edges(2, [(0, 1)], capacity=1e9)
        slow = Topology.from_edges(2, [(0, 1)], capacity=1e9, propagation_delay=0.5)
        tm = one_flow_tm(2, 0, 1, 10_000.0)
        cfg = SimulationConfig(duration=10.0, seed=0)
        fast_res = simulate(base, RoutingScheme.shortest_path(base), tm, cfg)
        slow_res = simulate(slow, RoutingScheme.shortest_path(slow), tm, cfg)
        delta = slow_res.flows[(0, 1)].mean_delay - fast_res.flows[(0, 1)].mean_delay
        assert delta == pytest.approx(0.5, rel=1e-6)


class TestAgainstTheory:
    @pytest.mark.parametrize("rho", [0.3, 0.6, 0.8])
    def test_single_link_matches_mm1(self, rho):
        """Poisson + exponential sizes on one link == M/M/1."""
        capacity = 10_000.0
        mean_packet = 1_000.0
        mu = capacity / mean_packet  # 10 packets/s
        lam = rho * mu
        topo = two_node(capacity)
        routing = RoutingScheme.shortest_path(topo)
        tm = one_flow_tm(2, 0, 1, lam * mean_packet)
        cfg = SimulationConfig(
            duration=4_000.0, warmup=200.0, seed=7, buffer_packets=10_000
        )
        res = simulate(topo, routing, tm, cfg)
        expected = mm1_mean_delay(lam, mu)
        assert res.flows[(0, 1)].mean_delay == pytest.approx(expected, rel=0.08)

    def test_single_link_jitter_matches_mm1_variance(self):
        capacity, mean_packet, rho = 10_000.0, 1_000.0, 0.5
        mu = capacity / mean_packet
        lam = rho * mu
        topo = two_node(capacity)
        routing = RoutingScheme.shortest_path(topo)
        tm = one_flow_tm(2, 0, 1, lam * mean_packet)
        cfg = SimulationConfig(duration=4_000.0, warmup=200.0, seed=3, buffer_packets=10_000)
        res = simulate(topo, routing, tm, cfg)
        expected_var = mm1_mean_delay(lam, mu) ** 2  # exponential sojourn
        assert res.flows[(0, 1)].jitter == pytest.approx(expected_var, rel=0.2)

    def test_overload_drops_packets(self):
        topo = two_node(1_000.0)
        routing = RoutingScheme.shortest_path(topo)
        tm = one_flow_tm(2, 0, 1, 3_000.0)  # 3x overload
        cfg = SimulationConfig(duration=60.0, seed=0, buffer_packets=8)
        res = simulate(topo, routing, tm, cfg)
        assert res.overall_loss_rate > 0.4

    def test_saturated_link_utilization_at_most_one(self):
        """Regression: drain-phase service used to accrue busy time past the
        generation window, and a silent clamp hid the resulting > 1 ratio.
        A saturated link must now report utilization <= 1 structurally."""
        topo = two_node(1_000.0)
        routing = RoutingScheme.shortest_path(topo)
        tm = one_flow_tm(2, 0, 1, 3_000.0)  # 3x overload
        cfg = SimulationConfig(duration=60.0, seed=0, buffer_packets=64)
        res = simulate(topo, routing, tm, cfg)
        util = res.links[topo.link_id(0, 1)].utilization
        assert util <= 1.0
        assert util == pytest.approx(1.0, abs=0.05)  # saturated, not clamped

    def test_light_load_delay_close_to_service_time(self):
        topo = two_node(10_000.0)
        routing = RoutingScheme.shortest_path(topo)
        tm = one_flow_tm(2, 0, 1, 100.0)  # rho = 0.01
        res = simulate(topo, routing, tm, SimulationConfig(duration=2_000.0, seed=5))
        # Delay ~ service time = 1000 bits / 10000 bps = 0.1 s
        assert res.flows[(0, 1)].mean_delay == pytest.approx(0.1, rel=0.15)


class TestMultiHop:
    def test_tandem_delay_additive_at_light_load(self):
        """At negligible load, delay over k hops ~ k * service time."""
        topo = Topology.from_edges(4, [(0, 1), (1, 2), (2, 3)], capacity=10_000.0)
        routing = RoutingScheme.shortest_path(topo)
        tm = one_flow_tm(4, 0, 3, 100.0)
        res = simulate(topo, routing, tm, SimulationConfig(duration=2_000.0, seed=6))
        assert res.flows[(0, 3)].mean_delay == pytest.approx(0.3, rel=0.15)

    def test_link_utilization_reflects_load(self):
        topo = two_node(10_000.0)
        routing = RoutingScheme.shortest_path(topo)
        tm = one_flow_tm(2, 0, 1, 5_000.0)
        res = simulate(topo, routing, tm, SimulationConfig(duration=500.0, seed=2))
        forward = res.links[topo.link_id(0, 1)]
        assert forward.utilization == pytest.approx(0.5, rel=0.1)
        backward = res.links[topo.link_id(1, 0)]
        assert backward.utilization == 0.0

    def test_flow_stats_fields(self):
        topo = nsfnet()
        routing = RoutingScheme.shortest_path(topo)
        tm = scale_to_utilization(uniform_traffic(14, 1.0, seed=1), topo, routing, 0.5)
        res = simulate(topo, routing, tm, SimulationConfig(duration=50.0, seed=9))
        some = next(iter(res.flows.values()))
        assert some.min_delay <= some.mean_delay <= some.max_delay
        assert some.jitter >= 0

    def test_per_flow_totals_sum_to_run_counters(self):
        """Drop/delivery accounting invariant: the run-level conservation
        counters cover every packet (warmup included) and the per-flow
        ``*_total`` counters partition them exactly; the plain per-flow
        counters are the post-warmup subset feeding the labels."""
        topo = nsfnet()
        routing = RoutingScheme.shortest_path(topo)
        tm = scale_to_utilization(
            uniform_traffic(14, 1.0, seed=3), topo, routing, 0.95
        )
        cfg = SimulationConfig(duration=40.0, warmup=8.0, seed=3, buffer_packets=8)
        res = simulate(topo, routing, tm, cfg)
        assert res.dropped > 0  # near-saturation with tiny buffers
        assert res.generated == res.delivered + res.dropped + res.in_flight
        assert sum(f.delivered_total for f in res.flows.values()) == res.delivered
        assert sum(f.dropped_total for f in res.flows.values()) == res.dropped
        for flow in res.flows.values():
            assert flow.delivered <= flow.delivered_total
            assert flow.dropped <= flow.dropped_total
        # Warmup packets are dropped too — the recorded counters must not
        # see them, the totals must.
        assert sum(f.dropped for f in res.flows.values()) < res.dropped

    @given(seed=st.integers(0, 1_000))
    @settings(max_examples=5, deadline=None)
    def test_property_conservation_on_random_scenarios(self, seed):
        topo = nsfnet()
        routing = RoutingScheme.random_weighted(topo, seed=seed)
        tm = scale_to_utilization(
            uniform_traffic(14, 1.0, seed=seed), topo, routing, 0.7
        )
        res = simulate(topo, routing, tm, SimulationConfig(duration=15.0, seed=seed))
        assert res.generated == res.delivered + res.dropped
        total_link_drops = sum(l.packets_dropped for l in res.links)
        assert total_link_drops == res.dropped


class TestDelayQuantiles:
    def _run(self, quantiles: bool):
        topo = two_node(10_000.0)
        routing = RoutingScheme.shortest_path(topo)
        tm = one_flow_tm(2, 0, 1, 5_000.0)
        cfg = SimulationConfig(
            duration=1_000.0, warmup=100.0, seed=4, delay_quantiles=quantiles
        )
        return simulate(topo, routing, tm, cfg).flows[(0, 1)]

    def test_disabled_by_default_gives_nan(self):
        flow = self._run(False)
        assert np.isnan(flow.p50) and np.isnan(flow.p90)

    def test_quantiles_ordered(self):
        flow = self._run(True)
        assert flow.min_delay <= flow.p50 <= flow.p90 <= flow.p99 <= flow.max_delay

    def test_p50_near_mm1_median(self):
        """M/M/1 sojourn is exponential: median = mean * ln 2."""
        flow = self._run(True)
        expected_mean = mm1_mean_delay(5.0, 10.0)
        assert flow.p50 == pytest.approx(expected_mean * np.log(2), rel=0.15)

    def test_p90_near_mm1_quantile(self):
        flow = self._run(True)
        expected = -mm1_mean_delay(5.0, 10.0) * np.log(0.1)
        assert flow.p90 == pytest.approx(expected, rel=0.2)

    def test_bad_reservoir_rejected(self):
        with pytest.raises(SimulationError):
            SimulationConfig(quantile_reservoir=0)


class TestResultHelpers:
    def test_delay_matrix(self):
        topo = two_node()
        routing = RoutingScheme.shortest_path(topo)
        tm = one_flow_tm(2, 0, 1, 3_000.0)
        res = simulate(topo, routing, tm, SimulationConfig(duration=30.0, seed=1))
        matrix = res.delay_matrix(2)
        assert np.isfinite(matrix[0, 1])
        assert np.isnan(matrix[1, 0])

    def test_mean_delay_vector_order(self):
        topo = two_node()
        routing = RoutingScheme.shortest_path(topo)
        tm = one_flow_tm(2, 0, 1, 3_000.0)
        res = simulate(topo, routing, tm, SimulationConfig(duration=30.0, seed=1))
        vec = res.mean_delay_vector([(0, 1), (1, 0)])
        assert np.isfinite(vec[0]) and np.isnan(vec[1])

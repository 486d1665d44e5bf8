"""Tests for per-link FIFO queues."""

import pytest

from repro.errors import SimulationError
from repro.simulator import LinkQueue, Packet
from repro.topology import Link


def make_queue(capacity=1000.0, buffer_packets=3, horizon=None) -> LinkQueue:
    return LinkQueue(
        Link(0, 0, 1, capacity), buffer_packets=buffer_packets, horizon=horizon
    )


def make_packet(size=500.0) -> Packet:
    return Packet(flow=0, size_bits=size, created_at=0.0, route=(0,))


class TestLinkQueue:
    def test_enqueue_accepts_until_buffer_full(self):
        q = make_queue(buffer_packets=2)
        assert q.try_enqueue(make_packet())
        assert q.try_enqueue(make_packet())
        assert not q.try_enqueue(make_packet())
        assert q.packets_dropped == 1

    def test_occupancy_counts_in_service(self):
        q = make_queue()
        q.try_enqueue(make_packet())
        q.start_service(0.0)
        assert q.occupancy == 1
        q.try_enqueue(make_packet())
        assert q.occupancy == 2

    def test_held_count_follows_enqueue_drop_and_service(self):
        q = make_queue(buffer_packets=2)
        assert q.occupancy == 0 and not q.has_waiting()
        q.try_enqueue(make_packet())
        q.try_enqueue(make_packet())
        assert not q.try_enqueue(make_packet())  # dropped: count unchanged
        assert q.occupancy == 2
        q.start_service(0.0)
        assert q.occupancy == 2 and q.has_waiting()
        q.finish_service(0.5)
        assert q.occupancy == 1 and q.has_waiting()
        q.start_service(0.5)
        assert q.occupancy == 1 and not q.has_waiting()
        q.finish_service(1.0)
        assert q.occupancy == 0 and not q.has_waiting()

    def test_service_time_is_size_over_capacity(self):
        q = make_queue(capacity=1000.0)
        q.try_enqueue(make_packet(size=500.0))
        _, done = q.start_service(10.0)
        assert done == pytest.approx(10.5)

    def test_fifo_order(self):
        q = make_queue()
        first, second = make_packet(100.0), make_packet(200.0)
        q.try_enqueue(first)
        q.try_enqueue(second)
        served, _ = q.start_service(0.0)
        assert served is first

    def test_start_service_when_busy_raises(self):
        q = make_queue()
        q.try_enqueue(make_packet())
        q.try_enqueue(make_packet())
        q.start_service(0.0)
        with pytest.raises(SimulationError, match="busy"):
            q.start_service(0.0)

    def test_start_service_empty_raises(self):
        with pytest.raises(SimulationError, match="no packet"):
            make_queue().start_service(0.0)

    def test_finish_service_updates_counters(self):
        q = make_queue(capacity=1000.0)
        q.try_enqueue(make_packet(size=500.0))
        q.start_service(0.0)
        packet = q.finish_service(0.5)
        assert packet.size_bits == 500.0
        assert q.packets_sent == 1
        assert q.bits_sent == 500.0
        assert q.busy_time == pytest.approx(0.5)

    def test_finish_idle_raises(self):
        with pytest.raises(SimulationError, match="idle"):
            make_queue().finish_service(0.0)

    def test_utilization(self):
        q = make_queue(capacity=1000.0)
        q.try_enqueue(make_packet(size=1000.0))
        q.start_service(0.0)
        q.finish_service(1.0)
        assert q.utilization(4.0) == pytest.approx(0.25)

    def test_utilization_bad_duration_raises(self):
        with pytest.raises(SimulationError):
            make_queue().utilization(0.0)

    def test_buffer_must_hold_one(self):
        with pytest.raises(SimulationError):
            make_queue(buffer_packets=0)


class TestMeasurementHorizon:
    """Busy time is clipped to [0, horizon] so drain-phase service — packets
    still being serialized after the generation window closes — can never
    push utilization past 1."""

    def test_service_inside_horizon_counts_fully(self):
        q = make_queue(capacity=1000.0, horizon=10.0)
        q.try_enqueue(make_packet(size=1000.0))
        q.start_service(0.0)
        q.finish_service(1.0)
        assert q.busy_time == pytest.approx(1.0)

    def test_service_straddling_horizon_counts_partially(self):
        q = make_queue(capacity=1000.0, horizon=1.0)
        q.try_enqueue(make_packet(size=1000.0))
        q.start_service(0.5)
        q.finish_service(1.5)  # only [0.5, 1.0] lies inside the horizon
        assert q.busy_time == pytest.approx(0.5)

    def test_service_entirely_past_horizon_counts_nothing(self):
        q = make_queue(capacity=1000.0, horizon=1.0)
        q.try_enqueue(make_packet(size=1000.0))
        q.start_service(2.0)
        q.finish_service(3.0)
        assert q.busy_time == 0.0

    def test_saturated_horizon_utilization_never_exceeds_one(self):
        """Back-to-back service past the window — the old accounting kept
        accruing and relied on a silent clamp to hide utilization > 1."""
        q = make_queue(capacity=1000.0, buffer_packets=10, horizon=3.0)
        now = 0.0
        for _ in range(5):  # 5 s of service against a 3 s window
            q.try_enqueue(make_packet(size=1000.0))
        for _ in range(5):
            _, done = q.start_service(now)
            q.finish_service(done)
            now = done
        assert q.utilization(3.0) == pytest.approx(1.0)

    def test_no_horizon_utilization_unclamped(self):
        """Without a horizon the ratio reports what was measured — a value
        above 1 is a real signal, not something to clamp away."""
        q = make_queue(capacity=1000.0)
        q.try_enqueue(make_packet(size=2000.0))
        q.start_service(0.0)
        q.finish_service(2.0)
        assert q.utilization(1.0) == pytest.approx(2.0)

    def test_bad_horizon_raises(self):
        with pytest.raises(SimulationError, match="horizon"):
            make_queue(horizon=0.0)

"""The packet-level network simulator.

This is the library's substitute for the paper's custom OMNeT++ simulator:
a discrete-event simulation of store-and-forward networks with one FIFO
output queue per directed link, finite buffers (tail drop), configurable
arrival processes and packet-size distributions, and per-flow delay/jitter
statistics after a warm-up transient.

Events live on one ``heapq`` as ``(time, seq, kind, link_or_flow, packet)``
tuples.  ``seq`` grows with every push, so simultaneous events run in the
order they were scheduled and the later fields are never compared.  The
kinds are:

* ``_GEN, flow`` — the flow's source emits its next packet;
* ``_ARR, link_id, packet`` — a packet reaches the tail of a link queue;
* ``_DEP, link_id`` — the link finishes serializing its head packet.
"""

from __future__ import annotations

import heapq
import time as _time
from dataclasses import dataclass


from ..errors import SimulationError
from ..random import make_rng, split_rng
from ..routing import RoutingScheme
from ..topology import Topology
from ..traffic import (
    ConstantPacketSize,
    ExponentialPacketSize,
    TrafficMatrix,
    make_arrivals,
    DEFAULT_MEAN_PACKET_BITS,
)
from ..units import BitsPerPacket, Seconds
from .packet import Packet
from .queues import LinkQueue
from .stats import FlowAccumulator, FlowStats, LinkStats, SimulationResult

__all__ = ["SimulationConfig", "NetworkSimulator", "simulate"]

_GEN, _ARR, _DEP = 0, 1, 2


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of a simulation run.

    Attributes:
        duration: Seconds of simulated packet generation.
        warmup: Packets created before this time are not recorded
            (transient removal).
        buffer_packets: FIFO buffer size per link, in packets.
        mean_packet_bits: Average packet length in bits.
        packet_size: ``"exponential"`` (dataset default) or ``"constant"``.
        arrivals: ``"poisson"`` (dataset default), ``"onoff"`` or
            ``"deterministic"``.
        priority_bands: Strict-priority scheduling bands per link (1 = plain
            FIFO; >1 enables the QoS extension).
        delay_quantiles: Collect per-flow delay percentiles (p50/p90/p99)
            via reservoir sampling (small extra cost per delivery).
        quantile_reservoir: Reservoir slots per flow when enabled.
        seed: Master seed; per-flow streams are split deterministically.
    """

    duration: Seconds = 20.0
    warmup: Seconds = 2.0
    buffer_packets: int = 64
    mean_packet_bits: BitsPerPacket = DEFAULT_MEAN_PACKET_BITS
    packet_size: str = "exponential"
    arrivals: str = "poisson"
    priority_bands: int = 1
    delay_quantiles: bool = False
    quantile_reservoir: int = 512
    seed: int = 0

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise SimulationError(f"duration must be positive, got {self.duration}")
        if not 0 <= self.warmup < self.duration:
            raise SimulationError(
                f"warmup must lie in [0, duration), got {self.warmup}"
            )
        if self.packet_size not in ("exponential", "constant"):
            raise SimulationError(f"unknown packet size model {self.packet_size!r}")
        if self.priority_bands < 1:
            raise SimulationError(
                f"priority_bands must be >= 1, got {self.priority_bands}"
            )
        if self.quantile_reservoir < 1:
            raise SimulationError(
                f"quantile_reservoir must be >= 1, got {self.quantile_reservoir}"
            )


class NetworkSimulator:
    """Single-run simulator binding a topology, routing and traffic matrix."""

    def __init__(
        self,
        topology: Topology,
        routing: RoutingScheme,
        traffic: TrafficMatrix,
        config: SimulationConfig | None = None,
        flow_priorities: dict[tuple[int, int], int] | None = None,
    ) -> None:
        if routing.topology is not topology and routing.topology != topology:
            raise SimulationError("routing scheme was built for a different topology")
        if traffic.num_nodes != topology.num_nodes:
            raise SimulationError(
                f"traffic matrix is {traffic.num_nodes}-node but topology has "
                f"{topology.num_nodes}"
            )
        self.topology = topology
        self.routing = routing
        self.traffic = traffic
        self.config = config or SimulationConfig()
        self.flow_priorities = flow_priorities or {}
        bands = self.config.priority_bands
        for pair, priority in self.flow_priorities.items():
            if not 0 <= priority < bands:
                raise SimulationError(
                    f"flow {pair} has priority {priority}, outside [0, {bands})"
                )

    def run(self) -> SimulationResult:
        """Execute the simulation and return aggregated statistics."""
        cfg = self.config
        # Wall time feeds the wall_time_seconds metric only; no event or
        # sampling decision depends on it.
        start_wall = _time.perf_counter()  # repro-lint: disable=RP204
        master = make_rng(cfg.seed)

        # One flow per pair with positive demand; routes as link-id tuples.
        flows: list[tuple[int, int]] = [
            pair for pair in self.traffic.nonzero_pairs() if pair in self.routing
        ]
        if not flows:
            raise SimulationError("traffic matrix has no routed positive-demand pair")
        routes = [self.routing.link_path(s, d) for s, d in flows]
        rngs = split_rng(master, 2 * len(flows))

        arrival_iters = []
        samplers = []  # per-flow packet-size draws
        for i, (s, d) in enumerate(flows):
            rate_pps = self.traffic.rate(s, d) / cfg.mean_packet_bits
            process = make_arrivals(cfg.arrivals, rate_pps, seed=rngs[2 * i])
            arrival_iters.append(process.interarrivals())
            if cfg.packet_size == "exponential":
                sizer = ExponentialPacketSize(cfg.mean_packet_bits, seed=rngs[2 * i + 1])
            else:
                sizer = ConstantPacketSize(cfg.mean_packet_bits)
            samplers.append(sizer.sample)

        queues = [
            LinkQueue(
                link,
                buffer_packets=cfg.buffer_packets,
                priority_bands=cfg.priority_bands,
                # Busy time is measured over the generation window only, so
                # drain-phase service cannot push utilization past 1.0.
                horizon=cfg.duration,
            )
            for link in self.topology.links
        ]
        priorities = [self.flow_priorities.get(pair, 0) for pair in flows]
        reservoir = cfg.quantile_reservoir if cfg.delay_quantiles else 0
        stat_rngs = (
            split_rng(make_rng(cfg.seed + 1), len(flows)) if reservoir else None
        )
        accumulators = [
            FlowAccumulator(
                reservoir_size=reservoir,
                rng=stat_rngs[i] if stat_rngs else None,
            )
            for i in range(len(flows))
        ]
        # Two sets of per-flow counters with different semantics:
        # *_total covers every packet (warmup included) and sums exactly to
        # the run-level conservation counters; ``flow_drops`` counts only
        # recorded (post-warmup) packets and feeds the loss-rate labels.
        flow_drops = [0] * len(flows)
        flow_drops_total = [0] * len(flows)
        flow_delivered_total = [0] * len(flows)

        heap: list[tuple] = []
        push, pop = heapq.heappush, heapq.heappop
        seq = 0
        for i, it in enumerate(arrival_iters):
            push(heap, (next(it), seq, _GEN, i, None))
            seq += 1

        generated = delivered = dropped = 0
        processed = 0
        now = 0.0
        duration, warmup = cfg.duration, cfg.warmup
        propagation = [link.propagation_delay for link in self.topology.links]

        while heap:
            when, _, kind, ident, packet = pop(heap)
            if when < now:
                # Every other event is due at or after ``now``, so an event
                # scheduled in the past is popped right after the one that
                # scheduled it.
                raise SimulationError(
                    f"event scheduled at t={when} before current time t={now}"
                )
            now = when
            processed += 1

            if kind == _GEN:
                if now > duration:
                    continue  # generation window closed; do not reschedule
                route = routes[ident]
                packet = Packet(
                    ident, samplers[ident](), now, route, 0, now >= warmup,
                    priorities[ident],
                )
                generated += 1
                push(heap, (now, seq, _ARR, route[0], packet))
                push(heap, (now + next(arrival_iters[ident]), seq + 1, _GEN, ident, None))
                seq += 2

            elif kind == _ARR:
                queue = queues[ident]
                if queue.try_enqueue(packet):
                    if queue.is_idle:
                        _, done_at = queue.start_service(now)
                        push(heap, (done_at, seq, _DEP, ident, None))
                        seq += 1
                else:
                    dropped += 1
                    flow_drops_total[packet.flow] += 1
                    if packet.record:
                        flow_drops[packet.flow] += 1

            else:  # _DEP
                queue = queues[ident]
                packet = queue.finish_service(now)
                arrive_at = now + propagation[ident]
                packet.hop += 1
                if packet.hop == len(packet.route):
                    delivered += 1
                    flow_delivered_total[packet.flow] += 1
                    if packet.record:
                        accumulators[packet.flow].add(arrive_at - packet.created_at)
                else:
                    push(heap, (arrive_at, seq, _ARR, packet.route[packet.hop], packet))
                    seq += 1
                if queue.has_waiting():
                    _, done_at = queue.start_service(now)
                    push(heap, (done_at, seq, _DEP, ident, None))
                    seq += 1

        in_flight = generated - delivered - dropped
        if in_flight != 0:
            raise SimulationError(
                f"conservation violated: generated={generated}, "
                f"delivered={delivered}, dropped={dropped}"
            )

        flow_stats = {
            (s, d): FlowStats(
                src=s,
                dst=d,
                delivered=acc.count,
                dropped=flow_drops[i],
                delivered_total=flow_delivered_total[i],
                dropped_total=flow_drops_total[i],
                mean_delay=acc.mean,
                jitter=acc.variance,
                min_delay=acc.min_delay if acc.count else float("nan"),
                max_delay=acc.max_delay if acc.count else float("nan"),
                p50=acc.quantile(0.50),
                p90=acc.quantile(0.90),
                p99=acc.quantile(0.99),
            )
            for i, ((s, d), acc) in enumerate(zip(flows, accumulators))
        }
        link_stats = [
            LinkStats(
                link_id=q.link.id,
                utilization=q.utilization(cfg.duration),
                packets_sent=q.packets_sent,
                packets_dropped=q.packets_dropped,
                bits_sent=q.bits_sent,
            )
            for q in queues
        ]
        return SimulationResult(
            duration=cfg.duration,
            warmup=cfg.warmup,
            flows=flow_stats,
            links=link_stats,
            generated=generated,
            delivered=delivered,
            dropped=dropped,
            in_flight=0,
            events_processed=processed,
            wall_time_seconds=_time.perf_counter() - start_wall,  # repro-lint: disable=RP204
        )


def simulate(
    topology: Topology,
    routing: RoutingScheme,
    traffic: TrafficMatrix,
    config: SimulationConfig | None = None,
    flow_priorities: dict[tuple[int, int], int] | None = None,
) -> SimulationResult:
    """Convenience one-shot wrapper around :class:`NetworkSimulator`."""
    return NetworkSimulator(
        topology, routing, traffic, config, flow_priorities=flow_priorities
    ).run()

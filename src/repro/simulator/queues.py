"""Per-link FIFO output queues with finite buffers."""

from __future__ import annotations

from collections import deque

from ..errors import SimulationError
from ..topology import Link
from ..units import Seconds
from .packet import Packet

__all__ = ["LinkQueue"]


class LinkQueue:
    """Output queue + transmitter for one directed link.

    Models the standard store-and-forward output port: at most one packet is
    being serialized at any time at ``capacity`` bits/s; up to ``buffer_packets``
    packets may be held in total (in service + waiting).  Arrivals beyond that
    are dropped (tail drop).

    With ``priority_bands > 1`` the queue becomes a non-preemptive
    strict-priority scheduler: each packet's ``priority`` (0 = highest)
    selects a band, the transmitter always serves the lowest-numbered
    non-empty band next, and the buffer is shared across bands.
    """

    def __init__(
        self,
        link: Link,
        buffer_packets: int = 64,
        priority_bands: int = 1,
        horizon: Seconds | None = None,
    ) -> None:
        if buffer_packets < 1:
            raise SimulationError(f"buffer must hold at least 1 packet, got {buffer_packets}")
        if priority_bands < 1:
            raise SimulationError(f"need at least 1 priority band, got {priority_bands}")
        if horizon is not None and horizon <= 0:
            raise SimulationError(f"horizon must be positive, got {horizon}")
        self.link = link
        self.buffer_packets = buffer_packets
        self.priority_bands = priority_bands
        #: Measurement horizon for ``busy_time``: transmission time is only
        #: accrued inside ``[0, horizon]``.  The simulator keeps serving
        #: queued packets after the generation window closes (the drain
        #: phase), and without the horizon that extra busy time inflated
        #: utilization past 1.0 on saturated links.  ``None`` accrues
        #: everything (standalone/unit use).
        self.horizon = horizon
        self._bands: list[deque[Packet]] = [deque() for _ in range(priority_bands)]
        self._in_service: Packet | None = None
        # Packets held (in service + waiting), kept in step with the bands
        # so the per-arrival buffer check is O(1).
        self._held = 0
        # Counters for utilization / occupancy statistics.  ``busy_time`` is
        # horizon-clipped (see above); the throughput counters below cover
        # the whole run including the drain phase.
        self.busy_time = 0.0
        self.bits_sent = 0.0
        self.packets_sent = 0
        self.packets_dropped = 0

    @property
    def occupancy(self) -> int:
        """Packets currently held (in service + waiting)."""
        return self._held

    @property
    def is_idle(self) -> bool:
        return self._in_service is None

    def try_enqueue(self, packet: Packet) -> bool:
        """Accept or tail-drop ``packet``; returns True if accepted.

        The caller is responsible for starting transmission (via
        :meth:`start_service`) when the queue was idle.
        """
        priority = packet.priority
        if not 0 <= priority < self.priority_bands:
            raise SimulationError(
                f"packet priority {priority} outside [0, {self.priority_bands})"
            )
        if self._held >= self.buffer_packets:
            self.packets_dropped += 1
            return False
        self._bands[priority].append(packet)
        self._held += 1
        return True

    def start_service(self, now: Seconds) -> tuple[Packet, float]:
        """Begin transmitting the next packet (highest band, FIFO within).

        Returns:
            ``(packet, completion_time)``.

        Raises:
            SimulationError: If the transmitter is busy or the queue empty.
        """
        if self._in_service is not None:
            raise SimulationError(f"link {self.link.id} transmitter already busy")
        for band in self._bands:
            if band:
                packet = band.popleft()
                break
        else:
            raise SimulationError(f"link {self.link.id} has no packet to serve")
        self._in_service = packet
        service_time = packet.size_bits / self.link.capacity
        return packet, now + service_time

    def finish_service(self, now: Seconds) -> Packet:
        """Complete the in-flight transmission and update counters.

        ``busy_time`` accrues only the part of the transmission that falls
        inside the measurement horizon, so drain-phase service (after the
        generation window) never biases utilization.
        """
        if self._in_service is None:
            raise SimulationError(f"link {self.link.id} finished service while idle")
        packet = self._in_service
        self._in_service = None
        self._held -= 1
        service_time = packet.size_bits / self.link.capacity
        if self.horizon is None:
            self.busy_time += service_time
        else:
            # max(0.0, min(now, horizon) - max(started, 0.0)), spelled out
            # without the calls; adding a zero span would change nothing.
            started = now - service_time
            end = self.horizon if self.horizon < now else now
            span = end - (0.0 if started < 0.0 else started)
            if span > 0.0:
                self.busy_time += span
        self.bits_sent += packet.size_bits
        self.packets_sent += 1
        return packet

    def has_waiting(self) -> bool:
        return any(self._bands)

    def utilization(self, duration: Seconds) -> float:
        """Fraction of ``duration`` the transmitter spent sending.

        No clamping: when ``horizon == duration`` the ratio is structurally
        <= 1 (a serial transmitter cannot be busy longer than the window it
        is measured over), and for horizon-less standalone queues a ratio
        above 1 is a real signal of measuring past the window — silently
        clamping it used to hide saturated-link accounting bugs.
        """
        if duration <= 0:
            raise SimulationError(f"duration must be positive, got {duration}")
        return self.busy_time / duration

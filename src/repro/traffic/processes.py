"""Packet arrival processes and packet-size distributions for the simulator.

The public RouteNet datasets were simulated with Poisson arrivals and
exponentially distributed packet sizes; both are provided here, plus on-off
(bursty) and deterministic (CBR) sources for robustness experiments.
"""

from __future__ import annotations

from typing import Iterator, Protocol

import numpy as np

from ..units import Bits, BitsPerPacket, Packets, PacketsPerSecond, Seconds

from ..errors import TrafficError
from ..random import make_rng

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "OnOffArrivals",
    "DeterministicArrivals",
    "PacketSizer",
    "ExponentialPacketSize",
    "ConstantPacketSize",
    "make_arrivals",
]

DEFAULT_MEAN_PACKET_BITS: BitsPerPacket = 1_000.0

#: Values the Poisson and exponential-size streams draw per numpy call.
#: A vector ``exponential`` yields the same sequence as repeated scalar
#: calls, so the block size changes speed only, never a value.  It stays
#: small because every simulated flow holds one block of each.
STREAM_BLOCK = 64


class ArrivalProcess(Protocol):
    """Yields successive packet inter-arrival times (seconds)."""

    mean_rate: PacketsPerSecond

    def interarrivals(self) -> Iterator[Seconds]: ...


class PacketSizer(Protocol):
    """Draws packet sizes (bits)."""

    mean_bits: BitsPerPacket

    def sample(self) -> Bits: ...


class PoissonArrivals:
    """Poisson process: i.i.d. exponential inter-arrival times."""

    def __init__(self, rate_pps: PacketsPerSecond, seed: int | np.random.Generator | None = None):
        if rate_pps <= 0:
            raise TrafficError(f"arrival rate must be positive, got {rate_pps}")
        self.mean_rate = rate_pps
        self._rng = make_rng(seed)

    def interarrivals(self) -> Iterator[Seconds]:
        scale = 1.0 / self.mean_rate
        while True:
            yield from self._rng.exponential(scale, STREAM_BLOCK).tolist()


class DeterministicArrivals:
    """Constant-bit-rate source: fixed inter-arrival spacing."""

    def __init__(self, rate_pps: PacketsPerSecond, seed: object = None):
        if rate_pps <= 0:
            raise TrafficError(f"arrival rate must be positive, got {rate_pps}")
        self.mean_rate = rate_pps

    def interarrivals(self) -> Iterator[Seconds]:
        gap = 1.0 / self.mean_rate
        while True:
            yield gap


class OnOffArrivals:
    """Markov-modulated on-off source (bursty traffic).

    During ON periods packets arrive as a Poisson stream at ``peak_rate``;
    OFF periods are silent.  ON/OFF durations are exponential with the given
    means.  The long-run mean rate is ``peak_rate * on / (on + off)``.
    """

    def __init__(
        self,
        mean_rate_pps: PacketsPerSecond,
        seed: int | np.random.Generator | None = None,
        burstiness: float = 4.0,
        mean_on: float = 0.5,
        mean_off: float = 1.5,
    ) -> None:
        if mean_rate_pps <= 0:
            raise TrafficError(f"arrival rate must be positive, got {mean_rate_pps}")
        if burstiness <= 1.0:
            raise TrafficError(f"burstiness must exceed 1, got {burstiness}")
        duty = mean_on / (mean_on + mean_off)
        self.mean_rate = mean_rate_pps
        self.peak_rate = mean_rate_pps / duty
        if burstiness != self.peak_rate / mean_rate_pps:
            # Honour the requested peak-to-mean ratio by adjusting OFF time.
            self.peak_rate = mean_rate_pps * burstiness
            duty = 1.0 / burstiness
            mean_off = mean_on * (1.0 - duty) / duty
        self._mean_on = mean_on
        self._mean_off = mean_off
        self._rng = make_rng(seed)

    def interarrivals(self) -> Iterator[Seconds]:
        rng = self._rng
        while True:
            remaining_on = rng.exponential(self._mean_on)
            pending_off = 0.0
            while True:
                gap = rng.exponential(1.0 / self.peak_rate)
                if gap > remaining_on:
                    # Burst ended inside this gap; carry silence over.
                    pending_off += rng.exponential(self._mean_off)
                    yield float(remaining_on + pending_off + gap - remaining_on)
                    break
                remaining_on -= gap
                yield float(gap)


class ExponentialPacketSize:
    """Exponential packet sizes with a floor of one bit."""

    def __init__(
        self,
        mean_bits: BitsPerPacket = DEFAULT_MEAN_PACKET_BITS,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if mean_bits <= 0:
            raise TrafficError(f"mean packet size must be positive, got {mean_bits}")
        self.mean_bits = mean_bits
        self._rng = make_rng(seed)
        self._block: list[float] = []  # drawn sizes, next one last

    def sample(self) -> Bits:
        if not self._block:
            sizes = np.maximum(self._rng.exponential(self.mean_bits, STREAM_BLOCK), 1.0)
            self._block = sizes.tolist()[::-1]
        return self._block.pop()


class ConstantPacketSize:
    """Fixed-size packets."""

    def __init__(self, mean_bits: BitsPerPacket = DEFAULT_MEAN_PACKET_BITS, seed: object = None):
        if mean_bits <= 0:
            raise TrafficError(f"mean packet size must be positive, got {mean_bits}")
        self.mean_bits = mean_bits

    def sample(self) -> Bits:
        # One packet of exactly the mean size: bits/packet x packets = bits.
        one_packet: Packets = 1.0
        return self.mean_bits * one_packet


_ARRIVALS = {
    "poisson": PoissonArrivals,
    "deterministic": DeterministicArrivals,
    "onoff": OnOffArrivals,
}


def make_arrivals(
    kind: str, rate_pps: float, seed: int | np.random.Generator | None = None
) -> ArrivalProcess:
    """Factory for arrival processes by name ('poisson', 'onoff', ...)."""
    try:
        cls = _ARRIVALS[kind]
    except KeyError:
        raise TrafficError(
            f"unknown arrival process {kind!r}; options: {sorted(_ARRIVALS)}"
        ) from None
    return cls(rate_pps, seed=seed)

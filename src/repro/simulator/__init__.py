"""Packet-level discrete-event network simulator (OMNeT++ substitute)."""

from .packet import Packet
from .queues import LinkQueue
from .stats import FlowAccumulator, FlowStats, LinkStats, SimulationResult
from .network import SimulationConfig, NetworkSimulator, simulate

__all__ = [
    "Packet",
    "LinkQueue",
    "FlowAccumulator",
    "FlowStats",
    "LinkStats",
    "SimulationResult",
    "SimulationConfig",
    "NetworkSimulator",
    "simulate",
]

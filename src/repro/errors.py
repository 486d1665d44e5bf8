"""Library-wide exception hierarchy."""

from __future__ import annotations

__all__ = [
    "ReproError",
    "TopologyError",
    "RoutingError",
    "TrafficError",
    "SimulationError",
    "DatasetError",
    "DatasetFormatError",
    "ModelError",
    "ServingError",
    "AdmissionError",
    "DeadlineExceededError",
    "RunnerError",
    "AnalysisError",
]


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class TopologyError(ReproError):
    """Invalid or inconsistent network topology."""


class RoutingError(ReproError):
    """Invalid routing scheme (missing path, loop, disconnected pair)."""


class TrafficError(ReproError):
    """Invalid traffic matrix or arrival-process parameters."""


class SimulationError(ReproError):
    """Packet-level simulation failed or was misconfigured."""


class DatasetError(ReproError):
    """Dataset generation, serialization or splitting failed."""


class DatasetFormatError(DatasetError):
    """Corrupt, unversioned, or future-format dataset record.

    Always carries the *location* of the offending record so a bad line in a
    multi-gigabyte archive can be found without bisecting the file.

    Attributes:
        path: Archive or shard file containing the bad record (may be None
            when the record came from an in-memory dict).
        line: 1-based line number for JSONL archives, or record index for
            binary shards; None when unknown.
    """

    def __init__(self, message: str, *, path: object = None, line: int | None = None) -> None:
        super().__init__(message)
        self.path = path
        self.line = line


class ModelError(ReproError):
    """Model construction or checkpoint mismatch."""


class ServingError(ReproError):
    """Batched inference engine misuse (unpackable inputs, empty batch)."""


class AdmissionError(ServingError):
    """Request rejected at service admission (never silently blocks).

    Attributes:
        reason: Machine-readable rejection cause — ``"queue_full"`` or
            ``"shutdown"`` — also used as the per-reason stats counter key.
    """

    def __init__(self, reason: str, message: str) -> None:
        super().__init__(message)
        self.reason = reason


class DeadlineExceededError(ServingError):
    """Request expired in the queue before its batch started serving."""


class RunnerError(ReproError):
    """Parallel execution runner failure (exhausted retries, bad checkpoint)."""


class AnalysisError(ReproError):
    """Static-analysis failure (lint crash, shape mismatch, bad gradient)."""


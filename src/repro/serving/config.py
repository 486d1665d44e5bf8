"""Typed serving configuration shared by the engine, the service and the CLI.

:class:`ServeConfig` is the single typed knob object for serving: one frozen
dataclass validated at construction, threaded through
:class:`~repro.serving.InferenceEngine`,
:class:`~repro.serving.ServingService`, :func:`repro.api.predict` and the
``repro serve-bench`` CLI subcommand.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..errors import ServingError

__all__ = ["ServeConfig"]

#: Coalescing policies for :class:`~repro.serving.ServingService` workers.
#: ``"deadline"`` cuts a batch at ``max_batch`` requests, at ``max_wait_ms``
#: after the batch opened, or just before the earliest collected deadline —
#: whichever comes first.  ``"count"`` cuts only at ``max_batch`` (or drain),
#: which makes batch composition — and therefore the served float arithmetic —
#: a pure function of the submit order: the bench's bitwise-reproducibility
#: mode.
_COALESCE_MODES = ("deadline", "count")


@dataclass(frozen=True)
class ServeConfig:
    """Validated serving knobs for the engine and the request-queue service.

    Attributes:
        max_batch: Maximum queries fused into one forward call.
        max_wait_ms: Service coalescing window: a worker serves an open batch
            at most this many milliseconds after its first request arrived.
            ``0`` serves every request immediately (no coalescing).
        deadline_ms: Default per-request deadline (from submission) after
            which a still-queued request is failed with
            :class:`~repro.errors.DeadlineExceededError` instead of served.
            ``None`` (default) means requests never expire.
        queue_depth: Total queued-request bound across workers; submissions
            beyond it are rejected with reason ``"queue_full"``.
        workers: Service worker shards.  Requests are routed by
            :class:`~repro.serving.TopologySignature` so one topology's
            built inputs and index plans stay hot in a single worker's caches.
        input_cache_size: Per-engine :class:`~repro.serving.InputCache`
            capacity (built ``ModelInput`` tier).
        prediction_cache_size: :class:`~repro.serving.PredictionCache`
            capacity (finished ``PredictResult`` tier); ``0`` disables the
            tier entirely.
        coalesce: Batch-cut policy, ``"deadline"`` (default) or ``"count"``
            (deterministic composition; see module notes).
        include_load: Build inputs with the per-link load feature (must match
            the model's ``link_feature_dim``).
    """

    max_batch: int = 32
    max_wait_ms: float = 2.0
    deadline_ms: float | None = None
    queue_depth: int = 256
    workers: int = 1
    input_cache_size: int = 1024
    prediction_cache_size: int = 2048
    coalesce: str = "deadline"
    include_load: bool = False

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ServingError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_ms < 0:
            raise ServingError(f"max_wait_ms must be >= 0, got {self.max_wait_ms}")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ServingError(
                f"deadline_ms must be positive (or None), got {self.deadline_ms}"
            )
        if self.queue_depth < 1:
            raise ServingError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.workers < 1:
            raise ServingError(f"workers must be >= 1, got {self.workers}")
        if self.input_cache_size < 1:
            raise ServingError(
                f"input_cache_size must be >= 1, got {self.input_cache_size}"
            )
        if self.prediction_cache_size < 0:
            raise ServingError(
                f"prediction_cache_size must be >= 0 (0 disables the tier), "
                f"got {self.prediction_cache_size}"
            )
        if self.coalesce not in _COALESCE_MODES:
            raise ServingError(
                f"coalesce must be one of {_COALESCE_MODES}, got {self.coalesce!r}"
            )

    def replace(self, **changes) -> "ServeConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        """JSON-friendly snapshot (used in benchmark reports and stats)."""
        return dataclasses.asdict(self)

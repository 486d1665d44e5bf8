"""Typed result objects shared by the public :mod:`repro.api` surface.

Historically ``Trainer.evaluate`` and ``RouteNet.predict`` returned ad-hoc
nested dicts (``{"delay": {...}, "jitter": {...}}`` / ``{"delay": array}``)
whose optional keys every caller had to re-discover.  These dataclasses are
the single return shape used everywhere now: read fields as attributes
(``result.delay.mre``), list the present targets with ``targets()`` and
convert with ``to_dict()``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Metrics", "EvalResult", "PredictResult"]


@dataclass(frozen=True)
class Metrics:
    """Pooled regression metrics for one target (delay or jitter)."""

    mre: float
    medre: float
    rmse: float
    r2: float
    pearson: float
    count: float

    @classmethod
    def from_dict(cls, data: dict[str, float]) -> "Metrics":
        return cls(**{name: float(data[name]) for name in cls.__dataclass_fields__})

    def to_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


@dataclass(frozen=True)
class EvalResult:
    """Per-target metrics of one evaluation run.

    ``jitter`` is ``None`` for delay-only models (``readout_targets == 1``).
    """

    delay: Metrics
    jitter: Metrics | None = None

    def to_dict(self) -> dict[str, dict[str, float]]:
        out = {"delay": self.delay.to_dict()}
        if self.jitter is not None:
            out["jitter"] = self.jitter.to_dict()
        return out

    def targets(self) -> tuple[str, ...]:
        """Names of the targets present in this result."""
        return ("delay",) if self.jitter is None else ("delay", "jitter")


@dataclass(frozen=True)
class PredictResult:
    """Raw-unit per-path predictions for one sample / query.

    Attributes:
        pairs: The (src, dst) pairs the rows are aligned to.
        delay: (P,) predicted mean per-packet delay in seconds.
        jitter: (P,) predicted delay variance, or ``None`` for delay-only
            models.
    """

    pairs: tuple[tuple[int, int], ...]
    delay: np.ndarray
    jitter: np.ndarray | None = None

    @property
    def num_paths(self) -> int:
        return len(self.pairs)

    def targets(self) -> tuple[str, ...]:
        return ("delay",) if self.jitter is None else ("delay", "jitter")

    def to_dict(self) -> dict[str, np.ndarray]:
        out = {"delay": self.delay}
        if self.jitter is not None:
            out["jitter"] = self.jitter
        return out

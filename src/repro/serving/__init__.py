"""Batched inference serving layer.

Packs heterogeneous (topology, routing, traffic) queries into fused RouteNet
inputs so one forward pass serves many queries, with tiered content-addressed
caches (built inputs + finished predictions), per-stage timing counters, a
threaded request-queue service with deadline-aware dynamic batch coalescing
and admission control, and an open-loop Poisson load harness.  Entry points:
:class:`~repro.serving.engine.InferenceEngine` for call-driven batching,
:class:`~repro.serving.service.ServingService` for online serving; both are
configured through a typed :class:`~repro.serving.config.ServeConfig`.
"""

from .batching import FusedBatch, pack_inputs
from .cache import InputCache, PredictionCache
from .config import ServeConfig
from .engine import InferenceEngine
from .loadgen import LoadReport, predictions_digest, run_closed_loop, run_open_loop
from .service import ServeFuture, ServingService, TopologySignature

__all__ = [
    "FusedBatch",
    "pack_inputs",
    "InputCache",
    "PredictionCache",
    "ServeConfig",
    "InferenceEngine",
    "LoadReport",
    "predictions_digest",
    "run_closed_loop",
    "run_open_loop",
    "ServeFuture",
    "ServingService",
    "TopologySignature",
]

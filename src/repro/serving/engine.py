"""Batched inference engine: many (topology, routing, traffic) queries, one
forward pass.

The paper's whole value proposition is cheap what-if evaluation, but a Python
loop over ``model.predict`` pays interpreter and small-array overhead per
sample.  :class:`InferenceEngine` fuses N heterogeneous queries into one
:class:`~repro.serving.batching.FusedBatch` so a single ``RouteNet.forward``
serves them all, then unpacks per-sample :class:`~repro.results.PredictResult`
objects.  Per-stage wall-clock (build / pack / forward / decode) is counted
and exposed via :meth:`InferenceEngine.stats` so serving regressions are
observable.

Caching is tiered.  Tier 1 is a :class:`~repro.serving.PredictionCache`:
repeated queries (same sample content, same build parameters) return the
stored :class:`PredictResult` without building inputs or running the model.
Tier 2 is the :class:`~repro.serving.InputCache` of built ``ModelInput``
arrays: a prediction-cache miss still reuses the prepared arrays when only
the *forward* is stale.  Both tiers' hit/miss/eviction counters ride along in
:meth:`stats`.

Configuration is a typed :class:`~repro.serving.ServeConfig`.  Every batch
runs the one RouteNet forward, :func:`fast_forward` (``model.forward`` under
``no_grad``): the length-packed plan already confines the path cell to live
rows, so serving needs no kernel of its own.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

import numpy as np

from .. import nn
from ..core import FeatureScaler, ModelInput, RouteNet, build_model_input
from ..dataset import Sample
from ..errors import ServingError
from ..results import PredictResult
from .batching import pack_inputs
from .cache import InputCache, PredictionCache
from .config import ServeConfig

__all__ = ["InferenceEngine"]

_STAGES = ("build", "pack", "forward", "decode")


def fast_forward(model: RouteNet, inputs: ModelInput) -> np.ndarray:
    """Scaled (P, targets) predictions: ``model.forward`` without a tape."""
    with nn.no_grad():
        return model.forward(inputs, training=False).numpy()


class InferenceEngine:
    """Serves RouteNet predictions over fused batches of heterogeneous samples.

    Args:
        model: A trained :class:`RouteNet`.
        scaler: The feature scaler the model was trained with.  Treated as
            frozen: cache keys bake in its state at first use, so refitting
            means building a new engine (the trainer already does).
        config: Typed serving knobs (:class:`ServeConfig`); library defaults
            when omitted.  The engine consumes ``max_batch``,
            ``include_load``, ``input_cache_size`` and
            ``prediction_cache_size``; queue/worker fields belong to
            :class:`~repro.serving.ServingService`.
        cache: Content-addressed store for built inputs; created from
            ``config.input_cache_size`` when omitted.
        prediction_cache: Finished-result tier; created from
            ``config.prediction_cache_size`` when omitted (``0`` disables).
            Pass a shared instance to pool results across engines (the
            service shards do).
        builder: Optional override mapping a :class:`Sample` to a
            :class:`ModelInput` (e.g. the trainer's prepared/cached inputs).
            When given, it owns input caching and ``cache`` is bypassed for
            sample builds (content keys are still used for the prediction
            tier).
    """

    def __init__(
        self,
        model: RouteNet,
        scaler: FeatureScaler,
        config: ServeConfig | None = None,
        *,
        cache: InputCache | None = None,
        prediction_cache: PredictionCache | None = None,
        builder: Callable[[Sample], ModelInput] | None = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.model = model
        self.scaler = scaler
        self.include_load = self.config.include_load
        self.batch_size = self.config.max_batch
        self.cache = cache or InputCache(capacity=self.config.input_cache_size)
        if prediction_cache is None and self.config.prediction_cache_size > 0:
            prediction_cache = PredictionCache(self.config.prediction_cache_size)
        self.prediction_cache = prediction_cache
        self._builder = builder
        self._queue: list[Sample] = []
        self._params_digest: str | None = None
        self.reset_stats()

    # ------------------------------------------------------------------
    # Input building
    # ------------------------------------------------------------------
    def _build_uncached(self, sample: Sample) -> ModelInput:
        # Class-aware models (path_feature_dim > 1 beyond the traffic column)
        # receive the sample's QoS classes as one-hot features.
        extra = self.model.hparams.path_feature_dim - 1
        pair_class = sample.pair_class if extra > 0 else None
        return build_model_input(
            sample.topology,
            sample.routing,
            sample.traffic,
            scaler=self.scaler,
            pairs=list(sample.pairs),
            include_load=self.include_load,
            pair_class=pair_class,
            num_classes=extra if pair_class is not None else 0,
        )

    def sample_key(self, sample: Sample) -> str:
        """Content-addressed key of ``sample`` under this engine's build
        parameters (the key both cache tiers share)."""
        if self._params_digest is None:
            self._params_digest = InputCache.params_digest(
                scaler=self.scaler,
                include_load=self.include_load,
                path_feature_dim=self.model.hparams.path_feature_dim,
            )
        return self.cache.content_key(sample, self._params_digest)

    def build_input(self, sample: Sample) -> ModelInput:
        """The (cached) model input for one sample."""
        if self._builder is not None:
            return self._builder(sample)
        return self.cache.get_or_build(
            self.sample_key(sample), lambda: self._build_uncached(sample)
        )

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def submit(self, sample: Sample) -> int:
        """Queue one query for the next :meth:`flush`; returns its position."""
        self._queue.append(sample)
        return len(self._queue) - 1

    @property
    def pending(self) -> int:
        return len(self._queue)

    def flush(self) -> list[PredictResult]:
        """Serve all queued queries in fused batches (order preserved)."""
        queued, self._queue = self._queue, []
        return self.predict_many(queued) if queued else []

    def predict_many(
        self, samples: Sequence[Sample], batch_size: int | None = None
    ) -> list[PredictResult]:
        """Batched predictions for many samples, aligned with the input order.

        With the prediction tier enabled, content-identical samples — across
        calls *and* within one call — are served from the cache / computed
        once; only distinct misses reach the model.
        """
        if not samples:
            raise ServingError("predict_many needs at least one sample")
        self._counts["queries"] += len(samples)
        if self.prediction_cache is None:
            started = time.perf_counter()
            inputs = [self.build_input(sample) for sample in samples]
            self._times["build"] += time.perf_counter() - started
            return self._serve(inputs, batch_size)

        results: list[PredictResult | None] = [None] * len(samples)
        pending: dict[str, list[int]] = {}
        for i, sample in enumerate(samples):
            key = self.sample_key(sample)
            cached = self.prediction_cache.get(key)
            if cached is not None:
                results[i] = cached
            else:
                pending.setdefault(key, []).append(i)
        if pending:
            started = time.perf_counter()
            inputs = [
                self.build_input(samples[indices[0]]) for indices in pending.values()
            ]
            self._times["build"] += time.perf_counter() - started
            for (key, indices), result in zip(
                pending.items(), self._serve(inputs, batch_size)
            ):
                self.prediction_cache.put(key, result)
                for i in indices:
                    results[i] = result
        return results  # type: ignore[return-value]  # every slot is filled

    def predict_inputs(
        self, inputs: Sequence[ModelInput], batch_size: int | None = None
    ) -> list[PredictResult]:
        """Batched predictions for pre-built model inputs.

        Pre-built inputs carry no content key, so this path bypasses the
        prediction tier.
        """
        if not inputs:
            raise ServingError("predict_inputs needs at least one input")
        self._counts["queries"] += len(inputs)
        return self._serve(list(inputs), batch_size)

    def _serve(
        self, inputs: list[ModelInput], batch_size: int | None
    ) -> list[PredictResult]:
        size = batch_size or self.batch_size
        if size < 1:
            raise ServingError(f"batch_size must be >= 1, got {size}")
        results: list[PredictResult] = []
        for start in range(0, len(inputs), size):
            chunk = inputs[start : start + size]

            t0 = time.perf_counter()
            batch = pack_inputs(chunk)
            t1 = time.perf_counter()
            encoded = fast_forward(self.model, batch.inputs)
            t2 = time.perf_counter()
            decoded = self.scaler.decode_targets(encoded)
            for inp, rows in zip(chunk, batch.split_rows(decoded)):
                results.append(
                    PredictResult(
                        pairs=inp.pairs,
                        delay=rows[:, 0],
                        jitter=rows[:, 1] if rows.shape[1] > 1 else None,
                    )
                )
            t3 = time.perf_counter()

            self._times["pack"] += t1 - t0
            self._times["forward"] += t2 - t1
            self._times["decode"] += t3 - t2
            self._counts["batches"] += 1
            self._counts["paths"] += int(batch.path_offsets[-1])
        return results

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Cumulative serving counters since the last :meth:`reset_stats`.

        Returns:
            ``{"queries", "batches", "paths"}`` counts (``queries`` counts
            every request including cache-served ones; ``batches`` / ``paths``
            only what reached the model), per-stage seconds (``build_s`` /
            ``pack_s`` / ``forward_s`` / ``decode_s`` and their ``total_s``
            sum), the input-cache counters under ``"cache"``, and the
            prediction-tier counters under ``"prediction_cache"`` (``None``
            when the tier is disabled).  Cache counters are cache-lifetime,
            not reset by :meth:`reset_stats`.
        """
        out: dict = dict(self._counts)
        total = 0.0
        for stage in _STAGES:
            out[f"{stage}_s"] = self._times[stage]
            total += self._times[stage]
        out["total_s"] = total
        out["cache"] = self.cache.stats()
        out["prediction_cache"] = (
            self.prediction_cache.stats() if self.prediction_cache is not None else None
        )
        return out

    def reset_stats(self) -> None:
        self._times = {stage: 0.0 for stage in _STAGES}
        self._counts = {"queries": 0, "batches": 0, "paths": 0}

    @staticmethod
    def format_stats(stats: dict) -> str:
        """Human-readable one-block rendering of a :meth:`stats` dict."""
        lines = [
            f"queries {stats['queries']}   batches {stats['batches']}   "
            f"paths {stats['paths']}"
        ]
        for stage in _STAGES:
            seconds = stats[f"{stage}_s"]
            share = seconds / stats["total_s"] if stats["total_s"] > 0 else 0.0
            lines.append(f"  {stage:<8s} {seconds * 1000:8.1f} ms  ({share:5.1%})")
        for label, name in (("cache", "cache"), ("preds", "prediction_cache")):
            tier = stats.get(name)
            if tier:
                lines.append(
                    f"  {label:<8s} {tier['hits']} hits / {tier['misses']} misses"
                    f" / {tier['entries']} entries"
                )
        return "\n".join(lines)

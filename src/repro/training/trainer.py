"""RouteNet training loop.

Each dataset sample is one runtime-assembled graph, so the natural batch is
a single sample: forward over all of its paths at once, Huber loss on the
standardized log targets, Adam step with global-norm clipping.  Model inputs
are built once per sample and cached across epochs.

Beyond single-sample steps, the trainer has a *fused-batch* fast path:
:meth:`Trainer.train_step_batch` packs B heterogeneous samples into one
:class:`~repro.core.ModelInput` via :func:`repro.serving.pack_inputs` and
runs one forward+backward for the whole batch.  Because fused samples occupy
disjoint slices of the link index space, ``segment_sum`` never mixes
messages across samples, so the fused loss is exactly the per-path mean over
the concatenated batch (see :meth:`train_step_batch` for the weighting
semantics).  Packed batches are content-addressed in the same
:class:`~repro.serving.InputCache` as single-sample inputs, so epoch 2+ of a
fixed batch partition pays zero packing cost.

``fit(workers=N)`` breaks the resulting single-core ceiling by fanning each
step's shard gradients out over a persistent process pool with a
deterministic fixed-order reduction — any worker count reproduces
``workers=1`` bitwise (see :mod:`repro.training.parallel`).
"""

from __future__ import annotations

import hashlib
import time
import weakref
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .. import nn
from ..analysis.sanitize import sanitize_tape
from ..core import FeatureScaler, ModelInput, RouteNet
from ..dataset import Sample, fit_scaler
from ..dataset.stream import MinibatchSampler, PrefetchLoader
from ..errors import ModelError
from ..random import make_rng
from ..results import EvalResult, Metrics, PredictResult
from ..serving import InferenceEngine, InputCache, ServeConfig
from ..serving.batching import fuse_training_batch, prepare_training_input
from .loss import huber_loss
from .metrics import regression_summary

__all__ = ["EpochStats", "TrainingHistory", "Trainer"]


@dataclass(frozen=True)
class EpochStats:
    """Loss/metric record for one epoch."""

    epoch: int
    train_loss: float
    eval_delay_mre: float | None
    seconds: float


@dataclass
class TrainingHistory:
    """Accumulated per-epoch records."""

    epochs: list[EpochStats] = field(default_factory=list)

    def last(self) -> EpochStats:
        if not self.epochs:
            raise ModelError("no epochs recorded yet")
        return self.epochs[-1]

    @property
    def train_losses(self) -> list[float]:
        return [e.train_loss for e in self.epochs]


class Trainer:
    """Owns a model, its scaler, the optimizer and the input cache."""

    def __init__(
        self,
        model: RouteNet,
        scaler: FeatureScaler | None = None,
        include_load: bool = False,
        seed: int | np.random.Generator | None = None,
        sanitize: bool = False,
    ) -> None:
        self.model = model
        self.scaler = scaler
        self.include_load = include_load
        self.sanitize = sanitize
        self._rng = make_rng(seed)
        self._optimizer = nn.Adam(
            list(model.parameters()), lr=model.hparams.learning_rate
        )
        self._input_cache = InputCache()
        self._engine: InferenceEngine | None = None
        self._engine_state: tuple | None = None

    # ------------------------------------------------------------------
    def _sample_key(self, sample: Sample) -> str:
        """Content-hash cache key for one sample under the current config."""
        if self.scaler is None:
            raise ModelError("scaler not set; call fit() or pass one explicitly")
        return self._input_cache.sample_key(
            sample,
            scaler=self.scaler,
            include_load=self.include_load,
            path_feature_dim=self.model.hparams.path_feature_dim,
            readout_targets=self.model.hparams.readout_targets,
        )

    def _prepare(self, sample: Sample) -> tuple[ModelInput, np.ndarray]:
        """Model input + encoded targets for a sample (cached by content).

        Keys are content hashes (see :class:`~repro.serving.InputCache`), not
        ``id(sample)`` — a recycled object id can never serve stale tensors.
        """
        key = self._sample_key(sample)
        cached = self._input_cache.get(key)
        if cached is None:
            cached = prepare_training_input(
                sample,
                scaler=self.scaler,
                include_load=self.include_load,
                path_feature_dim=self.model.hparams.path_feature_dim,
                readout_targets=self.model.hparams.readout_targets,
            )
            self._input_cache.put(key, cached)
        return cached

    def _prepare_batch(
        self, samples: Sequence[Sample]
    ) -> tuple[ModelInput, np.ndarray]:
        """Fused model input + concatenated targets for a batch of samples.

        The fused batch is cached under a content hash derived from the
        member samples' own content keys, so a fixed batch partition (the
        :meth:`fit` fast path) packs each batch exactly once and replays the
        fused arrays every later epoch.  The cached fused ``ModelInput``
        object is stable across epochs, which also lets the forward pass's
        per-input index plan (:func:`repro.core.plan_for`) hit its memo.
        """
        member_keys = [self._sample_key(s) for s in samples]
        batch_key = (
            "batch:" + hashlib.sha256("|".join(member_keys).encode()).hexdigest()
        )
        cached = self._input_cache.get(batch_key)
        if cached is None:
            prepared = [self._prepare(s) for s in samples]
            cached = fuse_training_batch(prepared)
            self._input_cache.put(batch_key, cached)
        return cached

    def _loss_and_step(self, inputs: ModelInput, targets: np.ndarray) -> float:
        """Forward, Huber loss, backward, clip, Adam step; returns the loss."""
        self._optimizer.zero_grad()
        guard = sanitize_tape() if self.sanitize else nullcontext()
        with guard:
            pred = self.model.forward(inputs, training=True)
            loss = huber_loss(pred, targets)
            value = loss.item()
            if not np.isfinite(value):
                raise ModelError(
                    "training diverged: loss is not finite (lower the learning "
                    "rate or check label scaling)"
                )
            loss.backward()
        nn.clip_global_norm(self.model.parameters(), self.model.hparams.grad_clip)
        self._optimizer.step()
        return value

    def train_step(self, sample: Sample) -> float:
        """One optimization step on one sample; returns the loss value.

        With ``sanitize=True`` the whole forward+backward runs under
        :func:`repro.analysis.sanitize_tape`, so a diverging run raises
        :class:`~repro.analysis.NonFiniteError` naming the first op that
        produced a NaN/Inf instead of a generic "loss is not finite".
        """
        inputs, targets = self._prepare(sample)
        return self._loss_and_step(inputs, targets)

    def train_step_batch(self, samples: Sequence[Sample]) -> float:
        """One optimization step on a fused batch; returns the batch loss.

        The B samples are packed into one :class:`~repro.core.ModelInput`
        (targets row-concatenated in the same order) and a single
        forward+backward computes the gradient of the **mean per-path loss
        over the concatenated batch**.  Every path in the batch therefore
        carries equal weight, which means a sample contributes proportionally
        to its path count — a 90-path NSFNET sample weighs 90/132 of a batch
        it shares with a 42-path sample, *not* 1/2.  This matches what
        accumulating ``loss_i * (P_i / P_total)`` over per-sample steps would
        produce, and a gradient-equivalence test pins it.

        A batch of one delegates to :meth:`train_step`, so ``B=1`` is
        bit-identical to single-sample training (no packing, same tape).
        """
        if not samples:
            raise ModelError("cannot train on an empty batch")
        if len(samples) == 1:
            return self.train_step(samples[0])
        inputs, targets = self._prepare_batch(samples)
        return self._loss_and_step(inputs, targets)

    def parallel_stepper(
        self,
        train_samples: Sequence[Sample],
        workers: int,
        micro_batch: int | None = None,
        mp_context: str = "auto",
    ) -> "DataParallelStepper":
        """A :class:`~repro.training.parallel.DataParallelStepper` for this
        trainer — the long-lived worker pool behind ``fit(workers=...)``,
        exposed for benchmarks and custom training loops.

        The returned stepper owns worker processes; close it (or use it as
        a context manager) when done.  Requires a fitted scaler.
        """
        from .parallel import DataParallelStepper

        return DataParallelStepper(
            self,
            train_samples,
            workers=workers,
            micro_batch=micro_batch,
            mp_context=mp_context,
        )

    def fit(
        self,
        train_samples: Sequence[Sample],
        epochs: int,
        eval_samples: list[Sample] | None = None,
        log: Callable[[str], None] | None = None,
        schedule: "StepDecay | ReduceOnPlateau | None" = None,
        early_stopping: "EarlyStopping | None" = None,
        batch_size: int = 1,
        workers: int | None = None,
        micro_batch: int | None = None,
        prefetch: int | None = None,
    ) -> TrainingHistory:
        """Train for up to ``epochs`` passes over ``train_samples``.

        Fits the feature scaler on the training set if none was provided.

        ``train_samples`` may be any indexable sequence — an eager list or a
        :class:`~repro.dataset.StreamDataset` directory view.  Samples are
        materialized per step (never all at once), so a streaming source
        trains at flat RAM regardless of dataset size; the epoch order,
        RNG consumption, and resulting losses are bitwise identical to the
        eager-list run over the same records.

        Args:
            schedule: Optional LR schedule — a
                :class:`~repro.training.schedule.StepDecay` (epoch-driven)
                or :class:`~repro.training.schedule.ReduceOnPlateau`
                (metric-driven; monitors eval MRE when ``eval_samples`` is
                given, else the train loss).  A metric-driven schedule's
                ``initial_lr`` is applied before the first step, so epoch 1
                trains at the schedule's rate, not ``hparams.learning_rate``.
            early_stopping: Optional
                :class:`~repro.training.schedule.EarlyStopping` on the same
                monitored metric.
            batch_size: Samples per optimization step.  ``1`` (default) is
                the historical per-sample loop and reproduces its training
                trajectory exactly (same RNG consumption, same step order).
                ``>1`` partitions the training set into fixed consecutive
                chunks once, then shuffles the *batch visit order* each
                epoch — the shuffle-invariant partition keeps every fused
                batch content-cached from epoch 2 on (see
                :meth:`train_step_batch` for the per-path loss weighting).
            workers: When set, run each step data-parallel over this many
                gradient workers (``1`` = same algorithm inline, no
                processes).  Every batch is partitioned into micro-batch
                shards **independently of the worker count** and shard
                gradients are reduced in fixed order, so any ``workers``
                value produces bitwise-identical parameters to
                ``workers=1`` (see :mod:`repro.training.parallel`).
                ``None`` (default) keeps the single-process fast paths.
            micro_batch: Shard size for the data-parallel partition;
                defaults to splitting each batch into up to four shards.
                ``micro_batch >= batch_size`` makes every step single-shard,
                which reproduces the in-process fused step bitwise.
            prefetch: When set, a :class:`~repro.dataset.PrefetchLoader`
                with this many background processes materializes and packs
                the *next* batches (inputs, targets, forward plan) while the
                current step trains, handing pre-packed arrays over a
                bounded queue — the prepare stage becomes a queue pop.
                Packing runs through the same
                :mod:`repro.serving.batching` helpers as the in-process
                path, so losses stay bitwise identical.  Mutually exclusive
                with ``workers`` (gradient parallelism already packs inside
                its own workers).

        The reported per-epoch ``train_loss`` is the **path-weighted** mean
        of per-step losses — i.e. the exact per-path mean Huber loss over
        the epoch.  An unweighted mean would overweight a ragged final
        batch's paths (regression-tested).
        """
        if not len(train_samples):
            raise ModelError("cannot train on an empty sample list")
        if epochs < 1:
            raise ModelError(f"epochs must be >= 1, got {epochs}")
        if batch_size < 1:
            raise ModelError(f"batch_size must be >= 1, got {batch_size}")
        if self.scaler is None:
            self.scaler = fit_scaler(train_samples)

        from .schedule import StepDecay

        stepper = None
        if workers is not None:
            from .parallel import DataParallelStepper, default_micro_batch

            if prefetch is not None:
                raise ModelError(
                    "prefetch= and workers= are mutually exclusive: gradient "
                    "workers already materialize and pack their own shards"
                )
            stepper = DataParallelStepper(
                self,
                train_samples,
                workers=workers,
                micro_batch=(
                    micro_batch
                    if micro_batch is not None
                    else default_micro_batch(batch_size)
                ),
            )
        elif micro_batch is not None:
            raise ModelError("micro_batch requires workers= to be set")

        loader = None
        if prefetch is not None:
            if prefetch < 1:
                raise ModelError(f"prefetch must be >= 1, got {prefetch}")
            loader = PrefetchLoader(
                train_samples,
                scaler=self.scaler,
                include_load=self.include_load,
                path_feature_dim=self.model.hparams.path_feature_dim,
                readout_targets=self.model.hparams.readout_targets,
                workers=prefetch,
            )

        history = TrainingHistory()
        # Fixed consecutive partition, shuffled batch visit order each epoch
        # (trajectory mode threads self._rng through the same in-place
        # shuffle the historical loop performed — bitwise-pinned).
        sampler = MinibatchSampler(len(train_samples), batch_size, shuffle=True)
        try:
            for epoch in range(1, epochs + 1):
                started = time.perf_counter()
                if isinstance(schedule, StepDecay):
                    self._optimizer.lr = schedule.lr(epoch)
                elif schedule is not None:
                    # Metric-driven schedules only assigned the LR *after*
                    # observing an epoch, silently training epoch 1 at
                    # hparams.learning_rate; sync up front instead.
                    self._optimizer.lr = schedule.current_lr
                epoch_batches = sampler.epoch_batches(rng=self._rng)
                if stepper is not None:
                    stepped = [stepper.step(batch) for batch in epoch_batches]
                    losses = [loss for loss, _ in stepped]
                    weights = [paths for _, paths in stepped]
                elif loader is not None:
                    losses, weights = [], []
                    for inputs, targets in loader.batches(epoch_batches):
                        losses.append(self._loss_and_step(inputs, targets))
                        weights.append(int(targets.shape[0]))
                elif batch_size == 1:
                    losses = [
                        self.train_step(train_samples[batch[0]])
                        for batch in epoch_batches
                    ]
                    weights = [
                        len(train_samples[batch[0]].pairs) for batch in epoch_batches
                    ]
                else:
                    losses, weights = [], []
                    for batch in epoch_batches:
                        members = [train_samples[i] for i in batch]
                        losses.append(self.train_step_batch(members))
                        weights.append(sum(len(s.pairs) for s in members))
                eval_mre = None
                if eval_samples:
                    eval_mre = self.evaluate(eval_samples).delay.mre
                stats = EpochStats(
                    epoch=epoch,
                    train_loss=float(np.average(losses, weights=weights)),
                    eval_delay_mre=eval_mre,
                    seconds=time.perf_counter() - started,
                )
                history.epochs.append(stats)
                if log is not None:
                    msg = (
                        f"epoch {epoch:3d}  loss {stats.train_loss:.4f}"
                        f"  ({stats.seconds:.1f}s)"
                    )
                    if eval_mre is not None:
                        msg += f"  eval delay MRE {eval_mre:.3f}"
                    if schedule is not None:
                        msg += f"  lr {self._optimizer.lr:.2e}"
                    log(msg)
                monitored = eval_mre if eval_mre is not None else stats.train_loss
                if schedule is not None and not isinstance(schedule, StepDecay):
                    self._optimizer.lr = schedule.observe(monitored)
                if early_stopping is not None and early_stopping.should_stop(monitored):
                    if log is not None:
                        log(f"early stop at epoch {epoch} (best {early_stopping.best:.4f})")
                    break
        finally:
            if stepper is not None:
                stepper.close()
            if loader is not None:
                loader.close()
        return history

    # ------------------------------------------------------------------
    def engine(self, batch_size: int = 32) -> InferenceEngine:
        """A batched :class:`InferenceEngine` sharing this trainer's cache.

        The engine builds inputs through :meth:`_prepare`, so anything already
        prepared for training is served from the same content-keyed cache.

        The cached engine is invalidated whenever any piece of its
        configuration changes — the scaler, ``include_load``, the model
        object, the model's hyperparameters, or the requested
        ``batch_size`` — not just the scaler identity; a stale engine would
        keep serving inputs built under the old configuration.  The engine's
        :class:`~repro.serving.ServeConfig` is frozen, so a changed
        ``batch_size`` *rebuilds* the engine (cheap: inputs live in the
        trainer's content-keyed cache, not the engine) instead of mutating
        ``engine.batch_size`` underneath the frozen ``max_batch``
        (regression-tested).  Object identity is tracked through *weak
        references*, not ``id()``: a dead referent can never validate, so a
        garbage-collected model/scaler whose id the allocator recycles onto
        a new object cannot alias a stale engine (regression-tested).
        """
        if self.scaler is None:
            raise ModelError("scaler not set; call fit() or pass one explicitly")
        state = self._engine_state
        valid = (
            state is not None
            and state[0]() is self.model
            and state[1]() is self.scaler
            and state[2] == self.model.hparams
            and state[3] == self.include_load
            and state[4] == batch_size
        )
        if self._engine is None or not valid:
            self._engine = InferenceEngine(
                self.model,
                self.scaler,
                # No prediction tier: its keys cover sample content and
                # scaler, not the weights, so it would replay predictions
                # from before the latest training step.
                ServeConfig(
                    include_load=self.include_load,
                    max_batch=batch_size,
                    prediction_cache_size=0,
                ),
                builder=lambda sample: self._prepare(sample)[0],
            )
            self._engine_state = (
                weakref.ref(self.model),
                weakref.ref(self.scaler),
                self.model.hparams,
                self.include_load,
                batch_size,
            )
        return self._engine

    def predict_sample(self, sample: Sample) -> PredictResult:
        """Raw-unit predictions for one sample's measured pairs."""
        inputs, _ = self._prepare(sample)
        return self.model.predict(inputs, self.scaler)

    def evaluate(self, samples: list[Sample], batch_size: int = 32) -> EvalResult:
        """Pooled regression metrics over samples (served in fused batches).

        Returns:
            An :class:`~repro.results.EvalResult`; ``jitter`` is present only
            when the model has a second target AND at least one evaluated
            pair has a positive ground-truth jitter (the zero-jitter filter
            can legitimately leave nothing to score, e.g. on deterministic
            traffic — ``jitter`` is ``None`` then, not a crash).
        """
        if not samples:
            raise ModelError("cannot evaluate an empty sample list")
        preds = self.engine(batch_size).predict_many(samples)
        pred_delay, true_delay = [], []
        pred_jitter, true_jitter = [], []
        for sample, pred in zip(samples, preds):
            pred_delay.append(pred.delay)
            true_delay.append(sample.delay)
            if pred.jitter is not None:
                keep = sample.jitter > 0
                pred_jitter.append(pred.jitter[keep])
                true_jitter.append(sample.jitter[keep])
        jitter = None
        if pred_jitter:
            pooled_pred = np.concatenate(pred_jitter)
            pooled_true = np.concatenate(true_jitter)
            if pooled_pred.size:
                jitter = Metrics.from_dict(
                    regression_summary(pooled_pred, pooled_true)
                )
        return EvalResult(
            delay=Metrics.from_dict(
                regression_summary(
                    np.concatenate(pred_delay), np.concatenate(true_delay)
                )
            ),
            jitter=jitter,
        )

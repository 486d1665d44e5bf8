"""Tests for the RouteNet trainer: learning progress, caching, evaluation."""

import numpy as np
import pytest

from repro.core import HyperParams, RouteNet
from repro.errors import ModelError
from repro.serving import InferenceEngine
from repro.training import Trainer

TINY = HyperParams(
    link_state_dim=8,
    path_state_dim=8,
    message_passing_steps=2,
    readout_hidden=(12,),
    learning_rate=3e-3,
)


class TestFit:
    def test_loss_decreases(self, tiny_samples):
        trainer = Trainer(RouteNet(TINY, seed=0), seed=1)
        history = trainer.fit(tiny_samples, epochs=8)
        losses = history.train_losses
        assert losses[-1] < losses[0]

    def test_history_records_epochs(self, tiny_samples):
        trainer = Trainer(RouteNet(TINY, seed=0), seed=1)
        history = trainer.fit(tiny_samples, epochs=3)
        assert [e.epoch for e in history.epochs] == [1, 2, 3]
        assert history.last().epoch == 3

    def test_eval_metric_recorded(self, tiny_samples):
        trainer = Trainer(RouteNet(TINY, seed=0), seed=1)
        history = trainer.fit(
            tiny_samples[:6], epochs=2, eval_samples=tiny_samples[6:]
        )
        assert history.last().eval_delay_mre is not None

    def test_scaler_fit_automatically(self, tiny_samples):
        trainer = Trainer(RouteNet(TINY, seed=0), seed=1)
        assert trainer.scaler is None
        trainer.fit(tiny_samples, epochs=1)
        assert trainer.scaler is not None

    def test_log_callback_invoked(self, tiny_samples):
        lines = []
        trainer = Trainer(RouteNet(TINY, seed=0), seed=1)
        trainer.fit(tiny_samples, epochs=2, log=lines.append)
        assert len(lines) == 2
        assert "loss" in lines[0]

    def test_empty_train_set_raises(self):
        trainer = Trainer(RouteNet(TINY, seed=0))
        with pytest.raises(ModelError):
            trainer.fit([], epochs=1)

    def test_bad_epochs_raises(self, tiny_samples):
        trainer = Trainer(RouteNet(TINY, seed=0))
        with pytest.raises(ModelError):
            trainer.fit(tiny_samples, epochs=0)

    def test_input_cache_reused(self, tiny_samples):
        trainer = Trainer(RouteNet(TINY, seed=0), seed=1)
        trainer.fit(tiny_samples, epochs=2)
        assert len(trainer._input_cache) == len(tiny_samples)


class TestEvaluatePredict:
    def test_learns_structure(self, tiny_samples):
        """After training, the model must beat the scale-only baseline
        (predicting the dataset mean for everything)."""
        trainer = Trainer(RouteNet(TINY, seed=0), seed=1)
        trainer.fit(tiny_samples, epochs=25)
        metrics = trainer.evaluate(tiny_samples)
        true = np.concatenate([s.delay for s in tiny_samples])
        mean_baseline_mre = float(np.abs(true.mean() - true).mean() / true.mean())
        assert metrics.delay.mre < mean_baseline_mre
        assert metrics.delay.pearson > 0.7

    def test_predict_sample_shapes(self, tiny_samples):
        trainer = Trainer(RouteNet(TINY, seed=0), seed=1)
        trainer.fit(tiny_samples, epochs=1)
        pred = trainer.predict_sample(tiny_samples[0])
        assert pred.delay.shape == (tiny_samples[0].num_pairs,)
        assert (pred.delay > 0).all()

    def test_evaluate_before_fit_raises(self, tiny_samples):
        trainer = Trainer(RouteNet(TINY, seed=0))
        with pytest.raises(ModelError, match="scaler"):
            trainer.evaluate(tiny_samples)

    def test_evaluate_empty_raises(self, tiny_samples):
        trainer = Trainer(RouteNet(TINY, seed=0), seed=1)
        trainer.fit(tiny_samples, epochs=1)
        with pytest.raises(ModelError):
            trainer.evaluate([])

    def test_evaluate_tracks_training(self, tiny_samples):
        """Regression: the trainer's cached engine must not replay
        predictions made with the weights of an earlier evaluate."""
        trainer = Trainer(RouteNet(TINY, seed=0), seed=1)
        trainer.fit(tiny_samples, epochs=1)
        first = trainer.evaluate(tiny_samples)
        trainer.fit(tiny_samples, epochs=1)
        second = trainer.evaluate(tiny_samples)
        fresh = InferenceEngine(trainer.model, trainer.scaler).predict_many(tiny_samples)
        served = trainer.engine().predict_many(tiny_samples)
        for got, want in zip(served, fresh):
            np.testing.assert_array_equal(got.delay, want.delay)
        assert second.delay.mre != first.delay.mre

    def test_include_load_feature(self, tiny_samples):
        """Trainer can feed analytic per-link load as a second link feature
        (model must be built with link_feature_dim=2)."""
        hp = HyperParams(
            link_state_dim=8, path_state_dim=8, message_passing_steps=2,
            readout_hidden=(12,), learning_rate=3e-3, link_feature_dim=2,
        )
        trainer = Trainer(RouteNet(hp, seed=0), include_load=True, seed=1)
        history = trainer.fit(list(tiny_samples[:4]), epochs=2)
        assert len(history.epochs) == 2
        pred = trainer.predict_sample(tiny_samples[0])
        assert (pred.delay > 0).all()

    def test_divergence_detected(self, tiny_samples):
        """A NaN loss must raise instead of silently corrupting weights."""
        import numpy as np

        trainer = Trainer(RouteNet(TINY, seed=0), seed=1)
        trainer.fit(tiny_samples[:2], epochs=1)
        # Poison the readout weights to force a non-finite forward pass.
        trainer.model.readout.layers[-1].weight.data[:] = np.nan
        with pytest.raises(ModelError, match="diverged"):
            trainer.train_step(tiny_samples[0])

    def test_single_target_model_trains(self, tiny_samples):
        hp = HyperParams(
            link_state_dim=8, path_state_dim=8, message_passing_steps=2,
            readout_hidden=(12,), readout_targets=1, learning_rate=3e-3,
        )
        trainer = Trainer(RouteNet(hp, seed=0), seed=1)
        trainer.fit(tiny_samples, epochs=2)
        metrics = trainer.evaluate(tiny_samples)
        assert "jitter" not in metrics.targets()

    def test_evaluate_all_zero_jitter_returns_none(self, tiny_samples):
        """Regression: the zero-jitter filter can leave nothing to pool
        (deterministic traffic); evaluate must report jitter=None, not crash
        on an empty concatenation."""
        import dataclasses

        trainer = Trainer(RouteNet(TINY, seed=0), seed=1)
        trainer.fit(tiny_samples, epochs=1)
        flat = [
            dataclasses.replace(s, jitter=np.zeros_like(s.jitter))
            for s in tiny_samples
        ]
        result = trainer.evaluate(flat)
        assert result.jitter is None
        assert np.isfinite(result.delay.mre)


class TestEngineReuse:
    def test_engine_cached_when_config_unchanged(self, tiny_samples):
        trainer = Trainer(RouteNet(TINY, seed=0), seed=1)
        trainer.fit(tiny_samples[:2], epochs=1)
        assert trainer.engine() is trainer.engine()

    def test_engine_rebuilt_on_scaler_change(self, tiny_samples):
        from repro.dataset import fit_scaler

        trainer = Trainer(RouteNet(TINY, seed=0), seed=1)
        trainer.fit(tiny_samples[:2], epochs=1)
        first = trainer.engine()
        trainer.scaler = fit_scaler(list(tiny_samples))
        second = trainer.engine()
        assert second is not first
        assert second.scaler is trainer.scaler

    def test_engine_rebuilt_on_include_load_change(self, tiny_samples):
        """Regression: only the scaler identity used to be checked, so
        flipping include_load kept serving an engine built for the old
        feature layout."""
        trainer = Trainer(RouteNet(TINY, seed=0), seed=1)
        trainer.fit(tiny_samples[:2], epochs=1)
        first = trainer.engine()
        trainer.include_load = True
        assert trainer.engine() is not first
        trainer.include_load = False
        rebuilt = trainer.engine()
        assert rebuilt is not first  # stale engines are never resurrected

    def test_engine_rebuilt_on_model_swap(self, tiny_samples):
        trainer = Trainer(RouteNet(TINY, seed=0), seed=1)
        trainer.fit(tiny_samples[:2], epochs=1)
        first = trainer.engine()
        trainer.model = RouteNet(TINY, seed=9)
        second = trainer.engine()
        assert second is not first
        assert second.model is trainer.model

    def test_engine_rebuilt_on_batch_size_change(self, tiny_samples):
        """Regression: a changed batch_size used to be patched onto the
        cached engine (``engine.batch_size = N``), silently contradicting
        its frozen ``ServeConfig.max_batch``.  It must rebuild instead."""
        trainer = Trainer(RouteNet(TINY, seed=0), seed=1)
        trainer.fit(tiny_samples[:2], epochs=1)
        first = trainer.engine(batch_size=8)
        assert first.config.max_batch == 8
        second = trainer.engine(batch_size=64)
        assert second is not first
        assert second.batch_size == 64
        assert second.config.max_batch == 64
        # Same batch_size again: still cached.
        assert trainer.engine(batch_size=64) is second


class TestEngineWeakrefGuard:
    """Regression: the engine state used to be keyed on ``id(model)`` /
    ``id(scaler)``.  A garbage-collected object whose address the allocator
    recycles onto a new model/scaler would have validated a stale engine.
    Validation now compares weakref *referents*, so a dead referent can
    never validate — whatever ids get recycled."""

    def test_state_holds_weakrefs_to_current_config(self, tiny_samples):
        import weakref

        trainer = Trainer(RouteNet(TINY, seed=0), seed=1)
        trainer.fit(tiny_samples[:2], epochs=1)
        trainer.engine()
        model_ref, scaler_ref = trainer._engine_state[0], trainer._engine_state[1]
        assert isinstance(model_ref, weakref.ref)
        assert isinstance(scaler_ref, weakref.ref)
        assert model_ref() is trainer.model and scaler_ref() is trainer.scaler

    def test_dead_model_referent_never_validates(self, tiny_samples):
        """Even when a live object sits at the dead model's recycled id (the
        current ``trainer.model`` plays that role here), a dead weakref in
        the state must force a rebuild."""
        import gc
        import weakref

        trainer = Trainer(RouteNet(TINY, seed=0), seed=1)
        trainer.fit(tiny_samples[:2], epochs=1)
        first = trainer.engine()

        doomed = RouteNet(TINY, seed=9)
        dead_ref = weakref.ref(doomed)
        del doomed
        gc.collect()
        assert dead_ref() is None
        trainer._engine_state = (
            dead_ref,
            trainer._engine_state[1],
            trainer.model.hparams,
            trainer.include_load,
        )
        second = trainer.engine()
        assert second is not first
        assert second.model is trainer.model

    def test_dead_scaler_referent_never_validates(self, tiny_samples):
        import gc
        import weakref

        from repro.dataset import fit_scaler

        trainer = Trainer(RouteNet(TINY, seed=0), seed=1)
        trainer.fit(tiny_samples[:2], epochs=1)
        first = trainer.engine()

        doomed = fit_scaler(tiny_samples)
        dead_ref = weakref.ref(doomed)
        del doomed
        gc.collect()
        assert dead_ref() is None
        trainer._engine_state = (
            trainer._engine_state[0],
            dead_ref,
            trainer.model.hparams,
            trainer.include_load,
        )
        assert trainer.engine() is not first

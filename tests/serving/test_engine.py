"""InferenceEngine: batched serving semantics, queueing, caches, stats."""

import threading

import numpy as np
import pytest

from repro import nn
from repro.core import HyperParams, RouteNet
from repro.dataset import fit_scaler
from repro.errors import ModelError, ServingError
from repro.serving import InferenceEngine, ServeConfig, pack_inputs
from repro.serving.engine import fast_forward


@pytest.fixture(scope="module")
def served(tiny_samples):
    model = RouteNet(seed=21)
    scaler = fit_scaler(list(tiny_samples))
    return model, scaler


class TestPredictMany:
    def test_matches_single_sample_predictions(self, served, tiny_samples):
        model, scaler = served
        engine = InferenceEngine(model, scaler, ServeConfig(max_batch=3))
        results = engine.predict_many(tiny_samples)
        assert len(results) == len(tiny_samples)
        for sample, result in zip(tiny_samples, results):
            single = model.predict(engine.build_input(sample), scaler)
            assert result.pairs == single.pairs
            np.testing.assert_allclose(
                result.delay, single.delay, rtol=0.0, atol=1e-10
            )

    def test_chunks_by_batch_size(self, served, tiny_samples):
        model, scaler = served
        engine = InferenceEngine(model, scaler, ServeConfig(max_batch=3))
        engine.predict_many(tiny_samples)  # 8 samples -> 3+3+2
        stats = engine.stats()
        assert stats["batches"] == 3
        assert stats["queries"] == len(tiny_samples)
        assert stats["paths"] == sum(s.num_pairs for s in tiny_samples)

    def test_batch_size_override_per_call(self, served, tiny_samples):
        model, scaler = served
        engine = InferenceEngine(model, scaler, ServeConfig(max_batch=2))
        engine.predict_many(tiny_samples, batch_size=len(tiny_samples))
        assert engine.stats()["batches"] == 1

    def test_empty_rejected(self, served):
        model, scaler = served
        engine = InferenceEngine(model, scaler)
        with pytest.raises(ServingError):
            engine.predict_many([])
        with pytest.raises(ServingError):
            engine.predict_inputs([])

    def test_bad_batch_size_rejected(self, served):
        model, scaler = served
        with pytest.raises(ServingError):
            InferenceEngine(model, scaler, ServeConfig(max_batch=0))


class TestConstructor:
    """``config=ServeConfig(...)`` is the only way to configure an engine."""

    def test_unknown_kwarg_is_a_type_error(self, served):
        model, scaler = served
        with pytest.raises(TypeError):
            InferenceEngine(model, scaler, bogus=1)

    @pytest.mark.parametrize("name", ["batch_size", "include_load", "use_fast_path"])
    def test_removed_loose_kwargs_are_type_errors(self, served, name):
        model, scaler = served
        with pytest.raises(TypeError):
            InferenceEngine(model, scaler, **{name: 2})


class TestForward:
    """Every batch runs the one RouteNet forward, without a tape."""

    def test_feature_width_mismatch_raises(self, tiny_samples):
        scaler = fit_scaler(list(tiny_samples))
        wide = RouteNet(HyperParams(link_feature_dim=2))
        inp = InferenceEngine(RouteNet(seed=0), scaler).build_input(tiny_samples[0])
        with pytest.raises(ModelError):
            fast_forward(wide, inp)

    def test_subclassed_cell_is_served(self, tiny_samples):
        scaler = fit_scaler(list(tiny_samples))
        model = RouteNet(seed=14)

        class OddCell(nn.GRUCell):
            pass

        model.path_cell = OddCell(
            model.hparams.link_state_dim,
            model.hparams.path_state_dim,
            np.random.default_rng(0),
        )
        engine = InferenceEngine(model, scaler)
        result = engine.predict_many([tiny_samples[0]])[0]
        reference = model.predict(engine.build_input(tiny_samples[0]), scaler)
        np.testing.assert_array_equal(result.delay, reference.delay)

    def test_concurrent_forwards_are_bitwise(self, served, tiny_samples):
        """Threads sharing one input (and so one memoized plan) each get
        the sequential result, and leave recording on for everyone else."""
        model, scaler = served
        engine = InferenceEngine(model, scaler)
        batch = pack_inputs([engine.build_input(s) for s in tiny_samples])
        expected = fast_forward(model, batch.inputs)
        barrier = threading.Barrier(4, timeout=10.0)
        results = []

        def serve():
            barrier.wait()
            for _ in range(3):
                results.append(fast_forward(model, batch.inputs))

        threads = [threading.Thread(target=serve) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive()
        assert len(results) == 12
        for got in results:
            np.testing.assert_array_equal(got, expected)
        assert nn.is_grad_enabled()


class TestSubmitFlush:
    def test_submit_then_flush_preserves_order(self, served, tiny_samples):
        model, scaler = served
        engine = InferenceEngine(model, scaler, ServeConfig(max_batch=4))
        direct = engine.predict_many(tiny_samples)
        for sample in tiny_samples:
            engine.submit(sample)
        assert engine.pending == len(tiny_samples)
        flushed = engine.flush()
        assert engine.pending == 0
        for a, b in zip(direct, flushed):
            np.testing.assert_array_equal(a.delay, b.delay)

    def test_flush_when_empty_is_noop(self, served):
        model, scaler = served
        engine = InferenceEngine(model, scaler)
        assert engine.flush() == []

    def test_flush_counts_queries_once(self, served, tiny_samples):
        model, scaler = served
        engine = InferenceEngine(model, scaler, ServeConfig(max_batch=4))
        for sample in tiny_samples:
            engine.submit(sample)
        engine.flush()
        assert engine.stats()["queries"] == len(tiny_samples)


class TestPredictionTier:
    def test_repeat_queries_hit_prediction_cache(self, served, tiny_samples):
        model, scaler = served
        engine = InferenceEngine(model, scaler, ServeConfig(max_batch=4))
        first = engine.predict_many(tiny_samples)
        second = engine.predict_many(tiny_samples)
        stats = engine.stats()
        assert stats["prediction_cache"]["misses"] == len(tiny_samples)
        assert stats["prediction_cache"]["hits"] == len(tiny_samples)
        # A cached prediction is the same object — no recompute happened.
        for a, b in zip(first, second):
            assert a is b
        # Queries still count every request; batches only the first pass.
        assert stats["queries"] == 2 * len(tiny_samples)
        assert stats["batches"] == 2

    def test_intra_call_duplicates_computed_once(self, served, tiny_samples):
        model, scaler = served
        engine = InferenceEngine(model, scaler, ServeConfig(max_batch=8))
        doubled = list(tiny_samples) + list(tiny_samples)
        results = engine.predict_many(doubled)
        assert engine.stats()["paths"] == sum(s.num_pairs for s in tiny_samples)
        for a, b in zip(results[: len(tiny_samples)], results[len(tiny_samples):]):
            assert a is b

    def test_disabled_tier_falls_through_to_input_cache(self, served, tiny_samples):
        model, scaler = served
        engine = InferenceEngine(
            model, scaler, ServeConfig(max_batch=4, prediction_cache_size=0)
        )
        engine.predict_many(tiny_samples)
        engine.predict_many(tiny_samples)
        stats = engine.stats()
        assert stats["prediction_cache"] is None
        assert stats["cache"]["misses"] == len(tiny_samples)
        assert stats["cache"]["hits"] == len(tiny_samples)
        assert stats["batches"] == 4

    def test_cached_results_match_fresh_engine(self, served, tiny_samples):
        model, scaler = served
        warm = InferenceEngine(model, scaler, ServeConfig(max_batch=4))
        warm.predict_many(tiny_samples)
        cached = warm.predict_many(tiny_samples)
        fresh = InferenceEngine(
            model, scaler, ServeConfig(max_batch=4, prediction_cache_size=0)
        ).predict_many(tiny_samples)
        for a, b in zip(cached, fresh):
            np.testing.assert_array_equal(a.delay, b.delay)


class TestStats:
    def test_stage_timings_and_cache_counters(self, served, tiny_samples):
        model, scaler = served
        engine = InferenceEngine(
            model, scaler, ServeConfig(max_batch=4, prediction_cache_size=0)
        )
        engine.predict_many(tiny_samples)
        stats = engine.stats()
        for stage in ("build_s", "pack_s", "forward_s", "decode_s", "total_s"):
            assert stats[stage] >= 0.0
        assert stats["total_s"] >= stats["forward_s"]
        assert stats["cache"]["misses"] == len(tiny_samples)
        engine.predict_many(tiny_samples)  # second pass is all cache hits
        assert engine.stats()["cache"]["hits"] == len(tiny_samples)

    def test_reset_stats(self, served, tiny_samples):
        model, scaler = served
        engine = InferenceEngine(model, scaler)
        engine.predict_many(tiny_samples[:2])
        engine.reset_stats()
        stats = engine.stats()
        assert stats["queries"] == 0
        assert stats["total_s"] == 0.0
        # Cache counters are cache-lifetime: reset_stats leaves the tiers
        # (and their entries) intact.
        assert stats["prediction_cache"]["entries"] == 2

    def test_format_stats_renders(self, served, tiny_samples):
        model, scaler = served
        engine = InferenceEngine(model, scaler)
        engine.predict_many(tiny_samples[:2])
        text = InferenceEngine.format_stats(engine.stats())
        assert "forward" in text
        assert "cache" in text
        assert "preds" in text

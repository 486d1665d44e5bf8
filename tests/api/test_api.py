"""The repro.api facade: one-call workflows with typed results."""

import numpy as np
import pytest

import repro
from repro.core import HyperParams
from repro.errors import ModelError
from repro.results import EvalResult, Metrics, PredictResult

SMALL = HyperParams(
    link_state_dim=8, path_state_dim=8, message_passing_steps=2,
    readout_hidden=(8,), learning_rate=2e-3,
)


@pytest.fixture(scope="module")
def trained(tiny_samples):
    return repro.train(list(tiny_samples), epochs=3, hparams=SMALL, seed=4)


class TestTrain:
    def test_returns_typed_result(self, trained):
        assert isinstance(trained, repro.TrainResult)
        assert np.isfinite(trained.final_train_loss)
        assert len(trained.history.epochs) == 3

    def test_checkpoint_kwarg_writes_file(self, tiny_samples, tmp_path):
        path = tmp_path / "model.npz"
        repro.train(
            list(tiny_samples[:2]), epochs=1, hparams=SMALL, seed=1,
            checkpoint=path,
        )
        assert path.exists()


class TestEvaluate:
    def test_typed_metrics(self, trained, tiny_samples):
        result = repro.evaluate(
            trained.model, list(tiny_samples), scaler=trained.scaler
        )
        assert isinstance(result, EvalResult)
        assert isinstance(result.delay, Metrics)
        assert result.delay.mre > 0
        assert result.jitter is not None
        assert result.delay.count == sum(s.num_pairs for s in tiny_samples)

    def test_live_model_without_scaler_rejected(self, trained, tiny_samples):
        with pytest.raises(ModelError):
            repro.evaluate(trained.model, list(tiny_samples[:1]))


class TestPredict:
    def test_single_sample_returns_single_result(self, trained, tiny_samples):
        pred = repro.predict(trained.model, tiny_samples[0], scaler=trained.scaler)
        assert isinstance(pred, PredictResult)
        assert pred.pairs == tiny_samples[0].pairs
        assert pred.delay.shape == (tiny_samples[0].num_pairs,)
        assert (pred.delay > 0).all()

    def test_many_samples_return_aligned_list(self, trained, tiny_samples):
        preds = repro.predict(
            trained.model, list(tiny_samples), scaler=trained.scaler, batch_size=3
        )
        assert isinstance(preds, list)
        assert [p.num_paths for p in preds] == [s.num_pairs for s in tiny_samples]

    def test_checkpoint_roundtrip_preserves_predictions(
        self, trained, tiny_samples, tmp_path
    ):
        """save -> load -> predict through the facade is lossless."""
        before = repro.predict(
            trained.model, list(tiny_samples), scaler=trained.scaler
        )
        path = tmp_path / "roundtrip.npz"
        trained.save(path, note="api-test")
        after = repro.predict(str(path), list(tiny_samples))
        for a, b in zip(before, after):
            np.testing.assert_allclose(a.delay, b.delay, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(a.jitter, b.jitter, rtol=0.0, atol=1e-12)

    def test_checkpoint_roundtrip_preserves_metrics(
        self, trained, tiny_samples, tmp_path
    ):
        path = tmp_path / "roundtrip.npz"
        trained.save(path)
        live = repro.evaluate(trained.model, list(tiny_samples), scaler=trained.scaler)
        loaded = repro.evaluate(str(path), list(tiny_samples))
        assert loaded.delay.mre == pytest.approx(live.delay.mre, abs=1e-12)

    def test_dataset_path_accepted(self, trained, tiny_samples, tmp_path):
        from repro.dataset import save_dataset

        archive = tmp_path / "samples.jsonl"
        save_dataset(list(tiny_samples[:3]), archive)
        preds = repro.predict(trained.model, str(archive), scaler=trained.scaler)
        assert len(preds) == 3


class TestSimulate:
    def test_named_topology_and_output(self, tmp_path):
        from ..conftest import FAST_CONFIG

        out = tmp_path / "sim.jsonl"
        samples = repro.simulate(
            "synthetic:6:3", 2, seed=5, config=FAST_CONFIG, output=out
        )
        assert len(samples) == 2
        assert out.exists()
        assert all(s.num_pairs > 0 for s in samples)

    def test_topology_object_accepted(self, tiny_topology):
        from ..conftest import FAST_CONFIG

        samples = repro.simulate(tiny_topology, 1, seed=6, config=FAST_CONFIG)
        assert samples[0].topology.num_nodes == tiny_topology.num_nodes

"""Tests for the experiments workbench (profiles, caching, artifact reuse).

Uses a micro profile in a temp directory so the tests stay fast and never
touch the repository's real ``data/`` cache.
"""

import pytest

from repro.core import HyperParams
from repro.dataset import GenerationConfig
from repro.experiments import ExperimentProfile, PAPER_SMALL, SMOKE, Workbench

MICRO = ExperimentProfile(
    name="micro-test",
    nsfnet_train=2,
    nsfnet_eval=1,
    syn50_train=1,
    syn50_eval=1,
    geant2_eval=1,
    variable_sizes=(8,),
    variable_samples_per_size=1,
    epochs=1,
    hyperparams=HyperParams(
        link_state_dim=4, path_state_dim=4, message_passing_steps=1,
        readout_hidden=(6,), learning_rate=3e-3,
    ),
    nsfnet_gen=GenerationConfig(target_packets_per_pair=30, min_delivered=5),
    syn50_gen=GenerationConfig(
        target_packets_per_pair=30, min_delivered=5, active_fraction=0.05
    ),
    geant2_gen=GenerationConfig(
        target_packets_per_pair=30, min_delivered=5, active_fraction=0.2
    ),
)


@pytest.fixture(scope="module")
def workbench(tmp_path_factory):
    return Workbench(MICRO, cache_dir=tmp_path_factory.mktemp("wb"), log=None)


class TestProfiles:
    def test_builtin_profiles_valid(self):
        assert PAPER_SMALL.name == "paper-small"
        assert SMOKE.epochs < PAPER_SMALL.epochs

    def test_profile_is_frozen(self):
        with pytest.raises(AttributeError):
            PAPER_SMALL.epochs = 1


class TestDatasets:
    def test_counts_match_profile(self, workbench):
        assert len(workbench.nsfnet_train()) == MICRO.nsfnet_train
        assert len(workbench.geant2_eval()) == MICRO.geant2_eval

    def test_cache_files_written(self, workbench):
        workbench.nsfnet_train()
        assert (workbench.cache_dir / "micro-test-nsfnet-train.jsonl").exists()

    def test_memoized_same_objects(self, workbench):
        assert workbench.nsfnet_train() is workbench.nsfnet_train()

    def test_reload_from_disk(self, workbench):
        workbench.nsfnet_train()
        fresh = Workbench(MICRO, cache_dir=workbench.cache_dir, log=None)
        reloaded = fresh.nsfnet_train()
        assert len(reloaded) == MICRO.nsfnet_train
        import numpy as np

        np.testing.assert_array_equal(
            reloaded[0].delay, workbench.nsfnet_train()[0].delay
        )

    def test_train_set_combines_topologies(self, workbench):
        names = {s.topology_name for s in workbench.train_set()}
        assert names == {"nsfnet", "synthetic-50"}

    def test_variable_size_family(self, workbench):
        family = workbench.variable_size_eval()
        assert set(family) == {8}
        assert len(family[8]) == 1


class TestModel:
    def test_trained_model_cached(self, workbench):
        model_a, scaler_a = workbench.trained_model()
        assert workbench.model_path().exists()
        model_b, _ = workbench.trained_model()
        assert model_a is model_b

    def test_checkpoint_reload(self, workbench):
        import numpy as np

        from repro.core import build_model_input

        workbench.trained_model()
        fresh = Workbench(MICRO, cache_dir=workbench.cache_dir, log=None)
        model, scaler = fresh.trained_model()
        sample = fresh.nsfnet_eval()[0]
        inputs = build_model_input(
            sample.topology, sample.routing, sample.traffic,
            scaler=scaler, pairs=list(sample.pairs),
        )
        original_model, original_scaler = workbench.trained_model()
        np.testing.assert_array_equal(
            model.predict(inputs, scaler).delay,
            original_model.predict(inputs, original_scaler).delay,
        )

    def test_trainer_wraps_cached_model(self, workbench):
        trainer = workbench.trainer()
        metrics = trainer.evaluate(workbench.nsfnet_eval())
        assert "delay" in metrics.targets()

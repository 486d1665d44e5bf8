"""Tests for the RouteNet model: shapes, determinism, permutation behavior,
gradients, structural sensitivity, and checkpointing."""

import numpy as np
import pytest

from repro.core import (
    FeatureScaler,
    HyperParams,
    RouteNet,
    build_model_input,
)
from repro.errors import ModelError
from repro.routing import RoutingScheme
from repro.topology import nsfnet, geant2, synthetic_topology
from repro.traffic import uniform_traffic


@pytest.fixture(scope="module")
def topo():
    return nsfnet()


@pytest.fixture(scope="module")
def inputs(topo):
    routing = RoutingScheme.shortest_path(topo)
    tm = uniform_traffic(topo.num_nodes, 100.0, seed=0)
    return build_model_input(topo, routing, tm)


SMALL = HyperParams(
    link_state_dim=6, path_state_dim=6, message_passing_steps=2, readout_hidden=(8,)
)


class TestHyperParams:
    def test_defaults_valid(self):
        HyperParams()

    def test_bad_steps(self):
        with pytest.raises(ModelError):
            HyperParams(message_passing_steps=0)

    def test_bad_dropout(self):
        with pytest.raises(ModelError):
            HyperParams(dropout=1.0)

    def test_dict_roundtrip(self):
        hp = HyperParams(readout_hidden=(12, 8))
        assert HyperParams.from_dict(hp.to_dict()) == hp


class TestForward:
    def test_output_shape(self, inputs):
        model = RouteNet(SMALL, seed=0)
        out = model.forward(inputs)
        assert out.shape == (inputs.num_paths, 2)

    def test_deterministic_under_seed(self, inputs):
        a = RouteNet(SMALL, seed=1).forward(inputs).numpy()
        b = RouteNet(SMALL, seed=1).forward(inputs).numpy()
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self, inputs):
        a = RouteNet(SMALL, seed=1).forward(inputs).numpy()
        b = RouteNet(SMALL, seed=2).forward(inputs).numpy()
        assert not np.allclose(a, b)

    def test_wrong_feature_count_raises(self, topo):
        routing = RoutingScheme.shortest_path(topo)
        tm = uniform_traffic(topo.num_nodes, 100.0, seed=0)
        inputs_with_load = build_model_input(topo, routing, tm, include_load=True)
        model = RouteNet(SMALL, seed=0)  # expects 1 link feature
        with pytest.raises(ModelError, match="link features"):
            model.forward(inputs_with_load)

    def test_path_permutation_equivariance(self, topo):
        """Reordering input paths permutes outputs identically."""
        routing = RoutingScheme.shortest_path(topo)
        tm = uniform_traffic(topo.num_nodes, 100.0, seed=3)
        base = build_model_input(topo, routing, tm)
        perm = np.random.default_rng(0).permutation(base.num_paths)
        from repro.core.features import ModelInput

        permuted = ModelInput(
            pairs=tuple(base.pairs[i] for i in perm),
            link_features=base.link_features,
            path_features=base.path_features[perm],
            link_indices=base.link_indices[perm],
            mask=base.mask[perm],
        )
        model = RouteNet(SMALL, seed=4)
        out_base = model.forward(base).numpy()
        out_perm = model.forward(permuted).numpy()
        np.testing.assert_allclose(out_perm, out_base[perm], atol=1e-10)

    def test_traffic_sensitivity(self, topo):
        """More traffic on a path must change its prediction."""
        routing = RoutingScheme.shortest_path(topo)
        light = uniform_traffic(topo.num_nodes, 10.0, seed=5, spread=0.0)
        heavy = uniform_traffic(topo.num_nodes, 1_000.0, seed=5, spread=0.0)
        scaler = FeatureScaler(1e4, 100.0, 1e4, np.zeros(2), np.ones(2))
        model = RouteNet(SMALL, seed=6)
        out_light = model.forward(build_model_input(topo, routing, light, scaler)).numpy()
        out_heavy = model.forward(build_model_input(topo, routing, heavy, scaler)).numpy()
        assert not np.allclose(out_light, out_heavy)

    def test_handles_different_topology_sizes(self):
        """The same weights must run on 14, 24 and 50-node networks."""
        model = RouteNet(SMALL, seed=7)
        for topo in (nsfnet(), geant2(), synthetic_topology(50, seed=0)):
            routing = RoutingScheme.shortest_path(topo)
            tm = uniform_traffic(topo.num_nodes, 100.0, seed=1)
            out = model.forward(build_model_input(topo, routing, tm))
            assert out.shape[0] == topo.num_nodes * (topo.num_nodes - 1)
            assert np.isfinite(out.numpy()).all()

    def test_rnn_cell_variant_runs(self, inputs):
        hp = HyperParams(
            link_state_dim=6, path_state_dim=6, message_passing_steps=2,
            readout_hidden=(8,), cell_type="rnn",
        )
        out = RouteNet(hp, seed=15).forward(inputs)
        assert np.isfinite(out.numpy()).all()

    def test_unknown_cell_type_rejected(self):
        with pytest.raises(ModelError, match="cell type"):
            HyperParams(cell_type="lstm")

    def test_more_message_passing_steps_changes_output(self, inputs):
        shallow = RouteNet(HyperParams(link_state_dim=6, path_state_dim=6,
                                       message_passing_steps=1, readout_hidden=(8,)), seed=8)
        deep = RouteNet(HyperParams(link_state_dim=6, path_state_dim=6,
                                    message_passing_steps=4, readout_hidden=(8,)), seed=8)
        assert not np.allclose(
            shallow.forward(inputs).numpy(), deep.forward(inputs).numpy()
        )


class TestGradients:
    def test_all_parameters_receive_gradients(self, inputs):
        model = RouteNet(SMALL, seed=9)
        loss = (model.forward(inputs) ** 2).mean()
        loss.backward()
        for name, param in model.named_parameters():
            assert param.grad is not None, f"{name} got no gradient"
            assert np.isfinite(param.grad).all(), f"{name} gradient not finite"

    def test_gradcheck_tiny_scenario(self):
        """Full RouteNet gradient vs finite differences on a 3-node net."""
        from repro.topology import Topology
        from tests.nn.gradcheck import assert_grads_close

        topo = Topology.from_edges(3, [(0, 1), (1, 2), (0, 2)], capacity=1.0)
        routing = RoutingScheme.shortest_path(topo)
        tm = uniform_traffic(3, 1.0, seed=0)
        inputs = build_model_input(topo, routing, tm)
        hp = HyperParams(
            link_state_dim=3, path_state_dim=3, message_passing_steps=2,
            readout_hidden=(4,), readout_targets=1,
        )
        model = RouteNet(hp, seed=10)
        assert_grads_close(
            lambda: (model.forward(inputs) ** 2).sum(),
            list(model.parameters()),
            rtol=5e-4,
            atol=1e-7,
        )


class TestPredictAndCheckpoint:
    def test_predict_returns_raw_units(self, inputs):
        model = RouteNet(SMALL, seed=11)
        scaler = FeatureScaler(1.0, 1.0, 1.0, np.array([-2.0, -4.0]), np.array([0.5, 0.5]))
        pred = model.predict(inputs, scaler)
        assert set(pred.targets()) == {"delay", "jitter"}
        assert (pred.delay > 0).all()

    def test_single_target_predict_has_no_jitter(self, inputs):
        hp = HyperParams(link_state_dim=6, path_state_dim=6,
                         message_passing_steps=2, readout_hidden=(8,), readout_targets=1)
        model = RouteNet(hp, seed=12)
        scaler = FeatureScaler(1.0, 1.0, 1.0, np.zeros(1), np.ones(1))
        pred = model.predict(inputs, scaler)
        assert "jitter" not in pred.targets()

    def test_save_load_roundtrip(self, inputs, tmp_path):
        model = RouteNet(SMALL, seed=13)
        scaler = FeatureScaler(2.0, 3.0, 4.0, np.zeros(2), np.ones(2))
        path = tmp_path / "routenet.npz"
        model.save(str(path), scaler, extra_meta={"trained_on": ["nsfnet"]})
        restored, restored_scaler, extra = RouteNet.load(str(path))
        assert extra == {"trained_on": ["nsfnet"]}
        assert restored_scaler.capacity_scale == 2.0
        np.testing.assert_array_equal(
            model.forward(inputs).numpy(), restored.forward(inputs).numpy()
        )

    def test_load_garbage_checkpoint_raises(self, tmp_path):
        from repro import nn

        path = tmp_path / "bad.npz"
        nn.save_state(path, {"w": np.zeros(3)}, meta={})
        with pytest.raises(ModelError, match="metadata"):
            RouteNet.load(str(path))

"""The length-packed RouteNet forward against the unpacked reference.

``reference_forward`` is the forward as it ran before paths were packed by
length: the path cell runs over every row at every timestep and ``where``
keeps the old state of rows whose path has ended.  The packed forward must
equal it bitwise per row; gradients may differ only in the order rows are
summed, within the tolerance stated in DESIGN.md ("One RouteNet forward").
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.analysis import paper_signatures
from repro.core import HyperParams, RouteNet, build_model_input
from repro.core.plan import build_plan
from repro.errors import ModelError
from repro.nn.ops import make_scatter_plan
from repro.routing import RoutingScheme
from repro.serving import pack_inputs
from repro.serving.engine import fast_forward
from repro.topology import synthetic_topology
from repro.traffic import random_traffic

#: Largest gradient difference allowed, relative to the gradient's largest
#: magnitude (DESIGN.md, "One RouteNet forward").
GRAD_RTOL = 1e-12


def reference_forward(model, inputs, training=False):
    """Every path row at every timestep, inactive rows masked by ``where``."""
    hp = model.hparams
    link_idx, mask = inputs.link_indices, inputs.mask
    safe_idx = np.where(link_idx >= 0, link_idx, 0)
    h_link = model.link_embed(nn.tensor(inputs.link_features))
    h_path = model.path_embed(nn.tensor(inputs.path_features))
    steps = []
    for t in range(inputs.max_path_length):
        if not mask[:, t].any():
            break
        steps.append(t)
    for r in range(hp.message_passing_steps):
        last_round = r == hp.message_passing_steps - 1
        gates_all = model.path_cell.precompute_input(h_link)
        message_sum = None
        for t in steps:
            gx = nn.ops.gather(
                gates_all, safe_idx[:, t], plan=make_scatter_plan(safe_idx[:, t])
            )
            h_new = model.path_cell.step_precomputed(gx, h_path)
            h_path = nn.ops.where(mask[:, t : t + 1], h_new, h_path)
            if not last_round:
                contribution = nn.ops.segment_sum(
                    h_path, link_idx[:, t], inputs.num_links,
                    plan=make_scatter_plan(link_idx[:, t]),
                )
                message_sum = (
                    contribution if message_sum is None else message_sum + contribution
                )
        if not last_round:
            h_link = model.link_cell(message_sum, h_link)
    out = h_path
    if training and hp.dropout > 0:
        out = nn.ops.dropout(out, hp.dropout, model._dropout_rng, training=True)
    return model.readout(out)


def _grads(model, forward, inputs, training):
    for p in model.parameters():
        p.zero_grad()
    pred = forward(model, inputs, training)
    weights = np.random.default_rng(1).standard_normal(pred.shape)
    (pred * weights).sum().backward()
    # With one round the link cell feeds nothing and gets no gradient.
    return pred.numpy(), [
        np.zeros_like(p.data) if p.grad is None else p.grad.copy()
        for p in model.parameters()
    ]


def assert_packed_matches_reference(hparams, inputs, seed=3):
    """Forward bitwise equal (eval and dropout-training), gradients close."""
    model = RouteNet(hparams, seed=seed)
    with nn.no_grad():
        want = reference_forward(model, inputs).numpy()
        np.testing.assert_array_equal(model.forward(inputs).numpy(), want)
    np.testing.assert_array_equal(fast_forward(model, inputs), want)

    # Twin models share weights and dropout-RNG state, so the training
    # forwards draw the same masks.
    packed, packed_grads = _grads(
        RouteNet(hparams, seed=seed), RouteNet.forward, inputs, True
    )
    ref, ref_grads = _grads(RouteNet(hparams, seed=seed), reference_forward, inputs, True)
    np.testing.assert_array_equal(packed, ref)
    for got, expected in zip(packed_grads, ref_grads):
        scale = np.abs(expected).max(initial=0.0)
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=GRAD_RTOL * scale)


def _paper_inputs(seed=7):
    """The three paper families' ModelInputs with randomized features."""
    rng = np.random.default_rng(seed)
    out = {}
    for family, sig in paper_signatures().items():
        inp = sig.model_input()
        inp.link_features[:] = rng.standard_normal(inp.link_features.shape)
        inp.path_features[:] = rng.standard_normal(inp.path_features.shape)
        out[family] = inp
    return out


class TestPackedForward:
    def test_paper_families_bitwise_identical(self):
        """NSFNET-14, Geant2-24 and synthetic-50, alone and fused."""
        families = _paper_inputs()
        for family, inp in families.items():
            assert_packed_matches_reference(HyperParams(dropout=0.2), inp)
        fused = pack_inputs(list(families.values())).inputs
        assert_packed_matches_reference(HyperParams(), fused)

    def test_per_sample_matches_reference(self, tiny_samples, nsfnet_samples):
        for sample in (tiny_samples[0], nsfnet_samples[0]):
            inp = build_model_input(sample.topology, sample.routing, sample.traffic)
            assert_packed_matches_reference(HyperParams(), inp, seed=11)

    def test_fused_matches_reference(self, tiny_samples, nsfnet_samples):
        batch = pack_inputs([
            build_model_input(s.topology, s.routing, s.traffic)
            for s in [*tiny_samples[:3], nsfnet_samples[0]]
        ])
        assert_packed_matches_reference(HyperParams(), batch.inputs, seed=12)

    def test_rnn_cell_matches_reference(self, tiny_samples):
        sample = tiny_samples[0]
        inp = build_model_input(sample.topology, sample.routing, sample.traffic)
        assert_packed_matches_reference(HyperParams(cell_type="rnn"), inp, seed=13)

    @settings(max_examples=25, deadline=None)
    @given(
        sizes=st.lists(st.integers(3, 8), min_size=1, max_size=3),
        seed=st.integers(0, 2**16),
        cell=st.sampled_from(["gru", "rnn"]),
        rounds=st.integers(1, 3),
        routing=st.sampled_from(["shortest", "weighted", "ksp"]),
    )
    def test_random_topologies_match_reference(self, sizes, seed, cell, rounds, routing):
        """Random small topologies, routings and traffic, fused into one
        batch with mixed path lengths (and a random subset of pairs)."""
        rng = np.random.default_rng(seed)
        inputs = []
        for size in sizes:
            topo = synthetic_topology(size, seed=rng)
            scheme = {
                "shortest": lambda: RoutingScheme.shortest_path(topo),
                "weighted": lambda: RoutingScheme.random_weighted(topo, seed=rng),
                "ksp": lambda: RoutingScheme.random_ksp(topo, seed=rng),
            }[routing]()
            traffic = random_traffic(topo, scheme, seed=rng)
            pairs = [p for p in scheme.pairs if rng.random() < 0.7] or scheme.pairs[:1]
            inputs.append(build_model_input(topo, scheme, traffic, pairs=pairs))
        fused = pack_inputs(inputs).inputs
        hp = HyperParams(
            cell_type=cell, link_state_dim=6, path_state_dim=5,
            message_passing_steps=rounds, readout_hidden=(7,), dropout=0.25,
        )
        assert_packed_matches_reference(hp, fused, seed=seed)


class TestPlan:
    def test_live_rows_are_a_prefix_in_length_order(self):
        inp = _paper_inputs()["geant2"]
        plan = build_plan(inp)
        lengths = inp.mask.sum(axis=1)
        assert np.array_equal(plan.inv[plan.perm], np.arange(inp.num_paths))
        assert (np.diff(lengths[plan.perm]) <= 0).all()
        for t, step in enumerate(plan.steps):
            assert step.n == int((lengths > t).sum())
            assert np.array_equal(step.ids, inp.link_indices[plan.perm[: step.n], t])
        assert plan.num_steps == lengths.max()

    def test_gap_in_a_path_is_rejected(self):
        inp = _paper_inputs()["nsfnet"]
        long_path = int(np.argmax(inp.mask.sum(axis=1)))
        inp.link_indices[long_path, 0] = -1
        inp.mask[long_path, 0] = False
        with pytest.raises(ModelError, match="contiguously"):
            build_plan(inp)

"""Model-check tests: the paper topologies pass, injected bugs localize.

``check_model`` runs the real forward under the tape recorder, so each
injected bug raises from the kernel that has it and is reported by name.
"""

import numpy as np
import pytest

from repro.analysis import (
    PAPER_SIGNATURE_NAMES,
    TopologySignature,
    check_model,
    paper_signatures,
)
from repro.core import HyperParams, RouteNet


@pytest.fixture(scope="module")
def signatures():
    return paper_signatures()


@pytest.fixture(scope="module")
def model():
    return RouteNet(HyperParams())


# ----------------------------------------------------------------------
# The paper's three topologies type-check
# ----------------------------------------------------------------------
class TestPaperSignatures:
    def test_names(self, signatures):
        assert tuple(signatures) == PAPER_SIGNATURE_NAMES

    @pytest.mark.parametrize("name", PAPER_SIGNATURE_NAMES)
    def test_signature_passes(self, model, signatures, name):
        report = check_model(model, signatures[name])
        assert report.ok, report.format()
        sig = signatures[name]
        assert report.output_shape == (sig.num_paths, model.hparams.readout_targets)
        assert report.output_dtype == "float64"
        assert report.ops_checked > 0

    def test_paper_sizes(self, signatures):
        nsf, geant = signatures["nsfnet"], signatures["geant2"]
        assert (nsf.num_nodes, nsf.num_links) == (14, 42)
        assert nsf.num_paths == 14 * 13
        assert (geant.num_nodes, geant.num_links) == (24, 76)
        assert geant.num_paths == 24 * 23
        assert signatures["synthetic50"].num_paths == 50 * 49

    def test_two_target_model(self, signatures):
        model = RouteNet(HyperParams(readout_targets=2))
        report = check_model(model, signatures["nsfnet"])
        assert report.ok and report.output_shape[1] == 2

    def test_is_fast(self, model, signatures):
        import time

        started = time.perf_counter()
        for sig in signatures.values():
            assert check_model(model, sig).ok
        assert time.perf_counter() - started < 2.0


# ----------------------------------------------------------------------
# Injected bugs produce op-level diagnostics
# ----------------------------------------------------------------------
class TestInjectedBug:
    def test_broken_weight_is_localized(self, signatures):
        model = RouteNet(HyperParams())
        hp = model.hparams
        good = model.link_embed.weight.data
        # Grow the link-embedding weight's input dim by one: the first
        # matmul of the forward pass no longer matches link_feature_dim.
        model.link_embed.weight.data = np.zeros(
            (hp.link_feature_dim + 1, hp.link_state_dim)
        )
        try:
            report = check_model(model, signatures["nsfnet"])
        finally:
            model.link_embed.weight.data = good
        assert not report.ok
        assert report.failed_op == "matmul"
        shapes = list(report.failed_operands)
        assert (hp.link_feature_dim + 1, hp.link_state_dim) in shapes
        assert "matmul" in report.format()

    def test_mismatched_feature_dim_reported(self, signatures):
        model = RouteNet(HyperParams(path_feature_dim=3))
        report = check_model(model, signatures["nsfnet"])
        assert not report.ok
        assert report.failed_op is not None
        assert report.error


# ----------------------------------------------------------------------
# Bounds and fused-cell kernels are checked by execution
# ----------------------------------------------------------------------
class TestConcreteBounds:
    def test_out_of_range_link_id_is_localized_to_gather(self, model):
        link_indices = np.array([[0, 1, -1], [1, 7, 0], [2, -1, -1]], dtype=np.intp)
        sig = TopologySignature(
            name="bad-link-id",
            num_nodes=4,
            num_links=3,
            num_paths=3,
            link_indices=link_indices,
            mask=link_indices >= 0,
        )
        report = check_model(model, sig)  # no raw IndexError escapes
        assert not report.ok
        assert report.failed_op == "gather"
        # The gathered (links, 3 * path_state) gate block and the id vector.
        gates = (sig.num_links, 3 * model.hparams.path_state_dim)
        assert gates in report.failed_operands
        assert "IndexError" in report.error
        assert report.trace_tail

    def test_misshaped_cell_weight_is_localized_to_the_kernel(self, signatures):
        model = RouteNet(HyperParams())
        hp = model.hparams
        good = model.path_cell.w.data
        model.path_cell.w.data = np.zeros((hp.link_state_dim + 1, 3 * hp.path_state_dim))
        try:
            report = check_model(model, signatures["nsfnet"])
        finally:
            model.path_cell.w.data = good
        assert not report.ok
        assert report.failed_op == "precompute_input"
        assert (hp.link_state_dim + 1, 3 * hp.path_state_dim) in report.failed_operands
        assert (signatures["nsfnet"].num_links, hp.link_state_dim) in report.failed_operands


# ----------------------------------------------------------------------
# TopologySignature construction
# ----------------------------------------------------------------------
class TestTopologySignature:
    def test_from_topology_matches_routing(self):
        from repro.topology import nsfnet

        sig = TopologySignature.from_topology(nsfnet())
        assert sig.link_indices.shape[0] == sig.num_paths
        assert sig.mask.shape == sig.link_indices.shape
        # Padded entries are -1 and masked out; real entries are valid links.
        real = sig.link_indices[sig.mask.astype(bool)]
        assert real.min() >= 0 and real.max() < sig.num_links
        assert (sig.link_indices[~sig.mask.astype(bool)] == -1).all()

    def test_model_input_is_concrete(self):
        from repro.topology import nsfnet

        inputs = TopologySignature.from_topology(nsfnet()).model_input()
        assert inputs.path_features.shape[0] == 14 * 13

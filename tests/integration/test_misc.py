"""Cross-cutting odds and ends: CLI helpers and serialization guards."""

import numpy as np
import pytest

from repro import nn
from repro.cli.commands import _resolve_topology


class TestResolveTopology:
    def test_reference_name(self):
        assert _resolve_topology("nsfnet").num_nodes == 14

    def test_synthetic_spec(self):
        topo = _resolve_topology("synthetic:12")
        assert topo.num_nodes == 12

    def test_synthetic_spec_with_seed_deterministic(self):
        a = _resolve_topology("synthetic:10:7")
        b = _resolve_topology("synthetic:10:7")
        assert a == b

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            _resolve_topology("arpanet")


class TestSerializationGuards:
    def test_reserved_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            nn.save_state(tmp_path / "x.npz", {"__meta__": np.zeros(1)})

    def test_meta_roundtrip_unicode(self, tmp_path):
        path = tmp_path / "x.npz"
        nn.save_state(path, {"w": np.ones(2)}, meta={"note": "Geant2 — ünïcode"})
        _, meta = nn.load_state(path)
        assert meta["note"] == "Geant2 — ünïcode"


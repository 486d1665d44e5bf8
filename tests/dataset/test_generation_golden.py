"""Golden digests of generated scenarios.

The generation hot path (routing construction, flow streams, the event
loop) is tuned for speed under one rule: no label may change by a single
bit.  Each digest below covers a sample's ``delay``, ``jitter`` and
``loss_rate`` bytes, its pairs, its routing and its meta, and was recorded
before the hot path was rewritten.  A digest that moves means generation
output moved: find the change, do not re-record.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.dataset import GenerationConfig, generate_sample
from repro.random import make_rng
from repro.routing import RoutingScheme, k_shortest_paths
from repro.routing.ksp import iter_k_shortest_paths
from repro.topology import geant2, nsfnet, synthetic_topology

_BASE = GenerationConfig(target_packets_per_pair=60, min_delivered=10)
_TOPOLOGIES = {
    "nsfnet": (nsfnet, _BASE),
    "geant2": (geant2, replace(_BASE, active_fraction=0.4)),
    "synthetic-50": (
        lambda: synthetic_topology(50, seed=50),
        replace(_BASE, active_fraction=0.1),
    ),
}

GOLDEN = {
    ("nsfnet", "shortest"):
        "d835404ef4b14174c3416b25ab6f2fcffaf24577b0c1771a03dd15c2e8cc03cf",
    ("nsfnet", "random_weighted"):
        "80a47437342e8d87a49fc419dab4eefcbd98428aefa9ee190c2492bbea1368a8",
    ("nsfnet", "random_ksp"):
        "837ba0c2230f16bd080a3eedf3c0fab6aade13b7d4fd488a1ace6a647d7e2aa6",
    ("geant2", "shortest"):
        "38f56cfed73cea47fb4d878c83693caeec8a47c36e341483d9e1f8b95b1781c1",
    ("geant2", "random_weighted"):
        "b85c7c82549857419b94c50dc7d45b79a1ff25d209dc0a9e3116ae24613f1975",
    ("geant2", "random_ksp"):
        "ff3ec86a53c9ffe2990c2d36070d385cd674cdb7540c8e7d6ac3990ffc920401",
    ("synthetic-50", "shortest"):
        "4a0604e2d0ee40b2d6fbaeb25f5b656c69eb9a20cf080d5495d015bdc3dda537",
    ("synthetic-50", "random_weighted"):
        "07176bd520db8dd2df0093114fdd46a4a3eda16cbfe688e07a0f6ad94df8852a",
    ("synthetic-50", "random_ksp"):
        "0250276fe5c293306b3c02eb4aa93c7becbab67a1d885205120e2766a2748736",
    ("nsfnet", "onoff"):
        "e54b3c29e726b4c45bc02050b117441e96c2c28221d0518e5f0312d78b108197",
    ("nsfnet", "3-class"):
        "5b6ef545e0c1064c1a2814e6b6741a423a656f5f36c27721295f5e35dea3f0e0",
    ("nsfnet", "deterministic"):
        "51495e24a465413c35dc03cf9451f424a53b55f6242e704f2e558e22b810b4cf",
}

_VARIANTS = {
    "onoff": dict(arrivals="onoff"),
    "3-class": dict(num_classes=3),
    "deterministic": dict(arrivals="deterministic"),
}


def sample_digest(sample) -> str:
    h = hashlib.sha256()
    for values in (sample.delay, sample.jitter, sample.loss_rate):
        h.update(np.ascontiguousarray(values, dtype=np.float64).tobytes())
    h.update(json.dumps([list(pair) for pair in sample.pairs]).encode())
    h.update(json.dumps(sample.routing.to_dict(), sort_keys=True).encode())
    h.update(json.dumps(sample.meta, sort_keys=True).encode())
    return h.hexdigest()


def _generate(name: str, variant: str):
    make_topology, config = _TOPOLOGIES[name]
    if variant in _VARIANTS:
        config = replace(config, **_VARIANTS[variant])
    else:
        config = replace(config, routing_kinds=(variant,))
    return generate_sample(make_topology(), seed=14, config=config)


@pytest.mark.parametrize("key", sorted(GOLDEN), ids="/".join)
def test_generated_sample_matches_golden_digest(key):
    assert sample_digest(_generate(*key)) == GOLDEN[key]


@pytest.mark.parametrize("name", sorted(_TOPOLOGIES))
@pytest.mark.parametrize("weighted", [False, True], ids=["unit", "random"])
def test_iter_k_shortest_paths_equals_per_pair_search(name, weighted):
    topology = _TOPOLOGIES[name][0]()
    weights = (
        make_rng(3).uniform(0.5, 2.0, size=topology.num_links) if weighted else None
    )
    pairs = []
    for pair, options in iter_k_shortest_paths(topology, 3, weights):
        pairs.append(pair)
        assert options == k_shortest_paths(topology, *pair, 3, weights)
    assert pairs == list(topology.node_pairs())


def test_random_ksp_draws_one_option_per_pair_in_pair_order():
    topology = nsfnet()
    routing = RoutingScheme.random_ksp(topology, k=3, seed=5)
    rng = make_rng(5)
    for pair in topology.node_pairs():
        options = k_shortest_paths(topology, *pair, 3)
        chosen = options[int(rng.integers(0, len(options)))]
        assert routing.node_path(*pair) == tuple(chosen)

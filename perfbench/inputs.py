"""Seeded benchmark inputs.

The program under test receives only what this module makes from
``--seed``: the same seed gives the same samples, byte for byte.

* Training inputs follow the paper's recipe at benchmark scale: scenarios on
  NSFNET-14 and a 50-node synthetic network in the paper-small 36:14 ratio,
  and held-out scenarios on the unseen Geant2-24.  Both are fixed data
  sets, as a user trains on a fixed data set: the seed draws the model's
  initial weights and the trainer's batch order (:func:`training_seeds`),
  not the scenarios.  Scenarios drawn per seed made the work of an epoch
  depend on the seed (their routings set how many GRU steps a batch runs),
  by 12% between two seeds of the same recipe.  Labels come from the
  repository's packet-level simulator, which is slow, so the sets are made
  once per checkout in a separate process and kept under
  ``.perfbench/inputs``.
* Serving queries are what a planner asks: a topology (NSFNET-14 or
  Geant2-24), one of a few routings, and a fresh traffic matrix.  One query
  in four repeats a recent one.  Queries carry placeholder labels
  (serving never reads labels); the serving scaler is fitted on a small
  set labelled by the analytic M/M/1 model.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from repro.dataset import GenerationConfig, Sample, generate_dataset, load_dataset, save_dataset
from repro.queueing import QueueingNetworkModel
from repro.routing import RoutingScheme
from repro.topology import geant2, nsfnet, synthetic_topology
from repro.traffic import TrafficMatrix, scale_to_utilization, uniform_traffic

#: Bumped whenever the recipe below changes, so stale cached inputs are
#: never reused.
INPUT_VERSION = 3

#: Paper-small training mix (NSFNET-14 : synthetic-50 = 36 : 14).
TRAIN_NSFNET = 36
TRAIN_SYN50 = 14
#: Held-out scenarios on the unseen topology.
EVAL_GEANT2 = 16
HELD_OUT_SEED = 2019
TRAIN_SEED = 2018
#: The synthetic network is part of the workload definition, not of the
#: seeded input: every seed trains on the same 50-node graph.
SYN50_TOPOLOGY_SEED = 50

#: Short simulations: label quality is enough to train on, and a seed's
#: inputs take seconds, not minutes, to make.
NSFNET_GEN = GenerationConfig(target_packets_per_pair=60, min_delivered=10)
SYN50_GEN = GenerationConfig(
    target_packets_per_pair=60, min_delivered=10, active_fraction=0.1
)
GEANT2_GEN = GenerationConfig(
    target_packets_per_pair=60, min_delivered=10, active_fraction=0.4
)

#: Every ``REPEAT_EVERY``-th serving query repeats one of the last
#: ``REPEAT_WINDOW`` fresh ones (a fixed 1-in-4 share).
REPEAT_EVERY = 4
REPEAT_WINDOW = 16
#: Routings per serving topology (shortest path plus fixed random-weight ones).
SERVE_ROUTINGS = 4


def syn50():
    return synthetic_topology(50, seed=SYN50_TOPOLOGY_SEED)


def input_dir(root: Path) -> Path:
    return root / ".perfbench" / "inputs" / f"v{INPUT_VERSION}"


def training_seeds(seed: int) -> tuple[int, int]:
    """The model's and the trainer's seed for the benchmark's ``seed``."""
    model, trainer = np.random.default_rng([INPUT_VERSION, seed]).integers(0, 2**31 - 1, size=2)
    return int(model), int(trainer)


def make_training_inputs(root: Path, workers: int) -> None:
    """Simulate the training set and the held-out set (idempotent)."""
    directory = input_dir(root)
    if (directory / "complete").exists():
        return
    directory.mkdir(parents=True, exist_ok=True)
    save_dataset(
        generate_dataset(geant2(), EVAL_GEANT2, seed=HELD_OUT_SEED,
                         config=GEANT2_GEN, workers=workers),
        directory / "geant2.jsonl",
    )
    rng = np.random.default_rng([INPUT_VERSION, TRAIN_SEED])
    seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=3)]
    train = generate_dataset(
        nsfnet(), TRAIN_NSFNET, seed=seeds[0], config=NSFNET_GEN, workers=workers
    ) + generate_dataset(
        syn50(), TRAIN_SYN50, seed=seeds[1], config=SYN50_GEN, workers=workers
    )
    # Interleave the two topologies so fixed batches of 16 are mixed.
    order = np.random.default_rng(seeds[2]).permutation(len(train))
    save_dataset([train[i] for i in order], directory / "train.jsonl")
    (directory / "complete").write_text("ok\n")


def load_training_inputs(root: Path) -> tuple[list[Sample], list[Sample]]:
    """The training set and the held-out Geant2-24 set."""
    directory = input_dir(root)
    if not (directory / "complete").exists():
        raise FileNotFoundError("training inputs were not made")
    return load_dataset(directory / "train.jsonl"), load_dataset(directory / "geant2.jsonl")


class QueryMaker:
    """Seeded stream of serving queries on NSFNET-14 and Geant2-24.

    Fresh queries alternate between the two topologies and pick one of
    :data:`SERVE_ROUTINGS` fixed routings.  Each draws its own traffic
    matrix: every demand of the routing's base matrix times its own
    log-normal factor, times a random load level.  The topologies, routings
    and base matrices are part of the workload, so the work per query does
    not change with the seed; the seed picks the routing, the traffic and
    which earlier queries repeat.  Every :data:`REPEAT_EVERY`-th query is a
    content copy (a new object) of one of the last :data:`REPEAT_WINDOW`
    fresh ones.
    """

    def __init__(self, seed: int, stream: int = 0, bases: list | None = None) -> None:
        self._seed = seed
        self._rng = np.random.default_rng([INPUT_VERSION, seed, 7, stream])
        self._fresh = 0
        self._made = 0
        self._recent: list[Sample] = []
        self._bases = bases if bases is not None else self._make_bases()

    def stream(self, stream: int) -> "QueryMaker":
        """An independent query stream of the same seed (same topologies)."""
        return QueryMaker(self._seed, stream, self._bases)

    @staticmethod
    def _make_bases() -> list[list]:
        out: list[list] = []
        for topology in (nsfnet(), geant2()):
            routings = [RoutingScheme.shortest_path(topology)] + [
                RoutingScheme.random_weighted(topology, seed=k)
                for k in range(1, SERVE_ROUTINGS)
            ]
            bases = []
            for k, routing in enumerate(routings):
                base = scale_to_utilization(
                    uniform_traffic(topology.num_nodes, 1.0, seed=k), topology, routing, 0.5
                )
                pairs = tuple(p for p in base.nonzero_pairs() if p in routing)
                bases.append((topology, routing, base.rates, pairs))
            out.append(bases)
        return out

    def fresh(self) -> Sample:
        bases = self._bases[self._fresh % len(self._bases)]
        self._fresh += 1
        topology, routing, rates, pairs = bases[int(self._rng.integers(0, len(bases)))]
        noise = self._rng.lognormal(0.0, 0.3, size=rates.shape)
        level = float(self._rng.uniform(0.6, 1.5))
        n = len(pairs)
        return Sample(
            topology=topology,
            routing=routing,
            traffic=TrafficMatrix(rates * noise * level),
            pairs=pairs,
            delay=np.ones(n),
            jitter=np.zeros(n),
        )

    def query(self) -> Sample:
        self._made += 1
        if self._made % REPEAT_EVERY == 0:
            source = self._recent[int(self._rng.integers(0, len(self._recent)))]
            return dataclasses.replace(source)
        sample = self.fresh()
        self._recent.append(sample)
        del self._recent[:-REPEAT_WINDOW]
        return sample

    def queries(self, n: int) -> list[Sample]:
        return [self.query() for _ in range(n)]

    def labelled(self, n: int) -> list[Sample]:
        """Fresh queries with analytic M/M/1/B labels (for the scaler fit).

        Finite buffers keep every label finite when a query overloads a link.
        """
        model = QueueingNetworkModel(buffer_packets=64)
        out = []
        for _ in range(n):
            sample = self.fresh()
            pred = model.predict(
                sample.topology, sample.routing, sample.traffic, list(sample.pairs)
            )
            out.append(dataclasses.replace(sample, delay=pred.delay, jitter=pred.jitter))
        return out

"""The benchmark's own tests: output pins and a sensitivity self-test.

Run from the repository root (slow: a few minutes)::

    PYTHONPATH=src python3 -m pytest -q perfbench

The sensitivity self-test injects known slowdowns from outside the program
and checks that the benchmark's decision rule (median worse by more than
the metric's bound in ``BENCHMARK.json``) flags them on the workload that
runs the slowed code, and only there.  Base and injected runs alternate so
that drift of the machine affects both sides alike.

The GRU cells (forward and backward) take about a quarter of a training
step, so a 25% slower GRU moves ``item_ms`` of ``train`` by about 6% — less than
the 25% bound that run-to-run spread on a shared 2-core machine forces.
The test therefore slows the GRU by 150%, an effect the bound resolves.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import pytest

from perfbench import compare, inputs, workloads

SEED = 3
RUNS = 3
SECONDS = 3.0
GRU_SLOWDOWN = 1.5
SIM_DELAY_S = 0.5


@pytest.fixture(scope="module")
def root(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("checkout")
    inputs.make_training_inputs(root, workers=2)
    return root


def _run(root: Path, workload: str, seconds: float = SECONDS) -> workloads.Outcome:
    out = workloads.run(workload, root, SEED, seconds, trace=False,
                        work=root / ".perfbench" / "work" / workload)
    assert out.correct, out.checks
    assert out.failed == 0
    return out


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _slow_gru(monkeypatch) -> None:
    """Every GRU step, forward and backward, takes ``GRU_SLOWDOWN`` longer."""
    from repro.nn.rnn import GRUCell

    original = GRUCell.step_precomputed

    def slowed(fn):
        def wrapper(*args):
            started = time.perf_counter()
            result = fn(*args)
            _spin(GRU_SLOWDOWN * (time.perf_counter() - started))
            return result

        return wrapper

    def step_precomputed(self, gates_x, h):
        out = slowed(original)(self, gates_x, h)
        if out._backward is not None:
            out._backward = slowed(out._backward)
        return out

    monkeypatch.setattr(GRUCell, "step_precomputed", step_precomputed)


def _slow_simulator(monkeypatch) -> None:
    """Every simulated scenario takes ``SIM_DELAY_S`` longer."""
    import repro.dataset.generate as generate_mod

    original = generate_mod.simulate

    def simulate(*args, **kwargs):
        time.sleep(SIM_DELAY_S)
        return original(*args, **kwargs)

    monkeypatch.setattr(generate_mod, "simulate", simulate)


def test_train_and_train_stream_reach_the_bitwise_same_loss(root):
    eager = _run(root, "train", seconds=1.0)
    stream = _run(root, "train-stream", seconds=1.0)
    assert eager.details["loss_final"] == stream.details["loss_final"]
    assert stream.checks["loss_matches_other_training_workload"]


def _worse(spec, name, base, slowed) -> float:
    return compare.worse_by(statistics.median(base), statistics.median(slowed),
                            spec[name]["better"])


def test_injected_slowdowns_show_only_where_the_slowed_code_runs(root):
    spec = compare.load_spec()
    metric = {"train": "item_ms", "generate": "item_ms"}
    values = {(w, kind): [] for w in metric for kind in ("base", "gru", "sim")}
    for _ in range(RUNS):
        for workload, name in metric.items():
            for kind in ("base", "gru", "sim"):
                with pytest.MonkeyPatch.context() as patch:
                    if kind == "gru":
                        _slow_gru(patch)
                    elif kind == "sim":
                        _slow_simulator(patch)
                    values[(workload, kind)].append(_run(root, workload).metrics[name][0])

    def worse(workload, kind):
        name = metric[workload]
        return _worse(spec, name, values[(workload, "base")], values[(workload, kind)])

    bound = {w: spec[name]["bound"] for w, name in metric.items()}
    assert worse("train", "gru") > bound["train"], values
    assert worse("generate", "gru") <= bound["generate"], values
    assert worse("generate", "sim") > bound["generate"], values
    assert worse("train", "sim") <= bound["train"], values

#!/usr/bin/env python
"""Training-throughput benchmark: fused-batch steps vs the per-sample loop.

Trains RouteNet on simulated NSFNET scenarios at batch sizes B in {1, 4, 16}
and reports, per batch size:

* ``samples_per_sec`` / ``steps_per_sec`` — end-to-end training throughput
  of the *fastest* timed epoch (epoch 1 is a warmup that populates the input
  cache, the plan memo and the fused-batch cache, exactly like a real run;
  best-of is the standard noise-robust estimator for throughput on shared
  machines — the slow epochs measure the machine, the fast ones the code);
* ``stages`` — per-stage wall-time breakdown (``prepare`` = input build +
  batch packing, ``forward``, ``backward``, ``optimizer`` = clip + Adam),
  measured with monkeypatched timers in a separate instrumented epoch so the
  headline throughput numbers stay unperturbed;
* ``alloc_blocks`` / ``alloc_kib`` — tracemalloc block and KiB deltas for
  one steady-state epoch (lower = the allocation discipline is working);
* ``peak_rss_kib`` — ``ru_maxrss`` after the run.

A second axis sweeps the data-parallel trainer (``Trainer.parallel_stepper``)
over worker counts W in {1, 2, 4} at a fixed batch size: W=1 runs the shard
loop inline, W>1 fans shards over a persistent process pool with the
bitwise-deterministic reduction.  ``config.cores`` records the CPUs actually
schedulable for this process — on a single-core box the multi-worker rows
measure dispatch overhead, not speedup, and the gate below stays honest
because it is *relative to the committed baseline measured on the same
class of machine*.

Output schema (``BENCH_training.json``)::

    {
      "benchmark": "training_throughput",
      "config": {"topology": "nsfnet", "num_samples": ..., "epochs_timed": ...,
                 "hparams": {...}, "quick": bool, "cores": int,
                 "workers_batch_size": int},
      "results": [
        {"batch_size": B, "samples_per_sec": float, "steps_per_sec": float,
         "epoch_seconds": float,            # fastest timed epoch
         "epoch_seconds_all": [float, ...], # every timed epoch, in order
         "loss_final": float,
         "stages": {"prepare": s, "forward": s, "backward": s, "optimizer": s},
         "alloc_blocks": int, "alloc_kib": float, "peak_rss_kib": int},
        ...
      ],
      "results_workers": [
        {"workers": W, "samples_per_sec": float, "steps_per_sec": float,
         "epoch_seconds": float, "epoch_seconds_all": [...],
         "loss_final": float, "worker_starts": int, "restarts": int},
        ...
      ],
      "streaming": {                   # eager-list vs stream+prefetch axis
        "replication": int,            # oversize factor (>= 4 for the gate)
        "oversize_samples": int, "epochs": int, "batch_size": int,
        "eager":  {"rss_before_load_kib": int, "rss_after_load_kib": int,
                   "dataset_resident_kib": int, "load_s": s, "prepare_s": s,
                   "fit_s": s, "peak_rss_kib": int, "loss_digest": str},
        "stream": {... same row, measured in its own subprocess ...},
        "rss_ratio": float, "prepare_ratio": float, "digest_match": bool
      },
      "arena": {                       # measured by the dataflow recorder
        "budgets": {family: {"tape_arena_bytes": int,     # RP604 budget
                             "peak_tape_bytes": int,
                             "values": int}},
        "per_round": {family: {round: {"buffers": int, "bytes": int}}}
      },
      "speedup_b16_vs_b1": float,
      "speedup_w4_vs_w1": float
    }

The ``arena`` section records one real fused forward+backward per paper
topology family (NSFNET, Geant2, 50-node synthetic) through
``repro.analysis.dataflow``: the planned tape-arena size becomes the
committed RP604 budget — so the static-analysis gate's ceilings come from
benched reality, not hand-picked numbers — plus the per-round buffer-count
stats behind it.  It is deterministic for fixed model dims (structure, not
timing), so quick and full runs agree.

The ``streaming`` axis trains over an oversized synthetic dataset
(content-varying replicas of the base scenarios) twice — once from an eager
in-RAM sample list, once from a converted stream dataset with ``prefetch=1``
— each in its own subprocess (``ru_maxrss`` is monotonic per process).  RSS
is sampled before and after the dataset load, separating dataset-resident
bytes from the training working set.

``--check BASELINE.json`` compares the measured B=16-vs-B=1 and W=4-vs-W=1
speedup ratios against the committed baseline's and fails (exit 1) when
either falls below 80% of its committed value — a machine-independent
regression gate (absolute samples/sec are hardware-dependent; the *ratios*
are not, as long as the core count class matches the baseline's).  It also
enforces three absolute streaming gates: the stream probe's loss digest
must equal the eager probe's (bitwise trajectory parity), its peak RSS
must stay below the eager probe's at >= 4x dataset size, and its
in-process prepare time must be <= 20% of the eager baseline's (the
prefetch worker, not the training loop, packs the batches).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro import nn  # noqa: E402
from repro.core import HyperParams, RouteNet  # noqa: E402
from repro.dataset import GenerationConfig, generate_dataset  # noqa: E402
from repro.topology import nsfnet  # noqa: E402
from repro.training import Trainer  # noqa: E402

BATCH_SIZES = (1, 4, 16)
WORKER_COUNTS = (1, 2, 4)
WORKERS_BATCH_SIZE = 16
#: Oversize factor of the streaming-vs-eager dataset (content-varying
#: replicas of the base set).  The RSS gate requires >= 4.
STREAM_REPLICATION = 8
STREAM_BATCH_SIZE = 8
STREAM_EPOCHS = 2

FAST_GEN = GenerationConfig(
    target_packets_per_pair=60.0,
    min_delivered=10,
    intensity_range=(0.3, 0.7),
)


def make_trainer(samples, hparams: HyperParams, seed: int) -> Trainer:
    model = RouteNet(hparams, seed=seed)
    trainer = Trainer(model, seed=seed + 1)
    from repro.dataset import fit_scaler

    trainer.scaler = fit_scaler(samples)
    return trainer


def run_epoch(trainer: Trainer, samples, batch_size: int) -> float:
    """One pass over ``samples`` at ``batch_size``; returns the mean loss."""
    if batch_size == 1:
        losses = [trainer.train_step(s) for s in samples]
    else:
        losses = [
            trainer.train_step_batch(samples[i : i + batch_size])
            for i in range(0, len(samples), batch_size)
        ]
    return float(np.mean(losses))


def timed_stages(trainer: Trainer, samples, batch_size: int) -> dict[str, float]:
    """Per-stage seconds for one epoch, via wrapped trainer internals."""
    stages = {"prepare": 0.0, "forward": 0.0, "backward": 0.0, "optimizer": 0.0}

    def wrap(obj, name, stage):
        original = getattr(obj, name)

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            out = original(*args, **kwargs)
            stages[stage] += time.perf_counter() - t0
            return out

        setattr(obj, name, timed)
        return original

    model = trainer.model
    saved = [
        (trainer, "_prepare", wrap(trainer, "_prepare", "prepare")),
        (trainer, "_prepare_batch", wrap(trainer, "_prepare_batch", "prepare")),
        (model, "forward", wrap(model, "forward", "forward")),
        (trainer._optimizer, "step", wrap(trainer._optimizer, "step", "optimizer")),
    ]
    original_backward = nn.Tensor.backward

    def timed_backward(self, *args, **kwargs):
        t0 = time.perf_counter()
        out = original_backward(self, *args, **kwargs)
        stages["backward"] += time.perf_counter() - t0
        return out

    nn.Tensor.backward = timed_backward
    try:
        run_epoch(trainer, samples, batch_size)
    finally:
        nn.Tensor.backward = original_backward
        for obj, name, original in saved:
            setattr(obj, name, original)
    return stages


def bench_batch_size(samples, hparams, batch_size, timed_epochs, seed=0):
    trainer = make_trainer(samples, hparams, seed)
    run_epoch(trainer, samples, batch_size)  # warmup: fills every cache

    loss = float("nan")
    epoch_times = []
    for _ in range(timed_epochs):
        t0 = time.perf_counter()
        loss = run_epoch(trainer, samples, batch_size)
        epoch_times.append(time.perf_counter() - t0)
    fastest = min(epoch_times)

    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    run_epoch(trainer, samples, batch_size)
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    deltas = after.compare_to(before, "lineno")
    alloc_blocks = sum(d.count_diff for d in deltas if d.count_diff > 0)
    alloc_kib = sum(d.size_diff for d in deltas if d.size_diff > 0) / 1024.0

    stages = timed_stages(trainer, samples, batch_size)

    steps_per_epoch = (len(samples) + batch_size - 1) // batch_size
    return {
        "batch_size": batch_size,
        "samples_per_sec": round(len(samples) / fastest, 2),
        "steps_per_sec": round(steps_per_epoch / fastest, 2),
        "epoch_seconds": round(fastest, 4),
        "epoch_seconds_all": [round(t, 4) for t in epoch_times],
        "loss_final": round(loss, 6),
        "stages": {k: round(v, 4) for k, v in stages.items()},
        "alloc_blocks": int(alloc_blocks),
        "alloc_kib": round(alloc_kib, 1),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def bench_workers(samples, hparams, workers, timed_epochs,
                  batch_size=WORKERS_BATCH_SIZE, seed=0):
    """One data-parallel training config: W workers over fixed-size batches."""
    trainer = make_trainer(samples, hparams, seed)
    batch_indices = [
        tuple(range(i, min(i + batch_size, len(samples))))
        for i in range(0, len(samples), batch_size)
    ]

    def run_parallel_epoch(stepper):
        stepped = [stepper.step(idx) for idx in batch_indices]
        losses = [loss for loss, _ in stepped]
        weights = [paths for _, paths in stepped]
        return float(np.average(losses, weights=weights))

    with trainer.parallel_stepper(samples, workers=workers) as stepper:
        run_parallel_epoch(stepper)  # warmup: caches + worker replicas
        loss = float("nan")
        epoch_times = []
        for _ in range(timed_epochs):
            t0 = time.perf_counter()
            loss = run_parallel_epoch(stepper)
            epoch_times.append(time.perf_counter() - t0)
        stats = stepper.pool_stats
    fastest = min(epoch_times)
    return {
        "workers": workers,
        "samples_per_sec": round(len(samples) / fastest, 2),
        "steps_per_sec": round(len(batch_indices) / fastest, 2),
        "epoch_seconds": round(fastest, 4),
        "epoch_seconds_all": [round(t, 4) for t in epoch_times],
        "loss_final": round(loss, 6),
        "worker_starts": stats.worker_starts if stats is not None else 0,
        "restarts": stats.restarts if stats is not None else 0,
    }


def _proc_status_kib(field: str) -> int | None:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _rss_now_kib() -> int:
    """Current resident set size (KiB)."""
    now = _proc_status_kib("VmRSS")
    if now is not None:
        return now
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _rss_peak_kib() -> int:
    """Peak resident set size (KiB) since exec.

    ``ru_maxrss`` survives ``exec`` — a child forked from a large parent
    inherits the parent's copy-on-write peak and reports it forever — so the
    probes read ``VmHWM`` (reset when the new image is mapped) and fall back
    to ``ru_maxrss`` only off Linux.
    """
    peak = _proc_status_kib("VmHWM")
    if peak is not None:
        return peak
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_probe(args) -> int:
    """Child-process body of the streaming axis (``--probe eager|stream``).

    ``ru_maxrss`` is monotonic per process, so the eager and streaming
    passes each run in a fresh subprocess; this function measures one of
    them and writes its JSON row to ``--probe-out``.  RSS is sampled before
    and after the dataset load so dataset-resident bytes separate cleanly
    from the training working set.
    """
    import hashlib

    from repro.dataset import StreamDataset, load_dataset

    rss_before_load = _rss_now_kib()
    t0 = time.perf_counter()
    if args.probe == "eager":
        samples = load_dataset(args.probe_data)
        prefetch = None
    else:
        samples = StreamDataset(args.probe_data, cache_samples=8)
        prefetch = 1
    load_s = time.perf_counter() - t0
    rss_after_load = _rss_now_kib()

    trainer = Trainer(RouteNet(HyperParams(), seed=0), seed=5)
    prepare = {"seconds": 0.0}
    for name in ("_prepare", "_prepare_batch"):
        original = getattr(trainer, name)

        def timed(*a, _original=original, **kw):
            t = time.perf_counter()
            out = _original(*a, **kw)
            prepare["seconds"] += time.perf_counter() - t
            return out

        setattr(trainer, name, timed)

    t0 = time.perf_counter()
    history = trainer.fit(
        samples, epochs=args.probe_epochs, batch_size=args.probe_batch,
        prefetch=prefetch,
    )
    fit_s = time.perf_counter() - t0
    losses = np.asarray([e.train_loss for e in history.epochs], dtype=np.float64)
    row = {
        "mode": args.probe,
        "num_samples": len(samples),
        "rss_before_load_kib": rss_before_load,
        "rss_after_load_kib": rss_after_load,
        "dataset_resident_kib": rss_after_load - rss_before_load,
        "load_s": round(load_s, 4),
        "prepare_s": round(prepare["seconds"], 4),
        "fit_s": round(fit_s, 4),
        "peak_rss_kib": _rss_peak_kib(),
        "loss_digest": hashlib.sha256(losses.tobytes()).hexdigest(),
    }
    Path(args.probe_out).write_text(json.dumps(row, indent=2) + "\n")
    return 0


def bench_streaming(samples, replication, tmp_dir) -> dict:
    """Eager-list vs stream+prefetch training over an oversized dataset.

    The oversized set is ``replication`` content-varying replicas of the
    base scenarios (traffic scaled by a distinct factor per replica, so the
    content-addressed input cache cannot dedupe them — like a real dataset
    of distinct samples).  Each mode runs in its own subprocess; equal loss
    digests prove the streaming pipeline reproduces eager training bitwise
    while its RSS stays flat.
    """
    import subprocess
    from dataclasses import replace as dc_replace

    from repro.dataset import save_dataset, write_stream_dataset
    from repro.traffic import TrafficMatrix

    oversized = [
        dc_replace(s, traffic=TrafficMatrix(s.traffic.rates * (1.0 + 1e-4 * k)))
        for k in range(replication)
        for s in samples
    ]
    tmp = Path(tmp_dir)
    jsonl = tmp / "oversized.jsonl"
    stream_dir = tmp / "oversized.stream"
    save_dataset(oversized, jsonl)
    write_stream_dataset(oversized, stream_dir, overwrite=True)

    rows = {}
    for mode, data in (("eager", jsonl), ("stream", stream_dir)):
        out = tmp / f"probe_{mode}.json"
        print(f"  probe {mode}: fitting {len(oversized)} samples "
              f"(B={STREAM_BATCH_SIZE}, {STREAM_EPOCHS} epochs) ...",
              flush=True)
        subprocess.run(
            [sys.executable, __file__, "--probe", mode,
             "--probe-data", str(data), "--probe-out", str(out),
             "--probe-epochs", str(STREAM_EPOCHS),
             "--probe-batch", str(STREAM_BATCH_SIZE)],
            check=True,
        )
        rows[mode] = json.loads(out.read_text())

    eager, stream = rows["eager"], rows["stream"]
    return {
        "replication": replication,
        "oversize_samples": len(oversized),
        "epochs": STREAM_EPOCHS,
        "batch_size": STREAM_BATCH_SIZE,
        "eager": eager,
        "stream": stream,
        "rss_ratio": round(stream["peak_rss_kib"] / eager["peak_rss_kib"], 4),
        "prepare_ratio": round(
            stream["prepare_s"] / eager["prepare_s"], 4
        ) if eager["prepare_s"] > 0 else 0.0,
        "digest_match": eager["loss_digest"] == stream["loss_digest"],
    }


def check_streaming(streaming: dict) -> list[str]:
    """Absolute gates of the streaming axis (machine-independent)."""
    failures = []
    if streaming["replication"] < 4:
        failures.append(
            f"streaming axis replication {streaming['replication']} < 4"
        )
    if not streaming["digest_match"]:
        failures.append(
            "streaming loss digest differs from eager — the prefetch "
            "pipeline is no longer bitwise-identical"
        )
    eager, stream = streaming["eager"], streaming["stream"]
    if stream["peak_rss_kib"] >= eager["peak_rss_kib"]:
        failures.append(
            f"streaming peak RSS {stream['peak_rss_kib']} KiB >= eager "
            f"{eager['peak_rss_kib']} KiB — streaming no longer bounds "
            f"resident memory"
        )
    if stream["prepare_s"] > 0.2 * eager["prepare_s"]:
        failures.append(
            f"streaming in-process prepare {stream['prepare_s']:.3f}s > 20% "
            f"of eager {eager['prepare_s']:.3f}s — prefetch is not "
            f"offloading batch packing"
        )
    return failures


def measure_arena() -> dict:
    """Per-family arena budgets + per-round buffer stats (deterministic).

    Records one real fused step per paper topology family via the dataflow
    recorder; the planned tape-arena size is what RP604 gates against.
    """
    from repro.analysis.dataflow import run_dataflow

    findings, payload = run_dataflow(repo_root=None)
    if findings:  # the tape must be clean before its size becomes a budget
        raise RuntimeError(
            "dataflow findings on the recorded tape: "
            + "; ".join(f"{f.code} {f.path}" for f in findings)
        )
    budgets = {}
    per_round = {}
    for family, stats in payload["families"].items():
        budgets[family] = {
            "tape_arena_bytes": stats["tape_arena_bytes"],
            "peak_tape_bytes": stats["peak_tape_bytes"],
            "values": stats["values"],
        }
        per_round[family] = stats["rounds"]
    return {"budgets": budgets, "per_round": per_round}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small dataset / few epochs (CI smoke run)")
    parser.add_argument("--output", default="BENCH_training.json",
                        help="where to write the JSON report")
    parser.add_argument("--check", metavar="BASELINE.json",
                        help="fail if the measured B=16 vs B=1 speedup drops "
                             "below 80%% of this committed baseline's")
    parser.add_argument("--samples", type=int, default=None,
                        help="override the number of NSFNET scenarios")
    parser.add_argument("--epochs", type=int, default=None,
                        help="override the number of timed epochs")
    parser.add_argument("--replication", type=int, default=STREAM_REPLICATION,
                        help="oversize factor of the streaming-axis dataset "
                             "(>= 4 for the RSS gate)")
    # Internal: child-process mode of the streaming axis.
    parser.add_argument("--probe", choices=("eager", "stream"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--probe-data", help=argparse.SUPPRESS)
    parser.add_argument("--probe-out", help=argparse.SUPPRESS)
    parser.add_argument("--probe-epochs", type=int, default=STREAM_EPOCHS,
                        help=argparse.SUPPRESS)
    parser.add_argument("--probe-batch", type=int, default=STREAM_BATCH_SIZE,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe:
        return run_probe(args)

    num_samples = args.samples or (16 if args.quick else 48)
    timed_epochs = args.epochs or (1 if args.quick else 3)
    hparams = HyperParams()  # the NSFNET training config: paper defaults

    print(f"generating {num_samples} NSFNET scenarios ...", flush=True)
    samples = generate_dataset(nsfnet(), num_samples, seed=101, config=FAST_GEN)

    results = []
    for batch_size in BATCH_SIZES:
        print(f"batch_size={batch_size}: training ...", flush=True)
        row = bench_batch_size(samples, hparams, batch_size, timed_epochs)
        results.append(row)
        print(f"  {row['samples_per_sec']:.1f} samples/s  "
              f"{row['steps_per_sec']:.1f} steps/s  "
              f"alloc {row['alloc_blocks']} blocks  "
              f"stages {row['stages']}", flush=True)

    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cores = os.cpu_count() or 1
    results_workers = []
    # A quick run times one epoch, which for the workers axis is a single
    # 16-sample step — too noisy for a ratio gate.  Best-of-3 floors the
    # variance at negligible cost (each extra epoch is one step).
    workers_epochs = max(timed_epochs, 3)
    for workers in WORKER_COUNTS:
        print(f"workers={workers}: training (B={WORKERS_BATCH_SIZE}) ...",
              flush=True)
        row = bench_workers(samples, hparams, workers, workers_epochs)
        results_workers.append(row)
        print(f"  {row['samples_per_sec']:.1f} samples/s  "
              f"{row['steps_per_sec']:.1f} steps/s  "
              f"worker_starts {row['worker_starts']}", flush=True)

    by_b = {r["batch_size"]: r for r in results}
    by_w = {r["workers"]: r for r in results_workers}
    speedup = by_b[16]["samples_per_sec"] / by_b[1]["samples_per_sec"]
    w_top = max(WORKER_COUNTS)
    speedup_w = by_w[w_top]["samples_per_sec"] / by_w[1]["samples_per_sec"]
    print("streaming axis: eager vs stream+prefetch subprocess probes ...",
          flush=True)
    import tempfile

    with tempfile.TemporaryDirectory(prefix="bench_stream_") as tmp_dir:
        streaming = bench_streaming(samples, args.replication, tmp_dir)
    print(f"  eager:  dataset {streaming['eager']['dataset_resident_kib']} KiB "
          f"resident, prepare {streaming['eager']['prepare_s']:.2f}s, "
          f"peak RSS {streaming['eager']['peak_rss_kib']} KiB", flush=True)
    print(f"  stream: dataset {streaming['stream']['dataset_resident_kib']} KiB "
          f"resident, prepare {streaming['stream']['prepare_s']:.2f}s, "
          f"peak RSS {streaming['stream']['peak_rss_kib']} KiB "
          f"(RSS ratio {streaming['rss_ratio']:.2f}, digest match "
          f"{streaming['digest_match']})", flush=True)

    print("recording per-family tape arenas ...", flush=True)
    arena = measure_arena()
    for family, budget in arena["budgets"].items():
        print(f"  {family}: tape arena {budget['tape_arena_bytes']} B",
              flush=True)

    report = {
        "benchmark": "training_throughput",
        "config": {
            "topology": "nsfnet",
            "num_samples": num_samples,
            "epochs_timed": timed_epochs,
            "hparams": hparams.to_dict(),
            "quick": bool(args.quick),
            "cores": cores,
            "workers_batch_size": WORKERS_BATCH_SIZE,
        },
        "results": results,
        "results_workers": results_workers,
        "streaming": streaming,
        "arena": arena,
        "speedup_b16_vs_b1": round(speedup, 3),
        "speedup_w4_vs_w1": round(speedup_w, 3),
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"B=16 vs B=1 speedup: {speedup:.2f}x  "
          f"W={w_top} vs W=1 speedup: {speedup_w:.2f}x ({cores} cores)  "
          f"->  {args.output}")

    if args.check:
        baseline = json.loads(Path(args.check).read_text())
        gates = [("B=16 vs B=1", speedup, baseline["speedup_b16_vs_b1"])]
        if "speedup_w4_vs_w1" in baseline:
            gates.append(("W=4 vs W=1", speedup_w, baseline["speedup_w4_vs_w1"]))
        failed = False
        for label, measured, committed in gates:
            floor = 0.8 * committed
            if measured < floor:
                print(f"REGRESSION: {label} speedup {measured:.2f}x < 80% of "
                      f"committed baseline {committed:.2f}x (floor {floor:.2f}x)")
                failed = True
            else:
                print(f"check OK: {label} speedup {measured:.2f}x >= floor "
                      f"{floor:.2f}x (baseline {committed:.2f}x)")
        for failure in check_streaming(streaming):
            print(f"REGRESSION: {failure}")
            failed = True
        if not check_streaming(streaming):
            print(f"check OK: streaming peak RSS "
                  f"{streaming['rss_ratio']:.2f}x of eager, prepare "
                  f"{streaming['prepare_ratio']:.2f}x of eager, loss digest "
                  f"matches at {streaming['replication']}x dataset size")
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The four benchmark workloads: ``train``, ``train-stream``, ``serve``, ``generate``.

Each workload drives only the program's public entry points, times them
from outside, checks the outputs, and returns an :class:`Outcome`.  With
``trace=False`` the outcome holds the end-to-end metrics; with
``trace=True`` it runs the same work twice, untraced and then traced, and
holds the per-layer metrics, the traced run's coverage and the tracing
overhead (traced minus untraced wall time of the same work).

Every workload reports the same end-to-end metrics, so that each one can be
compared across workloads and commits: ``setup_s``, ``peak_rss_mib`` and
``item_ms``, the wall time of one item of the workload's work -- one
training sample (``train``, ``train-stream``), one query at the fixed high
rate from its scheduled arrival (``serve``, median latency), one simulated
scenario (``generate``).  Both times are scaled to a nominal host speed
measured in the same run (:mod:`perfbench.host`).  Workload-specific
figures (throughputs, the training loss, the held-out error, the latency
at the mid rate) are kept in the outcome's details.

Set-up (``setup_s``) is everything before the first timed operation:
construction, scaler fit, shard conversion, pool start and the
cache-filling first epoch or warm-up.  It is repeated
:data:`SETUP_REPS` times per run and reported as the median.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core import RouteNet
from repro.dataset import (
    Sample,
    StreamDataset,
    fit_scaler,
    generate_dataset_run,
    write_stream_dataset,
)
from repro.errors import AdmissionError, DatasetError, DeadlineExceededError
from repro.experiments.profiles import PAPER_SMALL
from repro.serving import InferenceEngine, ServeConfig, ServingService
from repro.topology import geant2, nsfnet
from repro.training import Trainer
from repro.training.schedule import EarlyStopping

from . import inputs
from .env import cores, peak_rss_mib
from .host import HostSpeed
from .trace import Tracer, instrument

_clock = time.perf_counter

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5
HPARAMS = PAPER_SMALL.hyperparams
#: Seed of the serving model's weights.
MODEL_SEED = 0
BATCH_SIZE = 16
#: The final training loss is the loss of this epoch (epoch 1 is the
#: cache-filling set-up epoch); every run trains at least this far, so the
#: loss and the held-out error are the same on every run of a seed however
#: fast the code is.  It is early on purpose: further down the descent the
#: pace at which each seed's data is learned spreads the loss by 15%.
LOSS_EPOCH = 3
#: Epochs of each pass in a traced run (untraced, then traced).
TRACE_EPOCHS = LOSS_EPOCH + 2

#: Fixed offered loads (req/s), about 0.2x and 0.4x of the closed-loop
#: capacity this query mix reaches on a shared 2-core machine (140-240
#: req/s, depending on the neighbours).  At 0.4x and 0.8x the medians moved
#: by 30-60% from run to run.  They are constants on purpose: a faster
#: server must show lower latency at the same load, not be offered more.
MID_RPS = 35.0
HIGH_RPS = 70.0
#: An untraced run spends all of ``--seconds`` at the high rate, whose
#: median latency is ``item_ms``.  A traced run runs the closed-loop
#: capacity probe (``MIN_BURSTS`` bursts, untraced and traced) and each
#: open-loop phase for this share of ``--seconds``.
PHASE_SHARE = 0.4
MIN_BURSTS = 3
#: Each open-loop phase runs as back-to-back windows of this many requests,
#: each drained before the next starts, so a backlog never carries over.
#: The 99th percentile is taken per window and the median window reported:
#: a stall of the host inflates the window it falls in, not the metric.
#: The median latency is pooled over the phase, which a stall barely moves;
#: over three sets of ten runs it spread by 4-12% against 8-14% for the
#: median window's.
WINDOW_REQUESTS = 80
#: Per-request latency limit, passed to the service as the deadline.  A
#: rejected, expired or failed request counts as a miss and enters the
#: percentiles at no less than this.
LATENCY_LIMIT_MS = 250.0
#: Closed-loop burst size, below the default queue depth of 256.
BURST = 192
WARMUP_QUERIES = 32
#: Served and offline predictions are computed in different batches, so
#: BLAS may sum in a different order; they must agree to this relative error.
SERVE_RTOL = 1e-9

#: Scenarios per routing kind and topology in one generation round.  Each
#: (topology, routing kind) pair is its own call with the kind fixed, so
#: every round has the same mix: k-shortest-path routing on the 50-node
#: network costs several times a shortest-path scenario, and a seed-drawn
#: mix would make the work per round depend on the seed.
GEN_ROUND = (("nsfnet", 2), ("geant2", 2), ("synthetic-50", 2))
GEN_KINDS = ("shortest", "random_weighted", "random_ksp")
GEN_CONFIGS = {
    "nsfnet": inputs.NSFNET_GEN,
    "geant2": inputs.GEANT2_GEN,
    "synthetic-50": inputs.SYN50_GEN,
}
WARMUP_SEED = 2019

#: How strongly each workload's times follow the host's speed, for
#: :meth:`HostSpeed.scale`: the slope of log raw ``item_ms`` against log
#: kernel time over 19-23 runs of the workload (three sets of five to ten
#: seeds) that caught a shared 2-core machine in both its slow and its fast
#: state.  Training runs partly in larger numpy operations than the kernel
#: and follows the host less; generation is interpreter code and follows it
#: slightly more.
HOST_ELASTICITY = {"train": 0.7, "train-stream": 0.8, "serve": 0.9, "generate": 1.1}


@dataclass
class Outcome:
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    tracer: Tracer | None = None

    def check(self, name: str, ok: bool) -> bool:
        self.checks[name] = bool(ok)
        return bool(ok)

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def _first_quartile(seconds: list[float]) -> float:
    """First quartile of repeated timings of the same work.

    On a shared machine other tenants only ever slow a repetition down, so
    the faster repetitions measure the code and the slow tail measures the
    neighbours; the first quartile is robust to both the tail and a single
    lucky repetition.
    """
    if len(seconds) < 2:
        return seconds[0]
    return statistics.quantiles(seconds, n=4, method="inclusive")[0]


# ----------------------------------------------------------------------
# train / train-stream
# ----------------------------------------------------------------------
class _EpochBudget(EarlyStopping):
    """Ends ``Trainer.fit`` on the benchmark's schedule.

    ``fit`` consults its early-stopping object after every epoch, outside
    the epoch's own timing, which is where this class records set-up end,
    the loss at :data:`LOSS_EPOCH` and the held-out evaluation, and samples
    the host's speed.
    """

    def __init__(self, *, seconds: float = 0.0, epochs: int | None = None,
                 at_loss_epoch=None, host: HostSpeed | None = None) -> None:
        super().__init__(patience=1)
        self.seconds = seconds
        self.epochs = epochs
        self.at_loss_epoch = at_loss_epoch
        self.host = host
        self.epoch = 0
        self.setup_end = 0.0
        self.last_epoch_end = 0.0
        self.untimed = 0.0
        self.loss = math.nan

    def should_stop(self, metric: float) -> bool:
        now = self.last_epoch_end = _clock()
        self.epoch += 1
        if self.epoch == 1:
            self.setup_end = now
        if self.epoch == LOSS_EPOCH:
            self.loss = metric
            if self.at_loss_epoch is not None:
                self.at_loss_epoch()
                self.untimed += _clock() - now
        if self.host is not None:
            started = _clock()
            self.host.sample()
            self.untimed += _clock() - started
        if self.epochs is not None:
            return self.epoch >= self.epochs
        timed = _clock() - self.setup_end - self.untimed
        return self.epoch >= LOSS_EPOCH and timed >= self.seconds


def _training_pass(train, held_out, work: Path, seed: int, *, stream: bool,
                   seconds: float = 0.0, epochs: int | None = None, evaluate: bool = False,
                   host: HostSpeed | None = None):
    """One set-up and the epochs after it: ``epochs`` in all when given,
    else timed epochs for ``seconds`` and at least :data:`LOSS_EPOCH`."""
    started = _clock()
    source = train
    if stream:
        directory = work / "train.stream"
        write_stream_dataset(train, directory, overwrite=True)
        source = StreamDataset(directory)
    model_seed, trainer_seed = inputs.training_seeds(seed)
    trainer = Trainer(RouteNet(HPARAMS, seed=model_seed), seed=trainer_seed)
    evaluation = {}

    def at_loss_epoch():
        evaluation["result"] = trainer.evaluate(held_out)

    budget = _EpochBudget(
        seconds=seconds, epochs=epochs, at_loss_epoch=at_loss_epoch if evaluate else None,
        host=host,
    )
    history = trainer.fit(
        source, epochs=10**6, batch_size=BATCH_SIZE,
        prefetch=1 if stream else None, early_stopping=budget,
    )
    return {
        "setup_s": budget.setup_end - started,
        "started": started,
        "setup_end": budget.setup_end,
        "history": history,
        "budget": budget,
        "evaluation": evaluation.get("result"),
        "source": source,
    }


def _verifies(stream: StreamDataset) -> bool:
    """Whether every shard's checksum matches its manifest."""
    try:
        stream.verify()
    except DatasetError:
        return False
    return True


def _report(out: Outcome, workload: str, setups: list[float], item_s: float,
            host: HostSpeed) -> None:
    """``setup_s`` and ``item_ms``, scaled to the nominal host speed."""
    scale = host.scale(HOST_ELASTICITY[workload])
    setup_s = statistics.median(setups)
    out.metrics["setup_s"] = (setup_s * scale, "s")
    out.metrics["item_ms"] = (1000.0 * item_s * scale, "ms")
    out.details.update(setup_s_raw=setup_s, item_ms_raw=1000.0 * item_s,
                       host_kernel_s=host.median_s(),
                       host_kernel_parts_s=host.median_parts_s(),
                       host_scale=scale, host_samples=len(host.samples))


def _steps_per_epoch(n: int) -> int:
    return -(-n // BATCH_SIZE)


def _cross_check_loss(root: Path, seed: int, workload: str, loss: float, out: Outcome) -> None:
    """``train`` and ``train-stream`` must reach the bitwise-same loss.

    Each run leaves its loss next to the inputs; whichever of the two runs
    of a seed runs second compares.
    """
    directory = inputs.input_dir(root)
    mine = directory / f"loss-{workload}-seed{seed}.txt"
    mine.write_text(float(loss).hex() + "\n")
    other = directory / f"loss-{'train-stream' if workload == 'train' else 'train'}-seed{seed}.txt"
    if other.exists():
        out.details["loss_other_workload"] = other.read_text().strip()
        out.check("loss_matches_other_training_workload",
                  other.read_text().strip() == float(loss).hex())


def run_training(root: Path, seed: int, seconds: float, *, stream: bool,
                 trace: bool, work: Path) -> Outcome:
    workload = "train-stream" if stream else "train"
    train, held_out = inputs.load_training_inputs(root)
    out = Outcome()
    if trace:
        return _trace_training(train, held_out, work, seed, stream=stream, out=out)

    setups = []
    host = HostSpeed()
    for rep in range(SETUP_REPS):
        last = rep == SETUP_REPS - 1
        result = _training_pass(
            train, held_out, work, seed, stream=stream, seconds=seconds,
            epochs=None if last else 1, evaluate=last and not stream, host=host,
        )
        setups.append(result["setup_s"])
        if stream and not last:
            result["source"].close()
        out.attempted += _steps_per_epoch(len(train)) * len(result["history"].epochs)
    history, budget = result["history"], result["budget"]
    timed = [e.seconds for e in history.epochs[1:]]
    losses = [e.train_loss for e in history.epochs]
    out.check("trained_past_loss_epoch", len(history.epochs) >= LOSS_EPOCH)
    out.check("losses_finite", all(math.isfinite(v) for v in losses))
    out.check("loss_decreased", budget.loss < losses[0])
    if stream:
        source = result["source"]
        out.check("stream_shards_verify", _verifies(source))
        out.check("stream_records", len(source) == len(train))
        source.close()
    else:
        evaluation = result["evaluation"]
        out.attempted += 1
        mre = evaluation.delay.mre if evaluation is not None else math.nan
        if not out.check("unseen_mre_finite", math.isfinite(mre) and mre > 0):
            out.failed += 1
        out.details["unseen_mre"] = mre
    _cross_check_loss(root, seed, workload, budget.loss, out)
    epoch_s = _first_quartile(timed)
    _report(out, workload, setups, epoch_s / len(train), host)
    out.details.update(
        samples_per_s=len(train) / epoch_s, loss_final=budget.loss,
        setups_s=setups, epoch_s=timed, epochs=len(history.epochs),
        losses=losses, train_samples=len(train), held_out_samples=len(held_out),
    )
    return out


def _trace_training(train, held_out, work: Path, seed: int, *, stream: bool,
                    out: Outcome) -> Outcome:
    plain = _training_pass(train, held_out, work, seed, stream=stream, epochs=TRACE_EPOCHS,
                           evaluate=not stream)
    tracer = Tracer()
    with instrument(tracer):
        traced = _training_pass(train, held_out, work, seed, stream=stream,
                                epochs=TRACE_EPOCHS)
    end = traced["budget"].last_epoch_end
    plain_wall = sum(e.seconds for e in plain["history"].epochs[1:])
    traced_wall = sum(e.seconds for e in traced["history"].epochs[1:])
    epochs = len(traced["history"].epochs)
    out.attempted = 2 * TRACE_EPOCHS * _steps_per_epoch(len(train))
    out.check("traced_losses_match_untraced",
              [e.train_loss for e in plain["history"].epochs]
              == [e.train_loss for e in traced["history"].epochs])
    timed = tracer.summary(traced["setup_end"], end)
    setup = tracer.summary(traced["started"], traced["setup_end"])
    steps = max(1, timed.get("training.step", {}).get("count", 0))
    layers = {}
    for name, entry in timed.items():
        layers[name] = entry["self"] * 1000.0 / steps
    step_ms = [d * 1000.0 for d in timed.get("training.step", {}).get("durations", [])]
    metrics = out.metrics
    # Quality of the untraced pass: the loss at LOSS_EPOCH, and on ``train``
    # the delay error on the unseen Geant2-24 after it.
    metrics["training.loss_final"] = (plain["budget"].loss, "loss")
    if plain["evaluation"] is not None:
        metrics["training.unseen_mre"] = (plain["evaluation"].delay.mre, "ratio")
    metrics["training.step_ms.p50"] = (_pct(step_ms, 50), "ms")
    metrics["training.step_ms.p90"] = (_pct(step_ms, 90), "ms")
    names = ["core.routenet.forward", "nn.rnn.path_gru", "nn.rnn.link_gru",
             "nn.ops.gather", "nn.ops.segment_sum", "nn.tensor.backward",
             "training.loss", "nn.optim.step", "nn.optim.clip"]
    for name in names + (["dataset.prefetch.wait"] if stream else []):
        metrics[f"{name}_ms"] = (layers.get(name, 0.0), "ms")
    # Exact work counts, per epoch: every epoch visits the same batches.
    counts = tracer.counters
    metrics["nn.rnn.gru_rows"] = (counts.get("nn.rnn.gru_rows", 0) / epochs, "count")
    rows = counts.get("plan.rows", 0)
    metrics["core.plan.live_row_frac"] = (
        counts.get("plan.live_rows", 0) / rows if rows else 0.0, "ratio")
    if stream:
        # Packing and plan building run in the prefetch process; what this
        # process does is wait for batches and read records for the scaler.
        metrics["dataset.prefetch.batches"] = (
            counts.get("dataset.prefetch.batches", 0) / epochs, "count")
        reads = setup.get("dataset.stream.read", {}).get("durations", [])
        metrics["dataset.stream.read_ms"] = (_pct([d * 1000.0 for d in reads], 50), "ms")
    else:
        metrics["training.prepare_ms"] = (
            setup.get("training.prepare", {}).get("total", 0.0) * 1000.0, "ms")
        metrics["core.plan.build_ms"] = (
            setup.get("core.plan.build", {}).get("total", 0.0) * 1000.0, "ms")
    metrics["trace.coverage"] = (tracer.coverage(traced["setup_end"], end), "ratio")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["trace.overhead_frac"] = (
        (traced_wall - plain_wall) / plain_wall if plain_wall > 0 else 0.0, "ratio")
    out.details.update(untraced_wall_s=plain_wall, traced_wall_s=traced_wall,
                       layers_self_ms_per_step=layers, steps=steps)
    out.tracer = tracer
    return out


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def _serving_setup(scaler_samples: list[Sample], warmup: list[Sample]):
    """Construct the model, fit the scaler, start a service and warm it."""
    started = _clock()
    scaler = fit_scaler(scaler_samples)
    model = RouteNet(HPARAMS, seed=MODEL_SEED)
    service = ServingService(model, scaler, ServeConfig())
    warm = [service.submit(q) for q in warmup]
    for future in warm:
        future.result(timeout=60.0)
    return _clock() - started, model, scaler, service


@dataclass
class _Request:
    rid: int
    query: Sample
    scheduled: float
    submitted: float = 0.0
    future: object = None
    rejected: bool = False


class _ServeRun:
    """Drives one service and keeps every request for the output checks."""

    def __init__(self, tracer: Tracer | None, host: HostSpeed | None = None) -> None:
        self.tracer = tracer
        self.host = host
        self.requests: list[_Request] = []
        self._by_sample: dict[int, _Request] = {}

    def on_batch(self, samples, started: float) -> list[int]:
        rids = []
        for sample in samples:
            request = self._by_sample.get(id(sample))
            if request is not None and request.future is not None:
                self.tracer.record("serving.service.queue_wait",
                                   request.future.submitted_at, started, request.rid)
                rids.append(request.rid)
        return rids

    def submit(self, service: ServingService, request: _Request, deadline_ms=None) -> None:
        self._by_sample[id(request.query)] = request
        self.requests.append(request)
        request.submitted = _clock()
        span = self.tracer.begin("serving.service.submit", request.rid) if self.tracer else None
        try:
            request.future = service.submit(request.query, deadline_ms=deadline_ms)
        except AdmissionError:
            request.rejected = True
        finally:
            if span is not None:
                self.tracer.end(span)

    def burst(self, service: ServingService, queries: list[Sample]) -> float:
        """Closed loop: submit back to back, wait for all; seconds to the last."""
        start = _clock()
        batch = []
        for query in queries:
            request = _Request(len(self.requests), query, start)
            self.submit(service, request)
            batch.append(request)
        self.wait(batch)
        return max(r.future.completed_at if r.future else start for r in batch) - start

    def open_loop(self, service: ServingService, queries: list[Sample], rate: float,
                  rng: np.random.Generator) -> list[list[_Request]]:
        """Open loop in windows of :data:`WINDOW_REQUESTS`; the requests of
        each.  The host's speed is sampled between windows."""
        size = -(-len(queries) // max(1, round(len(queries) / WINDOW_REQUESTS)))
        windows = []
        for i in range(0, len(queries), size):
            windows.append(self.window(service, queries[i:i + size], rate, rng))
            if self.host is not None:
                self.host.sample()
        return windows

    def window(self, service: ServingService, queries: list[Sample], rate: float,
               rng: np.random.Generator) -> list[_Request]:
        """Poisson arrivals at ``rate``, sent on schedule; waits for all."""
        offsets = np.cumsum(rng.exponential(1.0 / rate, size=len(queries)))
        start = _clock() + 0.005
        phase = []
        for query, offset in zip(queries, offsets):
            scheduled = start + float(offset)
            pause = scheduled - _clock()
            if pause > 0:
                time.sleep(pause)
            request = _Request(len(self.requests), query, scheduled)
            self.submit(service, request, deadline_ms=LATENCY_LIMIT_MS)
            phase.append(request)
        self.wait(phase)
        return phase

    @staticmethod
    def wait(requests: list[_Request]) -> None:
        for request in requests:
            if request.future is not None:
                request.future.exception(timeout=120.0)

    @staticmethod
    def ok(request: _Request) -> bool:
        return request.future is not None and request.future.exception(0) is None

    def latencies_ms(self, phase: list[_Request]) -> list[float]:
        """Scheduled-arrival-to-completion latency; a miss reads at least the limit."""
        out = []
        for request in phase:
            if self.ok(request):
                out.append((request.future.completed_at - request.scheduled) * 1000.0)
            else:
                finished = request.future.completed_at if request.future else request.submitted
                out.append(max(LATENCY_LIMIT_MS, (finished - request.scheduled) * 1000.0))
        return out

    def record_requests(self) -> None:
        for request in self.requests:
            if request.future is not None and request.future.completed_at is not None:
                self.tracer.record("serving.request", request.scheduled,
                                   request.future.completed_at, request.rid)


def _fates(phase: list[_Request]) -> dict:
    fates = {"sent": len(phase), "completed": 0, "rejected": 0, "expired": 0, "errors": 0}
    for request in phase:
        if request.rejected:
            fates["rejected"] += 1
            continue
        error = request.future.exception(0)
        if error is None:
            fates["completed"] += 1
        elif isinstance(error, DeadlineExceededError):
            fates["expired"] += 1
        else:
            fates["errors"] += 1
    return fates


def _check_served(run: _ServeRun, model, scaler, out: Outcome) -> int:
    """Every completed prediction is finite and matches an offline engine."""
    done = [r for r in run.requests if run.ok(r)]
    if not done:
        return 0
    offline = InferenceEngine(model, scaler, ServeConfig()).predict_many([r.query for r in done])
    bad = 0
    for request, expected in zip(done, offline):
        got = request.future.result(0)
        fine = np.isfinite(got.delay).all() and np.allclose(
            got.delay, expected.delay, rtol=SERVE_RTOL, atol=0.0)
        if got.jitter is not None:
            fine = fine and np.isfinite(got.jitter).all() and np.allclose(
                got.jitter, expected.jitter, rtol=SERVE_RTOL, atol=0.0)
        bad += not fine
    return bad


def run_serving(root: Path, seed: int, seconds: float, *, trace: bool) -> Outcome:
    out = Outcome()
    # One query stream per phase, so a phase's queries do not depend on
    # what the other phases ran.
    maker = inputs.QueryMaker(seed)
    scaler_samples = maker.stream(1).labelled(16)
    warmup = maker.stream(2).queries(WARMUP_QUERIES)
    share = PHASE_SHARE if trace else 1.0
    high_queries = maker.stream(5).queries(max(1, round(HIGH_RPS * share * seconds)))
    arrivals = np.random.default_rng([inputs.INPUT_VERSION, seed, 11])
    tracer = Tracer() if trace else None
    host = None if trace else HostSpeed()

    setups = []
    services = []
    for _ in range(SETUP_REPS):
        setup_s, model, scaler, service = _serving_setup(scaler_samples, warmup)
        setups.append(setup_s)
        services.append(service)
        if host is not None:
            host.sample()
    # Every phase gets a fresh service of its own; the spare ones close unused.
    used = 3 if trace else 1
    for service in services[used:]:
        service.close()
    services = services[:used]

    run = _ServeRun(tracer, host)
    stats = []
    phases = {}
    try:
        if trace:
            # Traced runs repeat the same bursts untraced and traced.
            capacity_queries = maker.stream(3)
            burst_queries = [capacity_queries.queries(BURST) for _ in range(MIN_BURSTS)]
            mid_queries = maker.stream(4).queries(max(1, round(MID_RPS * share * seconds)))
            # Untraced reference: the same closed-loop bursts on a twin service.
            plain = _ServeRun(None)
            started = _clock()
            for queries in burst_queries:
                plain.burst(services[0], queries)
            plain_wall = _clock() - started
            stats.append(services[0].stats())
            services[0].close()
            services[0] = _serving_setup(scaler_samples, warmup)[3]
            with instrument(tracer, on_batch=run.on_batch):
                started = _clock()
                bursts = [run.burst(services[0], queries) for queries in burst_queries]
                burst_wall = _clock() - started
                phases["capacity"] = run.requests[:]
                phases["mid"] = run.open_loop(services[1], mid_queries, MID_RPS, arrivals)
                high_started = _clock()
                phases["high"] = run.open_loop(services[2], high_queries, HIGH_RPS, arrivals)
                high_ended = _clock()
        else:
            phases["high"] = run.open_loop(services[0], high_queries, HIGH_RPS, arrivals)
        for service in services:
            stats.append(service.stats())
    finally:
        for service in services:
            service.close()

    windows = {name: [run.latencies_ms(w) for w in phases[name]]
               for name in ("mid", "high") if name in phases}
    phases = {name: sum(reqs, []) if name in windows else reqs
              for name, reqs in phases.items()}
    fates = {name: _fates(reqs) for name, reqs in phases.items()}
    mismatched = _check_served(run, model, scaler, out)
    failed = sum(f["sent"] - f["completed"] for f in fates.values()) + mismatched
    out.attempted = sum(f["sent"] for f in fates.values())
    out.failed = failed
    out.check("served_predictions_match_offline", mismatched == 0)
    out.check("every_request_resolved", all(
        r.rejected or (r.future is not None and r.future.done()) for r in run.requests))
    latency = {}
    for name in windows:
        for q in (50, 99):
            per_window = [_pct(latencies, q) for latencies in windows[name]]
            pooled = _pct(sum(windows[name], []), q)
            latency[q, name] = pooled if q == 50 else statistics.median(per_window)
            out.details[f"p{q}_ms.{name}.windows"] = per_window
            out.details[f"p{q}_ms.{name}.pooled"] = pooled
    late_ms = [(r.submitted - r.scheduled) * 1000.0
               for name in windows for r in phases[name]]
    out.details.update(
        setups_s=setups, fates=fates, offered_rps={"mid": MID_RPS, "high": HIGH_RPS},
        latency_limit_ms=LATENCY_LIMIT_MS, generator_late_ms_p99=_pct(late_ms, 99),
        service_stats=stats,
    )
    if not trace:
        _report(out, "serve", setups, latency[50, "high"] / 1000.0, host)
        return out

    out.details["burst_rps"] = [BURST / b for b in bursts]
    run.record_requests()
    out.tracer = tracer
    summary = tracer.summary()
    batches = max(1, tracer.counters.get("serving.service.batches", 0))
    m = out.metrics
    submits = summary.get("serving.service.submit", {}).get("durations", [])
    m["serving.service.submit_us"] = (_pct([d * 1e6 for d in submits], 50), "us")
    offered = fates["mid"]["sent"] + fates["high"]["sent"]
    m["serving.service.rejected_frac"] = (
        (fates["mid"]["rejected"] + fates["high"]["rejected"]) / offered, "ratio")
    waits = [(end - start) * 1000.0 for name, start, end, _, _ in tracer.spans
             if name == "serving.service.queue_wait" and start >= high_started]
    m["serving.service.queue_wait_ms.p50"] = (_pct(waits, 50), "ms")
    m["serving.service.queue_wait_ms.p99"] = (_pct(waits, 99), "ms")
    m["serving.service.batch_size"] = (
        tracer.counters.get("serving.service.batched_queries", 0) / batches, "count")
    for name, metric in (("serving.engine.build", "serving.engine.build_ms"),
                         ("serving.batching.pack", "serving.batching.pack_ms"),
                         ("serving.engine.forward", "serving.engine.forward_ms"),
                         ("serving.engine.decode", "serving.engine.decode_ms")):
        entry = summary.get(name, {"self": 0.0})
        m[metric] = (entry["self"] * 1000.0 / batches, "ms")
    model_batches = max(1, tracer.counters.get("serving.batching.batches", 0))
    m["serving.batching.paths_per_batch"] = (
        tracer.counters.get("serving.batching.paths", 0) / model_batches, "count")
    pred = [s["prediction_cache"] for s in stats[-used:] if s["prediction_cache"]]
    hits = sum(p["hits"] for p in pred)
    lookups = hits + sum(p["misses"] for p in pred)
    m["serving.cache.prediction_hit_rate"] = (hits / lookups if lookups else 0.0, "ratio")
    ihits = sum(s["engine"]["input_cache"]["hits"] for s in stats[-used:])
    ilookups = ihits + sum(s["engine"]["input_cache"]["misses"] for s in stats[-used:])
    m["serving.cache.input_hit_rate"] = (ihits / ilookups if ilookups else 0.0, "ratio")
    m["serving.loadgen.late_ms"] = (_pct(late_ms, 99), "ms")
    # The end-to-end metrics are shared by every workload, so the mid-rate
    # median is reported here.  Capacity and the 99th percentiles moved with
    # the host by more than any bound the end-to-end check allows.
    m["serving.capacity_rps"] = (BURST / _first_quartile(bursts), "1/s")
    m["serving.p50_ms.mid"] = (latency[50, "mid"], "ms")
    for name in ("mid", "high"):
        m[f"serving.p99_ms.{name}"] = (latency[99, name], "ms")
    m["nn.rnn.gru_rows"] = (tracer.counters.get("nn.rnn.gru_rows", 0), "count")
    rows = tracer.counters.get("plan.rows", 0)
    m["core.plan.live_row_frac"] = (
        tracer.counters.get("plan.live_rows", 0) / rows if rows else 0.0, "ratio")
    # Waiting is not work: whole-request and queue-wait spans do not count.
    m["trace.coverage"] = (tracer.coverage(
        started, started + burst_wall,
        exclude=("serving.request", "serving.service.queue_wait")), "ratio")
    m["trace.overhead_s"] = (burst_wall - plain_wall, "s")
    m["trace.overhead_frac"] = ((burst_wall - plain_wall) / plain_wall, "ratio")
    out.details.update(untraced_wall_s=plain_wall, traced_wall_s=burst_wall,
                       high_phase_s=high_ended - high_started)
    return out


# ----------------------------------------------------------------------
# generate
# ----------------------------------------------------------------------
def _topologies() -> dict:
    return {"nsfnet": nsfnet(), "geant2": geant2(), "synthetic-50": inputs.syn50()}


def _round_calls() -> list[tuple[str, str, int]]:
    return [(name, kind, count) for name, count in GEN_ROUND for kind in GEN_KINDS]


def _generation_round(topologies, seed: int, round_index: int, work: Path,
                      workers: int, tracer: Tracer | None = None,
                      call_s: dict | None = None, host: HostSpeed | None = None) -> dict:
    """One round: each topology's scenarios through ``generate_dataset_run``.

    Every round of a run generates the same scenarios (their seeds depend
    on ``seed`` only), so rounds are repetitions of the same work.  Each
    call's wall time is appended to ``call_s[name, kind]`` when given, and
    the host's speed sampled after it.

    Traced, each call is a ``dataset.generate.run`` span and each finished
    task a ``runner.task`` child, placed from its ``ProgressEvent``.
    """
    runs = {}
    for k, (name, kind, count) in enumerate(_round_calls()):
        finished: list = []

        def on_event(event, finished=finished):
            if event.kind == "done":
                finished.append((_clock(), event.elapsed))

        span = tracer.begin("dataset.generate.run") if tracer else None
        started = _clock()
        runs[name, kind] = generate_dataset_run(
            topologies[name], count,
            seed=[inputs.INPUT_VERSION, seed, k],
            config=dataclasses.replace(GEN_CONFIGS[name], routing_kinds=(kind,)),
            workers=workers,
            on_event=on_event if tracer else None,
            dataset_dir=work / f"round{round_index}" / name / kind,
        )
        if call_s is not None:
            call_s.setdefault((name, kind), []).append(_clock() - started)
        if host is not None:
            host.sample()
        if tracer:
            tracer.end(span)
            for done, elapsed in finished:
                tracer.record("runner.task", done - elapsed, done, parent=span)
    return runs


def _check_round(runs: dict, work: Path, round_index: int, out: Outcome) -> int:
    """Validate every sample, the written shards and the counts; returns
    the number of scenarios that are missing or wrong."""
    failed = 0
    for name, kind, count in _round_calls():
        run = runs[name, kind]
        bad = count - len(run.samples)
        with StreamDataset(work / f"round{round_index}" / name / kind) as stream:
            bad += not _verifies(stream)
            bad += abs(len(stream) - len(run.samples))
            for written, sample in zip(stream, run.samples):
                try:
                    dataclasses.replace(written)  # re-runs Sample validation
                except DatasetError:
                    bad += 1
                    continue
                bad += not np.array_equal(written.delay, sample.delay)
        failed += bad
        out.check(f"round{round_index}.{name}.{kind}.complete", bad == 0)
    return failed


def run_generation(root: Path, seed: int, seconds: float, *, trace: bool, work: Path) -> Outcome:
    out = Outcome()
    workers = cores()
    host = HostSpeed()
    setups = []
    for _ in range(SETUP_REPS):
        # Set-up builds the topologies and runs one fixed warm-up scenario
        # through the pool, identical on every rep and seed.
        started = _clock()
        topologies = _topologies()
        generate_dataset_run(topologies["nsfnet"], 1, seed=WARMUP_SEED,
                             config=inputs.NSFNET_GEN, workers=workers,
                             dataset_dir=work / "warmup")
        setups.append(_clock() - started)
        host.sample()

    if trace:
        return _trace_generation(topologies, seed, work, workers, out)

    rounds = []
    round_s = []
    call_s: dict = {}
    while sum(round_s) < seconds or len(rounds) < 2:
        started = _clock()
        runs = _generation_round(topologies, seed, len(rounds), work, workers,
                                 call_s=call_s, host=host)
        round_s.append(_clock() - started)
        rounds.append(runs)
    per_round = sum(count for _, _, count in _round_calls())
    out.attempted = per_round * len(rounds)
    for index, runs in enumerate(rounds):
        out.failed += _check_round(runs, work, index, out)
        shutil.rmtree(work / f"round{index}", ignore_errors=True)
    out.check("rounds_reproduce_round0", all(
        np.array_equal(a.delay, b.delay)
        for runs in rounds[1:] for key in runs
        for a, b in zip(runs[key].samples, rounds[0][key].samples)))
    # Each call is timed on its own, so a slow spell of the host inflates
    # the calls it falls in, not whole rounds.  With three to five rounds
    # the first quartile of a call sits near its fastest round, which moved
    # more from run to run than the median does (19% against 13% over six
    # runs on a shared 2-core machine).
    scenario_s = sum(statistics.median(times) for times in call_s.values()) / per_round
    _report(out, "generate", setups, scenario_s, host)
    out.details.update(scenarios_per_s=1.0 / scenario_s, setups_s=setups, round_s=round_s,
                       call_s={f"{name}/{kind}": t for (name, kind), t in call_s.items()},
                       workers=workers,
                       retries=sum(r.metrics.retries for runs in rounds for r in runs.values()))
    return out


def _trace_generation(topologies, seed, work, workers, out: Outcome) -> Outcome:
    import repro.dataset.stream as stream_mod

    from .trace import Patches, timed

    plain_started = _clock()
    _generation_round(topologies, seed, 0, work, workers)
    plain_wall = _clock() - plain_started

    tracer = Tracer()
    patches = Patches()
    patches.replace(stream_mod, "write_stream_dataset", timed(tracer, "dataset.stream.write"))
    try:
        started = _clock()
        runs = _generation_round(topologies, seed, 0, work, workers, tracer)
        traced_wall = _clock() - started
    finally:
        patches.undo()
    out.attempted = sum(count for _, _, count in _round_calls())
    out.failed = _check_round(runs, work, 0, out)
    metrics = [run.metrics for run in runs.values()]
    worker_s = sum(m.worker_seconds for m in metrics)
    sim_events = sum(m.extras.get("events_simulated", 0) for m in metrics)
    summary = tracer.summary()
    task_ms = [d * 1000.0 for d in summary.get("runner.task", {}).get("durations", [])]
    m = out.metrics
    m["simulator.events"] = (sim_events, "count")
    m["simulator.events_per_s"] = (sim_events / worker_s if worker_s else 0.0, "1/s")
    m["runner.tasks"] = (sum(mm.total_tasks for mm in metrics), "count")
    m["runner.retries"] = (sum(mm.retries for mm in metrics), "count")
    m["runner.pool.utilization"] = (
        statistics.fmean(mm.utilization for mm in metrics), "ratio")
    m["runner.task_ms.p50"] = (_pct(task_ms, 50), "ms")
    m["runner.task_ms.p90"] = (_pct(task_ms, 90), "ms")
    m["dataset.generate.run_self_ms"] = (
        summary.get("dataset.generate.run", {"self": 0.0})["self"] * 1000.0 / out.attempted, "ms")
    writes = summary.get("dataset.stream.write", {"total": 0.0})
    m["dataset.stream.write_ms"] = (writes["total"] * 1000.0 / out.attempted, "ms")
    m["trace.coverage"] = (tracer.coverage(started, started + traced_wall), "ratio")
    m["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    m["trace.overhead_frac"] = ((traced_wall - plain_wall) / plain_wall, "ratio")
    out.details.update(untraced_wall_s=plain_wall, traced_wall_s=traced_wall)
    out.tracer = tracer
    return out


def run(workload: str, root: Path, seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    work.mkdir(parents=True, exist_ok=True)
    try:
        if workload in ("train", "train-stream"):
            out = run_training(root, seed, seconds, stream=workload == "train-stream",
                               trace=trace, work=work)
        elif workload == "serve":
            out = run_serving(root, seed, seconds, trace=trace)
        elif workload == "generate":
            out = run_generation(root, seed, seconds, trace=trace, work=work)
        else:
            raise ValueError(f"unknown workload {workload!r}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not trace:
        out.metrics["peak_rss_mib"] = (peak_rss_mib(), "MiB")
    return out

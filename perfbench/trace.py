"""In-memory span recorder and the wrappers that feed it.

A span is ``(name, start, end, parent, request)``: the span that was open
on the same thread when it began is its parent, and the spans of one
serving request carry that request's id.  Spans stay in memory and are
written out once, when the run ends.

Layers are measured from outside: :func:`instrument` replaces public
functions and methods of the program with timing wrappers and puts the
originals back on exit.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_clock = time.perf_counter


class Tracer:
    """Thread-aware span recorder with per-layer counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self.counters: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, request: object = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, _clock(), None, parent, request])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = _clock()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        elif index in stack:
            stack.remove(index)

    def open(self, name: str) -> int | None:
        """Index of the innermost open span called ``name`` on this thread."""
        for index in reversed(self._stack()):
            if self.spans[index][0] == name:
                return index
        return None

    @contextmanager
    def span(self, name: str, request: object = None):
        index = self.begin(name, request)
        try:
            yield index
        finally:
            self.end(index)

    def record(self, name: str, start: float, end: float, request: object = None,
               parent: int | None = None) -> None:
        """A span measured elsewhere (a queue wait, a task in a worker process)."""
        with self._lock:
            self.spans.append([name, start, end, parent, request])

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    # ------------------------------------------------------------------
    def summary(self, since: float = float("-inf"), until: float = float("inf")) -> dict:
        """Per-name call count, inclusive and self seconds, and durations.

        Only spans that start inside ``[since, until]`` count.  A span's
        self time is its duration minus the part of it that its children
        cover (children running in parallel are counted once).
        """
        children: dict[int, list[tuple[float, float]]] = {}
        for _, start, end, parent, _ in self.spans:
            if parent is not None and end is not None:
                children.setdefault(parent, []).append((start, end))
        out: dict[str, dict] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            if end is None or not since <= start <= until:
                continue
            entry = out.setdefault(name, {"count": 0, "total": 0.0, "self": 0.0, "durations": []})
            duration = end - start
            entry["count"] += 1
            entry["total"] += duration
            entry["self"] += duration - _union(children.get(index, ()), start, end)
            entry["durations"].append(duration)
        return out

    def coverage(self, since: float, until: float, exclude: tuple[str, ...] = ()) -> float:
        """Share of ``[since, until]`` covered by root spans not in ``exclude``."""
        covered = _union(
            [(start, end) for name, start, end, parent, _ in self.spans
             if parent is None and end is not None and name not in exclude],
            since, until,
        )
        return covered / (until - since) if until > since else 0.0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["name", "start", "end", "parent", "request"],
            "spans": [
                [name, start, end, parent, request]
                for name, start, end, parent, request in self.spans
            ],
            "counters": self.counters,
        }
        path.write_text(json.dumps(payload))


def _union(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered, cursor = 0.0, lo
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return covered


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner: object, name: str, make):
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))
        return original

    def undo(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def timed(tracer: Tracer, name: str):
    """Wrapper factory for :meth:`Patches.replace` recording a ``name`` span."""
    def make(original):
        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(index)

        return wrapper

    return make


def _live_rows(inputs, num_steps: int) -> int:
    return int(np.count_nonzero(inputs.mask[:, :num_steps]))


@contextmanager
def instrument(tracer: Tracer, on_batch=None):
    """Wrap every layer boundary the benchmark reports on.

    ``on_batch(samples, started)`` is told when an engine starts serving a
    batch, which is where a serving request's queue wait ends; it returns
    the ids of the requests in the batch.
    """
    import repro.core.plan as plan_mod
    import repro.nn as nn
    import repro.serving.engine as engine_mod
    import repro.training.trainer as trainer_mod
    from repro.core import FeatureScaler, RouteNet
    from repro.dataset import PrefetchLoader, StreamDataset
    from repro.nn.rnn import GRUCell
    from repro.serving import InferenceEngine

    patches = Patches()
    path_cells: set[int] = set()

    def forward(original):
        def wrapper(self, inputs, training=False):
            path_cells.add(id(self.path_cell))
            plan = plan_mod.plan_for(inputs)
            tracer.count("plan.rows", inputs.mask.shape[0] * plan.num_steps)
            tracer.count("plan.live_rows", _live_rows(inputs, plan.num_steps))
            if training and tracer.open("training.step") is None:
                tracer.begin("training.step")
            with tracer.span("core.routenet.forward"):
                return original(self, inputs, training=training)

        return wrapper

    def gru_step(original):
        def wrapper(self, gates_x, h):
            path = id(self) in path_cells
            if path:
                tracer.count("nn.rnn.gru_rows", gates_x.shape[0])
            with tracer.span("nn.rnn.path_gru" if path else "nn.rnn.link_gru"):
                return original(self, gates_x, h)

        return wrapper

    def adam_step(original):
        def wrapper(self):
            with tracer.span("nn.optim.step"):
                result = original(self)
            step = tracer.open("training.step")
            if step is not None:
                tracer.end(step)
            return result

        return wrapper

    def prefetch_batches(original):
        def wrapper(self, batch_indices):
            iterator = original(self, batch_indices)
            try:
                while True:
                    index = tracer.begin("dataset.prefetch.wait")
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        tracer.end(index)
                    tracer.count("dataset.prefetch.batches")
                    yield item
            finally:
                iterator.close()  # stops the loader's feeder thread

        return wrapper

    def fast_forward(original):
        def wrapper(model, inputs, *args, **kwargs):
            plan = plan_mod.plan_for(inputs)
            live = _live_rows(inputs, plan.num_steps)
            tracer.count("plan.rows", inputs.mask.shape[0] * plan.num_steps)
            tracer.count("plan.live_rows", live)
            # The serving kernel updates only live rows, once per round.
            tracer.count("nn.rnn.gru_rows", live * model.hparams.message_passing_steps)
            tracer.count("serving.batching.paths", inputs.mask.shape[0])
            tracer.count("serving.batching.batches")
            with tracer.span("serving.engine.forward"):
                return original(model, inputs, *args, **kwargs)

        return wrapper

    def predict_many(original):
        def wrapper(self, samples, *args, **kwargs):
            index = tracer.begin("serving.engine.predict_many")
            if on_batch is not None:
                # The batch span carries the ids of the requests it serves.
                tracer.spans[index][4] = on_batch(samples, tracer.spans[index][1])
            tracer.count("serving.service.batches")
            tracer.count("serving.service.batched_queries", len(samples))
            try:
                return original(self, samples, *args, **kwargs)
            finally:
                tracer.end(index)

        return wrapper

    try:
        patches.replace(RouteNet, "forward", forward)
        patches.replace(GRUCell, "step_precomputed", gru_step)
        patches.replace(nn.ops, "gather", timed(tracer, "nn.ops.gather"))
        patches.replace(nn.ops, "segment_sum", timed(tracer, "nn.ops.segment_sum"))
        patches.replace(nn.Tensor, "backward", timed(tracer, "nn.tensor.backward"))
        patches.replace(nn, "clip_global_norm", timed(tracer, "nn.optim.clip"))
        patches.replace(nn.Adam, "step", adam_step)
        patches.replace(trainer_mod, "huber_loss", timed(tracer, "training.loss"))
        patches.replace(
            trainer_mod, "prepare_training_input", timed(tracer, "training.prepare")
        )
        patches.replace(trainer_mod, "fuse_training_batch", timed(tracer, "training.prepare"))
        patches.replace(plan_mod, "build_plan", timed(tracer, "core.plan.build"))
        patches.replace(PrefetchLoader, "batches", prefetch_batches)
        patches.replace(StreamDataset, "materialize", timed(tracer, "dataset.stream.read"))
        patches.replace(InferenceEngine, "predict_many", predict_many)
        patches.replace(InferenceEngine, "build_input", timed(tracer, "serving.engine.build"))
        patches.replace(engine_mod, "pack_inputs", timed(tracer, "serving.batching.pack"))
        patches.replace(engine_mod, "fast_forward", fast_forward)
        patches.replace(FeatureScaler, "decode_targets", timed(tracer, "serving.engine.decode"))
        yield tracer
    finally:
        patches.undo()

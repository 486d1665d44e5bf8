"""Symbolic tape recorder: one fused forward+backward → a :class:`TapeGraph`.

The recorder wraps the single funnel every op goes through —
``Tensor._make`` — so the *real* model runs with real values while every
node's structure (op, shapes, storage aliasing, backward retention) is
captured on the side.  A ``tape_mark`` observer segments the recording into
message-passing rounds.

Because the real kernels execute, a shape bug anywhere in the forward —
a transposed operand, a mis-shaped fused-cell weight, an out-of-range link
id — raises from the very kernel that has it.  :meth:`TapeRecorder.localize`
turns that exception into a :class:`ShapeCheckError` naming the op (the
innermost ``repro.nn`` frame of the traceback), the shapes of its array
operands and the last tape nodes recorded before it; the model check
(:func:`~repro.analysis.dataflow.modelcheck.check_model`) and the RP605
finding of the dataflow pass both report it.

On top of the structural capture the recorder adds two runtime obligations:

* **Retention fingerprints** (RP601): every array a backward closure
  declares it will read (``Tensor._make(..., retains=...)``) is
  checksummed at node creation; :meth:`TapeRecorder.verify_retained`
  re-checksums after ``backward()`` ran, so any in-place write to a buffer
  whose alias class was still live — which would have silently corrupted
  the gradients — is caught with the full def–use chain.
* **Escape tracking** (RP603): every interior value's array is weakly
  referenced; after the tape is dropped, arrays still alive are buffers
  that escaped their tape scope (held via a closure, a global, a cache)
  in violation of the ``_GradBufferPool`` discipline.
"""

from __future__ import annotations

import gc
import traceback
import weakref
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import FrameType, TracebackType
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ... import nn as nn_pkg
from ...errors import AnalysisError, ModelError
from ...nn.tensor import Tensor, set_tape_observer
from .graph import TapeGraph, TapeValue

__all__ = ["ShapeCheckError", "TapeRecorder", "RecordedStep", "record_fused_step"]

#: Directory of the op layer: the innermost traceback frame in it names
#: the op that failed.
_NN_DIR = Path(nn_pkg.__file__).parent


class ShapeCheckError(AnalysisError):
    """A recorded forward or backward raised; localized to one op.

    Attributes:
        op: Name of the failing op — the innermost ``repro.nn`` frame with
            its dunder underscores stripped (``matmul``, ``gather``,
            ``precompute_input``), or ``"forward-precondition"`` for a
            :class:`~repro.errors.ModelError` from ``forward``'s guards.
        operands: Shapes of the arrays and tensors bound in that frame.
        trace_tail: The last tape nodes recorded before the failure.
    """

    def __init__(self, op: str, detail: str, operands: Sequence[tuple[int, ...]],
                 trace_tail: str = "") -> None:
        self.op = op
        self.operands = tuple(tuple(s) for s in operands)
        self.trace_tail = trace_tail
        shapes = " , ".join(str(s) for s in self.operands)
        super().__init__(
            f"{op}: {detail}" + (f" (operand shapes: {shapes})" if shapes else "")
        )


def _failing_frame(tb: TracebackType) -> FrameType:
    """The innermost traceback frame inside ``repro.nn``, else the innermost."""
    frames = [frame for frame, _ in traceback.walk_tb(tb)]
    in_nn = [f for f in frames if Path(f.f_code.co_filename).parent == _NN_DIR]
    return (in_nn or frames)[-1]


def _operand_shapes(frame: FrameType) -> tuple[tuple[int, ...], ...]:
    """Shapes of the arrays and tensors bound in ``frame``, arguments first."""
    seen: set[int] = set()
    shapes = []
    for value in frame.f_locals.values():
        arr = value.data if isinstance(value, Tensor) else value
        if isinstance(arr, np.ndarray) and id(arr) not in seen:
            seen.add(id(arr))
            shapes.append(tuple(arr.shape))
    return tuple(shapes)


def _op_name(backward: "Callable[..., None] | None") -> str:
    """Op name from the backward closure's qualname (see sanitize.py)."""
    if backward is None:
        return "<leaf>"
    qualname = getattr(backward, "__qualname__", "")
    owner = qualname.split(".<locals>")[0]
    return owner.split(".")[-1].strip("_") or "<unknown>"


def _crc(arr: np.ndarray) -> int:
    data = arr if arr.flags.c_contiguous else np.ascontiguousarray(arr)
    return zlib.crc32(data.tobytes())


@dataclass
class Mutation:
    """A retained buffer whose contents changed before its backward ran."""

    owner_vid: int
    retained_vid: int
    crc_at_def: int
    crc_at_use: int


class TapeRecorder:
    """Builds a :class:`TapeGraph` while real model code executes.

    Use via :func:`record_fused_step` for the standard fused-step capture,
    or drive :meth:`recording` manually for custom scopes.
    """

    def __init__(self) -> None:
        self.graph = TapeGraph()
        self._phase = ""
        #: id(array) -> vid, valid while the array is pinned below.
        self._vid_by_array: dict[int, int] = {}
        #: id(root array) -> storage class id.
        self._storage_ids: dict[int, int] = {}
        self._next_storage = 0
        #: Strong refs keeping every seen array alive during recording so
        #: id()s cannot be recycled and fingerprints stay checkable.
        self._pins: list[np.ndarray] = []
        #: (vid, weakref to the value's array) for escape detection.
        self._escape_refs: list[tuple[int, weakref.ref]] = []
        #: Retention fingerprints: (owner_vid, retained_vid, ref, crc).
        self._fingerprints: list[tuple[int, int, weakref.ref, int]] = []
        #: vids of the recorded tape nodes, in execution order.
        self.nodes: list[int] = []

    # -- array bookkeeping ------------------------------------------------
    @staticmethod
    def _root(arr: np.ndarray) -> np.ndarray:
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        return arr

    def _storage_for(self, arr: np.ndarray) -> int:
        root = self._root(arr)
        key = id(root)
        storage = self._storage_ids.get(key)
        if storage is None:
            storage = self._next_storage
            self._next_storage += 1
            self._storage_ids[key] = storage
            self._pins.append(root)
        return storage

    def _register(
        self,
        arr: np.ndarray,
        op: str,
        parents: tuple[int, ...] = (),
        is_leaf: bool = False,
        name: str | None = None,
    ) -> int:
        vid = len(self.graph.values)
        value = TapeValue(
            vid=vid,
            op=op,
            shape=tuple(arr.shape),
            dtype=str(arr.dtype),
            nbytes=int(arr.nbytes),
            storage=self._storage_for(arr),
            phase=self._phase,
            parents=parents,
            is_leaf=is_leaf,
            name=name,
        )
        self.graph.add(value)
        self._vid_by_array[id(arr)] = vid
        self._pins.append(arr)
        self._escape_refs.append((vid, weakref.ref(arr)))
        return vid

    def _vid_for(self, tensor_in: Tensor) -> int:
        """The vid of a parent tensor's array, registering leaves lazily."""
        vid = self._vid_by_array.get(id(tensor_in.data))
        if vid is None:
            vid = self._register(
                tensor_in.data,
                op="<leaf>",
                is_leaf=True,
                name=tensor_in.name,
            )
        return vid

    # -- interception -----------------------------------------------------
    def _observe(self, out: Tensor, parents: tuple[Tensor, ...],
                 backward: "Callable[..., None]") -> None:
        op = _op_name(backward)
        parent_vids = tuple(self._vid_for(p) for p in parents)
        vid = self._register(out.data, op=op, parents=parent_vids)
        self.nodes.append(vid)
        retain_vids = []
        for arr in out.backward_retains:
            rid = self._vid_by_array.get(id(arr))
            if rid is None:
                root_id = id(self._root(arr))
                rid = self._vid_by_array.get(root_id)
            if rid is None:
                # Closure-captured scratch with no tape node of its own
                # (e.g. the fused GRU's gate activations): give it an
                # anonymous SSA value so liveness and RP601 cover it too.
                rid = self._register(arr, op=f"{op}.<scratch>")
            retain_vids.append(rid)
            self._fingerprints.append(
                (vid, rid, weakref.ref(arr), _crc(arr))
            )
        self.graph.values[vid].retains = tuple(retain_vids)

    def _on_mark(self, label: str) -> None:
        self._phase = label

    @contextmanager
    def recording(self) -> Iterator["TapeRecorder"]:
        """Intercept ``Tensor._make`` + ``tape_mark`` inside the block.

        Process-global (the patch is on the class) — do not record
        concurrently with other tape work.
        """
        original = Tensor.__dict__["_make"].__func__

        def recorded_make(
            data: np.ndarray,
            parents: "Iterable[Tensor]",
            backward: "Callable[[np.ndarray], None]",
            retains: "tuple[np.ndarray, ...] | None" = None,
        ) -> Tensor:
            parents = tuple(parents)
            out = original(data, parents, backward, retains)
            self._observe(out, parents, backward)
            return out

        Tensor._make = staticmethod(recorded_make)
        set_tape_observer(self._on_mark)
        try:
            yield self
        finally:
            Tensor._make = staticmethod(original)
            set_tape_observer(None)

    @contextmanager
    def localized(self) -> Iterator["TapeRecorder"]:
        """:meth:`recording`, re-raising any failure as :meth:`localize` does."""
        try:
            with self.recording():
                yield self
        except Exception as exc:  # any kernel failure, re-raised localized
            raise self.localize(exc) from exc

    # -- failure localization ----------------------------------------------
    def trace_tail(self, n: int = 5) -> str:
        """The last ``n`` recorded nodes as ``op[parent shapes] -> shape``."""
        values = self.graph.values
        return "\n".join(
            f"  {values[vid].op}{[values[p].shape for p in values[vid].parents]}"
            f" -> {values[vid].shape}"
            for vid in self.nodes[-n:]
        )

    def localize(self, exc: Exception) -> ShapeCheckError:
        """``exc``, raised while recording, as a :class:`ShapeCheckError`."""
        if isinstance(exc, ModelError):
            return ShapeCheckError(
                "forward-precondition", str(exc), (), self.trace_tail()
            )
        frame = _failing_frame(exc.__traceback__)
        return ShapeCheckError(
            frame.f_code.co_name.strip("_"),
            f"{type(exc).__name__}: {exc}",
            _operand_shapes(frame),
            self.trace_tail(),
        )

    # -- post-hoc obligations ---------------------------------------------
    def mark_loss(self, loss: Tensor) -> None:
        self.graph.loss_vid = self._vid_by_array.get(id(loss.data))

    def mark_output(self, out: Tensor) -> None:
        self.graph.output_vid = self._vid_by_array.get(id(out.data))

    def verify_retained(self) -> list[Mutation]:
        """Re-checksum every retained array (call after ``backward()``).

        Returns:
            One :class:`Mutation` per retained buffer whose contents
            changed between node creation and now — an in-place write to a
            live alias class (RP601).
        """
        mutations = []
        for owner, retained, ref, crc in self._fingerprints:
            arr = ref()
            if arr is None:
                continue  # died with its closure before we could recheck
            now = _crc(arr)
            if now != crc:
                mutations.append(Mutation(owner, retained, crc, now))
        return mutations

    def release(self) -> None:
        """Drop every strong reference the recorder holds.

        After this (and after the caller drops its own tensors), interior
        arrays still alive are tape escapes — see :meth:`escaped_values`.
        """
        self._pins.clear()
        self._vid_by_array.clear()
        self._storage_ids.clear()

    def escaped_values(self) -> list[int]:
        """vids of interior values whose arrays outlived the tape.

        Only meaningful after :meth:`release`, dropping the recorded
        output/loss tensors, and a ``gc.collect()`` — leaves (parameters,
        inputs) legitimately survive and are excluded.
        """
        gc.collect()
        return [
            vid for vid, ref in self._escape_refs
            if ref() is not None and not self.graph.values[vid].is_leaf
        ]


@dataclass
class RecordedStep:
    """Everything :func:`record_fused_step` captured for one fused step."""

    graph: TapeGraph
    mutations: list[Mutation]
    escaped: list[int]


def record_fused_step(
    model: "object",
    inputs: "object",
    targets: np.ndarray,
    between_forward_and_backward: "Callable[[Tensor], None] | None" = None,
) -> RecordedStep:
    """Record one real fused training step of ``model`` on ``inputs``.

    Runs ``model.forward`` + Huber loss + ``loss.backward()`` under the
    recorder, then discharges the runtime obligations: retention
    fingerprints (RP601) and tape-escape tracking (RP603).

    Args:
        model: A :class:`~repro.core.RouteNet` (or anything with the same
            forward contract).
        inputs: The :class:`~repro.core.ModelInput` to run.
        targets: (P, targets) regression targets for the loss.
        between_forward_and_backward: Test hook invoked with the loss
            tensor after the forward pass and before ``backward()`` —
            where an optimizer stepping early (the classic RP601 injection)
            would run.

    Returns:
        A :class:`RecordedStep`; the tape itself is torn down before
        return so escape detection is already resolved.

    Raises:
        ShapeCheckError: The forward or backward raised; the error names
            the failing op, its operand shapes and the trace tail.
    """
    from ...training.loss import huber_loss

    recorder = TapeRecorder()
    with recorder.localized():
        out = model.forward(inputs, training=False)
        loss = huber_loss(out, targets)
        recorder.mark_output(out)
        recorder.mark_loss(loss)
        if between_forward_and_backward is not None:
            between_forward_and_backward(loss)
        loss.backward()
    mutations = recorder.verify_retained()
    recorder.graph.finalize()
    # Tear the tape down exactly like a training step would: drop every
    # strong reference, then ask what survived.
    for param in getattr(model, "parameters", lambda: [])():
        param.zero_grad()
    recorder.release()
    del out, loss
    escaped = recorder.escaped_values()
    return RecordedStep(
        graph=recorder.graph, mutations=mutations, escaped=escaped
    )

"""Reverse-mode automatic differentiation on numpy arrays.

This module implements the minimal tensor engine that powers the RouteNet
model in :mod:`repro.core`.  It follows the classic tape-based design: every
operation returns a new :class:`Tensor` that remembers its parents and a
closure propagating gradients to them.  Calling :meth:`Tensor.backward` on a
scalar result runs the tape in reverse topological order.

Only the operations needed for graph neural networks are provided (dense
algebra, pointwise nonlinearities, gather/segment-sum for message passing).
Everything is float64 by default for robust gradient checks; models may use
float32 via the ``dtype`` argument of :func:`tensor`.
"""

from __future__ import annotations

import threading
import weakref
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "tensor",
    "no_grad",
    "is_grad_enabled",
    "grad_pool_stats",
    "clear_grad_pool",
    "tape_mark",
    "set_tape_observer",
]

class _GradMode(threading.local):
    """Per-thread tape switch: one thread's ``no_grad`` never leaks into
    another's (every thread starts with recording enabled)."""

    enabled = True


_GRAD_MODE = _GradMode()

#: Optional observer notified of tape phase marks (``tape_mark``).  The
#: dataflow recorder in :mod:`repro.analysis.dataflow` installs one to
#: segment the recorded tape into message-passing rounds; when no observer
#: is installed a mark is a single ``is None`` check.
_TAPE_OBSERVER: Callable[[str], None] | None = None


def set_tape_observer(observer: "Callable[[str], None] | None") -> None:
    """Install (or clear, with ``None``) the tape phase-mark observer."""
    global _TAPE_OBSERVER
    _TAPE_OBSERVER = observer


def tape_mark(label: str) -> None:
    """Emit a phase mark to the tape observer, if one is installed.

    Model code calls this at structural boundaries (e.g. once per
    message-passing round) so recorded tapes can attribute buffers to
    phases.  Free when nothing is recording.
    """
    if _TAPE_OBSERVER is not None:
        _TAPE_OBSERVER(label)


class _GradBufferPool:
    """Free-list of gradient buffers keyed by ``(shape, dtype)``.

    Every training step used to allocate a fresh ndarray for each tensor's
    first gradient accumulation — parameters *and* every interior tape node.
    The shapes repeat exactly from step to step, so the pool hands the same
    buffers back out: :meth:`Tensor.backward` releases interior-node buffers
    when the walk finishes, :meth:`Tensor.zero_grad` releases leaf buffers,
    and :meth:`acquire` reuses them for the next step.  Steady-state training
    performs no gradient-buffer allocation at all.

    Ownership is tracked through weak references so :meth:`release` can
    never recycle a *foreign* array (e.g. a test assigning ``p.grad``
    directly): an array the pool did not hand out — or whose id was
    recycled after its owner died — is silently ignored instead of being
    handed to another tensor while outside code still holds it.
    """

    def __init__(self, max_per_key: int = 32, max_total: int = 1024) -> None:
        self._max_per_key = max_per_key
        self._max_total = max_total
        self._free: dict[tuple, list[np.ndarray]] = {}
        self._total = 0
        # id -> weakref of arrays currently lent out.  A dead referent can
        # never validate, so id recycling cannot confuse ownership.
        self._lent: dict[int, weakref.ref] = {}
        self.acquires = 0
        self.reuses = 0
        self.releases = 0

    def acquire(self, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        key = (shape, np.dtype(dtype).str)
        stack = self._free.get(key)
        if stack:
            buf = stack.pop()
            self._free[key] = self._free.pop(key)  # mark key recently used
            self._total -= 1
            self.reuses += 1
        else:
            buf = np.empty(shape, dtype=dtype)
        self.acquires += 1
        key_id = id(buf)

        def _forget(ref: weakref.ref, key_id: int = key_id) -> None:
            if self._lent.get(key_id) is ref:
                del self._lent[key_id]

        self._lent[key_id] = weakref.ref(buf, _forget)
        return buf

    def release(self, buf: np.ndarray | None) -> None:
        if buf is None:
            return
        if buf.base is not None:
            # A view into shared storage (an execution arena slot, a slice of
            # another tensor's buffer) must never enter the free list: handing
            # it out as a "fresh" gradient buffer would alias two tensors'
            # gradients onto one allocation.  The pool only ever lends arrays
            # it allocated itself (base is None), so any view is foreign.
            return
        ref = self._lent.get(id(buf))
        if ref is None or ref() is not buf:
            return  # not pool-owned: never recycle arrays we did not lend
        del self._lent[id(buf)]
        key = (buf.shape, buf.dtype.str)
        stack = self._free.setdefault(key, [])
        if len(stack) >= self._max_per_key:
            return
        if self._total >= self._max_total:
            # The pool is full of shapes nobody is asking for (e.g. the
            # batch size changed): evict from the least-recently-used
            # free-list instead of refusing the live shape, otherwise the
            # new working set never pools and every step re-allocates.
            for other_key, other_stack in self._free.items():
                if other_stack and other_key != key:
                    other_stack.pop()
                    self._total -= 1
                    break
            else:
                return
        stack.append(buf)
        self._total += 1
        self.releases += 1

    def clear(self) -> None:
        self._free.clear()
        self._lent.clear()
        self._total = 0
        self.acquires = self.reuses = self.releases = 0

    def stats(self) -> dict[str, int]:
        return {
            "acquires": self.acquires,
            "reuses": self.reuses,
            "releases": self.releases,
            "free": self._total,
        }


_GRAD_POOL = _GradBufferPool()


def grad_pool_stats() -> dict[str, int]:
    """Counters of the process-wide gradient-buffer pool (see the bench)."""
    return _GRAD_POOL.stats()


def clear_grad_pool() -> None:
    """Drop all pooled buffers and reset counters (test isolation)."""
    _GRAD_POOL.clear()


class no_grad:
    """Context manager disabling gradient tape construction.

    Inside a ``with no_grad():`` block all operations produce tensors with
    ``requires_grad=False`` and no parents, which makes pure inference cheaper
    and prevents memory growth during evaluation loops.  The switch is
    per thread: serving threads inside ``no_grad`` leave a training thread's
    tape untouched, however their enters and exits interleave.
    """

    def __enter__(self) -> "no_grad":
        self._prev = _GRAD_MODE.enabled
        _GRAD_MODE.enabled = False
        return self

    def __exit__(self, *exc: object) -> None:
        _GRAD_MODE.enabled = self._prev


def is_grad_enabled() -> bool:
    """Return whether new operations are being recorded on this thread's tape."""
    return _GRAD_MODE.enabled


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along axes that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _indexes_unique_positions(key: object) -> bool:
    """True when ``data[key]`` cannot address the same position twice.

    Ints, slices, ``None``/``Ellipsis`` and boolean masks all select
    distinct positions; only integer-array (fancy) indexing may repeat one.
    """
    parts = key if isinstance(key, tuple) else (key,)
    for k in parts:
        if isinstance(k, (int, np.integer, slice)) or k is None or k is Ellipsis:
            continue
        if isinstance(k, np.ndarray) and k.dtype == np.bool_:
            continue
        return False
    return True


class Tensor:
    """A numpy array plus an optional gradient tape node.

    Attributes:
        data: The underlying ``numpy.ndarray``.
        grad: Accumulated gradient (same shape as ``data``) after backward.
        requires_grad: Whether gradients flow into this tensor.
    """

    __slots__ = (
        "data", "grad", "requires_grad", "_parents", "_backward", "_retains",
        "name",
    )
    __array_priority__ = 100  # numpy defers binary ops to Tensor

    def __init__(
        self,
        data: np.ndarray | float | int | Sequence,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        backward: Callable[[np.ndarray], None] | None = None,
        name: str | None = None,
        dtype: np.dtype | type | None = None,
    ) -> None:
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.kind != "f":
            # Non-float inputs (ints, bools) always promote to the default
            # tape precision; float inputs keep their width (a float32 model
            # stays float32 end to end).
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_MODE.enabled
        self._parents = parents if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None
        self._retains: tuple[np.ndarray, ...] | None = None
        self.name = name

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the raw value (shared, do not mutate)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Tape machinery
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            buf = _GRAD_POOL.acquire(self.data.shape, self.data.dtype)
            np.copyto(buf, grad, casting="unsafe")
            self.grad = buf
        else:
            np.add(self.grad, grad, out=self.grad, casting="unsafe")

    def zero_grad(self) -> None:
        """Reset the accumulated gradient (the buffer returns to the pool)."""
        _GRAD_POOL.release(self.grad)
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Args:
            grad: Incoming gradient; defaults to ones (scalar outputs only).

        Raises:
            ValueError: If called on a non-scalar without an explicit ``grad``.
        """
        if not self.requires_grad:
            raise ValueError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without an explicit gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

        # Interior-node gradients are tape scratch: only leaves (parameters,
        # inputs) are read after the walk.  Returning the buffers here is
        # what lets the pool serve the next step allocation-free.
        for node in order:
            if node._backward is not None:
                _GRAD_POOL.release(node.grad)
                node.grad = None

    @property
    def backward_retains(self) -> "tuple[np.ndarray, ...]":
        """The arrays this node's backward closure reads.

        Declared per op via ``_make(..., retains=...)``; an op without a
        declaration conservatively retains every parent's data.  The
        dataflow analysis (:mod:`repro.analysis.dataflow`) uses this to
        extend buffer liveness across the backward pass and to prove
        in-place writes safe (RP601).
        """
        if self._retains is not None:
            return self._retains
        return tuple(p.data for p in self._parents)

    # ------------------------------------------------------------------
    # Construction helper for ops
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], None],
        retains: "tuple[np.ndarray, ...] | None" = None,
    ) -> "Tensor":
        """Build a tape node.

        Args:
            data: Forward result.
            parents: Input tensors (grad flows to those requiring it).
            backward: Gradient closure.
            retains: The arrays ``backward`` reads — forward inputs/outputs
                and any closure-captured scratch.  ``None`` (the default)
                means "conservatively all parent data"; pass ``()`` for a
                closure that reads no array contents (index-only backwards
                and shape-only reductions).  Pure index/mask operands are
                input data, not tape buffers, and are never listed.
        """
        parents = tuple(parents)
        requires = _GRAD_MODE.enabled and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
            out._retains = retains
        return out

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "Tensor | float") -> "Tensor":
        other = tensor(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward, retains=())

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward, retains=())

    def __sub__(self, other: "Tensor | float") -> "Tensor":
        return self + (-tensor(other))

    def __rsub__(self, other: "Tensor | float") -> "Tensor":
        return tensor(other) + (-self)

    def __mul__(self, other: "Tensor | float") -> "Tensor":
        other = tensor(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(
            out_data, (self, other), backward, retains=(self.data, other.data)
        )

    __rmul__ = __mul__

    def __truediv__(self, other: "Tensor | float") -> "Tensor":
        other = tensor(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data**2), other.shape)
                )

        return Tensor._make(
            out_data, (self, other), backward, retains=(self.data, other.data)
        )

    def __rtruediv__(self, other: "Tensor | float") -> "Tensor":
        return tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward, retains=(self.data,))

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = tensor(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ grad)

        return Tensor._make(
            out_data, (self, other), backward, retains=(self.data, other.data)
        )

    # ------------------------------------------------------------------
    # Reductions and shaping (method forms; see ops.py for functionals)
    # ------------------------------------------------------------------
    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            # _accumulate copies (or adds) out of the read-only broadcast
            # view, so no intermediate materialization is needed.
            self._accumulate(np.broadcast_to(g, self.shape))

        return Tensor._make(out_data, (self,), backward, retains=())

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward, retains=())

    @property
    def T(self) -> "Tensor":
        out_data = self.data.T

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.T)

        return Tensor._make(out_data, (self,), backward, retains=())

    def __getitem__(self, key: object) -> "Tensor":
        out_data = self.data[key]
        # Basic indexing (ints/slices/bool masks) addresses each source
        # position at most once, so the backward scatter is a plain
        # assignment into zeros; only integer-array (fancy) indexing can
        # repeat positions and needs the much slower unbuffered add.at.
        unique_positions = _indexes_unique_positions(key)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = _GRAD_POOL.acquire(self.data.shape, self.data.dtype)
                full[...] = 0.0
                if unique_positions:
                    full[key] = grad
                else:
                    np.add.at(full, key, grad)
                self._accumulate(full)
                _GRAD_POOL.release(full)

        return Tensor._make(out_data, (self,), backward, retains=())


def tensor(
    value: "Tensor | np.ndarray | float | int | Sequence",
    requires_grad: bool = False,
    dtype: np.dtype | type | None = None,
) -> Tensor:
    """Coerce ``value`` into a :class:`Tensor`.

    Existing tensors pass through unchanged (``requires_grad`` is ignored for
    them, mirroring ``torch.as_tensor`` semantics).  When ``dtype`` is
    omitted, float ndarrays keep their dtype (so float32 pipelines are not
    silently promoted) and everything else becomes float64, consistently
    with :class:`Tensor` construction.
    """
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad, dtype=dtype)

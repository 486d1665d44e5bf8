"""Functional operations on :class:`repro.nn.tensor.Tensor`.

These complement the operator overloads on :class:`Tensor` with the
nonlinearities and the graph primitives (``gather`` / ``segment_sum``) that
RouteNet's message-passing layers are built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensor import _GRAD_POOL, Tensor, tensor

__all__ = [
    "exp",
    "log",
    "sigmoid",
    "tanh",
    "relu",
    "leaky_relu",
    "softplus",
    "abs_",
    "sqrt",
    "clip",
    "where",
    "concat",
    "stack",
    "gather",
    "segment_sum",
    "segment_mean",
    "dropout",
    "huber",
    "ScatterPlan",
    "make_scatter_plan",
]


@dataclass(frozen=True)
class ScatterPlan:
    """Precomputed stable-sort schedule for a scatter-add over rows.

    ``np.add.at`` dispatches per element; grouping equal destination ids
    with a stable sort lets the same scatter run as one buffered gather
    plus ``np.add.reduceat``.  The stable sort keeps each destination's
    contributions in original row order.  Note ``reduceat`` may sum a bucket
    pairwise where ``np.add.at`` accumulates strictly sequentially: results
    agree to ~1 ulp, and are deterministic run to run, but are not
    bit-identical to an unplanned scatter (tested at that tolerance).

    Index-only and input-derived, so it belongs in a cached
    :class:`~repro.core.ForwardPlan` — built once per input, reused every
    forward/backward.

    Attributes:
        order: (V,) source rows with valid (>= 0) ids, stably sorted by id.
        starts: (U,) block starts into the permuted rows (reduceat offsets).
        rows: (U,) destination row for each block (the unique ids, sorted).
        sorted_ids: (V,) destination id of each permuted source row.
    """

    order: np.ndarray
    starts: np.ndarray
    rows: np.ndarray
    sorted_ids: np.ndarray

    def scatter_into(self, values: np.ndarray, out: np.ndarray) -> None:
        """Scatter-add ``values`` rows into zero-initialized ``out``."""
        if self.order.size:
            out[self.rows] = np.add.reduceat(values[self.order], self.starts, axis=0)


def make_scatter_plan(ids: np.ndarray) -> ScatterPlan:
    """Build the :class:`ScatterPlan` for destination ``ids`` (-1 = skip)."""
    ids = np.asarray(ids, dtype=np.intp)
    valid = np.flatnonzero(ids >= 0)
    order = valid[np.argsort(ids[valid], kind="stable")]
    sorted_ids = ids[order]
    if order.size:
        starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
    else:
        starts = np.empty(0, dtype=np.intp)
    return ScatterPlan(
        order=order, starts=starts, rows=sorted_ids[starts], sorted_ids=sorted_ids
    )


def exp(x: Tensor) -> Tensor:
    x = tensor(x)
    out_data = np.exp(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * out_data)

    return Tensor._make(out_data, (x,), backward, retains=(out_data,))


def log(x: Tensor) -> Tensor:
    x = tensor(x)
    out_data = np.log(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad / x.data)

    return Tensor._make(out_data, (x,), backward, retains=(x.data,))


def sqrt(x: Tensor) -> Tensor:
    x = tensor(x)
    out_data = np.sqrt(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * 0.5 / out_data)

    return Tensor._make(out_data, (x,), backward, retains=(out_data,))


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic of a raw array (the repo's only sigmoid kernel).

    ``exp`` only ever sees non-positive inputs, and one evaluation covers
    both branches: ``1 / (1 + e)`` for ``x >= 0`` and ``e / (1 + e)``
    otherwise, with ``e = exp(-|x|)``.  Shared by :func:`sigmoid` and the
    fused GRU step, so tape and cell agree bit for bit.
    """
    e = np.abs(x, out=np.empty_like(x))  # an array even for 0-d input
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def sigmoid(x: Tensor) -> Tensor:
    x = tensor(x)
    out_data = sigmoid_array(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            g = out_data * (1.0 - out_data)
            g *= grad
            x._accumulate(g)

    return Tensor._make(out_data, (x,), backward, retains=(out_data,))


def tanh(x: Tensor) -> Tensor:
    x = tensor(x)
    out_data = np.tanh(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * (1.0 - out_data**2))

    return Tensor._make(out_data, (x,), backward, retains=(out_data,))


def relu(x: Tensor) -> Tensor:
    x = tensor(x)
    out_data = np.maximum(x.data, 0.0)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * (x.data > 0))

    return Tensor._make(out_data, (x,), backward, retains=(x.data,))


def leaky_relu(x: Tensor, alpha: float = 0.01) -> Tensor:
    x = tensor(x)
    out_data = np.where(x.data > 0, x.data, alpha * x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * np.where(x.data > 0, 1.0, alpha))

    return Tensor._make(out_data, (x,), backward, retains=(x.data,))


def softplus(x: Tensor) -> Tensor:
    x = tensor(x)
    out_data = np.logaddexp(0.0, x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad / (1.0 + np.exp(-x.data)))

    return Tensor._make(out_data, (x,), backward, retains=(x.data,))


def abs_(x: Tensor) -> Tensor:
    x = tensor(x)
    out_data = np.abs(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * np.sign(x.data))

    return Tensor._make(out_data, (x,), backward, retains=(x.data,))


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to ``[lo, hi]``; gradient is zero outside the interval."""
    x = tensor(x)
    out_data = np.clip(x.data, lo, hi)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            inside = (x.data >= lo) & (x.data <= hi)
            x._accumulate(grad * inside)

    return Tensor._make(out_data, (x,), backward, retains=(x.data,))


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select; ``condition`` is a plain boolean array."""
    a, b = tensor(a), tensor(b)
    cond = np.asarray(condition, dtype=bool)
    out_data = np.where(cond, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        from .tensor import _unbroadcast

        # grad * cond selects exactly; grad - that is the complement
        # bit-for-bit, without materializing ~cond.
        ga = grad * cond
        if a.requires_grad:
            a._accumulate(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad - ga, b.shape))

    return Tensor._make(out_data, (a, b), backward, retains=())


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = [tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                t._accumulate(grad[tuple(index)])

    return Tensor._make(out_data, tensors, backward, retains=())


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slabs = np.moveaxis(grad, axis, 0)
        for t, slab in zip(tensors, slabs):
            if t.requires_grad:
                t._accumulate(slab)

    return Tensor._make(out_data, tensors, backward, retains=())


def gather(x: Tensor, indices: np.ndarray, plan: ScatterPlan | None = None) -> Tensor:
    """Select rows ``x[indices]`` (first axis), differentiable in ``x``.

    ``plan`` (a :class:`ScatterPlan` built from ``indices``) routes the
    backward scatter-add through the buffered reduceat path instead of
    per-element ``np.add.at`` — deterministic and equal to ~1 ulp (see
    :class:`ScatterPlan`), much faster, and free when the plan comes from a
    cached :class:`~repro.core.ForwardPlan`.
    """
    x = tensor(x)
    idx = np.asarray(indices, dtype=np.intp)
    out_data = x.data[idx]

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            # Pooled scratch instead of zeros_like: scatter targets are the
            # biggest arrays on the tape, and a fresh allocation per
            # backward dwarfs the memset.
            full = _GRAD_POOL.acquire(x.data.shape, x.data.dtype)
            full[...] = 0.0
            if plan is not None:
                plan.scatter_into(grad, full)
            else:
                np.add.at(full, idx, grad)
            x._accumulate(full)
            _GRAD_POOL.release(full)

    return Tensor._make(out_data, (x,), backward, retains=())


def segment_sum(
    x: Tensor,
    segment_ids: np.ndarray,
    num_segments: int,
    plan: ScatterPlan | None = None,
) -> Tensor:
    """Sum rows of ``x`` into ``num_segments`` buckets given by ``segment_ids``.

    This is the aggregation primitive of RouteNet's link update: messages from
    every (path, position) that crosses a link are summed into that link's
    bucket.  Rows with ``segment_ids == -1`` are ignored (padding).

    ``plan`` (a :class:`ScatterPlan` built from ``segment_ids``) replaces the
    per-element ``np.add.at`` scatter with the buffered reduceat schedule;
    the stable sort preserves per-bucket member order, so results are
    deterministic and equal to ~1 ulp (see :class:`ScatterPlan`).
    """
    x = tensor(x)
    ids = np.asarray(segment_ids, dtype=np.intp)
    if ids.shape[0] != x.data.shape[0]:
        raise ValueError(
            f"segment_ids has {ids.shape[0]} entries for {x.data.shape[0]} rows"
        )
    out_data = np.zeros((num_segments,) + x.data.shape[1:], dtype=x.data.dtype)
    if plan is not None:
        plan.scatter_into(x.data, out_data)
    else:
        valid = ids >= 0
        np.add.at(out_data, ids[valid], x.data[valid])

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            full = _GRAD_POOL.acquire(x.data.shape, x.data.dtype)
            full[...] = 0.0
            if plan is not None:
                full[plan.order] = grad[plan.sorted_ids]
            else:
                keep = ids >= 0
                full[keep] = grad[ids[keep]]
            x._accumulate(full)
            _GRAD_POOL.release(full)

    return Tensor._make(out_data, (x,), backward, retains=())


def segment_mean(x: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Mean-aggregate rows into segments; empty segments yield zeros."""
    ids = np.asarray(segment_ids, dtype=np.intp)
    counts = np.bincount(ids[ids >= 0], minlength=num_segments).astype(np.float64)
    counts = np.maximum(counts, 1.0).reshape((num_segments,) + (1,) * (tensor(x).ndim - 1))
    return segment_sum(x, ids, num_segments) * (1.0 / counts)


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout; identity when ``training`` is false or rate is 0."""
    if not training or rate <= 0.0:
        return tensor(x)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    x = tensor(x)
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * mask


def huber(pred: Tensor, target: np.ndarray, delta: float = 1.0) -> Tensor:
    """Elementwise Huber loss (smooth L1); target is a constant array."""
    pred = tensor(pred)
    target = np.asarray(target, dtype=pred.dtype)
    diff = pred - target
    quadratic = diff * diff * 0.5
    linear = abs_(diff) * delta - (0.5 * delta * delta)
    return where(np.abs(diff.data) <= delta, quadratic, linear)


#: Every public functional op, keyed by name.  ``repro.analysis`` drives its
#: finite-difference gradient audit and its abstract shape interpreter off
#: this registry, so a newly added op is automatically picked up by both
#: (the analysis suite fails loudly if an op lacks a gradcheck spec or an
#: abstract shape rule).
#: Index-plan helpers are public but not tape ops: nothing to gradcheck or
#: shape-interpret (they carry no gradients and produce no tensors).
_NON_OPS = {"ScatterPlan", "make_scatter_plan"}

OP_REGISTRY: dict[str, "object"] = {
    name: globals()[name] for name in __all__ if name not in _NON_OPS
}

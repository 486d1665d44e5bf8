"""Length-packed index plans for the RouteNet forward pass.

RouteNet's path update runs a recurrent cell along every path, one link per
timestep.  Paths have different lengths, so at timestep ``t`` only the paths
longer than ``t`` are live.  :func:`build_plan` stably sorts the paths by
length, descending: the live rows at every timestep are then a contiguous
prefix ``[:n_t]`` of the sorted order, and the forward runs the cell on
that prefix alone — the packed layout of ragged sequences (PyTorch's
``pack_padded_sequence``; the path sequences of RouteNet-Fermi).  This
module is the only one that knows the order: the plan carries the
permutation, its inverse and, per timestep, the prefix length, the prefix's
link ids and the scatter schedule of the message aggregation.

None of that depends on the model weights, only on the input's path-link
incidence, so for a cached input (every training epoch after the first,
every fused batch replayed from the trainer's
:class:`~repro.serving.InputCache`) it is built once.  :func:`plan_for`
memoizes one :class:`ForwardPlan` per live ``ModelInput``.  The memo is
keyed by ``id`` but guarded by a weak reference — the same pattern as
:class:`repro.serving.InputCache`'s digest memo — so a recycled id can never
serve a stale plan, and dead entries evict themselves.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from ..errors import ModelError
from ..nn.ops import ScatterPlan, make_scatter_plan
from .features import ModelInput

__all__ = ["ForwardPlan", "PlanStep", "adopt_plan", "build_plan", "plan_for"]


@dataclass(frozen=True)
class PlanStep:
    """Index state for one message-passing timestep, in packed row order.

    Attributes:
        ids: (n,) link id each live path traverses here (never -1); the
            live paths are the packed rows ``[:n]``.
        plan: Scatter schedule over ``ids`` for the message aggregation and
            for the backward of the link-state gather.  Each bucket lists
            its members in *original* path order, so the aggregation sums
            exactly the terms the unpacked layout summed, in the same order.
    """

    ids: np.ndarray
    plan: ScatterPlan

    @property
    def n(self) -> int:
        """Live paths at this timestep."""
        return int(self.ids.shape[0])


@dataclass(frozen=True)
class ForwardPlan:
    """Everything index-shaped that a forward pass consumes.

    ``steps`` stops at the first timestep with no live path.

    Attributes:
        perm: (P,) original path index of each packed row (a stable sort by
            path length, descending).
        inv: (P,) packed row of each original path (``perm``'s inverse).
        unpack_plan: Scatter schedule of the gather by ``inv`` that restores
            the original order (its backward is a permutation).
        steps: One :class:`PlanStep` per timestep.
    """

    perm: np.ndarray
    inv: np.ndarray
    unpack_plan: ScatterPlan
    steps: tuple[PlanStep, ...]

    @property
    def num_steps(self) -> int:
        return len(self.steps)


def build_plan(inputs: ModelInput) -> ForwardPlan:
    """Derive the packed index plan for one input (no caching).

    Raises:
        ModelError: When a path's valid positions are not a prefix of its
            row, or ``link_indices`` and ``mask`` disagree; the packed layout
            needs contiguous paths.
    """
    link_idx = inputs.link_indices
    lengths = np.count_nonzero(inputs.mask, axis=1)
    perm = np.argsort(-lengths, kind="stable")
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    steps = []
    for t in range(inputs.max_path_length):
        n = int(np.count_nonzero(lengths > t))
        if n == 0:
            break
        ids = link_idx[perm[:n], t]
        # Grouping in original row space keeps each bucket's members in
        # original path order; ``inv`` then names their packed rows.
        grouped = make_scatter_plan(link_idx[:, t])
        if grouped.order.size != n or ids.min() < 0:
            raise ModelError(
                f"timestep {t}: link_indices must hold a link exactly where "
                f"mask is set, contiguously from position 0"
            )
        steps.append(PlanStep(ids=ids, plan=ScatterPlan(
            order=inv[grouped.order],
            starts=grouped.starts,
            rows=grouped.rows,
            sorted_ids=grouped.sorted_ids,
        )))
    rows = np.arange(perm.size)
    return ForwardPlan(
        perm=perm,
        inv=inv,
        unpack_plan=ScatterPlan(order=perm, starts=rows, rows=rows, sorted_ids=rows),
        steps=tuple(steps),
    )


# id -> (weakref to the planned input, its plan).  The weakref guard means a
# recycled id can never validate against a dead input; the eviction callback
# keeps the memo from growing with dead entries.
_MEMO: dict[int, tuple[weakref.ref, ForwardPlan]] = {}


def plan_for(inputs: ModelInput) -> ForwardPlan:
    """The (memoized) :class:`ForwardPlan` for ``inputs``."""
    key = id(inputs)
    memo = _MEMO.get(key)
    if memo is not None and memo[0]() is inputs:
        return memo[1]
    return adopt_plan(inputs, build_plan(inputs))


def adopt_plan(inputs: ModelInput, plan: ForwardPlan) -> ForwardPlan:
    """Install a plan computed elsewhere (e.g. a prefetch worker) for ``inputs``.

    The streaming pipeline builds each batch's :class:`ForwardPlan` in the
    background process alongside the packed input; adopting it here lets the
    training step's :func:`plan_for` hit the memo instead of re-deriving the
    scatter schedules on the hot path.  Plans are pure functions of
    ``inputs.link_indices``/``mask``, so an adopted plan is indistinguishable
    from a locally built one.
    """
    key = id(inputs)

    def _evict(ref: weakref.ref, key: int = key) -> None:
        entry = _MEMO.get(key)
        if entry is not None and entry[0] is ref:
            del _MEMO[key]

    try:
        _MEMO[key] = (weakref.ref(inputs, _evict), plan)
    except TypeError:
        pass  # un-weakref-able stand-ins (tests) are simply not memoized
    return plan

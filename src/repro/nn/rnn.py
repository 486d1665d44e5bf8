"""Recurrent cells.

RouteNet uses GRU cells for both of its message-passing updates: the *path
update* runs a GRU along the sequence of links of each path, and the *link
update* applies a single GRU step with the aggregated path messages as input.
"""

from __future__ import annotations

import numpy as np

from . import init, ops
from .layers import Module, Parameter
from .tensor import Tensor, tensor

__all__ = ["GRUCell", "RNNCell", "make_cell"]


def _matmul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` whose rows do not depend on how many rows share the call.

    BLAS multiplies a single row with a matrix-vector kernel whose
    summation order differs from the matrix-matrix kernel's in the last
    bit.  The packed path update often ends with one live path, so a lone
    row is doubled to keep it on the matrix-matrix kernel: each path state
    then comes out bitwise the same however many paths are still live.
    """
    if a.shape[0] == 1:
        return (np.concatenate((a, a)) @ b)[:1]
    return a @ b


class GRUCell(Module):
    """Gated Recurrent Unit cell (Cho et al., 2014).

    Update equations for input ``x`` and previous state ``h``::

        z = sigmoid(x @ Wz + h @ Uz + bz)      # update gate
        r = sigmoid(x @ Wr + h @ Ur + br)      # reset gate
        n = tanh(x @ Wn + (r * h) @ Un + bn)   # candidate state
        h' = (1 - z) * n + z * h

    The candidate/gate kernels are stored concatenated ``[z | r | n]`` for
    fewer matmuls per step.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator) -> None:
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w = Parameter(
            np.concatenate(
                [init.glorot_uniform(rng, input_size, hidden_size) for _ in range(3)], axis=1
            ),
            name="w",
        )
        self.u = Parameter(
            np.concatenate(
                [init.orthogonal(rng, hidden_size, hidden_size) for _ in range(3)], axis=1
            ),
            name="u",
        )
        self.bias = Parameter(init.zeros(3 * hidden_size), name="bias")

    def __call__(self, x: Tensor, h: Tensor) -> Tensor:
        """One GRU step for a batch: ``x`` is (B, I), ``h`` is (B, H).

        Runs as two fused tape nodes (input transform + recurrent step)
        with hand-written backwards: composing the step from ~20 primitive
        ops materializes an intermediate array (plus its gradient buffer)
        per op, which dominates training time on fused batches.  The fused
        form computes the same arithmetic — gate pre-activations are
        bit-identical, and the update/reset sigmoids share one ``exp`` — in
        a fraction of the memory passes.  Callers that reuse one input
        transform across timesteps (RouteNet's path update) invoke the two
        halves directly.
        """
        return self.step_precomputed(self.precompute_input(x), h)

    def precompute_input(self, x: Tensor) -> Tensor:
        """The input-side gate pre-activations ``x @ W + b`` as one node.

        RouteNet's path update consumes *gathered link states*: transforming
        all L link states once per round and gathering rows of the result is
        bit-identical to transforming the gathered rows at every timestep
        (each output row is an independent dot product) but does the GEMM
        over L rows instead of ``sum(P_t)``.
        """
        x = tensor(x)
        w, bias = self.w, self.bias
        out_data = x.data @ w.data + bias.data

        def backward(grad: np.ndarray) -> None:
            if w.requires_grad:
                w._accumulate(x.data.T @ grad)
            if bias.requires_grad:
                bias._accumulate(grad.sum(axis=0))
            if x.requires_grad:
                x._accumulate(grad @ w.data.T)

        return Tensor._make(
            out_data, (x, w, bias), backward, retains=(x.data, w.data)
        )

    def step_precomputed(self, gates_x: Tensor, h: Tensor) -> Tensor:
        """One GRU step given precomputed input gates (see ``__call__``)."""
        gates_x, h = tensor(gates_x), tensor(h)
        hs = self.hidden_size
        u = self.u
        gx, hd = gates_x.data, h.data
        # In-place accumulation into fresh temporaries: float addition
        # commutes bitwise, so ``zr += gx`` equals ``gx + h @ U`` exactly,
        # and one contiguous sigmoid covers both gates.
        zr = _matmul_rows(hd, u.data[:, : 2 * hs])
        zr += gx[:, : 2 * hs]
        zr = ops.sigmoid_array(zr)
        z = zr[:, :hs]
        r = zr[:, hs:]
        rh = r * hd
        n = _matmul_rows(rh, u.data[:, 2 * hs :])
        n += gx[:, 2 * hs :]
        np.tanh(n, out=n)
        out_data = 1.0 - z
        out_data *= n
        out_data += z * hd

        def backward(grad: np.ndarray) -> None:
            uzr = u.data[:, : 2 * hs]
            un = u.data[:, 2 * hs :]
            # h' = (1 - z) * n + z * h
            dnpre = grad * (1.0 - z)
            dnpre *= 1.0 - n * n                         # d(tanh pre-act)
            dz = grad * (hd - n)
            drh = dnpre @ un.T
            dr = drh * hd
            # Joint sigmoid derivative for both gates: s * (1 - s) * upstream.
            dzrpre = zr * (1.0 - zr)
            dzrpre[:, :hs] *= dz
            dzrpre[:, hs:] *= dr
            if gates_x.requires_grad:
                gates_x._accumulate(np.concatenate([dzrpre, dnpre], axis=1))
            if u.requires_grad:
                u._accumulate(
                    np.concatenate([hd.T @ dzrpre, rh.T @ dnpre], axis=1)
                )
            if h.requires_grad:
                dh = grad * z
                np.multiply(drh, r, out=drh)             # drh is dead after dr
                dh += drh
                dh += dzrpre @ uzr.T
                h._accumulate(dh)

        return Tensor._make(
            out_data, (gates_x, h, u), backward, retains=(hd, u.data, zr, n, rh)
        )


class RNNCell(Module):
    """Vanilla Elman cell ``h' = tanh(x @ W + h @ U + b)``.

    The ungated alternative used by the cell-type ablation: without gates,
    long paths and many message-passing rounds degrade state retention.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator) -> None:
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w = Parameter(init.glorot_uniform(rng, input_size, hidden_size), name="w")
        self.u = Parameter(init.orthogonal(rng, hidden_size, hidden_size), name="u")
        self.bias = Parameter(init.zeros(hidden_size), name="bias")

    def __call__(self, x: Tensor, h: Tensor) -> Tensor:
        """One step for a batch: ``x`` is (B, I), ``h`` is (B, H)."""
        return self.step_precomputed(self.precompute_input(x), h)

    def precompute_input(self, x: Tensor) -> Tensor:
        """Input-side pre-activation ``x @ W + b`` (see :class:`GRUCell`)."""
        return x @ self.w + self.bias

    def step_precomputed(self, gates_x: Tensor, h: Tensor) -> Tensor:
        """One step given the precomputed input pre-activation, as one node."""
        gates_x, h = tensor(gates_x), tensor(h)
        u = self.u
        hd = h.data
        out_data = _matmul_rows(hd, u.data)
        out_data += gates_x.data
        np.tanh(out_data, out=out_data)

        def backward(grad: np.ndarray) -> None:
            dpre = grad * (1.0 - out_data * out_data)
            if gates_x.requires_grad:
                gates_x._accumulate(dpre)
            if u.requires_grad:
                u._accumulate(hd.T @ dpre)
            if h.requires_grad:
                h._accumulate(dpre @ u.data.T)

        return Tensor._make(
            out_data, (gates_x, h, u), backward, retains=(hd, u.data, out_data)
        )


_CELLS = {"gru": GRUCell, "rnn": RNNCell}


def make_cell(
    kind: str, input_size: int, hidden_size: int, rng: np.random.Generator
) -> "GRUCell | RNNCell":
    """Cell factory by name (``"gru"`` or ``"rnn"``)."""
    try:
        cls = _CELLS[kind]
    except KeyError:
        raise ValueError(f"unknown cell type {kind!r}; options: {sorted(_CELLS)}") from None
    return cls(input_size, hidden_size, rng)

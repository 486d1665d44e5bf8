"""The RouteNet Graph Neural Network (Rusek et al., SOSR 2019).

RouteNet models a network sample as a bipartite relationship between
*paths* and *links*: each path holds a hidden state ``h_p``, each link a
hidden state ``h_l``, and T rounds of message passing let them exchange
information:

1. **Path update** — every path runs a GRU along the sequence of its links,
   consuming the current link states; the intermediate GRU states are the
   messages the path leaves on each traversed link.
2. **Link update** — every link aggregates (sums) the messages of all paths
   crossing it and applies its own GRU step.

After T iterations a readout MLP maps each path state to the regression
targets (mean per-packet delay and jitter).  Because the unrolled
computation graph is assembled at runtime from the input's path-link
incidence, the same trained weights apply to any topology, routing scheme
and traffic matrix — the generalization property the demo paper challenges.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..errors import ModelError
from ..random import make_rng
from ..results import PredictResult
from .features import FeatureScaler, ModelInput
from .hyperparams import HyperParams
from .plan import plan_for

__all__ = ["RouteNet"]


class RouteNet(nn.Module):
    """Path-link message-passing GNN for per-pair KPI regression."""

    def __init__(
        self,
        hparams: HyperParams | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self.hparams = hparams or HyperParams()
        rng = make_rng(seed)
        hp = self.hparams
        # Feature embeddings initialize the hidden states (the reference
        # implementation zero-pads features up to the state width; a learned
        # affine embedding is equivalent and robust to feature count).
        self.link_embed = nn.Dense(hp.link_feature_dim, hp.link_state_dim, rng, activation="tanh")
        self.path_embed = nn.Dense(hp.path_feature_dim, hp.path_state_dim, rng, activation="tanh")
        self.path_cell = nn.make_cell(
            hp.cell_type, hp.link_state_dim, hp.path_state_dim, rng
        )
        self.link_cell = nn.make_cell(
            hp.cell_type, hp.path_state_dim, hp.link_state_dim, rng
        )
        self.readout = nn.MLP(
            hp.path_state_dim,
            list(hp.readout_hidden),
            hp.readout_targets,
            rng,
            activation="relu",
        )
        self._dropout_rng = make_rng(rng)

    # ------------------------------------------------------------------
    def forward(self, inputs: ModelInput, training: bool = False) -> nn.Tensor:
        """Run message passing and return (P, targets) predictions.

        Outputs are in *scaled target space* (standardized log-KPIs); use
        :meth:`predict` for raw units.
        """
        hp = self.hparams
        if inputs.link_features.shape[1] != hp.link_feature_dim:
            raise ModelError(
                f"model expects {hp.link_feature_dim} link features, input has "
                f"{inputs.link_features.shape[1]} (hint: include_load mismatch)"
            )
        if inputs.path_features.shape[1] != hp.path_feature_dim:
            raise ModelError(
                f"model expects {hp.path_feature_dim} path features, input has "
                f"{inputs.path_features.shape[1]} (hint: QoS-class one-hot "
                f"mismatch — classed models need classed samples)"
            )
        num_links = inputs.num_links
        # Index-only state (the length-sorted path order and each timestep's
        # live prefix, link ids and aggregation schedule) is memoized per
        # input: cached training inputs pay for it once, not once per call.
        plan = plan_for(inputs)
        h_link = self.link_embed(nn.tensor(inputs.link_features))
        # Path rows run in packed order: sorted by length, descending, so
        # the paths still live at timestep t are the prefix [:n_t].  The
        # embedding is row-wise, so permuting its input permutes its output.
        h_path = self.path_embed(nn.tensor(inputs.path_features[plan.perm]))

        for r in range(hp.message_passing_steps):
            nn.tape_mark(f"round/{r}")
            last_round = r == hp.message_passing_steps - 1
            # Transform-then-gather: the input-side cell transform of every
            # gathered link state is a row of `gates_all`, so one (L, ·) GEMM
            # per round replaces a (n_t, ·) GEMM per timestep — bit-identical,
            # each output row is an independent dot product.
            gates_all = self.path_cell.precompute_input(h_link)
            message_sum: nn.Tensor | None = None
            # Rows whose path has ended are set aside (tail first) and joined
            # back once per round; the cell only ever sees live rows.
            finished: list[nn.Tensor] = []
            for step in plan.steps:
                if step.n < h_path.shape[0]:
                    finished.append(h_path[step.n :])
                    h_path = h_path[: step.n]
                gx_t = nn.ops.gather(gates_all, step.ids, plan=step.plan)
                h_path = self.path_cell.step_precomputed(gx_t, h_path)
                if last_round:
                    # The readout consumes path states only, so the final
                    # link update — and the message aggregation feeding it —
                    # is dead code: the dataflow pass (RP602) flagged it, and
                    # skipping it leaves predictions and gradients bitwise
                    # unchanged while saving one segment_sum per step plus a
                    # full link-cell step per forward.
                    continue
                # The state just after consuming link t is the message this
                # path leaves on that link.
                contribution = nn.ops.segment_sum(
                    h_path, step.ids, num_links, plan=step.plan
                )
                message_sum = (
                    contribution if message_sum is None else message_sum + contribution
                )
            if finished:
                h_path = nn.ops.concat([h_path, *reversed(finished)], axis=0)
            if not last_round:
                assert message_sum is not None  # max_len >= 1 by construction
                h_link = self.link_cell(message_sum, h_link)

        # Back to input order before dropout, so its mask falls on the same
        # rows whatever the path lengths.
        out = nn.ops.gather(h_path, plan.inv, plan=plan.unpack_plan)
        if training and hp.dropout > 0:
            out = nn.ops.dropout(out, hp.dropout, self._dropout_rng, training=True)
        return self.readout(out)

    __call__ = forward

    # ------------------------------------------------------------------
    def predict(self, inputs: ModelInput, scaler: FeatureScaler) -> PredictResult:
        """Inference in raw units.

        Returns:
            A :class:`~repro.results.PredictResult` with ``delay`` (and
            ``jitter`` when the model has 2 targets) arrays ordered like
            ``inputs.pairs``.
        """
        with nn.no_grad():
            encoded = self.forward(inputs, training=False).numpy()
        decoded = scaler.decode_targets(encoded)
        return PredictResult(
            pairs=inputs.pairs,
            delay=decoded[:, 0],
            jitter=decoded[:, 1] if decoded.shape[1] > 1 else None,
        )

    # ------------------------------------------------------------------
    # Checkpointing (architecture + scaler + weights in one archive)
    # ------------------------------------------------------------------
    def save(self, path: str, scaler: FeatureScaler, extra_meta: dict | None = None) -> None:
        """Persist weights, hyperparameters and the feature scaler."""
        meta = {
            "hparams": self.hparams.to_dict(),
            "scaler": scaler.to_dict(),
            **(extra_meta or {}),
        }
        nn.save_module(path, self, meta=meta)

    @classmethod
    def load(cls, path: str) -> tuple["RouteNet", FeatureScaler, dict]:
        """Restore a checkpoint written by :meth:`save`.

        Returns:
            ``(model, scaler, extra_meta)``.
        """
        state, meta = nn.load_state(path)
        if "hparams" not in meta or "scaler" not in meta:
            raise ModelError(f"checkpoint {path!r} lacks RouteNet metadata")
        model = cls(HyperParams.from_dict(meta["hparams"]))
        model.load_state_dict(state)
        scaler = FeatureScaler.from_dict(meta["scaler"])
        extra = {k: v for k, v in meta.items() if k not in ("hparams", "scaler")}
        return model, scaler, extra

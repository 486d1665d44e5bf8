"""The model check: the real RouteNet forward on a topology signature.

RouteNet's computation graph is assembled at runtime from each input's
path-link incidence, so a shape bug (a transposed kernel, an
``include_load`` mismatch, a readout that does not match the state width)
only surfaces when a real sample reaches it — possibly an hour into a
training run on a large topology.  :func:`check_model` runs the real
``model.forward`` once on a signature's incidence under the
:class:`~repro.analysis.dataflow.recorder.TapeRecorder`: every kernel that
training and serving execute runs, fused cells included, and a failure is
localized from the traceback with no per-op code.

Usage::

    from repro.analysis import TopologySignature, check_model

    sig = TopologySignature.from_topology(topology)   # real incidence
    report = check_model(model, sig)
    if not report.ok:
        print(report.error)        # names the op and the operand shapes
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...errors import AnalysisError
from .recorder import ShapeCheckError, TapeRecorder

__all__ = [
    "PAPER_SIGNATURE_NAMES",
    "ShapeReport",
    "TopologySignature",
    "check_model",
    "paper_signatures",
]

#: The evaluation signatures of the source paper: the two training
#: topologies (NSFNET, 50-node synthetic) and the unseen Geant2.
PAPER_SIGNATURE_NAMES = ("nsfnet", "geant2", "synthetic50")


@dataclass(frozen=True)
class TopologySignature:
    """The incidence structure one topology/routing pair presents to RouteNet.

    Everything the forward graph's *structure* depends on — never any
    traffic values or link weights.
    """

    name: str
    num_nodes: int
    num_links: int
    num_paths: int
    link_indices: np.ndarray  # (P, max_len), -1 padded
    mask: np.ndarray  # (P, max_len) bool
    link_feature_dim: int = 1
    path_feature_dim: int = 1

    @property
    def max_path_length(self) -> int:
        return int(self.link_indices.shape[1])

    @classmethod
    def from_topology(
        cls,
        topology: "object",
        routing: "object | None" = None,
        link_feature_dim: int = 1,
        path_feature_dim: int = 1,
    ) -> "TopologySignature":
        """Signature of ``topology`` under ``routing`` (shortest-path default)
        with every ordered source/destination pair routed."""
        from ...routing import RoutingScheme

        if routing is None:
            routing = RoutingScheme.shortest_path(topology)
        pairs = [
            (s, d)
            for s in range(topology.num_nodes)
            for d in range(topology.num_nodes)
            if s != d and (s, d) in routing
        ]
        if not pairs:
            raise AnalysisError(f"topology {topology.name!r} routes no pairs")
        link_paths = [routing.link_path(s, d) for s, d in pairs]
        max_len = max(len(p) for p in link_paths)
        link_indices = np.full((len(pairs), max_len), -1, dtype=np.intp)
        for i, path in enumerate(link_paths):
            link_indices[i, : len(path)] = path
        return cls(
            name=str(topology.name),
            num_nodes=int(topology.num_nodes),
            num_links=int(topology.num_links),
            num_paths=len(pairs),
            link_indices=link_indices,
            mask=link_indices >= 0,
            link_feature_dim=link_feature_dim,
            path_feature_dim=path_feature_dim,
        )

    def model_input(self) -> "object":
        """A :class:`~repro.core.ModelInput` whose feature blocks are
        zero-filled placeholders (only the incidence shapes the graph)."""
        from ...core.features import ModelInput

        return ModelInput(
            pairs=tuple((0, 1) for _ in range(self.num_paths)),
            link_features=np.zeros((self.num_links, self.link_feature_dim)),
            path_features=np.zeros((self.num_paths, self.path_feature_dim)),
            link_indices=self.link_indices,
            mask=self.mask,
        )


def paper_signatures(
    link_feature_dim: int = 1, path_feature_dim: int = 1
) -> dict[str, TopologySignature]:
    """The three signatures of the paper's evaluation: NSFNET (14 nodes),
    Geant2 (24 nodes, unseen) and the 50-node synthetic topology."""
    from ...topology import geant2, nsfnet, synthetic_topology

    topologies = {
        "nsfnet": nsfnet(),
        "geant2": geant2(),
        "synthetic50": synthetic_topology(50, seed=0),
    }
    return {
        name: TopologySignature.from_topology(
            topo,
            link_feature_dim=link_feature_dim,
            path_feature_dim=path_feature_dim,
        )
        for name, topo in topologies.items()
    }


@dataclass(frozen=True)
class ShapeReport:
    """Outcome of one :func:`check_model` run."""

    ok: bool
    signature: str
    ops_checked: int
    output_shape: tuple[int, ...] | None = None
    output_dtype: str | None = None
    error: str | None = None
    failed_op: str | None = None
    failed_operands: tuple[tuple[int, ...], ...] = ()
    trace_tail: str = ""

    def format(self) -> str:
        if self.ok:
            return (
                f"[model-check] {self.signature}: OK — {self.ops_checked} ops, "
                f"output {self.output_shape} {self.output_dtype}"
            )
        lines = [f"[model-check] {self.signature}: FAILED — {self.error}"]
        if self.trace_tail:
            lines.append("last ops before failure:")
            lines.append(self.trace_tail)
        return "\n".join(lines)


def check_model(model: "object", signature: TopologySignature) -> ShapeReport:
    """Check that ``model.forward`` runs on ``signature`` to a (P, targets) output.

    Runs the real forward under a :class:`TapeRecorder`, which counts every
    op as a tape node; no exception escapes.

    Returns:
        A :class:`ShapeReport`; on failure it names the offending op, its
        operand shapes and the last few ops executed before it.
    """
    recorder = TapeRecorder()
    try:
        with recorder.localized():
            out = model.forward(signature.model_input(), training=False)
    except ShapeCheckError as err:
        return ShapeReport(
            ok=False,
            signature=signature.name,
            ops_checked=len(recorder.nodes),
            error=str(err),
            failed_op=err.op,
            failed_operands=err.operands,
            trace_tail=err.trace_tail,
        )
    expected = (signature.num_paths, model.hparams.readout_targets)
    if out.shape != expected:
        return ShapeReport(
            ok=False,
            signature=signature.name,
            ops_checked=len(recorder.nodes),
            error=(
                f"readout produced {out.shape}, expected {expected} "
                f"(paths x targets)"
            ),
            failed_op="readout",
            failed_operands=(out.shape,),
            trace_tail=recorder.trace_tail(),
        )
    return ShapeReport(
        ok=True,
        signature=signature.name,
        ops_checked=len(recorder.nodes),
        output_shape=tuple(out.shape),
        output_dtype=str(out.dtype),
    )

"""The RP6xx dataflow checks over the recorded RouteNet tape.

One entry point, :func:`run_dataflow`, wired into the driver
(``python -m repro.analysis``): for each paper topology family it records a
real fused forward+backward (:func:`record_fused_step`), then discharges:

* **RP601** — in-place write to a buffer whose alias class is still live
  (a retained array's fingerprint changed before its backward ran); would
  silently corrupt the gradients.
* **RP602** — dead store: a tape value never read by the loss or any
  gradient path; wasted compute and memory every step.
* **RP603** — buffer escaped its tape scope: an interior array survived
  tape teardown (held via closure/global/cache), violating the
  ``_GradBufferPool`` discipline.
* **RP604** — peak-arena-bytes regression: the planned arena for the
  recorded tape outgrew the committed per-family budget in
  ``BENCH_training.json``.
* **RP605** — the forward or backward raises on a paper family; the
  finding names the failing op, its operand shapes and the last tape
  nodes recorded before it, and the pass goes on with the next family.

It also emits the verified training-tape
:class:`~repro.analysis.dataflow.arena.ArenaPlan` per family as the
``--format json`` payload's ``dataflow`` section (uploaded as a CI artifact).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..lint import Violation
from .arena import ArenaPlan, BufferInterval, plan_arena
from .graph import TapeGraph
from .modelcheck import paper_signatures
from .recorder import RecordedStep, ShapeCheckError, record_fused_step

__all__ = ["run_dataflow", "tape_intervals", "tape_arena_plan", "check_tape"]

#: Allowed growth over the committed budget before RP604 fires.  The tape
#: structure is deterministic for fixed dims, so this only absorbs benign
#: planner-ordering changes, not real regressions.
BUDGET_HEADROOM = 1.10


def tape_intervals(graph: TapeGraph) -> list[BufferInterval]:
    """One liveness interval per interior storage class of the tape.

    Views share bytes, so an alias class contributes a single buffer sized
    by its largest member.  Leaves (parameters, inputs) outlive the step
    and are excluded; zero-byte values (empty timesteps) need no arena.
    """
    live = graph.liveness()
    by_storage: dict[int, BufferInterval] = {}
    for v in graph.values:
        if v.is_leaf or v.nbytes == 0:
            continue
        start, end = live[v.vid]
        prev = by_storage.get(v.storage)
        if prev is None:
            by_storage[v.storage] = BufferInterval(
                name=f"v{v.vid}", nbytes=v.nbytes, start=start, end=end
            )
        elif v.nbytes > prev.nbytes:
            by_storage[v.storage] = BufferInterval(
                name=prev.name, nbytes=v.nbytes, start=start, end=end
            )
    return list(by_storage.values())


def tape_arena_plan(graph: TapeGraph) -> ArenaPlan:
    """The verified arena plan for one recorded fused step."""
    return plan_arena(tape_intervals(graph))


def _tape_path(family: str) -> str:
    """Pseudo-path for findings that live on a recorded tape, not a file."""
    return f"<tape:{family}>"


def check_tape(step: RecordedStep, family: str) -> list[Violation]:
    """RP601/RP602/RP603 over one recorded step (RP604 needs budgets)."""
    graph = step.graph
    findings: list[Violation] = []

    for mutation in step.mutations:
        owner = graph.values[mutation.owner_vid]
        findings.append(Violation(
            path=_tape_path(family), line=0, col=0, code="RP601",
            message=(
                f"in-place write to live buffer v{mutation.retained_vid}: "
                f"retained by the backward of {owner.label()} (runs at point "
                f"{graph.backward_point(owner.vid)}) but its contents changed "
                f"first (crc 0x{mutation.crc_at_def:08x} -> "
                f"0x{mutation.crc_at_use:08x}); gradients computed from the "
                f"overwritten values are silently wrong.\n  "
                + graph.def_use_chain(mutation.retained_vid)
            ),
        ))

    if graph.loss_vid is not None:
        alive = graph.reachable_from(graph.loss_vid)
        if graph.output_vid is not None:
            alive |= graph.reachable_from(graph.output_vid)
        for v in graph.values:
            if v.is_leaf or v.vid in alive:
                continue
            if any(u in alive for u in v.uses):
                continue  # feeds a live value through a non-parent edge
            if any(r in alive for r in graph.retained_by(v.vid)):
                continue  # read by a live node's backward (e.g. scratch)
            findings.append(Violation(
                path=_tape_path(family), line=0, col=0, code="RP602",
                message=(
                    f"dead store: {v.label()} is never read by the loss or "
                    f"any gradient path; the op (and its backward buffers) "
                    f"is wasted work every step.\n  "
                    + graph.def_use_chain(v.vid)
                ),
                severity="warning",
            ))

    for vid in step.escaped:
        v = graph.values[vid]
        findings.append(Violation(
            path=_tape_path(family), line=0, col=0, code="RP603",
            message=(
                f"buffer escaped its tape scope: {v.label()} is still "
                f"referenced after the tape was torn down (closure, global "
                f"or cache holds it), so its {v.nbytes} bytes leak across "
                f"steps and the arena cannot reclaim the slot.\n  "
                + graph.def_use_chain(vid)
            ),
        ))

    return findings


def _load_budgets(bench_path: Path) -> dict[str, dict]:
    if not bench_path.exists():
        return {}
    try:
        payload = json.loads(bench_path.read_text())
    except (OSError, json.JSONDecodeError):
        return {}
    arena = payload.get("arena") or {}
    budgets = arena.get("budgets") or {}
    return budgets if isinstance(budgets, dict) else {}


def run_dataflow(
    repo_root: "Path | None" = None,
    families: "dict[str, object] | None" = None,
) -> tuple[list[Violation], dict]:
    """Record the fused step for each paper family and run RP601–RP605.

    Args:
        repo_root: Repository root holding ``BENCH_training.json`` (the
            RP604 budgets); ``None`` skips the budget comparison.
        families: ``{name: TopologySignature}`` override (tests); defaults
            to :func:`~repro.analysis.dataflow.modelcheck.paper_signatures`.

    Returns:
        ``(findings, payload)`` — the payload lands under ``"dataflow"``
        in the driver's JSON output and is uploaded as the ArenaPlan CI
        artifact.
    """
    from ...core import HyperParams, RouteNet

    if families is None:
        families = paper_signatures()
    budgets = (
        _load_budgets(repo_root / "BENCH_training.json") if repo_root else {}
    )

    findings: list[Violation] = []
    payload: dict[str, dict] = {"families": {}, "arena_plans": {}}
    model = RouteNet(HyperParams(), seed=0)
    targets = model.hparams.readout_targets

    for family, sig in families.items():
        try:
            step = record_fused_step(
                model, sig.model_input(), np.zeros((sig.num_paths, targets))
            )
        except ShapeCheckError as exc:
            tail = exc.trace_tail and f"\n  last ops before failure:\n{exc.trace_tail}"
            findings.append(Violation(
                path=_tape_path(family), line=0, col=0, code="RP605",
                message=f"forward fails on the {family} family: {exc}{tail}",
            ))
            continue
        findings.extend(check_tape(step, family))

        tape_plan = tape_arena_plan(step.graph)
        payload["arena_plans"][family] = {"tape": tape_plan.to_json()}
        stats = {
            "values": len(step.graph.values),
            "program_points": step.graph.num_points,
            "peak_tape_bytes": step.graph.peak_bytes(),
            "tape_arena_bytes": tape_plan.total_bytes,
            "rounds": step.graph.round_stats(),
        }
        payload["families"][family] = stats

        budget = (budgets.get(family) or {}).get("tape_arena_bytes")
        if budget:
            ceiling = int(budget * BUDGET_HEADROOM)
            stats["budget_tape_arena_bytes"] = int(budget)
            if tape_plan.total_bytes > ceiling:
                findings.append(Violation(
                    path="BENCH_training.json", line=0, col=0, code="RP604",
                    message=(
                        f"peak-arena-bytes regression on {family}: the "
                        f"planned tape arena needs "
                        f"{tape_plan.total_bytes} bytes, over the committed "
                        f"budget of {int(budget)} (+10% headroom = "
                        f"{ceiling}); re-run "
                        f"benchmarks/bench_training_throughput.py and commit "
                        f"the new budget if the growth is intentional"
                    ),
                ))

    return findings, payload

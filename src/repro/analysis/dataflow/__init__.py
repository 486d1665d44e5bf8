"""Tape dataflow analysis: SSA liveness, alias classes, arena planning.

The front half of plan-compiled execution (ROADMAP: "Scale to 100–300-node
topologies"): a symbolic recorder turns one fused forward+backward of the
real RouteNet into an SSA-style def–use graph with per-buffer shape/dtype,
alias/view classes and first-def/last-use liveness intervals per
message-passing round.  On top of that graph:

* the RP6xx rules (:mod:`~repro.analysis.dataflow.checks`) prove the tape
  free of gradient-corrupting in-place writes (RP601), dead stores
  (RP602), scope-escaping buffers (RP603) and arena-size regressions
  (RP604), and report a family whose forward or backward raises (RP605);
* the model check (:mod:`~repro.analysis.dataflow.modelcheck`) runs the
  real forward on a topology signature and localizes a failure to the op
  and operand shapes that raised;
* the arena planner (:mod:`~repro.analysis.dataflow.arena`) colors the
  liveness interval graph into a verified offset layout whose proof ships
  in the driver's JSON payload and whose size is RP604's budget.
"""

from .arena import ArenaPlan, ArenaPlanError, BufferInterval, plan_arena
from .checks import check_tape, run_dataflow, tape_arena_plan, tape_intervals
from .graph import TapeGraph, TapeValue
from .modelcheck import (
    PAPER_SIGNATURE_NAMES,
    ShapeReport,
    TopologySignature,
    check_model,
    paper_signatures,
)
from .recorder import RecordedStep, ShapeCheckError, TapeRecorder, record_fused_step

__all__ = [
    "ArenaPlan",
    "ArenaPlanError",
    "BufferInterval",
    "plan_arena",
    "TapeGraph",
    "TapeValue",
    "TapeRecorder",
    "RecordedStep",
    "record_fused_step",
    "PAPER_SIGNATURE_NAMES",
    "ShapeCheckError",
    "ShapeReport",
    "TopologySignature",
    "check_model",
    "paper_signatures",
    "check_tape",
    "run_dataflow",
    "tape_arena_plan",
    "tape_intervals",
]

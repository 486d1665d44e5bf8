"""Static correctness tooling: linter, tape dataflow and model check,
gradient audit.

One entry point (``python -m repro.analysis``) over these subsystems:

* :mod:`repro.analysis.lint` — repo-specific AST rules (RP001–RP007)
  enforcing the library's conventions: seeded RNG only, no float
  equality, no swallowed exceptions, dtype and tape-state hygiene,
  virtual-time simulation.
* :mod:`repro.analysis.gradcheck` / :mod:`repro.analysis.sanitize` —
  finite-difference verification of every registered op's backward pass,
  and a tape sanitizer that pinpoints the first op producing NaN/Inf
  (``Trainer(..., sanitize=True)`` / ``repro train --sanitize``).
* :mod:`repro.analysis.dataflow` — symbolic tape recorder over one real
  fused forward+backward: SSA def–use graph, alias classes, liveness,
  the RP6xx proofs (in-place writes, dead stores, tape escapes, arena
  budgets, a forward that raises on a paper family) and the verified
  arena planner.  Its model check (``check_model``) runs the real forward
  on a topology signature and, when a kernel raises, reports the op and
  operand shapes that failed.
"""

from .dataflow import (
    PAPER_SIGNATURE_NAMES,
    ShapeCheckError,
    ShapeReport,
    TopologySignature,
    check_model,
    paper_signatures,
)
from .gradcheck import (
    GRADCHECK_SPECS,
    GradSpec,
    OpGradReport,
    finite_difference_check,
    format_gradcheck,
    gradcheck_all,
    gradcheck_op,
)
from .lint import (
    RULES,
    Violation,
    format_violations,
    lint_file,
    lint_paths,
    lint_source,
)
from .sanitize import NonFiniteError, sanitize_tape

__all__ = [
    # lint
    "RULES",
    "Violation",
    "lint_source",
    "lint_file",
    "lint_paths",
    "format_violations",
    # model check (dataflow)
    "PAPER_SIGNATURE_NAMES",
    "ShapeCheckError",
    "ShapeReport",
    "TopologySignature",
    "check_model",
    "paper_signatures",
    # gradcheck / sanitize
    "GRADCHECK_SPECS",
    "GradSpec",
    "OpGradReport",
    "finite_difference_check",
    "format_gradcheck",
    "gradcheck_all",
    "gradcheck_op",
    "NonFiniteError",
    "sanitize_tape",
]

"""Registry of every static-analysis finding code.

One table for all passes, so ``# repro-lint: disable=RPxxx`` comments can
be validated uniformly (an unknown code in a disable comment is an error —
stale annotations cannot rot silently) and the stale-suppression audit
(RP008) can reason about suppressions across passes.

Code ranges:

* **RP0xx** — single-file AST lint rules (:mod:`repro.analysis.lint`).
* **RP2xx** — spawn-safety / determinism proofs over the project call
  graph (:mod:`repro.analysis.flow.spawnsafety`).
* **RP3xx** — dimensional analysis of unit-annotated signatures
  (:mod:`repro.analysis.flow.units`).
* **RP4xx** — numpy hot-path performance lints
  (:mod:`repro.analysis.flow.perf`).
* **RP5xx** — concurrency-safety (lockset/guardedness) proofs over
  thread-shared classes (:mod:`repro.analysis.concurrency.static`).
* **RP6xx** — tape dataflow proofs over a recorded fused
  forward+backward of the real model
  (:mod:`repro.analysis.dataflow.checks`).

Severity: ``"error"`` findings fail ``--strict``; ``"warning"`` findings
are reported but never gate.  RP4xx findings are warnings off the hot path
and errors on it (the pass upgrades them), so the table stores their
*default* (off-hot-path) severity; RP5xx findings follow the same model
with the threaded serving/runner modules playing the role of the hot set.
"""

from __future__ import annotations

__all__ = ["ALL_CODES", "CODE_SEVERITY", "lint_codes", "flow_codes"]

#: Code -> one-line description, across every pass.
ALL_CODES: dict[str, str] = {
    # -- RP0xx: single-file lint rules ---------------------------------
    "RP001": "bare RNG call; create generators via repro.random.make_rng/split_rng",
    "RP002": "float equality comparison; use a tolerance (np.isclose/math.isclose)",
    "RP003": "mutable default argument; default to None and build inside the function",
    "RP004": "except swallows the error; narrow the type and log or re-raise",
    "RP005": "literal float32/float64 dtype outside repro/nn; let the tensor engine decide precision",
    "RP006": "direct Tensor.data/.grad mutation outside repro/nn; go through ops or an optimizer",
    "RP007": "wall-clock call in simulator code; event logic must use virtual time",
    "RP008": "stale suppression: this disable comment no longer suppresses any finding; remove it",
    # -- RP2xx: spawn-safety / determinism -----------------------------
    "RP201": "spawn-reachable code reads module-level state that the project mutates; "
             "pass the value through the task payload instead",
    "RP202": "spawn-reachable code mutates module-level state; worker-side writes are "
             "lost on exit and break run determinism",
    "RP203": "spawn-reachable randomness without an explicit seed; derive every stream "
             "from the task seed via make_rng",
    "RP204": "wall-clock read in spawn-reachable code; nondeterministic value must not "
             "influence task output",
    "RP205": "unpicklable worker or payload (lambda/nested function); use a module-level "
             "function and plain-data payloads",
    # -- RP3xx: dimensional analysis -----------------------------------
    "RP301": "unit mismatch in addition/subtraction; operands carry different units",
    "RP302": "unit mismatch in comparison; operands carry different units",
    "RP303": "argument unit mismatch; value's unit differs from the parameter annotation",
    "RP304": "return unit mismatch; returned value's unit differs from the annotation",
    # -- RP4xx: numpy hot-path perf lints ------------------------------
    "RP401": "growing concatenation (np.concatenate/append/...) inside a loop; "
             "collect then concatenate once, or preallocate",
    "RP402": "array allocation (np.zeros/ones/empty/full) inside a loop; hoist the "
             "buffer out and reuse it",
    "RP403": "Python-level loop over an ndarray; vectorize with numpy operations",
    "RP404": "explicit float64 promotion on a hot path; preserve the input dtype",
    # -- RP5xx: concurrency safety (lockset/guardedness) ----------------
    "RP501": "inconsistent lockset: attribute is guarded by a lock on some paths "
             "but accessed without it on others; hold the same lock everywhere",
    "RP502": "unguarded write to thread-shared state reachable from multiple "
             "thread roots; guard it with a lock or prove single-writer",
    "RP503": "blocking call (wait/join/sleep/IO/queue) while holding a lock; "
             "release the lock before blocking",
    "RP504": "lock-order cycle: locks are acquired in conflicting orders on "
             "different paths; establish and follow a global lock order",
    # -- RP6xx: tape dataflow (recorded fused step) ----------------------
    "RP601": "in-place write to a buffer whose alias class is still live; a "
             "backward closure retained it and will compute gradients from "
             "the overwritten values",
    "RP602": "dead store on the tape: the value is never read by the loss or "
             "any gradient path; the op is wasted work every step",
    "RP603": "buffer escaped its tape scope: an interior array outlived tape "
             "teardown (closure/global/cache holds it), leaking across steps",
    "RP604": "peak-arena-bytes regression: the planned tape arena outgrew the "
             "committed per-family budget in BENCH_training.json",
    "RP605": "forward fails on a paper family: the recorded forward or "
             "backward raised; the finding names the op and operand shapes",
}

#: Default severity per code ("error" unless listed here).
CODE_SEVERITY: dict[str, str] = {
    "RP204": "warning",
    "RP401": "warning",
    "RP402": "warning",
    "RP403": "warning",
    "RP404": "warning",
    "RP501": "warning",
    "RP502": "warning",
    "RP503": "warning",
    "RP504": "warning",
    "RP602": "warning",
}


def lint_codes() -> dict[str, str]:
    """The single-file lint subset (RP001–RP007; RP008 is the audit's)."""
    return {
        code: text for code, text in ALL_CODES.items()
        if code.startswith("RP0") and code != "RP008"
    }


def flow_codes() -> dict[str, str]:
    """The whole-program subset (RP2xx/RP3xx/RP4xx/RP5xx/RP6xx)."""
    return {
        code: text for code, text in ALL_CODES.items()
        if not code.startswith("RP0")
    }

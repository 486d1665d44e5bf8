"""``python -m repro.analysis`` — run the static correctness suite.

Default run, in order:

1. **Lint** (RP0xx): single-file AST rules over ``src/``.
2. **Flow passes** (RP2xx/RP3xx/RP4xx/RP5xx): the interprocedural
   analyses — spawn-safety & determinism proofs over the runner call
   graph, dimensional analysis of unit-annotated signatures, numpy
   hot-path perf lints, and concurrency lockset/guardedness proofs over
   the threaded serving/pool layers (the derived lock-order graph lands
   in the ``json`` payload as ``lock_order``).  Skip with ``--no-flow``.
3. **Tape dataflow** (RP6xx): records one real fused forward+backward per
   paper topology family (NSFNET, Geant2, 50-node synthetic) with the
   default RouteNet architecture.  A family whose forward or backward
   raises is one RP605 finding naming the failing op, its operand shapes
   and the last tape nodes; the pass goes on with the next family.  The
   recorded tapes are proved free of in-place writes to live alias
   classes (RP601), dead stores (RP602), scope-escaping buffers (RP603)
   and peak-arena regressions against the committed
   ``BENCH_training.json`` budgets (RP604).  The verified per-family
   :class:`~repro.analysis.dataflow.arena.ArenaPlan` proofs land in the
   ``json`` payload as ``dataflow`` (uploaded as a CI artifact).  Skip
   with ``--no-dataflow``.
4. **Stale-suppression audit** (RP008): a ``# repro-lint: disable=RPxxx``
   comment that suppressed nothing across *all* passes is itself an error
   (runs only on full-tree, full-rule runs, where "unused" is meaningful).
5. ``--gradcheck`` adds the finite-difference gradient audit (opt-in
   here; CI runs it in the pytest matrix as well).

Severities: **error** findings fail ``--strict``; **warning** findings
(RP204, off-hot-path RP4xx, RP5xx outside serving/runner, RP602) are
reported but never gate.  Text output
hides warnings behind ``--show-warnings``; ``json``/``github`` formats
always include them.

Output formats (``--format``):

* ``text`` — human-readable (default);
* ``json`` — one machine-readable object on stdout;
* ``github`` — GitHub Actions workflow annotations
  (``::error file=...,line=...::...``) plus a plain summary.

Exit codes:

* ``0`` — clean, or findings in non-strict mode;
* ``1`` — ``--strict`` and at least one error-severity finding or failed
  check, or ``--max-seconds`` exceeded;
* ``2`` — configuration error (unknown rule, unreadable path,
  unparsable source).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Sequence

from ..errors import AnalysisError
from .codes import ALL_CODES
from .gradcheck import format_gradcheck, gradcheck_all
from .lint import RULES, Violation, format_violations, lint_paths, lint_source

__all__ = ["main"]


def _default_src_root() -> Path:
    # <repo>/src/repro/analysis/__main__.py -> <repo>/src
    return Path(__file__).resolve().parents[2]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Repo static checks: lint, flow analyses, tape dataflow "
                    "and model check, gradient audit.",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit 1 on any error-severity finding or failed check (CI gate)",
    )
    parser.add_argument(
        "--paths", nargs="*",
        help="files/directories to lint (default: the installed src tree); "
             "flow passes and the stale audit only run on the default tree",
    )
    parser.add_argument(
        "--rules", help="comma-separated rule subset, e.g. RP001,RP004",
    )
    parser.add_argument(
        "--no-lint", action="store_true", help="skip the AST linter",
    )
    parser.add_argument(
        "--no-flow", action="store_true",
        help="skip the interprocedural passes (RP2xx/RP3xx/RP4xx)",
    )
    parser.add_argument(
        "--no-dataflow", action="store_true",
        help="skip the tape dataflow pass (RP6xx; records a real fused "
             "forward+backward per topology family)",
    )
    parser.add_argument(
        "--gradcheck", action="store_true",
        help="also run the finite-difference gradient audit of every op",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "github"), default="text",
        dest="fmt", help="output format (default: text)",
    )
    parser.add_argument(
        "--show-warnings", action="store_true",
        help="print warning-severity findings in text output "
             "(json/github always include them)",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=None,
        help="directory for the per-file AST/facts cache (content-hash "
             "keyed; safe to persist across runs and branches)",
    )
    parser.add_argument(
        "--max-seconds", type=float, default=None,
        help="fail (exit 1) if the analysis itself takes longer than this",
    )
    return parser


def _github_line(v: Violation) -> str:
    level = "error" if v.severity == "error" else "warning"
    return (f"::{level} file={v.path},line={v.line},col={v.col}"
            f"::{v.code} {v.message}")


def _run_flow(src_root: Path, cache_dir: Path | None,
              findings: list[Violation]) -> tuple[dict, dict]:
    """Index the tree, run the flow passes.

    Returns the module map (whose ``Suppressions`` feed the stale audit)
    and the concurrency pass's lock-order report.
    """
    from .concurrency import run_concurrency
    from .flow import CallGraph, index_project
    from .flow.perf import check_perf
    from .flow.spawnsafety import check_spawn_safety
    from .flow.units import check_units

    index = index_project(src_root, cache_dir=cache_dir)
    graph = CallGraph(index)
    findings.extend(check_spawn_safety(index, graph))
    findings.extend(check_units(index))
    findings.extend(check_perf(index, graph))
    concurrency_findings, lock_order = run_concurrency(index, graph)
    findings.extend(concurrency_findings)
    return index.modules, lock_order


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    errors = 0
    warnings = 0
    payload: dict[str, object] = {}
    findings: list[Violation] = []
    src_root = _default_src_root()

    rules = (
        [r.strip() for r in args.rules.split(",") if r.strip()]
        if args.rules else None
    )
    unknown = set(rules or []) - RULES.keys()
    if unknown:
        print(f"error: unknown rule(s) {sorted(unknown)}", file=sys.stderr)
        return 2

    # Flow passes run over the default tree and produce the module map whose
    # Suppressions objects are shared with the linter below, so the stale
    # audit sees usage across every pass.
    modules = None
    flow_ran = False
    if not args.no_flow and not args.paths:
        try:
            modules, lock_order = _run_flow(src_root, args.cache_dir, findings)
            payload["lock_order"] = lock_order
            flow_ran = True
        except AnalysisError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    lint_ran = False
    if not args.no_lint:
        try:
            if modules is not None:
                for info in modules.values():
                    findings.extend(lint_source(
                        info.source, info.relpath, rules=rules,
                        suppressions=info.suppressions,
                    ))
            else:
                roots = ([Path(p) for p in args.paths] if args.paths
                         else [src_root])
                findings.extend(lint_paths(roots, rules=rules))
            lint_ran = True
        except AnalysisError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"error: cannot read input: {exc}", file=sys.stderr)
            return 2

    # Tape dataflow (RP6xx): runs the *real* model, so it is skipped for
    # explicit-path runs (which analyze arbitrary trees, not this repo).
    if not args.no_dataflow and not args.paths:
        from .dataflow import run_dataflow

        try:
            dataflow_findings, dataflow_payload = run_dataflow(
                repo_root=src_root.parent
            )
        except AnalysisError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        findings.extend(dataflow_findings)
        payload["dataflow"] = dataflow_payload

    # Stale-suppression audit: only meaningful when every pass that could
    # have used a suppression actually ran, over the whole tree.
    if flow_ran and lint_ran and rules is None:
        for info in modules.values():
            for line, code in info.suppressions.stale_entries():
                findings.append(Violation(
                    path=info.relpath, line=line, col=0, code="RP008",
                    message=f"{ALL_CODES['RP008']} (disable={code})",
                ))

    findings.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    errors += sum(1 for v in findings if v.severity == "error")
    warnings += sum(1 for v in findings if v.severity != "error")
    payload["findings"] = [v.__dict__ for v in findings]

    if args.fmt == "text":
        shown = [v for v in findings
                 if v.severity == "error" or args.show_warnings]
        print(f"[analysis] {errors} error(s), {warnings} warning(s)")
        if shown:
            print(format_violations(shown))
        hidden = len(findings) - len(shown)
        if hidden:
            print(f"({hidden} warning(s) hidden; use --show-warnings)")
    elif args.fmt == "github":
        for v in findings:
            print(_github_line(v))

    if args.gradcheck:
        try:
            reports = gradcheck_all()
        except AnalysisError as exc:
            print(f"[gradcheck] configuration error: {exc}", file=sys.stderr)
            return 2
        failed = [r for r in reports.values() if not r.ok]
        errors += len(failed)
        payload["gradcheck"] = {
            name: report.__dict__ for name, report in reports.items()
        }
        if args.fmt == "text":
            print(format_gradcheck(reports))

    elapsed = time.perf_counter() - started
    payload["elapsed_seconds"] = round(elapsed, 3)
    payload["counts"] = {"errors": errors, "warnings": warnings}

    if args.fmt == "json":
        print(json.dumps(payload, indent=2, default=str))

    if args.max_seconds is not None and elapsed > args.max_seconds:
        print(f"error: analysis took {elapsed:.2f}s "
              f"(budget {args.max_seconds:.2f}s)", file=sys.stderr)
        return 1

    if errors:
        status = 1 if args.strict else 0
        if args.fmt == "text":
            print(f"{errors} error(s) found"
                  + ("" if args.strict else " (non-strict: exit 0)"))
        return status
    if args.fmt == "text":
        print(f"all checks passed ({elapsed:.2f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

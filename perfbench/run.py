"""Benchmark entry point.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``train``        eager ``Trainer.fit`` at B=16 on NSFNET-14 + synthetic-50,
                   then an untimed evaluation on the unseen Geant2-24;
* ``train-stream`` the same samples as stream shards, ``fit(prefetch=1)``;
* ``serve``        closed-loop capacity, then open-loop Poisson load at two
                   fixed rates into one ``ServingService``;
* ``generate``     ``generate_dataset_run`` writing stream shards for three
                   topologies with ``workers=nproc``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
work untraced and traced and prints the per-layer metrics.  Either set is
the whole list in ``BENCHMARK.json``, on every workload: a layer the
workload never enters reads 0, and a missing end-to-end metric or one the
manifest does not name fails the run's checks.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, with the
machine fingerprint and every check, is written to
``.perfbench/results/``; traced runs also write their spans to
``.perfbench/traces/``.

The measuring runs in a fresh child process with BLAS and OpenMP pinned to
one thread, so its peak memory holds only the program's work; training
inputs are simulated once per checkout by another child and kept under
``.perfbench/inputs/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.env import cores, pinned_env  # noqa: E402

WORKLOADS = ("train", "train-stream", "serve", "generate")
NEEDS_TRAINING_INPUTS = ("train", "train-stream")
#: A run must end within 180 s; leave room for start-up and reporting.
RUN_LIMIT_S = 170.0
#: Simulating training inputs happens once per checkout, on top of
#: the run itself.
INPUT_LIMIT_S = 600.0
STATE = ROOT / ".perfbench"
MANIFEST = ROOT / "BENCHMARK.json"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "inputs", "measure"), default="main",
                        help=argparse.SUPPRESS)
    return parser


def _result_path(args) -> Path:
    return STATE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"


def _child(args, role: str, env: dict, timeout: float) -> None:
    """Run one role in a child process group; on timeout kill the whole group
    (the child's own workers included) and wait for it."""
    command = [sys.executable, str(Path(__file__).resolve()), "--role", role,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    child = subprocess.Popen(command, env=env, cwd=ROOT, start_new_session=True)
    try:
        code = child.wait(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    if code != 0:
        raise subprocess.CalledProcessError(code, command)


def _main(args) -> int:
    env = pinned_env(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    if args.workload in NEEDS_TRAINING_INPUTS:
        _child(args, "inputs", env, INPUT_LIMIT_S)
    result_path = _result_path(args)
    result_path.unlink(missing_ok=True)
    _child(args, "measure", env, RUN_LIMIT_S)
    result = json.loads(result_path.read_text())
    print("fingerprint " + json.dumps(result["fingerprint"], sort_keys=True))
    for name, ok in sorted(result["checks"].items()):
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    for name, value in sorted(result["details"].items()):
        if name != "service_stats":
            print(f"detail {name} = {json.dumps(value)}")
    for name, metric in sorted(result["metrics"].items()):
        print(f"metric {name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def _make_inputs(args) -> int:
    from perfbench import inputs

    inputs.make_training_inputs(ROOT, workers=cores())
    return 0


def _measure(args) -> int:
    from perfbench import workloads
    from perfbench.env import fingerprint

    out = workloads.run(args.workload, ROOT, args.seed, args.seconds, bool(args.trace),
                        work=STATE / "work" / f"{args.workload}-seed{args.seed}")
    manifest = json.loads(MANIFEST.read_text())
    expected = {m["name"]: m["unit"]
                for m in manifest["per_layer" if args.trace else "end_to_end"]}
    for name, (_, unit) in out.metrics.items():
        out.check(f"{name}_in_manifest", expected.get(name) == unit)
    metrics = {}
    for name, unit in expected.items():
        if name in out.metrics:
            value = float(out.metrics[name][0])
        else:
            # Only a per-layer metric may be absent: its layer did no work.
            out.check(f"{name}_measured", bool(args.trace))
            value = 0.0
        if not math.isfinite(value):
            out.check(f"{name}_finite", False)
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    result = {
        "correct": out.correct,
        "attempted": int(out.attempted),
        "failed": int(out.failed),
        "metrics": metrics,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint(),
        "checks": out.checks,
        "details": out.details,
    }
    if out.tracer is not None:
        out.tracer.write(STATE / "traces" / f"{args.workload}-seed{args.seed}.json")
    path = _result_path(args)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1, default=float))
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.workload is None:
        print("run.py: --workload is required", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2
    if args.role == "inputs":
        return _make_inputs(args)
    if args.role == "measure":
        return _measure(args)
    try:
        return _main(args)
    except subprocess.TimeoutExpired as exc:
        print(f"run.py: {exc}", file=sys.stderr)
    except subprocess.CalledProcessError as exc:
        print(f"run.py: child failed with exit code {exc.returncode}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())

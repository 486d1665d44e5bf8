"""Spread of one result set, and comparison of two, under BENCHMARK.json bounds.

A result set is a directory of ``*.json`` result files written by
``run.py`` (``.perfbench/results/`` after a series of runs)::

    python3 perfbench/compare.py spread SET_DIR
    python3 perfbench/compare.py compare BASE_DIR NEW_DIR

``spread`` prints, per workload and end-to-end metric, the median and the
distance between the first and third quartiles as a share of the median
(``statistics.quantiles(values, n=4)``), against the metric's bound.
``compare`` prints each median change and calls it a regression when the
new median is worse than the base median by more than the bound.  Results
whose machine fingerprints differ are flagged: their timings are not
comparable, and the exit code is 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_spec(path: Path = SPEC) -> dict[str, dict]:
    spec = json.loads(path.read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def load_set(directory: Path) -> dict[str, list[dict]]:
    """Untraced results of a set, grouped by workload."""
    grouped: dict[str, list[dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text())
        if result.get("trace") == 0:
            grouped.setdefault(result["workload"], []).append(result)
    return grouped


def _fingerprints(results: list[dict]) -> set[str]:
    return {json.dumps(r["fingerprint"], sort_keys=True) for r in results}


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile range as a share of the median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median) if median else float("inf")


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    change = (new - base) / abs(base) if base else 0.0
    return change if better == "lower" else -change


def report_spread(directory: Path, spec: dict[str, dict]) -> int:
    grouped = load_set(directory)
    status = 0
    for workload, results in sorted(grouped.items()):
        if len(_fingerprints(results)) > 1:
            print(f"{workload}: FINGERPRINTS DIFFER within the set")
            status = 2
        print(f"{workload}: {len(results)} runs, seeds "
              f"{sorted(r['seed'] for r in results)}, failed ops "
              f"{sum(r['failed'] for r in results)}, all correct "
              f"{all(r['correct'] for r in results)}")
        for name in sorted({n for r in results for n in r["metrics"]}):
            values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            median, share = spread(values)
            bound = spec[name]["bound"] if name in spec else None
            flag = ""
            if bound is not None and name != "setup_s" and share > bound:
                flag = "  OVER BOUND"
                status = max(status, 1)
            elif bound is not None and share > bound / 3:
                flag = "  over a third of the bound"
            print(f"  {name:<16s} median {median:12.5g}  spread {share:7.2%}"
                  + (f"  bound {bound:.0%}" if bound is not None else "") + flag)
    return status


def report_compare(base_dir: Path, new_dir: Path, spec: dict[str, dict]) -> int:
    base, new = load_set(base_dir), load_set(new_dir)
    status = 0
    for workload in sorted(set(base) & set(new)):
        if _fingerprints(base[workload]) != _fingerprints(new[workload]):
            print(f"{workload}: FINGERPRINTS DIFFER between the sets; "
                  "timings are not comparable")
            status = 2
        for name in sorted(spec):
            b = [r["metrics"][name]["value"] for r in base[workload] if name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in new[workload] if name in r["metrics"]]
            if not b or not n:
                continue
            change = worse_by(statistics.median(b), statistics.median(n), spec[name]["better"])
            verdict = "REGRESSION" if change > spec[name]["bound"] else "ok"
            if verdict != "ok":
                status = max(status, 1)
            print(f"{workload:<13s} {name:<16s} base {statistics.median(b):12.5g}  "
                  f"new {statistics.median(n):12.5g}  worse by {change:+7.2%}  "
                  f"bound {spec[name]['bound']:.0%}  {verdict}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("spread").add_argument("directory", type=Path)
    cmp = sub.add_parser("compare")
    cmp.add_argument("base", type=Path)
    cmp.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.mode == "spread":
        return report_spread(args.directory, spec)
    return report_compare(args.base, args.new, spec)


if __name__ == "__main__":
    sys.exit(main())

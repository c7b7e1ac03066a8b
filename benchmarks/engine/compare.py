"""Compare two sets of engine-benchmark results by the bounds in BENCHMARK.json.

Usage, from the repository root::

    python3 benchmarks/engine/compare.py --base P1.json P2.json ... \
        --head C1.json C2.json ...

Each file is a ``result.json`` written by ``run.py``: one workload, or
``--workload all`` with every workload in it.  Only untraced results are
compared.  Give the runs in the order they were made, parent and change
alternating, so that ``base[i]`` and ``head[i]`` form a pair.

For every end-to-end metric on every workload the report gives each
side's median and quartiles and one verdict:

* ``regressed`` -- the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` -- the parent's own spread (interquartile distance over
  median) exceeds the bound, so the bound cannot be judged, and not
  every change run reads better than every parent run;
* ``improved`` -- the claim rule holds: at least ten pairs, the change
  wins at least nine tenths of them (ties count for neither), and the
  medians differ by more than the parent's interquartile distance;
* ``unchanged`` -- otherwise.

The exit code is 1 when any metric regressed or any change run failed a
correctness check or an episode, 2 when the runs are not comparable
(smoke runs, or timed phases of different lengths), else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from stats import quartiles, relative_iqr

__all__ = ["Verdict", "compare", "incomparable", "load_runs", "main"]

ROOT = Path(__file__).resolve().parents[2]

#: Pairs the claim rule needs, and the share of them the change must win.
MIN_PAIRS = 10
WIN_SHARE = 0.9


@dataclass(frozen=True)
class Verdict:
    """One end-to-end metric on one workload."""

    workload: str
    metric: str
    unit: str
    base: tuple
    head: tuple
    change: float
    status: str


def load_runs(paths: Sequence[Path]) -> List[dict]:
    """Single-workload untraced results, in file order."""
    runs = []
    for path in paths:
        document = json.loads(Path(path).read_text())
        results = (
            list(document["workloads"].values())
            if "workloads" in document
            else [document]
        )
        runs.extend(result for result in results if not result.get("trace"))
    return runs


def _values(runs: List[dict], workload: str, metric: str) -> List[float]:
    return [
        run["metrics"][metric]["value"]
        for run in runs
        if run["workload"] == workload and metric in run["metrics"]
    ]


def _worse_by(base: float, head: float, better: str) -> float:
    """How much worse ``head`` is than ``base``, as a share of ``base``."""
    if base == 0.0:
        return 0.0
    change = (head - base) / abs(base)
    return change if better == "lower" else -change


def _status(base: List[float], head: List[float], spec: dict) -> str:
    better, bound = spec["better"], spec["bound"]
    base_q1, base_median, base_q3 = quartiles(base)
    head_median = quartiles(head)[1]
    if better == "lower":
        wins = [h < b for b, h in zip(base, head)]
        all_better = max(head) < min(base)
    else:
        wins = [h > b for b, h in zip(base, head)]
        all_better = min(head) > max(base)
    if (
        len(wins) >= MIN_PAIRS
        and sum(wins) >= WIN_SHARE * len(wins)
        and abs(head_median - base_median) > abs(base_q3 - base_q1)
        and _worse_by(base_median, head_median, better) < 0.0
    ):
        return "improved"
    if relative_iqr(base) > bound and not all_better:
        return "unresolved"
    if _worse_by(base_median, head_median, better) > bound:
        return "regressed"
    return "unchanged"


def compare(
    base_runs: List[dict], head_runs: List[dict], benchmark: dict
) -> List[Verdict]:
    """A verdict per (workload, end-to-end metric) present on both sides."""
    workloads = [entry["name"] for entry in benchmark["workloads"]]
    verdicts = []
    for workload in workloads:
        for spec in benchmark["end_to_end"]:
            base = _values(base_runs, workload, spec["name"])
            head = _values(head_runs, workload, spec["name"])
            if not base or not head:
                continue
            base_quartiles = quartiles(base)
            head_quartiles = quartiles(head)
            verdicts.append(
                Verdict(
                    workload=workload,
                    metric=spec["name"],
                    unit=spec["unit"],
                    base=base_quartiles,
                    head=head_quartiles,
                    change=(head_quartiles[1] - base_quartiles[1])
                    / abs(base_quartiles[1])
                    if base_quartiles[1]
                    else 0.0,
                    status=_status(base, head, spec),
                )
            )
    return verdicts


def incomparable(runs: List[dict]) -> List[str]:
    """Why ``runs`` cannot be compared with each other, if they cannot."""
    reasons = [
        f"{run['workload']} seed {run.get('seed')} is a smoke run"
        for run in runs
        if run.get("smoke")
    ]
    lengths = sorted({run.get("seconds") for run in runs}, key=str)
    if len(lengths) > 1:
        reasons.append(f"timed phases of different lengths: {lengths} s")
    return reasons


def _failures(runs: List[dict]) -> List[str]:
    return [
        f"{run['workload']} seed {run.get('seed')}: "
        f"{run['failed']}/{run['attempted']} episodes failed, "
        f"{len(run.get('problems', []))} correctness problems"
        for run in runs
        if run["failed"] or not run["correct"]
    ]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, nargs="+", required=True)
    parser.add_argument("--head", type=Path, nargs="+", required=True)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    benchmark = json.loads(args.benchmark.read_text())
    base_runs = load_runs(args.base)
    head_runs = load_runs(args.head)
    reasons = incomparable(base_runs + head_runs)
    for reason in reasons:
        print(f"not comparable: {reason}")
    if reasons:
        return 2
    verdicts = compare(base_runs, head_runs, benchmark)
    print(
        f"{'workload':<17} {'metric':<15} {'base q1/median/q3':>32} "
        f"{'head q1/median/q3':>32} {'change':>8}  verdict"
    )
    for v in verdicts:
        base = "/".join(f"{x:.4g}" for x in v.base)
        head = "/".join(f"{x:.4g}" for x in v.head)
        print(
            f"{v.workload:<17} {v.metric:<15} {base:>28} {v.unit:<3} "
            f"{head:>28} {v.unit:<3} {v.change:>+8.1%}  {v.status}"
        )
    failures = _failures(head_runs)
    for failure in failures:
        print(f"FAIL head {failure}")
    regressed = [v for v in verdicts if v.status == "regressed"]
    if not verdicts:
        print("no common workload and metric to compare")
        return 1
    return 1 if regressed or failures else 0


if __name__ == "__main__":
    sys.exit(main())

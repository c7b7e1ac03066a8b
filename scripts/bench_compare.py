#!/usr/bin/env python
"""Compare freshly recorded ``BENCH_<area>.json`` files to baselines.

CI's bench-record job runs ``make bench-record`` into a scratch
directory and then calls this script to compare the recording against
the baselines checked into ``benchmarks/``.  The comparison is
structural, not a latency gate (shared CI runners are far too noisy
for absolute wall-time thresholds):

* every benchmark in a baselined area must have run (node-id sets
  match exactly — a silently skipped or deleted benchmark fails);
* every recorded outcome must be ``passed``;
* duration ratios recorded/baseline are printed per node id so drift
  is visible in the job log without failing the build.

Usage::

    python scripts/bench_compare.py --recorded <dir> [--baseline benchmarks]

Exit codes: 0 all baselined areas match; 1 structural mismatch or a
non-passed outcome; 2 unreadable documents.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.errors import ReproError  # noqa: E402
from repro.obs.bench_record import load_bench_document  # noqa: E402

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_ERROR = 2


def _entries_by_nodeid(document: dict) -> Dict[str, dict]:
    return {
        entry["nodeid"]: entry
        for entry in document["benchmarks"]
        if isinstance(entry, dict) and "nodeid" in entry
    }


def compare_area(recorded: dict, baseline: dict) -> List[str]:
    """Problems comparing one recorded area against its baseline."""
    problems: List[str] = []
    area = baseline.get("area", "?")
    rec = _entries_by_nodeid(recorded)
    base = _entries_by_nodeid(baseline)
    missing = sorted(set(base) - set(rec))
    extra = sorted(set(rec) - set(base))
    for nodeid in missing:
        problems.append(f"{area}: baselined benchmark did not run: {nodeid}")
    for nodeid in extra:
        problems.append(
            f"{area}: new benchmark absent from the baseline "
            f"(re-record it): {nodeid}"
        )
    for nodeid in sorted(set(rec) & set(base)):
        entry = rec[nodeid]
        if entry.get("outcome") != "passed":
            problems.append(
                f"{area}: {nodeid} outcome {entry.get('outcome')!r}"
            )
            continue
        base_dur = float(base[nodeid].get("duration_seconds", 0.0))
        rec_dur = float(entry.get("duration_seconds", 0.0))
        if base_dur > 0.0:
            ratio = rec_dur / base_dur
            print(
                f"  {nodeid}: {rec_dur:.2f}s vs baseline "
                f"{base_dur:.2f}s (x{ratio:.2f})"
            )
        else:
            print(f"  {nodeid}: {rec_dur:.2f}s (no baseline duration)")
    return problems


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        description="Compare recorded BENCH_*.json files to baselines."
    )
    parser.add_argument(
        "--recorded",
        required=True,
        help="directory holding the freshly recorded BENCH_*.json files",
    )
    parser.add_argument(
        "--baseline",
        default=str(REPO_ROOT / "benchmarks"),
        help="directory holding the checked-in baselines",
    )
    args = parser.parse_args(argv)

    baseline_dir = Path(args.baseline)
    recorded_dir = Path(args.recorded)
    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"error: no BENCH_*.json baselines in {baseline_dir}", file=sys.stderr)
        return EXIT_ERROR

    problems: List[str] = []
    compared = 0
    try:
        for baseline_path in baselines:
            recorded_path = recorded_dir / baseline_path.name
            if not recorded_path.exists():
                print(f"{baseline_path.name}: not recorded this run; skipping")
                continue
            print(f"{baseline_path.name}:")
            problems.extend(
                compare_area(
                    load_bench_document(recorded_path),
                    load_bench_document(baseline_path),
                )
            )
            compared += 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if problems:
        for problem in problems:
            print(f"problem: {problem}", file=sys.stderr)
        return EXIT_MISMATCH
    print(f"bench-compare: {compared} area(s) match their baselines")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""``repro-campaign``: the durable campaign command line.

Subcommands
-----------

``run``
    Start a campaign from a manifest JSON file into a directory.
    ``--workers 1`` (the default) runs chunks in this process;
    ``--workers N`` shards them across N worker processes that take
    chunks from one queue (``--heartbeat-interval``; a busy worker
    silent for ``--lease-ttl`` seconds is killed and its chunk
    requeued).
``resume``
    Continue a killed or drained campaign from its directory, with any
    worker count — after any crash of a worker *or* of the runner;
    progress is replayed purely from the journal.
``status``
    Read-only progress summary (safe while a campaign is running),
    with per-worker leases, heartbeats, completions, expirations and
    errors of sharded runs, plus the newest telemetry frame
    (``repro-obs expo <dir>/telemetry.jsonl`` renders it as Prometheus
    text).
``verify``
    Cross-check journal, chunk snapshots, and aggregate digests.

Exit codes: 0 success; 1 verification found problems; 2 campaign error
(bad manifest, fingerprint mismatch, corrupt journal, invalid flag);
3 the run was interrupted by SIGINT/SIGTERM after a clean drain
(resume to continue).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.campaign.backoff import BackoffPolicy
from repro.campaign.manifest import CampaignManifest
from repro.campaign.runner import (
    MANIFEST_FILE,
    CampaignReport,
    CampaignRunner,
    campaign_status,
    verify_campaign,
)
from repro.errors import ReproError
from repro.utils.validation import (
    check_flag_below,
    check_flag_count,
    check_flag_positive,
)

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_ERROR = 2
EXIT_INTERRUPTED = 3


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-campaign`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description="Durable, resumable simulation campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="start a campaign from a manifest")
    run.add_argument("--manifest", required=True, help="manifest JSON file")
    run.add_argument("--dir", required=True, help="campaign directory")
    _add_exec_options(run)

    resume = sub.add_parser("resume", help="continue a killed campaign")
    resume.add_argument("--dir", required=True, help="campaign directory")
    _add_exec_options(resume)

    status = sub.add_parser("status", help="read-only progress summary")
    status.add_argument("--dir", required=True, help="campaign directory")
    status.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    verify = sub.add_parser("verify", help="cross-check campaign artifacts")
    verify.add_argument("--dir", required=True, help="campaign directory")
    verify.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    return parser


def _add_exec_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard worker processes (1: run chunks in this process)",
    )
    sub.add_argument(
        "--chunk-attempts",
        type=int,
        default=3,
        help=(
            "attempts for transient (worker/timeout) failures: per "
            "index, and per chunk re-dispatch on a fleet"
        ),
    )
    sub.add_argument(
        "--chunk-timeout",
        type=float,
        default=None,
        help="per-simulation time budget in seconds (default: no watchdog)",
    )
    sub.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        help=(
            "seconds a busy worker may stay silent before it is killed "
            "and its chunk requeued"
        ),
    )
    sub.add_argument(
        "--heartbeat-interval",
        type=float,
        default=1.0,
        help="seconds between worker liveness heartbeats",
    )


def _validate_exec_options(args: argparse.Namespace) -> None:
    """Reject nonsensical knob values before anything touches disk.

    All numeric knobs go through the shared flag validators in
    :mod:`repro.utils.validation` — the same helpers ``repro-obs top``
    uses — so NaN/zero/negative values fail identically everywhere.
    """
    check_flag_count(args.workers, "--workers", minimum=1)
    check_flag_count(args.chunk_attempts, "--chunk-attempts", minimum=1)
    if args.chunk_timeout is not None:
        check_flag_positive(args.chunk_timeout, "--chunk-timeout")
    check_flag_positive(args.lease_ttl, "--lease-ttl")
    check_flag_positive(args.heartbeat_interval, "--heartbeat-interval")
    check_flag_below(
        args.heartbeat_interval,
        "--heartbeat-interval",
        args.lease_ttl,
        "--lease-ttl",
        reason="every healthy lease would expire",
    )


def _runner(args: argparse.Namespace, manifest: CampaignManifest) -> CampaignRunner:
    return CampaignRunner(
        manifest,
        args.dir,
        n_workers=args.workers,
        timeout_per_sim=args.chunk_timeout,
        backoff=BackoffPolicy(max_attempts=args.chunk_attempts),
        lease_ttl=args.lease_ttl,
        heartbeat_interval=args.heartbeat_interval,
    )


def _print_report(report: CampaignReport) -> None:
    print(
        f"campaign {report.fingerprint[:12]}...: {report.status} "
        f"({report.completed_chunks}/{report.n_chunks} chunks, "
        f"{report.chunks_run} run now)"
    )
    if report.status == "completed":
        print(f"results digest: {report.results_digest}")
        if report.n_failed:
            print(f"failed simulations: {report.n_failed}")
        if report.aggregate is not None:
            for key in (
                "n_runs",
                "n_safe",
                "safe_rate",
                "mean_eta",
                "mean_reaching_time",
                "mean_emergency_frequency",
            ):
                print(f"  {key}: {report.aggregate.get(key)}")
    else:
        print("interrupted — resume with: repro-campaign resume --dir <dir>")


def _print_status(summary: dict) -> None:
    for key, value in summary.items():
        if key not in ("workers", "telemetry"):
            print(f"{key}: {value}")
    for worker, entry in sorted(summary["workers"].items()):
        print(
            f"worker {worker}: pid={entry['pid']} alive={entry['alive']} "
            f"leases={entry['leases']} heartbeats={entry['heartbeats']} "
            f"completions={entry['completions']} "
            f"expirations={entry['expirations']} errors={entry['errors']}"
        )
    telemetry = summary["telemetry"]
    if telemetry is not None:
        print(
            f"telemetry: {telemetry['frames']} frames "
            f"(last wall {telemetry['last_wall']})"
        )
        for name, value in sorted(telemetry["counters"].items()):
            if name.startswith("fleet.") and "{" not in name:
                print(f"  {name}: {value}")


def _report_exit(report: CampaignReport) -> int:
    _print_report(report)
    return EXIT_OK if report.status == "completed" else EXIT_INTERRUPTED


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            _validate_exec_options(args)
            manifest = CampaignManifest.load(args.manifest)
            return _report_exit(_runner(args, manifest).run())
        if args.command == "resume":
            _validate_exec_options(args)
            manifest = CampaignManifest.load(f"{args.dir}/{MANIFEST_FILE}")
            return _report_exit(_runner(args, manifest).resume())
        if args.command == "status":
            summary = campaign_status(args.dir)
            if args.json:
                print(json.dumps(summary, indent=2, sort_keys=True))
            else:
                _print_status(summary)
            return EXIT_OK
        # verify
        outcome = verify_campaign(args.dir)
        if args.json:
            print(json.dumps(outcome, indent=2, sort_keys=True))
        else:
            state = "ok" if outcome["ok"] else "FAILED"
            print(
                f"verify {state}: {outcome['completed_chunks']}/"
                f"{outcome['n_chunks']} chunks, "
                f"finished={outcome['finished']}"
            )
            for problem in outcome["problems"]:
                print(f"  problem: {problem}")
        return EXIT_OK if outcome["ok"] else EXIT_VERIFY_FAILED
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

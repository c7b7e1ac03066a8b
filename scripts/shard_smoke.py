#!/usr/bin/env python
"""End-to-end chaos smoke test for the shard layer.

Exercises the kill-anywhere contract from the outside, through the
``repro-campaign`` CLI only:

1. run a small campaign in-process (the reference),
2. ``run --workers 3``: shard the same campaign across three worker
   processes and ``SIGKILL`` one worker the moment its first chunk is
   journaled,
3. ``SIGKILL`` the coordinator itself once a few more chunks land,
4. ``resume --workers 3`` with a fresh fleet and require the merged
   ``aggregate.json`` to be **byte-identical** to the in-process
   reference's,
5. ``verify`` both directories,
6. require ``status`` to account for both coordinator epochs and
   every worker's exit.

Run via ``make shard-smoke``.  Exits 0 on success, 1 on any violated
expectation.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
CLI = [sys.executable, "-m", "repro.campaign"]

#: Exit codes mirrored from repro.campaign.cli.
EXIT_OK = 0

#: How long to wait for each journal milestone.
MILESTONE_TIMEOUT = 180.0

#: Short lease so the murdered worker's chunks re-dispatch quickly.
SHARD_FLAGS = [
    "--workers", "3",
    "--lease-ttl", "5",
    "--heartbeat-interval", "0.2",
]


def _env():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


def _cli(*args, expect=EXIT_OK):
    proc = subprocess.run(
        CLI + list(args),
        env=_env(),
        capture_output=True,
        text=True,
        check=False,
    )
    if proc.returncode != expect:
        _fail(
            f"repro-campaign {' '.join(args)} exited {proc.returncode}, "
            f"expected {expect}\nstdout: {proc.stdout}\nstderr: {proc.stderr}"
        )
    return proc


def _fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def _write_manifest(path, n_sims):
    manifest = {
        "schema_version": "1.0",
        "name": "shard-smoke",
        "scenario": {"kind": "left_turn"},
        "comm": {
            "sensor_noise": 0.3,
            "faults": [{"kind": "independent_loss", "probability": 0.2}],
        },
        "planner": {"kind": "constant", "acceleration": 2.0},
        "config": {"max_time": 10.0},
        "estimator": "filtered",
        "n_sims": n_sims,
        "seed": 42,
        "chunk_size": 2,
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest


def _journal_records(directory):
    """Best-effort journal parse: checksums ignored, torn tail dropped."""
    journal = directory / "journal.jsonl"
    if not journal.exists():
        return []
    records = []
    for line in journal.read_bytes().splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            break  # torn tail
    return records


def _count(records, record_type):
    return sum(1 for r in records if r.get("type") == record_type)


def _wait_for(directory, predicate, what, coordinator=None):
    deadline = time.monotonic() + MILESTONE_TIMEOUT
    while time.monotonic() < deadline:
        if coordinator is not None and coordinator.poll() is not None:
            _fail(
                f"coordinator finished before '{what}' — increase --sims "
                "to slow the campaign down"
            )
        records = _journal_records(directory)
        if predicate(records):
            return records
        time.sleep(0.002)
    _fail(f"timed out waiting for {what}")


def _status(directory):
    proc = _cli("status", "--dir", str(directory), "--json")
    return json.loads(proc.stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sims", type=int, default=24, help="episodes per campaign"
    )
    parser.add_argument(
        "--workdir", help="keep artifacts here instead of a temp dir"
    )
    args = parser.parse_args()

    if args.workdir:
        workdir = Path(args.workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        cleanup = False
    else:
        workdir = Path(tempfile.mkdtemp(prefix="shard-smoke-"))
        cleanup = True

    try:
        manifest_path = workdir / "manifest.json"
        _write_manifest(manifest_path, args.sims)
        reference = workdir / "reference"
        sharded = workdir / "sharded"

        print("1/6 in-process reference run")
        _cli("run", "--manifest", str(manifest_path), "--dir", str(reference))

        print("2/6 run with 3 workers; SIGKILL one worker mid-run")
        coordinator = subprocess.Popen(
            CLI
            + ["run", "--manifest", str(manifest_path),
               "--dir", str(sharded)]
            + SHARD_FLAGS,
            env=_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            records = _wait_for(
                sharded,
                lambda r: _count(r, "worker_spawned") >= 3
                and _count(r, "chunk_completed") >= 1,
                "three workers and a first completed chunk",
                coordinator=coordinator,
            )
            victim_pid = next(
                r["pid"] for r in records if r.get("type") == "worker_spawned"
            )
            os.kill(victim_pid, signal.SIGKILL)
            print(f"    SIGKILLed worker pid {victim_pid}")

            print("3/6 SIGKILL the coordinator itself")
            done_at_kill = _count(
                _wait_for(
                    sharded,
                    lambda r: _count(r, "chunk_completed") >= 3,
                    "three completed chunks",
                    coordinator=coordinator,
                ),
                "chunk_completed",
            )
            coordinator.send_signal(signal.SIGKILL)
            coordinator.wait(timeout=30)
            print(f"    coordinator killed at >= {done_at_kill} chunks")
        finally:
            if coordinator.poll() is None:
                coordinator.kill()
                coordinator.wait(timeout=30)

        print("4/6 resume with a fresh fleet")
        status = _status(sharded)
        if status["finished"]:
            _fail("killed shard campaign reports finished=True")
        _cli("resume", "--dir", str(sharded), *SHARD_FLAGS)

        print("5/6 byte-compare aggregates and verify both directories")
        reference_bytes = (reference / "aggregate.json").read_bytes()
        sharded_bytes = (sharded / "aggregate.json").read_bytes()
        if reference_bytes != sharded_bytes:
            _fail(
                "sharded aggregate.json differs from the in-process "
                "reference bytes"
            )
        _cli("verify", "--dir", str(reference))
        _cli("verify", "--dir", str(sharded))
        print(f"    aggregate bit-identical ({len(sharded_bytes)} bytes)")

        print("6/6 status accounts for the chaos")
        status = _status(sharded)
        if not status["finished"]:
            _fail("resumed shard campaign reports finished=False")
        if status["coordinator_epochs"] != 2:
            _fail(
                f"expected 2 coordinator epochs, got "
                f"{status['coordinator_epochs']}"
            )
        if status["completed_chunks"] * 2 < args.sims:
            _fail("status undercounts completed chunks")
        alive = [w for w, e in status["workers"].items() if e["alive"]]
        if alive:
            _fail(f"workers still marked alive after completion: {alive}")
        print(
            f"    epochs=2, {status['completed_chunks']} chunks, "
            f"{len(status['workers'])} workers all exited, "
            f"{status['lease_expirations']} lease expirations, "
            f"{status['duplicate_completions']} duplicate completions"
        )

        print("shard smoke: OK")
        return 0
    finally:
        if cleanup:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""End-to-end crash smoke test for the campaign layer.

Exercises the crash-recovery contract from the outside, through the
``repro-campaign`` CLI only.  With ``--workers 1`` (the default, ``make
campaign-smoke``) it checks durability of the in-process transport:

1. run a small campaign uninterrupted (the reference),
2. start the same campaign in a second directory and ``SIGKILL`` the
   process the moment its first chunk is journaled,
3. confirm the killed campaign is unfinished, resume it, and require
   the resumed ``aggregate.json`` to be **byte-identical** to the
   reference's,
4. ``verify`` both directories,
5. tamper with the killed campaign's manifest and require ``resume``
   to refuse with the fingerprint-mismatch exit code.

With ``--workers N > 1`` (``make shard-smoke`` runs ``--workers 3``) it
checks the shard fleet's kill-anywhere contract:

1. run a small campaign in-process (the reference),
2. ``run --workers N``: shard the same campaign across ``N`` worker
   processes and, once a first chunk is journaled, ``SIGKILL`` a worker
   that holds a chunk (its newest ``lease_claimed`` record has no later
   ``chunk_completed`` from it), so the chunk has to be re-dispatched,
3. ``SIGKILL`` the coordinator itself once a few more chunks land,
4. ``resume --workers N`` with a fresh fleet and require the merged
   ``aggregate.json`` to be **byte-identical** to the in-process
   reference's,
5. ``verify`` both directories,
6. require ``status`` to account for both coordinator epochs, every
   worker's exit and at least one lease expiration (the killed
   worker's chunk).

Exits 0 on success, 1 on any violated expectation.
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
EXIT_ERROR = 2

#: How long to wait for each journal milestone.
MILESTONE_TIMEOUT = 180.0


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


def _write_manifest(path, name, n_sims, chunk_size):
    manifest = {
        "schema_version": "1.0",
        "name": name,
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
        "chunk_size": chunk_size,
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


def _holding_worker(records):
    """The pid of the worker that most recently claimed a chunk it still holds.

    A worker holds a chunk from its ``lease_claimed`` record until a
    ``chunk_completed`` record from the same worker follows; the newest
    claim leaves the kill the most time to land before the chunk
    completes.  ``None`` when no worker holds one.
    """
    pids = {}
    holding = {}
    for record in records:
        record_type = record.get("type")
        worker = record.get("worker")
        if record_type == "worker_spawned":
            pids[worker] = record.get("pid")
        elif record_type == "lease_claimed":
            holding.pop(worker, None)
            holding[worker] = record.get("chunk")
        elif record_type in ("chunk_completed", "lease_expired"):
            holding.pop(worker, None)
    for worker in reversed(list(holding)):
        if pids.get(worker) is not None:
            return pids[worker]
    return None


def _wait_for(directory, predicate, what, process):
    """Poll the journal until ``predicate(records)``; returns the records."""
    deadline = time.monotonic() + MILESTONE_TIMEOUT
    while time.monotonic() < deadline:
        if process.poll() is not None:
            _fail(
                f"campaign finished before {what} — increase --sims to "
                "slow it down"
            )
        records = _journal_records(directory)
        if predicate(records):
            return records
        time.sleep(0.002)
    _fail(f"timed out waiting for {what}")


def _start(manifest_path, directory, *flags):
    return subprocess.Popen(
        CLI
        + ["run", "--manifest", str(manifest_path), "--dir", str(directory)]
        + list(flags),
        env=_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _stop(process):
    if process.poll() is None:
        process.kill()
        process.wait(timeout=30)


def _status(directory):
    proc = _cli("status", "--dir", str(directory), "--json")
    return json.loads(proc.stdout)


def _same_aggregate(reference, other, what):
    reference_bytes = (reference / "aggregate.json").read_bytes()
    other_bytes = (other / "aggregate.json").read_bytes()
    if reference_bytes != other_bytes:
        _fail(f"{what} aggregate.json differs from the reference bytes")
    return other_bytes


def durability(workdir, n_sims):
    """The in-process transport: SIGKILL, resume, tampered manifest."""
    manifest_path = workdir / "manifest.json"
    _write_manifest(
        manifest_path, "durability-smoke", n_sims, max(2, n_sims // 8)
    )
    reference = workdir / "reference"
    crashed = workdir / "crashed"

    print("1/5 reference run (uninterrupted)")
    _cli("run", "--manifest", str(manifest_path), "--dir", str(reference))

    print("2/5 victim run, SIGKILLed after its first journaled chunk")
    victim = _start(manifest_path, crashed)
    try:
        _wait_for(
            crashed,
            lambda r: _count(r, "chunk_completed") >= 1,
            "a first journaled chunk",
            victim,
        )
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)
    finally:
        _stop(victim)
    status = _status(crashed)
    if status["finished"]:
        _fail("killed campaign reports finished=True")
    if status["completed_chunks"] >= status["n_chunks"]:
        _fail("kill landed after every chunk completed; nothing to resume")
    print(
        f"    killed at {status['completed_chunks']}/"
        f"{status['n_chunks']} chunks"
    )

    print("3/5 resume to completion")
    _cli("resume", "--dir", str(crashed))
    resumed_bytes = _same_aggregate(reference, crashed, "resumed")
    if _status(reference)["fingerprint"] != _status(crashed)["fingerprint"]:
        _fail("campaign fingerprints diverged")
    print(
        f"    aggregate bit-identical "
        f"({len(resumed_bytes)} bytes, fingerprint "
        f"{_status(crashed)['fingerprint'][:12]}...)"
    )

    print("4/5 verify both campaign directories")
    _cli("verify", "--dir", str(reference))
    _cli("verify", "--dir", str(crashed))

    print("5/5 resume refuses a tampered manifest")
    manifest = json.loads(manifest_path.read_text())
    manifest["seed"] += 1
    (crashed / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True)
    )
    proc = _cli("resume", "--dir", str(crashed), expect=EXIT_ERROR)
    if "fingerprint" not in proc.stderr:
        _fail(f"expected a fingerprint refusal, got: {proc.stderr}")
    print("campaign smoke: OK")


def shard_chaos(workdir, n_sims, workers):
    """The fleet transport: SIGKILL a worker, then the coordinator."""
    chunk_size = 2
    manifest_path = workdir / "manifest.json"
    _write_manifest(manifest_path, "shard-smoke", n_sims, chunk_size)
    reference = workdir / "reference"
    sharded = workdir / "sharded"
    # Short lease so the murdered worker's chunks re-dispatch quickly.
    flags = [
        "--workers", str(workers),
        "--lease-ttl", "5",
        "--heartbeat-interval", "0.2",
    ]

    print("1/6 in-process reference run")
    _cli("run", "--manifest", str(manifest_path), "--dir", str(reference))

    print(f"2/6 run with {workers} workers; SIGKILL a worker holding a chunk")
    coordinator = _start(manifest_path, sharded, *flags)
    try:
        records = _wait_for(
            sharded,
            lambda r: _count(r, "worker_spawned") >= workers
            and _count(r, "chunk_completed") >= 1
            and _holding_worker(r) is not None,
            f"{workers} workers, a first completed chunk and a held chunk",
            coordinator,
        )
        victim_pid = _holding_worker(records)
        os.kill(victim_pid, signal.SIGKILL)
        print(f"    SIGKILLed worker pid {victim_pid}")

        print("3/6 SIGKILL the coordinator itself")
        done_at_kill = _count(
            _wait_for(
                sharded,
                lambda r: _count(r, "chunk_completed") >= 3,
                "three completed chunks",
                coordinator,
            ),
            "chunk_completed",
        )
        coordinator.send_signal(signal.SIGKILL)
        coordinator.wait(timeout=30)
        print(f"    coordinator killed at >= {done_at_kill} chunks")
    finally:
        _stop(coordinator)

    print("4/6 resume with a fresh fleet")
    if _status(sharded)["finished"]:
        _fail("killed shard campaign reports finished=True")
    _cli("resume", "--dir", str(sharded), *flags)

    print("5/6 byte-compare aggregates and verify both directories")
    sharded_bytes = _same_aggregate(reference, sharded, "sharded")
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
    if status["completed_chunks"] * chunk_size < n_sims:
        _fail("status undercounts completed chunks")
    alive = [w for w, e in status["workers"].items() if e["alive"]]
    if alive:
        _fail(f"workers still marked alive after completion: {alive}")
    if status["lease_expirations"] < 1:
        _fail(
            "no lease expired: the killed worker held no chunk, so no "
            "chunk was re-dispatched"
        )
    print(
        f"    epochs=2, {status['completed_chunks']} chunks, "
        f"{len(status['workers'])} workers all exited, "
        f"{status['lease_expirations']} lease expirations, "
        f"{status['duplicate_completions']} duplicate completions"
    )
    print("shard smoke: OK")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sims", type=int, default=24, help="episodes per campaign"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="1: in-process durability smoke; N > 1: shard chaos smoke",
    )
    parser.add_argument(
        "--workdir", help="keep artifacts here instead of a temp dir"
    )
    args = parser.parse_args()
    if args.workers < 1:
        parser.error("--workers must be >= 1")

    if args.workdir:
        workdir = Path(args.workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        cleanup = False
    else:
        workdir = Path(tempfile.mkdtemp(prefix="campaign-smoke-"))
        cleanup = True

    try:
        if args.workers == 1:
            durability(workdir, args.sims)
        else:
            shard_chaos(workdir, args.sims, args.workers)
        return 0
    finally:
        if cleanup:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

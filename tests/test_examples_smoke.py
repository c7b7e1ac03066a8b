"""Smoke tests: the shipped examples run to completion.

Each example is executed as a subprocess (the way a user runs it), with
reduced workloads where the script takes arguments.  These tests keep
the examples from rotting as the library evolves; the examples' own
``assert`` statements check their headline claims (e.g. the shielded
planner's 100 % safe rate).
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(script: str, *args: str, timeout: float = 240.0) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, (
        f"{script} failed:\n{result.stdout[-2000:]}\n{result.stderr[-2000:]}"
    )
    return result.stdout


class TestExamplesRun:
    def test_quickstart(self):
        out = _run("quickstart.py")
        assert "100% safe" in out

    def test_signalized_crossing(self):
        out = _run("signalized_crossing.py")
        assert "crossed" in out
        assert "RED VIOLATION" in out  # the naive baseline misbehaves

    def test_car_following_shield(self):
        out = _run("car_following_shield.py", "--sims", "8")
        assert "100% safe" in out

    def test_platoon_left_turn(self):
        out = _run(
            "platoon_left_turn.py", "--sims", "6", "--vehicles", "2"
        )
        assert "disjunctive monitor" in out

    def test_information_filter_demo(self):
        out = _run("information_filter_demo.py")
        assert "reduction" in out
        assert "after the delayed message replays" in out

    def test_train_and_save_planner(self, tmp_path):
        out = _run(
            "train_and_save_planner.py", "--out", str(tmp_path / "p")
        )
        assert "bit-identical" in out

    def test_communication_disturbance(self):
        out = _run("communication_disturbance.py", "--sims", "4")
        assert "Takeaway" in out

    def test_unprotected_left_turn(self):
        out = _run("unprotected_left_turn.py", "--sims", "2")
        assert "Table I shape" in out
        assert "outcome:" in out

"""Benchmark: adversarial safety certification of both shipped scenarios.

Times the :func:`repro.core.verification.certify` sweep — the procedure
a user runs before trusting a new scenario — and asserts both shipped
scenarios come out CERTIFIED under good and degraded communication.
"""

import pytest

from repro.comm.faults import messages_delayed, messages_lost
from repro.core.verification import certify
from repro.scenarios.car_following import CarFollowingScenario
from repro.scenarios.left_turn.scenario import LeftTurnScenario
from repro.sensing.noise import NoiseBounds
from repro.sim.engine import CommSetup


def _comms():
    return [
        CommSetup(
            0.1, 0.1, messages_delayed(0.25, 0.5),
            NoiseBounds.uniform_all(1.0),
        ),
        CommSetup(
            0.1, 0.1, messages_lost(), NoiseBounds.uniform_all(3.0)
        ),
    ]


@pytest.mark.benchmark(group="certification")
def test_certify_left_turn(benchmark, run_once):
    report = run_once(
        benchmark,
        lambda: certify(LeftTurnScenario(), _comms(), n_runs=25, seed=11),
    )
    print()
    print(report.render())
    assert report.certified
    assert report.episodes_run == 2 * 2 * 5 * 25


@pytest.mark.benchmark(group="certification")
def test_certify_car_following(benchmark, run_once):
    report = run_once(
        benchmark,
        lambda: certify(
            CarFollowingScenario(),
            _comms(),
            n_runs=25,
            seed=12,
            max_time=20.0,
        ),
    )
    print()
    print(report.render())
    assert report.certified

"""The decision server: ladder walking, admission, probes, drain.

Each test runs a real :class:`~repro.serve.server.DecisionServer` on a
unix socket (TCP once, for the binding path) and drives it with the
blocking client from worker threads — the same topology as a real
deployment.  Chaos is injected by wrapping the *planner unit* with the
:mod:`repro.faults` decorators, because faults inside the compound are
absorbed by the shield itself (see ``test_serve_ladder``).
"""

import asyncio
import socket

import pytest

from repro.faults.plan import (
    PlannerFault,
    PlannerFaultKind,
    PlannerFaultSeverity,
    StepWindow,
)
from repro.faults.planner_wrapper import FaultyPlanner, StallingPlanner
from repro.serve.client import ServeClient
from repro.serve.protocol import decode_line
from repro.serve.server import DecisionServer, ServeConfig

from tests.serve_helpers import (
    SCENARIO,
    assert_response_safe,
    ladder_factory,
    leader_report,
    run_server_test,
    session_factory,
)

EGO = {"position": 0.0, "velocity": 20.0}


def _raising_wrap(severity, window=StepWindow(0, 1)):
    def wrap(planner):
        return FaultyPlanner(
            planner,
            faults=(
                PlannerFault(
                    window=window,
                    kind=PlannerFaultKind.EXCEPTION,
                    severity=severity,
                ),
            ),
        )

    return wrap


def _stalling_wrap(seconds):
    def wrap(planner):
        return StallingPlanner(planner, seconds)

    return wrap


class TestRoundtrip:
    def test_probes_and_full_decision(self, tmp_path):
        async def body(server, path):
            def work():
                with ServeClient(path=path) as client:
                    assert client.ping()["event"] == "pong"
                    health = client.health()
                    assert health["event"] == "health"
                    assert health["status"] == "serving"
                    assert health["ready"] is True
                    return client.decide(
                        1.0, EGO, reports=[leader_report(0.95, 60.0, 15.0)]
                    )

            response = await asyncio.to_thread(work)
            assert response["event"] == "decision"
            assert response["status"] == "ok"
            assert response["ladder"] == 1
            assert response["cause"] == "nn"
            assert response["retries"] == 0
            assert response["elapsed_ms"] <= response["deadline_ms"]
            assert_response_safe(response)

        run_server_test(body, tmp_path)

    def test_tcp_binding_roundtrip(self):
        async def scenario():
            server = DecisionServer(ladder_factory(), session_factory())
            await server.start(host="127.0.0.1", port=0)
            port = server.tcp_port()
            try:

                def work():
                    with ServeClient(port=port) as client:
                        return client.decide(
                            1.0, EGO, reports=[leader_report(0.95, 60.0, 15.0)]
                        )

                response = await asyncio.to_thread(work)
                assert response["status"] == "ok"
                assert_response_safe(response)
            finally:
                await server.drain()

        asyncio.run(scenario())

    def test_pipelined_requests_answered_in_order(self, tmp_path):
        async def body(server, path):
            def work():
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(5.0)
                sock.connect(path)
                try:
                    stream = sock.makefile("rb")
                    batch = b""
                    for i in range(5):
                        batch += (
                            b'{"op": "decide", "id": %d, "time": 1.0, '
                            b'"ego": {"position": 0.0, "velocity": 20.0}, '
                            b'"messages": [{"vehicle": 1, "stamp": 0.95, '
                            b'"position": 60.0, "velocity": 15.0}]}\n'
                            % i
                        )
                    sock.sendall(batch)
                    return [decode_line(stream.readline()) for _ in range(5)]
                finally:
                    sock.close()

            replies = await asyncio.to_thread(work)
            assert [r["id"] for r in replies] == [0, 1, 2, 3, 4]
            for reply in replies:
                assert_response_safe(reply)

        run_server_test(body, tmp_path)


class TestLevel3:
    def test_no_state_brakes_with_stop_position(self, tmp_path):
        async def body(server, path):
            def work():
                with ServeClient(path=path) as client:
                    return client.decide(1.0, EGO)

            response = await asyncio.to_thread(work)
            assert response["status"] == "degraded"
            assert response["ladder"] == 3
            assert response["cause"] == "no-state"
            expected = 20.0**2 / (2.0 * -SCENARIO.ego_limits.a_min)
            assert response["stop_position"] == pytest.approx(expected)
            assert_response_safe(response)

        run_server_test(body, tmp_path)

    def test_stale_state_brakes(self, tmp_path):
        async def body(server, path):
            def work():
                with ServeClient(path=path) as client:
                    first = client.decide(
                        1.0, EGO, reports=[leader_report(0.95, 60.0, 15.0)]
                    )
                    late = client.decide(3.0, EGO)
                    return first, late

            first, late = await asyncio.to_thread(work)
            assert first["status"] == "ok"
            assert late["status"] == "degraded"
            assert late["ladder"] == 3
            assert late["cause"] == "stale-state"
            assert_response_safe(late)

        run_server_test(body, tmp_path, max_state_age=1.0)

    def test_malformed_decide_brakes(self, tmp_path):
        async def body(server, path):
            def work():
                with ServeClient(path=path) as client:
                    return client.request(
                        {"op": "decide", "id": 9, "time": "never", "ego": EGO}
                    )

            response = await asyncio.to_thread(work)
            assert response["event"] == "decision"
            assert response["status"] == "degraded"
            assert response["cause"] == "malformed"
            assert response["ladder"] == 3
            assert_response_safe(response)
            assert server.observer.metrics.counter_value("serve.malformed") == 1

        run_server_test(body, tmp_path)

    def test_undecodable_line_still_answers_safely(self, tmp_path):
        async def body(server, path):
            def work():
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(5.0)
                sock.connect(path)
                try:
                    stream = sock.makefile("rb")
                    sock.sendall(b"this is not json\n")
                    return decode_line(stream.readline())
                finally:
                    sock.close()

            reply = await asyncio.to_thread(work)
            assert reply["event"] == "error"
            assert reply["ladder"] == 3
            assert_response_safe(reply)
            stats = server.stats()
            assert stats["protocol_errors"] == 1
            # protocol errors are answered but not *offered* decisions
            assert stats["offered"] == 0

        run_server_test(body, tmp_path)

    def test_unknown_op_answers_safely(self, tmp_path):
        async def body(server, path):
            def work():
                with ServeClient(path=path) as client:
                    return client.request({"op": "teleport", "id": 3})

            reply = await asyncio.to_thread(work)
            assert reply["event"] == "error"
            assert reply["id"] == 3
            assert "teleport" in reply["error"]
            assert_response_safe(reply)

        run_server_test(body, tmp_path)


class TestDeadline:
    def test_hung_planner_degrades_restarts_and_tracks_stall(self, tmp_path):
        async def body(server, path):
            def work():
                with ServeClient(path=path) as client:
                    response = client.decide(
                        1.0,
                        EGO,
                        reports=[leader_report(0.95, 60.0, 15.0)],
                        deadline_ms=50.0,
                    )
                    health = client.health()
                    return response, health

            response, health = await asyncio.to_thread(work)
            assert response["status"] == "degraded"
            assert response["ladder"] == 2
            assert response["cause"] == "deadline"
            assert response["elapsed_ms"] >= 50.0
            assert_response_safe(response)
            # the hung call was abandoned off the reply path ...
            assert health["stalled_workers"] >= 1
            stats = server.stats()
            assert stats["deadline_misses"] >= 1
            # ... and the wedged planner was retired
            assert stats["planner_restarts"] == 1
            # the stall eventually dies and the worker is reclaimed
            await asyncio.sleep(0.45)
            assert server.stalled_workers() == 0

        run_server_test(body, tmp_path, wrap=_stalling_wrap(0.4))


#: Deadline of the planner-fault requests: these tests check the retry
#: budget and the fault ladder, not the clock, so a loaded machine must
#: not turn a fault reply into a deadline reply.
_FAULT_DEADLINE_MS = 5000.0


class TestPlannerFaults:
    def test_transient_fault_retried_to_success(self, tmp_path):
        async def body(server, path):
            def work():
                with ServeClient(path=path) as client:
                    return client.decide(
                        1.0,
                        EGO,
                        reports=[leader_report(0.95, 60.0, 15.0)],
                        deadline_ms=_FAULT_DEADLINE_MS,
                    )

            response = await asyncio.to_thread(work)
            assert response["status"] == "ok"
            assert response["ladder"] == 1
            assert response["retries"] == 1
            assert_response_safe(response)
            stats = server.stats()
            assert stats["retries"] == 1
            assert stats["planner_restarts"] == 0

        run_server_test(
            body,
            tmp_path,
            wrap=_raising_wrap(PlannerFaultSeverity.TRANSIENT),
        )

    def test_transient_faults_exhaust_retry_budget(self, tmp_path):
        async def body(server, path):
            def work():
                with ServeClient(path=path) as client:
                    return client.decide(
                        1.0,
                        EGO,
                        reports=[leader_report(0.95, 60.0, 15.0)],
                        deadline_ms=_FAULT_DEADLINE_MS,
                    )

            response = await asyncio.to_thread(work)
            assert response["status"] == "degraded"
            assert response["ladder"] == 2
            assert response["cause"] == "planner-transient"
            assert response["retries"] == 1
            assert_response_safe(response)

        run_server_test(
            body,
            tmp_path,
            config=ServeConfig(transient_retries=1),
            wrap=_raising_wrap(
                PlannerFaultSeverity.TRANSIENT, window=StepWindow(0, 100)
            ),
        )

    def test_fatal_fault_degrades_without_retry_and_restarts(self, tmp_path):
        async def body(server, path):
            def work():
                with ServeClient(path=path) as client:
                    return client.decide(
                        1.0,
                        EGO,
                        reports=[leader_report(0.95, 60.0, 15.0)],
                        deadline_ms=_FAULT_DEADLINE_MS,
                    )

            response = await asyncio.to_thread(work)
            assert response["status"] == "degraded"
            assert response["ladder"] == 2
            assert response["cause"] == "planner-fatal"
            assert response["retries"] == 0
            assert_response_safe(response)
            stats = server.stats()
            assert stats["planner_restarts"] == 1
            assert stats["retries"] == 0
            metrics = server.observer.metrics
            assert (
                metrics.counter_value("serve.planner_errors", severity="fatal")
                == 1
            )

        run_server_test(
            body,
            tmp_path,
            wrap=_raising_wrap(PlannerFaultSeverity.FATAL),
        )


class TestAdmission:
    def test_overflow_is_shed_with_safe_action(self, tmp_path):
        async def body(server, path):
            first = await asyncio.to_thread(lambda: ServeClient(path=path))
            second = await asyncio.to_thread(lambda: ServeClient(path=path))
            try:
                slow = asyncio.create_task(
                    asyncio.to_thread(
                        lambda: first.decide(
                            1.0,
                            EGO,
                            reports=[leader_report(0.95, 60.0, 15.0)],
                            deadline_ms=400.0,
                        )
                    )
                )
                await asyncio.sleep(0.15)
                assert server.inflight == 1
                shed = await asyncio.to_thread(
                    lambda: second.decide(
                        1.0, EGO, reports=[leader_report(0.95, 60.0, 15.0)]
                    )
                )
                assert shed["status"] == "shed"
                assert shed["ladder"] == 3
                assert shed["cause"] == "shed"
                assert_response_safe(shed)
                slow_response = await slow
                assert slow_response["cause"] == "deadline"
                assert_response_safe(slow_response)
                stats = server.stats()
                assert stats["offered"] == 2
                assert stats["served"] == 0
                assert stats["degraded"] == 1
                assert stats["shed"] == 1
                assert stats["shed_rate"] == pytest.approx(0.5)
            finally:
                first.close()
                second.close()

        run_server_test(
            body,
            tmp_path,
            config=ServeConfig(max_inflight=1),
            wrap=_stalling_wrap(1.0),
        )

    def test_accounting_invariant_over_mixed_workload(self, tmp_path):
        async def body(server, path):
            def work():
                with ServeClient(path=path) as client:
                    for _ in range(3):
                        response = client.decide(
                            1.0, EGO, reports=[leader_report(0.95, 60.0, 15.0)]
                        )
                        assert_response_safe(response)
                    bad = client.request(
                        {"op": "decide", "time": float("nan")}
                    )
                    assert_response_safe(bad)
                # fresh connection: empty state store, so no-state brake
                with ServeClient(path=path) as client:
                    no_state = client.decide(1.0, EGO)
                    assert no_state["cause"] == "no-state"
                    assert_response_safe(no_state)
                    return client.stats()

            stats = await asyncio.to_thread(work)
            assert stats["offered"] == 5
            assert (
                stats["offered"]
                == stats["served"] + stats["degraded"] + stats["shed"]
            )
            assert stats["ladder"] == {"1": 3, "2": 0, "3": 2}
            assert stats["verify_replaced"] == 0
            assert stats["p50_ms"] is not None
            assert stats["p99_ms"] is not None
            assert stats["p50_ms"] <= stats["p99_ms"]

        run_server_test(body, tmp_path)


class TestDrain:
    def test_drain_sheds_new_work_then_finishes_inflight(self, tmp_path):
        async def body(server, path):
            first = await asyncio.to_thread(lambda: ServeClient(path=path))
            second = await asyncio.to_thread(lambda: ServeClient(path=path))
            try:
                slow = asyncio.create_task(
                    asyncio.to_thread(
                        lambda: first.decide(
                            1.0,
                            EGO,
                            reports=[leader_report(0.95, 60.0, 15.0)],
                            deadline_ms=700.0,
                        )
                    )
                )
                await asyncio.sleep(0.2)
                assert server.inflight == 1
                drain = asyncio.create_task(server.drain())
                await asyncio.sleep(0.1)
                assert server.draining
                refused = await asyncio.to_thread(
                    lambda: second.decide(1.5, EGO)
                )
                assert refused["status"] == "shed"
                assert refused["cause"] == "draining"
                assert refused["ladder"] == 3
                assert_response_safe(refused)
                # the inflight decision still completes (here: deadline)
                slow_response = await slow
                assert slow_response["cause"] == "deadline"
                assert_response_safe(slow_response)
                await drain
                assert server.inflight == 0
            finally:
                first.close()
                second.close()

        run_server_test(
            body,
            tmp_path,
            config=ServeConfig(drain_grace=5.0),
            wrap=_stalling_wrap(5.0),
        )

"""Fabric RPC hardening: timeouts, reconnects, and worker quarantine.

Chaos-lockstep extensions of ``test_fabric.py`` for the overload control
plane: every coordinator↔worker call is bounded by an
:class:`~repro.resilience.RpcPolicy` deadline, a transiently severed
worker session auto-reconnects under a stable identity, and the
coordinator's per-identity circuit breaker quarantines identities that
flap. The acceptance bar is unchanged: a sweep that suffered timeouts,
flaps and reconnects produces a report bit-identical to the fault-free
golden, with only the ``resilience`` accounting block differing.

Thread-worker caveat (same as ``test_fabric.py``): plans here must never
use the ``exit`` action, and flap/timeout injections key on roles or
index/session pairs so exactly the intended edge is severed.
"""

import contextlib
import socket
import threading
import time

import pytest

from repro.fabric import (
    FabricCoordinator,
    FabricExecutor,
    FabricWorker,
    recv_message,
    send_message,
)
from repro.fabric.coordinator import BREAKER_COOLDOWN, BREAKER_THRESHOLD
from repro.fabric.protocol import RpcTimeout
from repro.faults import injected
from repro.resilience import CircuitBreaker, RpcPolicy
from repro.sim.runner import SimulationRunner
from repro.sim.sweep import SweepSpec, run_sweep, sweep_table

from fabric_schedule import Schedule, task

BENCHES = ("gob", "hmmer")
MISSES = 150


def _runner(tmp_path, tag, **kw) -> SimulationRunner:
    return SimulationRunner(
        misses_per_benchmark=MISSES,
        cache_dir=tmp_path / tag / "traces",
        result_cache_dir=tmp_path / tag / "results",
        **kw,
    )


def _sweep() -> SweepSpec:
    return SweepSpec.from_args(
        schemes=["P_X16", "PC_X32"],
        grid={"plb_capacity_bytes": ["4KiB", "8KiB"]},
        benchmarks=BENCHES,
    )


def _strip(report):
    clone = dict(report)
    assert "resilience" in clone
    clone.pop("resilience")
    return clone


def _start_worker(host, port):
    thread = threading.Thread(
        target=FabricWorker(host, port).run, daemon=True
    )
    thread.start()
    return thread


@contextlib.contextmanager
def _fabric(runner, n_workers=2):
    coordinator = FabricCoordinator(runner, spawn=0)
    host, port = coordinator.start()
    threads = [_start_worker(host, port) for _ in range(n_workers)]
    try:
        yield coordinator, FabricExecutor(coordinator)
    finally:
        coordinator.close()
        for thread in threads:
            thread.join(timeout=5)


class TestRpcTimeouts:
    def test_real_socket_timeout_surfaces_as_rpc_timeout(self):
        a, b = socket.socketpair()
        try:
            b.settimeout(None)
            with pytest.raises(RpcTimeout):
                recv_message(b, timeout=0.05)
            # The per-call deadline is scoped: the socket's prior
            # (blocking) timeout is restored afterwards.
            assert b.gettimeout() is None
        finally:
            a.close()
            b.close()

    def test_rpc_timeout_is_countable_but_handled_as_disconnect(self):
        from repro.fabric.protocol import ProtocolError

        assert issubclass(RpcTimeout, ProtocolError)
        a, b = socket.socketpair()
        try:
            with injected("rpc.timeout.crash@peer/send/need#1") as plan:
                with pytest.raises(RpcTimeout):
                    send_message(a, {"type": "need"})
            assert plan.fired
        finally:
            a.close()
            b.close()

    def test_coordinator_lease_timeout_heals_bit_identical(self, tmp_path):
        golden = run_sweep(_sweep(), _runner(tmp_path, "g"))
        runner = _runner(tmp_path, "t")
        # The first lease the coordinator sends times out; the worker's
        # session is severed, it reconnects, and the lease re-dispatches.
        with injected("rpc.timeout.crash@coordinator/send/lease#1") as plan:
            with _fabric(runner, n_workers=2) as (coordinator, executor):
                report = run_sweep(_sweep(), runner, executor=executor)
        assert plan.fired
        fabric = report["resilience"]["fabric"]
        assert fabric["rpc_timeouts"] >= 1
        assert fabric["dead"] >= 1
        assert fabric["reconnects"] >= 1
        assert _strip(report) == _strip(golden)
        assert sweep_table(report) == sweep_table(golden)

    def test_worker_side_timeout_triggers_reconnect(self, tmp_path):
        golden = run_sweep(_sweep(), _runner(tmp_path, "g"))
        runner = _runner(tmp_path, "wt")
        with injected("rpc.timeout.crash@worker/send/need#1") as plan:
            with _fabric(runner, n_workers=2) as (coordinator, executor):
                report = run_sweep(_sweep(), runner, executor=executor)
        assert plan.fired
        assert report["resilience"]["fabric"]["reconnects"] >= 1
        assert _strip(report) == _strip(golden)

    def test_heartbeats_resume_after_a_gap_in_reading(self, tmp_path):
        """Beats that fill an unread socket wait, past the RPC deadline.

        The coordinator reads nothing between two ``execute()`` calls. A
        beat blocked on the full socket must not end the heartbeats, or
        the next call would find the worker silent.
        """
        ours, theirs = socket.socketpair()
        theirs.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        worker = FabricWorker.forked(theirs, _runner(tmp_path, "hb"))
        worker.rpc = RpcPolicy(timeout=0.05)
        codes = []
        thread = threading.Thread(target=lambda: codes.append(worker.run()))
        thread.start()
        try:
            assert recv_message(ours, timeout=10)["type"] == "hello"
            send_message(
                ours,
                {"type": "config", "index": 0, "runner": None, "heartbeat": 0.001},
            )
            # From its "need" on, only the heartbeat thread sends.
            while recv_message(ours, timeout=5)["type"] != "need":
                pass
            time.sleep(0.5)  # unread: the socket fills, a beat blocks 10x its deadline
            beats = 0
            while beats < 500:  # far more than the full socket held
                if recv_message(ours, timeout=5)["type"] == "heartbeat":
                    beats += 1
            send_message(ours, {"type": "shutdown"})
            thread.join(timeout=10)
        finally:
            ours.close()
            thread.join(timeout=10)
        assert codes == [0]


class TestWorkerReconnect:
    def test_idents_distinguish_workers_sharing_a_pid(self):
        a = FabricWorker("127.0.0.1", 1)
        b = FabricWorker("127.0.0.1", 1)
        assert a.ident != b.ident
        assert a.ident.split(".")[0] == b.ident.split(".")[0]  # same pid

    def test_flapped_session_reconnects_and_heals(self, tmp_path):
        golden = run_sweep(_sweep(), _runner(tmp_path, "g"))
        runner = _runner(tmp_path, "f")
        # Whichever worker lands index 0 flaps right after its first
        # configuration, then rejoins as a fresh session.
        with injected("rpc.flap.crash@0/1#1") as plan:
            with _fabric(runner, n_workers=2) as (coordinator, executor):
                report = run_sweep(_sweep(), runner, executor=executor)
        assert plan.fired
        fabric = report["resilience"]["fabric"]
        assert fabric["dead"] >= 1
        assert fabric["reconnects"] >= 1
        assert _strip(report) == _strip(golden)
        assert sweep_table(report) == sweep_table(golden)

    def test_repeated_flaps_trip_the_breaker(self):
        """An identity whose sessions keep dropping is quarantined.

        Its leases go to a healthy worker instead; the flaps cost no
        wall time, only ``BREAKER_THRESHOLD`` scripted hang-ups.
        """
        with Schedule() as s:
            for session in range(1, BREAKER_THRESHOLD + 1):
                s.feed(s.join("flappy", session), None)
            assert s.counters["breaker_trips"] == 1
            refused = s.join("flappy", BREAKER_THRESHOLD + 1)
            assert refused.types() == ["shutdown"] and refused.closed
            healthy = s.join("healthy")
            s.begin([task("P_X16")])
            assert healthy.todo and not refused.todo
            s.finish(healthy)
            assert s.done
            assert s.counters["dead"] == BREAKER_THRESHOLD
            assert s.counters["reconnects"] == BREAKER_THRESHOLD - 1
            assert s.counters["quarantined_workers"] == 1


class TestQuarantine:
    def test_tripped_identity_is_refused_at_hello(self):
        with Schedule() as s:
            breaker = CircuitBreaker(BREAKER_THRESHOLD, BREAKER_COOLDOWN)
            for _ in range(BREAKER_THRESHOLD):
                breaker.record_failure(s.now)
            # Pre-trip exactly this identity, as repeated failures would.
            s.coordinator._breakers["w"] = breaker
            conn = s.join("w")
            assert conn.types() == ["shutdown"]  # refused: no config ever
            assert not conn.alive and conn.index is None
            assert s.counters["quarantined_workers"] == 1
            assert s.counters["workers_joined"] == 0

    def test_quarantine_lifts_after_cooldown(self):
        with Schedule() as s:
            for session in range(1, BREAKER_THRESHOLD + 1):
                s.feed(s.join("w", session), None)
            s.now += BREAKER_COOLDOWN - 1
            assert not s.join("w", BREAKER_THRESHOLD + 1).alive
            s.now += 1  # cooldown elapsed: a half-open probe is admitted
            probe = s.join("w", BREAKER_THRESHOLD + 2)
            assert probe.alive and probe.types() == ["config"]
            s.begin([task("P_X16")])
            s.finish(probe)  # a completed cell closes the breaker again
            assert not s.coordinator._breakers["w"].open
            assert s.counters["quarantined_workers"] == 1
            assert s.counters["workers_joined"] == BREAKER_THRESHOLD + 1


class TestRpcPolicyPlumbing:
    def test_worker_reads_policy_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONNECT_RETRIES", "2")
        monkeypatch.setenv("REPRO_RPC_TIMEOUT", "7.5")
        worker = FabricWorker("127.0.0.1", 1)
        assert worker.rpc.connect_attempts == 2
        assert worker.rpc.timeout == 7.5

    def test_unreachable_coordinator_respects_bounded_retries(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        worker = FabricWorker(
            "127.0.0.1",
            port,
            connect_timeout=0.5,
            rpc=RpcPolicy(connect_attempts=2, backoff=0.01, seed=1),
        )
        from repro.fabric.protocol import ProtocolError

        with pytest.raises(ProtocolError, match="2 attempt"):
            worker.run()

    def test_coordinator_send_deadlines_use_policy(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RPC_TIMEOUT", "12.5")
        runner = _runner(tmp_path, "p")
        coordinator = FabricCoordinator(runner, spawn=0)
        try:
            assert coordinator._rpc.timeout == 12.5
            counters = coordinator.stats()
            for key in (
                "rpc_timeouts", "reconnects", "breaker_trips",
                "quarantined_workers",
            ):
                assert counters[key] == 0
        finally:
            coordinator.store.close()

"""Fabric RPC hardening: per-call deadlines on forked workers.

Chaos-lockstep extensions of ``test_fabric.py``: every coordinator and
worker send but a heartbeat is bounded by ``REPRO_RPC_TIMEOUT``, and an
expired deadline is counted and handled like a severed connection — the
worker is reclaimed and re-forked. The acceptance bar is unchanged: a
sweep that suffered timeouts produces a report bit-identical to the
fault-free golden, with only the ``resilience`` accounting block
differing.

A plan keyed on the coordinator's side of a frame is installed here
with ``injected``; it counts in this process only, so it fires once
however often a worker is re-forked.
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
from repro.fabric import worker as worker_module
from repro.fabric.protocol import RpcTimeout
from repro.faults import injected
from repro.sim.runner import SimulationRunner
from repro.sim.sweep import SweepSpec, run_sweep, sweep_table

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


@contextlib.contextmanager
def _fabric(runner, n_workers=2):
    with FabricCoordinator(runner, spawn=n_workers) as coordinator:
        yield coordinator, FabricExecutor(coordinator)


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
        # The first lease the coordinator sends times out; the worker is
        # reclaimed and re-forked, and the lease re-dispatches.
        with injected("rpc.timeout.crash@coordinator/send/lease#1") as plan:
            with _fabric(runner, n_workers=2) as (coordinator, executor):
                report = run_sweep(_sweep(), runner, executor=executor)
        assert plan.fired
        fabric = report["resilience"]["fabric"]
        assert fabric["rpc_timeouts"] == 1
        assert fabric["dead"] == fabric["respawned"] == 1
        assert _strip(report) == _strip(golden)
        assert sweep_table(report) == sweep_table(golden)

    def test_heartbeats_resume_after_a_gap_in_reading(
        self, tmp_path, monkeypatch
    ):
        """Beats that fill an unread socket wait, past the RPC deadline.

        The coordinator reads nothing between two ``execute()`` calls. A
        beat blocked on the full socket must not end the heartbeats, or
        the next call would find the worker silent. The worker runs on a
        thread here, on its end of the pair, as a forked child would.
        """
        monkeypatch.setattr(worker_module, "HEARTBEAT_INTERVAL", 0.001)
        monkeypatch.setenv("REPRO_RPC_TIMEOUT", "0.05")
        ours, theirs = socket.socketpair()
        theirs.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        worker = FabricWorker(theirs, _runner(tmp_path, "hb"), 0)
        codes = []
        thread = threading.Thread(target=lambda: codes.append(worker.run()))
        thread.start()
        try:
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


class TestRpcDeadline:
    def test_both_ends_read_rpc_timeout(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RPC_TIMEOUT", "12.5")
        runner = _runner(tmp_path, "p")
        coordinator = FabricCoordinator(runner, spawn=0)
        ours, theirs = socket.socketpair()
        try:
            assert coordinator._rpc_timeout == 12.5
            assert FabricWorker(theirs, runner, 0)._timeout == 12.5
            counters = coordinator.stats()
            assert counters["rpc_timeouts"] == counters["reconnects"] == 0
            assert "breaker_trips" not in counters
            assert "quarantined_workers" not in counters
        finally:
            ours.close()
            theirs.close()

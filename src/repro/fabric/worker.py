"""Fabric worker: executes leased sweep cells in a forked child.

A coordinator forks each worker on its end of a socketpair, with its
index as an argument; the child replays with the runner the fork
inherited, traces included. It loops: ask for a lease (``need``),
execute every task in it, stream one ``result``/``error`` frame per
cell, repeat until a ``shutdown`` frame or end-of-file arrives. A side
thread sends ``heartbeat`` frames so the coordinator can distinguish
"busy replaying a long cell" from "dead" — a worker computing for
minutes keeps beating; a killed worker goes silent and its leases are
reclaimed.

A pair cannot be redialled: a severed connection (socket error, RPC
timeout, injected ``fabric.rpc`` crash) ends the worker with exit code
0, and its coordinator reclaims its leases and re-forks it.
``REPRO_RPC_TIMEOUT`` bounds worker sends other than heartbeats. The
waits for a lease and for a heartbeat's send are deliberately
unbounded: the coordinator reads its sockets only while it executes
cells, so beats that fill the socket in a long gap between two calls
resume when it reads again; end-of-file and heartbeats cover a dead
peer.

Determinism: a worker never *decides* anything. Which cell it runs,
with which sized spec and attempt number, is dictated by the lease; the
cell itself derives all randomness from the runner seed. A result
travels back in its ``result`` frame and, when the inherited runner has
a result store, lands there too, content-addressed, so a re-run (or a
re-dispatched attempt on another worker) reuses it byte-identically.

Fault plane: every executed cell passes ``fault_hook("fabric.worker",
"<label>/<bench>/<attempt>")``, so chaos plans can kill a worker on a
specific cell (``fabric.worker.exit@...``) or stall it
(``fabric.worker.stall@...``).

Cell failures are reported as ``error`` frames only for *expected*
failure kinds (:data:`~repro.errors.CELL_FAILURES`); a programming
error in the cell path propagates and kills the worker, so the bug
surfaces through the coordinator's dead-worker accounting instead of
masquerading as a retryable cell failure.
"""

from __future__ import annotations

import socket
import threading
from typing import Dict

from repro.errors import CELL_FAILURES
from repro.fabric.protocol import ProtocolError, recv_message, send_message
from repro.faults import fault_hook
from repro.settings import Settings
from repro.sim.runner import Cell, SimulationRunner
from repro.spec import SchemeSpec

#: Seconds between a worker's heartbeats.
HEARTBEAT_INTERVAL = 0.25


class FabricWorker:
    """One forked worker on its end of a socketpair (or a test's thread)."""

    def __init__(self, sock: socket.socket, runner: SimulationRunner, index: int):
        self.index = index
        self._sock = sock
        self._timeout = Settings.from_env().rpc_timeout
        self._send_lock = threading.Lock()
        self._base = runner
        # Derived runners per non-default miss budget (bench-grid sweeps).
        self._runners: Dict[int, SimulationRunner] = {}

    def run(self) -> int:
        """Serve leases until shutdown or severance; returns the exit code 0."""
        stop = threading.Event()
        threading.Thread(
            target=self._heartbeat_loop, args=(stop,), daemon=True,
            name=f"fabric-heartbeat-{self.index}",
        ).start()
        try:
            while True:
                self._send({"type": "need"})
                message = recv_message(self._sock, "worker")
                if message is None or message.get("type") == "shutdown":
                    return 0
                if message.get("type") == "lease":
                    for task in message.get("tasks", []):
                        self._execute(task)
        except ProtocolError:
            return 0  # severed: the coordinator reclaims our leases
        finally:
            stop.set()
            try:
                self._sock.close()
            except OSError:
                pass

    def _send(self, message: Dict) -> None:
        with self._send_lock:
            send_message(self._sock, message, "worker", timeout=self._timeout)

    def _heartbeat_loop(self, stop: threading.Event) -> None:
        n = 0
        while not stop.wait(HEARTBEAT_INTERVAL):
            n += 1
            try:
                # No deadline: between two execute() calls nobody reads,
                # and a beat that fills the socket waits for the next call
                # instead of ending the beats for the rest of the run.
                with self._send_lock:
                    send_message(self._sock, {"type": "heartbeat", "n": n}, "worker")
            except ProtocolError:
                return  # severed: the coordinator's timeout handles us

    def _runner_for(self, misses: int) -> SimulationRunner:
        if misses == self._base.misses:
            return self._base
        runner = self._runners.get(misses)
        if runner is None:
            runner = self._base.derive(misses_per_benchmark=misses)
            self._runners[misses] = runner
        return runner

    def _execute(self, task: Dict) -> None:
        """Run one leased cell and stream its result (or error) back."""
        label = task["label"]
        bench = task["bench"]
        attempt = int(task.get("attempt", 1))
        try:
            fault_hook("fabric.worker", f"{label}/{bench}/{attempt}")
            runner = self._runner_for(int(task.get("misses", self._base.misses)))
            spec = None if task["spec"] is None else SchemeSpec.from_dict(task["spec"])
            result = runner.run_cell(Cell(task["id"], label, bench, spec), attempt)
        except CELL_FAILURES as exc:
            reply = {
                "type": "error",
                "id": task["id"],
                "error": f"{type(exc).__name__}: {exc}",
            }
        else:
            reply = {
                "type": "result",
                "id": task["id"],
                "result": result.to_dict(),
            }
        self._send(reply)

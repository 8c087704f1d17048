"""Fabric worker: executes leased sweep cells against a shipped runner.

A worker dials the coordinator (with bounded, seeded-jitter connect
retries — see :class:`~repro.resilience.RpcPolicy`), introduces itself,
receives its runner configuration (the runner's constructor payload,
made wire-safe by :func:`runner_to_wire`), and then loops: ask for a
lease (``need``), execute every task in it, stream one
``result``/``error`` frame per cell, repeat until a ``shutdown`` frame
arrives (a deliberate stop always carries one; a bare mid-session EOF is
severance and triggers a reconnect, never a silent exit). A side thread
sends ``heartbeat`` frames so the coordinator can distinguish "busy
replaying a long cell" from "dead" — a worker computing for minutes
keeps beating; a killed worker goes silent and its leases are reclaimed.

A coordinator's local workers are the same loop in a forked process
(:meth:`FabricWorker.forked`): it starts on its end of a socketpair
instead of dialling and replays with the runner the fork inherited,
traces included. A pair cannot be redialled, so where a dialled worker
reconnects, a forked one exits and its coordinator respawns it.

Transient failures heal in place: a session severed mid-stream (socket
error, RPC timeout, injected ``rpc.flap``) is *reconnected* — the worker
dials again under the same identity and rejoins as a fresh session; the
coordinator counts the reconnect and its per-worker circuit breaker
quarantines identities that flap repeatedly. A coordinator that is
gone for good fails the redial loop, which is a clean exit (its leases
were reclaimed the moment the connection dropped). ``REPRO_CONNECT_RETRIES``
bounds each dial loop; ``REPRO_RPC_TIMEOUT`` bounds worker sends other
than heartbeats. The waits for ``config``, for a lease and for a
heartbeat's send are deliberately unbounded: the coordinator reads its
sockets only while it executes cells, so a worker that dials between two
sweeps waits for the next one, and beats that fill the socket in a long
gap resume when it reads again; end-of-file and heartbeats cover a dead
peer.

Determinism: a worker never *decides* anything. Which cell it runs,
with which sized spec and attempt number, is dictated by the lease; the
cell itself derives all randomness from the runner seed. Results land
in the shared content-addressed store via the runner's own caches, so
the coordinator (and any other worker) can reuse them byte-identically.

Fault plane: every executed cell passes ``fault_hook("fabric.worker",
"<label>/<bench>/<attempt>")`` and each heartbeat passes
``fault_hook("fabric.heartbeat", "<index>/<n>")``, so chaos plans can
kill a worker on a specific cell (``fabric.worker.exit@...``) or silence
its heartbeat (``fabric.heartbeat.stall@...``). Each session
additionally passes ``fault_hook("rpc.flap", "<index>/<session>")``
right after configuration: a ``crash`` there severs the session and
drives the reconnect path deterministically.

Cell failures are reported as ``error`` frames only for *expected*
failure kinds (:data:`~repro.errors.CELL_FAILURES`); a programming
error in the cell path propagates and kills the worker, so the bug
surfaces through the coordinator's dead-worker accounting instead of
masquerading as a retryable cell failure.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import socket
import threading
import time
from pathlib import Path
from typing import Dict, Optional

from repro.config import Platform
from repro.errors import CELL_FAILURES, InjectedFault
from repro.fabric.protocol import (
    ProtocolError,
    parse_address,
    recv_message,
    send_message,
)
from repro.faults import fault_hook, install_from
from repro.resilience import RpcPolicy
from repro.settings import Settings
from repro.sim.runner import Cell, SimulationRunner
from repro.spec import SchemeSpec

#: Distinguishes worker instances sharing one process (thread workers in
#: tests); combined with the pid it forms the worker's fabric identity.
_INSTANCES = itertools.count()


def runner_to_wire(runner: SimulationRunner) -> Dict[str, object]:
    """JSON-safe image of a runner's spawn payload (inverse: :func:`runner_from_wire`)."""
    wire = dict(runner._spawn_payload())
    wire["platform"] = dataclasses.asdict(runner.platform)
    for field in ("cache_dir", "result_cache_dir"):
        wire[field] = str(wire[field]) if wire[field] is not None else None
    return wire


def runner_from_wire(wire: Dict[str, object]) -> SimulationRunner:
    """Rebuild a runner from :func:`runner_to_wire`'s image."""
    payload = dict(wire)
    payload["platform"] = Platform(**payload["platform"])
    for field in ("cache_dir", "result_cache_dir"):
        value = payload[field]
        payload[field] = Path(value) if value is not None else None
    return SimulationRunner(**payload)  # type: ignore[arg-type]


class FabricWorker:
    """One worker endpoint (runnable in a process *or* a test thread)."""

    def __init__(
        self,
        host: str,
        port: int,
        connect_timeout: float = 10.0,
        rpc: Optional[RpcPolicy] = None,
    ):
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.ident = f"{os.getpid()}.{next(_INSTANCES)}"
        self.rpc = (
            rpc
            if rpc is not None
            else RpcPolicy.from_settings(Settings.from_env(), seed=os.getpid())
        )
        self.index: Optional[int] = None
        self.cells_executed = 0
        self.sessions = 0
        self.reconnects = 0
        self._sock: Optional[socket.socket] = None
        self._pair: Optional[socket.socket] = None
        self._send_lock = threading.Lock()
        self._base: Optional[SimulationRunner] = None
        # Derived runners per non-default miss budget (bench-grid sweeps).
        self._runners: Dict[int, SimulationRunner] = {}

    @classmethod
    def forked(cls, sock: socket.socket, runner: SimulationRunner) -> "FabricWorker":
        """A local worker on its end of a socketpair, replaying with ``runner``.

        The pair serves one session; a severed one ends :meth:`run`.
        """
        worker = cls("", 0)  # no address: the pair is its one connection
        worker._pair = sock
        worker._base = runner
        return worker

    def run(self) -> int:
        """Serve sessions until shutdown/unreachable; returns an exit code.

        Each session is one connect→hello→config→lease-loop lifetime; a
        transiently severed session rolls into a reconnect, a clean
        shutdown (or a coordinator gone for good after we served) ends
        the loop.
        """
        while True:
            self.sessions += 1
            code = self._session(self.sessions)
            if code is not None:
                return code
            self.reconnects += 1

    def _connect(self) -> None:
        """Dial with bounded, seeded-jitter retries (``REPRO_CONNECT_RETRIES``)."""
        if not self.host:  # forked: its pair serves one session, then nothing
            if self._pair is None:
                raise ProtocolError("a local worker's socketpair cannot be redialled")
            self._sock, self._pair = self._pair, None
            return
        last: Optional[Exception] = None
        for attempt in range(1, self.rpc.connect_attempts + 1):
            delay = self.rpc.delay(attempt)
            if delay:
                time.sleep(delay)
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.connect_timeout
                )
                self._sock.settimeout(None)
                return
            except OSError as exc:
                last = exc
        raise ProtocolError(
            f"cannot reach coordinator at {self.host}:{self.port} "
            f"after {self.rpc.connect_attempts} attempt(s): {last}"
        )

    def _session(self, session: int) -> Optional[int]:
        """One connection lifetime; an exit code, or None to reconnect."""
        try:
            self._connect()
        except ProtocolError:
            if session == 1:
                raise  # never reached a coordinator: surface the error
            return 0  # coordinator gone after we served: clean exit
        stop = threading.Event()
        sock = self._sock
        try:
            self._send(
                {
                    "type": "hello",
                    "pid": os.getpid(),
                    "ident": self.ident,
                    "session": session,
                }
            )
            config = recv_message(sock, "worker")
            if config is None or config.get("type") != "config":
                return 0  # coordinator went away (or quarantined us)
            self.index = config["index"]
            if self._base is None:
                self._base = runner_from_wire(config["runner"])
            heartbeat = float(config.get("heartbeat", 0) or 0)
            if heartbeat > 0:
                threading.Thread(
                    target=self._heartbeat_loop,
                    args=(heartbeat, stop, sock),
                    daemon=True,
                    name=f"fabric-heartbeat-{self.index}",
                ).start()
            try:
                fault_hook("rpc.flap", f"{self.index}/{session}")
            except InjectedFault as exc:
                raise ProtocolError(f"session flapped (injected): {exc}") from exc
            while True:
                self._send({"type": "need"})
                message = recv_message(sock, "worker")
                if message is None:
                    # A deliberate stop always carries a "shutdown" frame
                    # (coordinator close and quarantine both send one), so
                    # a bare EOF mid-session means we were severed — the
                    # same as a reset, which path we take must not depend
                    # on whether unread bytes turned the close into an
                    # RST. Dial again; a coordinator that is gone for
                    # good fails the redial, which exits cleanly.
                    return None
                if message.get("type") == "shutdown":
                    return 0
                if message.get("type") == "lease":
                    for task in message.get("tasks", []):
                        self._execute(task)
        except ProtocolError:
            # Session severed (organically or by injection): the
            # coordinator reclaims our leases; dial again.
            return None
        finally:
            stop.set()
            try:
                sock.close()
            except OSError:
                pass

    def _send(self, message: Dict) -> None:
        with self._send_lock:
            send_message(self._sock, message, "worker", timeout=self.rpc.timeout)

    def _heartbeat_loop(
        self, interval: float, stop: threading.Event, sock: socket.socket
    ) -> None:
        n = 0
        while not stop.wait(interval):
            n += 1
            try:
                fault_hook("fabric.heartbeat", f"{self.index}/{n}")
                # No deadline: between two execute() calls nobody reads,
                # and a beat that fills the socket waits for the next call
                # instead of ending the beats for the rest of the session.
                with self._send_lock:
                    send_message(sock, {"type": "heartbeat", "n": n}, "worker")
            except (ProtocolError, InjectedFault, OSError):
                return  # silenced or severed: the coordinator's timeout handles us

    def _runner_for(self, misses: int) -> SimulationRunner:
        assert self._base is not None
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
            self.cells_executed += 1
            reply = {
                "type": "result",
                "id": task["id"],
                "result": result.to_dict(),
            }
        self._send(reply)


def serve_worker(address: str, connect_timeout: float = 10.0) -> int:
    """Process entry point for ``python -m repro fabric serve-worker``.

    Installs the fault plan from ``REPRO_FAULTS`` (counters restart with
    the process, which is why cross-process plans key on the attempt
    number) and serves until the coordinator shuts the connection down.
    """
    install_from(Settings.from_env())
    host, port = parse_address(address)
    return FabricWorker(host, port, connect_timeout=connect_timeout).run()

"""Fabric coordinator: shards sweep cells across workers with work-stealing.

The coordinator owns a listening socket, a set of worker connections,
and a single-threaded dispatch loop. Per-connection reader threads do
nothing but frame messages and timestamp liveness; every *semantic*
decision — leasing, stealing, retry accounting, quarantine, storing
journal entries via the sweep's progress callback — happens on the one
thread inside :meth:`FabricCoordinator.execute`, so report bookkeeping
needs no locking and happens in a deterministic, auditable order. Report *content* order never depends on any of this: the sweep
assembles cells in grid order, so fabric scheduling (like pool
scheduling before it) is invisible in the output bytes.

Scheduling model:

- every cold cell becomes a task ``{id, label, bench, spec, misses,
  attempt}`` whose ``id`` is the cell's canonical result digest — the
  same content-address the shared store uses (``spec`` is null for the
  insecure baseline);
- idle workers pull (``need``) and receive a lease of up to
  ``lease_cap`` tasks, sized down as the queue drains so the tail
  spreads across workers;
- a worker that goes idle while the queue is empty *steals* a task
  already leased to the most-loaded peer: duplicate execution is safe
  (results are deterministic and content-addressed; the first ``result``
  per id wins, and a cell's journal entry is stored once) and stragglers no
  longer serialize the tail;
- a worker that dies (connection drop, or heartbeat silence beyond
  ``heartbeat_timeout``) has its uniquely-leased cells reclaimed with
  one attempt charged each — exactly the process-pool's in-flight
  semantics, so fault plans keyed on attempt numbers behave identically
  — and re-dispatched to the survivors; spawned workers are respawned
  while budget remains;
- :class:`~repro.errors.FabricError` is raised only when progress is
  impossible: nobody ever joined within ``startup_timeout``, or every
  worker is gone with no respawn budget. Completed cells are already
  journaled at that point, so ``--resume`` continues exactly there.

RPC hardening: every coordinator send is bounded by the
:class:`~repro.resilience.RpcPolicy` timeout (``REPRO_RPC_TIMEOUT``);
an expiry is counted in ``rpc_timeouts`` and handled exactly like a
severed connection. Workers that reconnect after a transient failure
rejoin as fresh sessions under a stable identity (counted in
``reconnects``), and a per-identity :class:`~repro.resilience.CircuitBreaker`
quarantines identities that flap repeatedly — their redials are refused
(``quarantined_workers``) until the breaker cooldown elapses, so one
pathological host cannot keep churning leases. Every trip is counted
(``breaker_trips``); a completed cell fully closes the identity's
breaker again.
"""

from __future__ import annotations

import os
import queue
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import FabricError
from repro.fabric.protocol import (
    ProtocolError,
    RpcTimeout,
    recv_message,
    send_message,
)
from repro.fabric.store import SharedStore
from repro.fabric.worker import runner_to_wire
from repro.resilience import CircuitBreaker, RetryPolicy, RpcPolicy
from repro.settings import Settings
from repro.sim.metrics import SimResult
from repro.sim.runner import Cell, ProgressCallback, SimulationRunner


class _WorkerConn:
    """Coordinator-side state for one connected worker."""

    def __init__(self, index: int, sock: socket.socket, ident: str = "?"):
        self.index = index
        self.sock = sock
        self.ident = ident
        self.send_lock = threading.Lock()
        self.alive = True
        self.waiting = False  # blocked on recv, owed a lease when work appears
        self.last_seen = time.monotonic()
        self.leases: Dict[str, dict] = {}


class FabricCoordinator:
    """Accepts workers, leases cells, reclaims the dead, steals from stragglers."""

    def __init__(
        self,
        runner: SimulationRunner,
        *,
        spawn: int = 0,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_interval: float = 0.25,
        heartbeat_timeout: Optional[float] = None,
        startup_timeout: float = 60.0,
        lease_cap: int = 4,
        respawn_budget: Optional[int] = None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 60.0,
        rpc: Optional[RpcPolicy] = None,
    ):
        self.spawn = spawn
        self.host = host
        self.port = port
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = (
            heartbeat_timeout
            if heartbeat_timeout is not None
            else max(5.0, 20 * heartbeat_interval)
        )
        self.startup_timeout = startup_timeout
        self.lease_cap = max(1, lease_cap)
        self._respawn_budget = (
            respawn_budget if respawn_budget is not None else spawn * 4
        )
        # Attach the runner to the shared store so the wire image ships
        # the store's directories to every worker.
        self.store = SharedStore(runner)
        self.runner = self.store.attach(runner)
        self.address: Optional[Tuple[str, int]] = None
        self.counters: Dict[str, int] = {
            "workers_joined": 0,
            "dispatched": 0,
            "completed": 0,
            "stolen": 0,
            "errors": 0,
            "dead": 0,
            "timeouts": 0,
            "reclaimed": 0,
            "respawned": 0,
            "rpc_timeouts": 0,
            "reconnects": 0,
            "breaker_trips": 0,
            "quarantined_workers": 0,
        }
        self._breaker_threshold = max(1, breaker_threshold)
        self._breaker_cooldown = breaker_cooldown
        settings = Settings.from_env()
        self._rpc = rpc if rpc is not None else RpcPolicy.from_settings(settings)
        # Per-worker-identity circuit breakers: a worker that keeps
        # flapping (N consecutive failures) is quarantined — its redials
        # are refused until the cooldown elapses. Keyed by the worker's
        # self-assigned ident, which survives reconnects, not by the
        # per-session connection index.
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._server: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conns: Dict[int, _WorkerConn] = {}
        self._procs: List[subprocess.Popen] = []
        self._events: "queue.Queue[Tuple[str, int, Optional[dict]]]" = queue.Queue()
        self._lock = threading.Lock()
        self._next_index = 0
        self._closing = False
        self._last_liveness = time.monotonic()
        # execute()-scoped scheduling state.
        self._open: Dict[str, dict] = {}
        self._pending: Deque[str] = deque()
        self._retry = RetryPolicy.from_settings(settings)
        self._failures: Optional[List[dict]] = None
        self._progress: Optional[ProgressCallback] = None

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind, accept, and spawn local workers; returns (host, port)."""
        self._server = socket.create_server((self.host, self.port))
        addr = self._server.getsockname()
        self.address = (addr[0], addr[1])
        self._last_liveness = time.monotonic()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True, name="fabric-accept"
        )
        self._accept_thread.start()
        for _ in range(self.spawn):
            self._spawn_worker()
        return self.address

    def close(self) -> None:
        """Shut workers down and release sockets, processes, and the store.

        The listener goes first, and a session admitted concurrently is
        either in the snapshot below or refused by :meth:`_conn_loop`: a
        worker still running a stolen duplicate finds its late ``result``
        unsendable, redials, is turned away and exits 0 — instead of
        rejoining a coordinator that will never lease to it again and
        sitting out the ``proc.wait`` below until it is terminated.
        """
        with self._lock:
            self._closing = True
            conns = list(self._conns.values())
        if self._server is not None:
            try:
                # close() alone does not wake a thread blocked in accept().
                self._server.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._server.close()
            except OSError:
                pass
        for conn in conns:
            with conn.send_lock:
                self._hang_up(conn.sock, shutdown_frame=conn.alive)
        for proc in self._procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=2)
                except subprocess.TimeoutExpired:
                    proc.kill()
        self.store.close()

    def _hang_up(self, sock: socket.socket, shutdown_frame: bool) -> None:
        """Close a worker's socket, first telling it to exit if asked."""
        if shutdown_frame:
            try:
                send_message(
                    sock, {"type": "shutdown"}, "coordinator",
                    timeout=self._rpc.timeout,
                )
            except ProtocolError:
                pass
        try:
            sock.close()
        except OSError:
            pass

    def __enter__(self) -> "FabricCoordinator":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> Dict[str, object]:
        """JSON-safe scheduling counters + shared-store inventory."""
        with self._lock:
            live = sum(1 for c in self._conns.values() if c.alive)
        out: Dict[str, object] = dict(self.counters)
        out["workers_live"] = live
        out["store"] = self.store.stats()
        return out

    def _spawn_worker(self) -> None:
        """Launch one local worker process pointed at our address.

        The child inherits our environment (``REPRO_FAULTS`` and cache
        knobs propagate exactly like pool workers) with the package's
        source root prepended to ``PYTHONPATH`` so ``-m repro`` resolves
        regardless of how the coordinator itself was launched.
        """
        import repro

        assert self.address is not None, "start() before _spawn_worker()"
        env = Settings.from_env().child_env()
        src_root = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (
            src_root if not existing else os.pathsep.join([src_root, existing])
        )
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "fabric",
                "serve-worker",
                "--connect",
                f"{self.address[0]}:{self.address[1]}",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        self._procs.append(proc)
        self._last_liveness = time.monotonic()

    # -- connection threads (framing + liveness only; no scheduling) -------------

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                sock, _addr = self._server.accept()
            except OSError:
                return
            threading.Thread(
                target=self._conn_loop,
                args=(sock,),
                daemon=True,
                name="fabric-conn",
            ).start()

    def _conn_loop(self, sock: socket.socket) -> None:
        try:
            hello = recv_message(sock, "coordinator")
        except ProtocolError:
            hello = None
        if hello is None or hello.get("type") != "hello":
            self._hang_up(sock, shutdown_frame=False)
            return
        ident = str(hello.get("ident") or hello.get("pid") or "?")
        session = int(hello.get("session", 1) or 1)
        with self._lock:
            refused = self._closing
            if not refused:
                breaker = self._breakers.get(ident)
                refused = breaker is not None and not breaker.allow()
                if refused:
                    self.counters["quarantined_workers"] += 1
            if not refused:
                index = self._next_index
                self._next_index += 1
                conn = _WorkerConn(index, sock, ident)
                self._conns[index] = conn
        if refused:
            # A coordinator that is closing, or a flapping identity inside
            # its cooldown: refuse the session so it stops churning
            # leases. The worker sees a non-config frame and exits
            # cleanly; a redial after the cooldown gets a half-open probe.
            self._hang_up(sock, shutdown_frame=True)
            return
        try:
            with conn.send_lock:
                send_message(
                    sock,
                    {
                        "type": "config",
                        "index": index,
                        "runner": runner_to_wire(self.runner),
                        "heartbeat": self.heartbeat_interval,
                    },
                    "coordinator",
                    timeout=self._rpc.timeout,
                )
        except RpcTimeout:
            self.counters["rpc_timeouts"] += 1
            self._events.put(("lost", index, None))
            return
        except ProtocolError:
            self._events.put(("lost", index, None))
            return
        self.counters["workers_joined"] += 1
        if session > 1:
            self.counters["reconnects"] += 1
        self._last_liveness = time.monotonic()
        self._events.put(("joined", index, None))
        while True:
            try:
                message = recv_message(sock, "coordinator")
            except ProtocolError:
                break
            if message is None:
                break
            conn.last_seen = time.monotonic()
            if message.get("type") == "heartbeat":
                continue
            self._events.put((message["type"], index, message))
        self._events.put(("lost", index, None))

    # -- the dispatch loop (single-threaded semantics) ---------------------------

    def execute(
        self,
        tasks: List[dict],
        *,
        retry: Optional[RetryPolicy] = None,
        failures: Optional[List[dict]] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        """Drive every task to completion (or quarantine) across the fabric.

        ``retry``/``failures`` follow :meth:`SimulationRunner.execute`
        semantics: a cell error (or a death-reclaim) charges one attempt;
        a cell that exhausts the budget is quarantined into ``failures``
        (or, with ``failures=None``, raises). ``progress`` is invoked on
        this thread, once per completed cell, in completion order.
        """
        self._retry = (
            retry
            if retry is not None
            else RetryPolicy.from_settings(Settings.from_env())
        )
        self._failures = failures
        self._progress = progress
        self._open = {}
        self._pending = deque()
        for task in tasks:
            task.setdefault("attempt", 1)
            if task["id"] in self._open:
                continue
            self._open[task["id"]] = task
            self._pending.append(task["id"])
        self._last_liveness = time.monotonic()
        self._kick_waiting()
        while self._open:
            try:
                event, index, message = self._events.get(
                    timeout=self.heartbeat_interval
                )
            except queue.Empty:
                self._check_liveness()
                continue
            self._handle(event, index, message)
            self._check_liveness()

    def _handle(self, event: str, index: int, message: Optional[dict]) -> None:
        conn = self._conns.get(index)
        if conn is None:
            return
        if event == "lost":
            self._on_worker_down(conn, "connection lost")
        elif event == "joined":
            pass  # the worker announces readiness with its first "need"
        elif not conn.alive:
            return  # late frames from a worker we already declared dead
        elif event == "need":
            conn.waiting = True
            self._dispatch(conn)
        elif event == "result":
            with self._lock:
                breaker = self._breakers.get(conn.ident)
            if breaker is not None:
                breaker.record_success()
            task = self._open.pop(message["id"], None)
            self._drop_task(message["id"])
            if task is not None:
                self.counters["completed"] += 1
                if self._progress is not None:
                    result = SimResult(**message["result"])
                    self._progress(task["label"], task["bench"], result, False)
        elif event == "error":
            self.counters["errors"] += 1
            conn.leases.pop(message["id"], None)
            task = self._open.get(message["id"])
            if task is not None and not self._leased_elsewhere(message["id"], None):
                self._charge(task, message["error"])

    def _dispatch(self, conn: _WorkerConn) -> None:
        """Lease pending work — or steal from a straggler — to an idle worker."""
        if not conn.alive or not conn.waiting:
            return
        with self._lock:
            live = max(1, sum(1 for c in self._conns.values() if c.alive))
        tasks: List[dict] = []
        if self._pending:
            chunk = min(
                len(self._pending),
                self.lease_cap,
                max(1, len(self._pending) // (2 * live)),
            )
            for _ in range(chunk):
                task_id = self._pending.popleft()
                task = self._open.get(task_id)
                if task is not None:
                    tasks.append(task)
        else:
            stolen = self._steal_for(conn)
            if stolen is not None:
                tasks.append(stolen)
                self.counters["stolen"] += 1
        if not tasks:
            return  # stays waiting; requeues and new work will kick it
        for task in tasks:
            conn.leases[task["id"]] = task
        conn.waiting = False
        self.counters["dispatched"] += len(tasks)
        try:
            with conn.send_lock:
                send_message(
                    conn.sock, {"type": "lease", "tasks": tasks}, "coordinator",
                    timeout=self._rpc.timeout,
                )
        except RpcTimeout:
            self.counters["rpc_timeouts"] += 1
            self._on_worker_down(conn, "lease send timed out")
        except ProtocolError:
            self._on_worker_down(conn, "lease send failed")

    def _steal_for(self, thief: _WorkerConn) -> Optional[dict]:
        """One stealable task from the most-loaded peer (None if nothing)."""
        with self._lock:
            victims = sorted(
                (
                    c
                    for c in self._conns.values()
                    if c.alive and c is not thief and c.leases
                ),
                key=lambda c: len(c.leases),
                reverse=True,
            )
        for victim in victims:
            for task_id, task in victim.leases.items():
                if task_id in self._open and task_id not in thief.leases:
                    return task
        return None

    def _leased_elsewhere(
        self, task_id: str, excluding: Optional[_WorkerConn]
    ) -> bool:
        with self._lock:
            return any(
                c.alive and c is not excluding and task_id in c.leases
                for c in self._conns.values()
            )

    def _drop_task(self, task_id: str) -> None:
        """Forget a resolved task everywhere it might still be referenced."""
        with self._lock:
            for c in self._conns.values():
                c.leases.pop(task_id, None)
        try:
            self._pending.remove(task_id)
        except ValueError:
            pass

    def _charge(self, task: dict, error: str) -> None:
        """Spend one attempt on a failed/reclaimed task; requeue or quarantine."""
        attempt = int(task["attempt"])
        if attempt >= self._retry.attempts:
            self._open.pop(task["id"], None)
            self._drop_task(task["id"])
            entry = {
                "scheme": task["label"],
                "benchmark": task["bench"],
                "attempts": attempt,
                "error": error,
            }
            if self._failures is None:
                raise FabricError(
                    f"cell {task['label']}/{task['bench']} failed "
                    f"{attempt} attempt(s): {error}"
                )
            self._failures.append(entry)
        else:
            task["attempt"] = attempt + 1
            if task["id"] not in self._pending:
                self._pending.append(task["id"])
            self._kick_waiting()

    def _kick_waiting(self) -> None:
        """Offer refilled work to every worker parked in the waiting state."""
        if not self._pending:
            return
        with self._lock:
            waiting = [
                c for c in self._conns.values() if c.alive and c.waiting
            ]
        for conn in waiting:
            if not self._pending:
                break
            self._dispatch(conn)

    def _on_worker_down(self, conn: _WorkerConn, reason: str) -> None:
        """Mark a worker dead, reclaim its unique leases, maybe respawn."""
        if not conn.alive:
            return
        conn.alive = False
        conn.waiting = False
        self._hang_up(conn.sock, shutdown_frame=False)
        self.counters["dead"] += 1
        if not self._closing:
            with self._lock:
                breaker = self._breakers.setdefault(
                    conn.ident,
                    CircuitBreaker(
                        threshold=self._breaker_threshold,
                        cooldown=self._breaker_cooldown,
                    ),
                )
            if breaker.record_failure():
                self.counters["breaker_trips"] += 1
        reclaim = list(conn.leases.items())
        conn.leases.clear()
        for task_id, task in reclaim:
            if task_id not in self._open:
                continue
            if self._leased_elsewhere(task_id, None) or task_id in self._pending:
                continue  # another copy is running or already queued
            self.counters["reclaimed"] += 1
            self._charge(task, f"FabricError: worker {conn.index} {reason}")
        if self._closing:
            return
        with self._lock:
            live = sum(1 for c in self._conns.values() if c.alive)
        if (
            self.spawn > 0
            and live < self.spawn
            and self._respawn_budget > 0
            and self._open
        ):
            self._respawn_budget -= 1
            self.counters["respawned"] += 1
            self._spawn_worker()

    def _check_liveness(self) -> None:
        """Time out silent workers; fail fast when the fabric is empty."""
        now = time.monotonic()
        with self._lock:
            conns = list(self._conns.values())
        for conn in conns:
            if conn.alive and now - conn.last_seen > self.heartbeat_timeout:
                self.counters["timeouts"] += 1
                self._on_worker_down(
                    conn,
                    f"heartbeat silent for {self.heartbeat_timeout:.1f}s",
                )
        if not self._open:
            return
        with self._lock:
            live = sum(1 for c in self._conns.values() if c.alive)
        if live:
            self._last_liveness = now
        elif now - self._last_liveness > self.startup_timeout:
            raise FabricError(
                f"no live fabric worker for {self.startup_timeout:.1f}s "
                f"({self.counters['workers_joined']} ever joined, respawn "
                f"budget {self._respawn_budget}); completed cells are "
                f"journaled — fix the workers and --resume"
            )


class FabricExecutor:
    """Adapter giving :func:`~repro.sim.sweep.run_sweep` a fabric backend.

    Mirrors :meth:`SimulationRunner.execute`: cached cells are served
    (and streamed through ``progress`` with ``cached=True``) without
    touching the fabric; only cold cells become lease tasks.
    Content-addressed ids make re-dispatch, stealing, and resume all
    idempotent.
    """

    def __init__(self, coordinator: FabricCoordinator):
        self.coordinator = coordinator

    def execute(
        self,
        runner: SimulationRunner,
        cells: Sequence[Cell],
        *,
        progress: Optional[ProgressCallback] = None,
        retry: Optional[RetryPolicy] = None,
        failures: Optional[List[dict]] = None,
    ) -> None:
        tasks: List[dict] = []
        for cell in cells:
            cached = runner._load_cached(cell)
            if cached is not None:
                if progress is not None:
                    progress(cell.label, cell.bench, cached, True)
                continue
            tasks.append(
                {
                    "id": cell.key,
                    "label": cell.label,
                    "bench": cell.bench,
                    "spec": cell.spec.to_dict() if cell.spec is not None else None,
                    "misses": runner.misses,
                }
            )
        if tasks:
            self.coordinator.execute(
                tasks, retry=retry, failures=failures, progress=progress
            )

    def stats(self) -> Optional[Dict[str, object]]:
        return self.coordinator.stats()

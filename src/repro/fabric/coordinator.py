"""Fabric coordinator: shards sweep cells across workers with work-stealing.

The coordinator owns a listening socket for workers that dial in, the
processes of the local workers it forks (each over a socketpair), a set
of worker connections, and a single-threaded dispatch loop.
Per-connection reader threads do nothing but frame messages, timestamp
liveness and bump counters under the lock; every *semantic* decision —
leasing, stealing, retry accounting, quarantine, storing journal entries
via the sweep's progress callback — happens on the one thread inside
:meth:`FabricCoordinator.execute`, in a deterministic, auditable order.
Report *content* order never depends on any of this: the sweep
assembles cells in grid order, so scheduling is invisible in the output
bytes.

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
- a worker that dies (connection drop, heartbeat silence beyond
  ``heartbeat_timeout``, or a leased cell running past the retry
  policy's ``timeout``) fails the attempt of every open cell it held,
  and those cells are re-dispatched to the survivors; local workers are
  stopped and respawned while budget remains;
- each attempt number is charged once, at its first failure (an
  ``error`` frame or a death), and the cell is requeued at the next
  number, so workers see a cell's attempts in the order a serial run
  would and fault plans keyed on attempt numbers behave as they do
  serially. A stolen copy still running a charged attempt may finish
  the cell, but its failure charges nothing;
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

import builtins
import multiprocessing
import queue
import socket
import sys
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro import errors
from repro.errors import CELL_FAILURES, FabricError
from repro.fabric.protocol import (
    ProtocolError,
    RpcTimeout,
    recv_message,
    send_message,
)
from repro.fabric.store import SharedStore
from repro.fabric.worker import FabricWorker, runner_to_wire
from repro.faults import install_from
from repro.resilience import CircuitBreaker, RetryPolicy, RpcPolicy
from repro.settings import Settings
from repro.sim.metrics import SimResult
from repro.sim.runner import Cell, ProgressCallback, SimulationRunner


#: Local workers are forked: a child inherits the runner and its traces.
_FORK = multiprocessing.get_context("fork")

#: The scheduling counters :meth:`FabricCoordinator.stats` reports.
COUNTERS = (
    "workers_joined", "dispatched", "completed", "stolen", "errors", "dead",
    "timeouts", "reclaimed", "respawned", "rpc_timeouts", "reconnects",
    "breaker_trips", "quarantined_workers",
)


def _cell_error(task: dict, error: str) -> Exception:
    """A quarantined cell's last reported ``"<type name>: <message>"`` error.

    A type among :data:`~repro.errors.CELL_FAILURES` is rebuilt, so a
    caller catches what the serial path raises; anything else becomes a
    :class:`~repro.errors.FabricError`.
    """
    name, _, text = error.partition(": ")
    where = f"cell {task['label']}/{task['bench']} failed {task['attempt']} attempt(s)"
    kind = getattr(errors, name, None) or getattr(builtins, name, None)
    try:
        if isinstance(kind, type) and issubclass(kind, CELL_FAILURES):
            return kind(f"{where}: {text}")
    except TypeError:  # it needs more than a message
        pass
    return FabricError(f"{where}: {error}")


class _WorkerConn:
    """Coordinator-side state for one connected worker."""

    def __init__(self, index: int, sock: socket.socket, ident: str = "?", proc=None):
        self.index = index
        self.sock = sock
        self.ident = ident
        self.proc = proc  # the forked process behind a local worker
        self.send_lock = threading.Lock()
        self.alive = True
        self.waiting = False  # blocked on recv, owed a lease when work appears
        self.last_seen = time.monotonic()
        # Its last lease, result or error; None from its next "need" on.
        self.busy_since: Optional[float] = None
        self.leases: Dict[str, int] = {}  # task id -> the attempt it runs


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
        self.counters: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
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
        self._procs: List[multiprocessing.process.BaseProcess] = []
        self._pairs: List[socket.socket] = []  # our ends of local workers' pairs
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
        """Bind, accept, and fork local workers; returns (host, port)."""
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
        unsendable or answered by ``shutdown`` and exits 0 — instead of
        rejoining a coordinator that will never lease to it again and
        sitting out the ``join`` below until it is terminated.
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
        # A worker still running a cell gets, all told, the time a cell is
        # allowed (5 s without a cell timeout) before it is terminated.
        deadline = time.monotonic() + min(5.0, self._retry.timeout or 5.0)
        for proc in self._procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.exitcode is None:
                proc.terminate()
                proc.join(timeout=2)
            if proc.exitcode is None:
                proc.kill()
                proc.join()
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

    def _count(self, name: str, n: int = 1) -> None:
        # Connection threads count too, and ``+=`` on a dict item is not
        # atomic: every increment takes the lock.
        with self._lock:
            self.counters[name] += n

    def _spawn_worker(self) -> None:
        """Fork one local worker over a socketpair.

        The child inherits this process: its environment, the runner and
        every trace synthesised so far. Our end of the pair joins through
        :meth:`_conn_loop` like a dialled-in worker's socket.
        """
        ours, theirs = socket.socketpair()
        self._pairs.append(ours)  # before the fork: the child closes it too
        proc = _FORK.Process(
            target=self._local_worker, args=(theirs,), daemon=True,
            name="fabric-worker",
        )
        proc.start()
        theirs.close()
        self._procs.append(proc)
        self._last_liveness = time.monotonic()
        threading.Thread(
            target=self._conn_loop, args=(ours, proc), daemon=True,
            name="fabric-conn",
        ).start()

    def _local_worker(self, sock: socket.socket) -> None:
        """A forked local worker's body: serve over ``sock``, then exit.

        It closes the coordinator's sockets it inherited, so a peer we
        hang up on sees end-of-file, and re-installs the fault plan from
        ``REPRO_FAULTS``, so occurrence counters restart per process.
        """
        conns = (c.sock for c in self._conns.values())
        for other in [self._server, *self._pairs, *conns]:
            other.close()
        install_from(Settings.from_env())
        sys.exit(FabricWorker.forked(sock, self.runner).run())

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

    def _conn_loop(self, sock: socket.socket, proc=None) -> None:
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
                conn = _WorkerConn(index, sock, ident, proc)
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
        except ProtocolError as exc:
            if isinstance(exc, RpcTimeout):
                self._count("rpc_timeouts")
            self._events.put(("lost", index, None))
            return
        self._count("workers_joined")
        if session > 1:
            self._count("reconnects")
        self._last_liveness = time.monotonic()  # it announces itself with "need"
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
        (or, with ``failures=None``, raises the error its worker reported,
        rebuilt by :func:`_cell_error`). ``progress`` is invoked on
        this thread, once per completed cell, in completion order.
        """
        self._retry = retry or RetryPolicy.from_settings(Settings.from_env())
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
        elif not conn.alive:
            return  # late frames from a worker we already declared dead
        elif event == "need":
            conn.waiting = True
            conn.busy_since = None
            self._dispatch(conn)
        elif event == "result":
            conn.busy_since = time.monotonic()
            with self._lock:
                breaker = self._breakers.get(conn.ident)
            if breaker is not None:
                breaker.record_success()
            task = self._open.pop(message["id"], None)
            self._drop_task(message["id"])
            if task is not None:
                self._count("completed")
                if self._progress is not None:
                    result = SimResult(**message["result"])
                    self._progress(task["label"], task["bench"], result, False)
        elif event == "error":
            conn.busy_since = time.monotonic()
            self._count("errors")
            attempt = conn.leases.pop(message["id"], None)
            task = self._open.get(message["id"])
            if task is not None and attempt is not None:
                self._failed(task, attempt, message["error"])

    def _dispatch(self, conn: _WorkerConn) -> None:
        """Lease pending work — or steal from a straggler — to an idle worker."""
        if not conn.alive or not conn.waiting:
            return
        with self._lock:
            live = max(1, sum(1 for c in self._conns.values() if c.alive))
        tasks: List[dict] = []
        if self._pending:
            chunk = min(self.lease_cap, max(1, len(self._pending) // (2 * live)))
            for _ in range(chunk):
                task_id = self._pending.popleft()
                task = self._open.get(task_id)
                if task is not None:
                    tasks.append(task)
        else:
            stolen = self._steal_for(conn)
            if stolen is not None:
                tasks.append(stolen)
                self._count("stolen")
        if not tasks:
            return  # stays waiting; requeues and new work will kick it
        for task in tasks:
            conn.leases[task["id"]] = task["attempt"]
        conn.waiting = False
        conn.busy_since = time.monotonic()
        self._count("dispatched", len(tasks))
        try:
            with conn.send_lock:
                send_message(
                    conn.sock, {"type": "lease", "tasks": tasks}, "coordinator",
                    timeout=self._rpc.timeout,
                )
        except RpcTimeout:
            self._count("rpc_timeouts")
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
            for task_id in victim.leases:
                if task_id in self._open and task_id not in thief.leases:
                    return self._open[task_id]
        return None

    def _running(self, task: dict) -> bool:
        """Whether a live worker holds a lease on the task's current attempt."""
        with self._lock:
            return any(
                c.alive and c.leases.get(task["id"]) == task["attempt"]
                for c in self._conns.values()
            )

    def _drop_task(self, task_id: str) -> None:
        """Forget a resolved task everywhere it might still be referenced."""
        with self._lock:
            for c in self._conns.values():
                c.leases.pop(task_id, None)
        if task_id in self._pending:
            self._pending.remove(task_id)

    def _failed(self, task: dict, attempt: int, error: str) -> None:
        """Attempt ``attempt`` of ``task`` failed: charge it, requeue or quarantine.

        Only the first failure of the current attempt is charged; a later
        one (a stolen copy of an attempt already charged) only makes sure
        the current attempt is queued or running somewhere.
        """
        if attempt == task["attempt"]:
            if attempt >= self._retry.attempts:
                self._open.pop(task["id"], None)
                self._drop_task(task["id"])
                if self._failures is None:
                    raise _cell_error(task, error)
                self._failures.append({
                    "scheme": task["label"], "benchmark": task["bench"],
                    "attempts": attempt, "error": error,
                })
                return
            task["attempt"] = attempt + 1
        if task["id"] not in self._pending and not self._running(task):
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
        """Mark a worker dead, fail the attempts it held, maybe respawn."""
        if not conn.alive:
            return
        conn.alive = False
        conn.waiting = False
        self._hang_up(conn.sock, shutdown_frame=False)
        if conn.proc is not None:
            conn.proc.terminate()  # a forked worker cannot redial: stop it
        self._count("dead")
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
                self._count("breaker_trips")
        reclaim = list(conn.leases.items())
        conn.leases.clear()
        for task_id, attempt in reclaim:
            task = self._open.get(task_id)
            if task is None:
                continue  # resolved
            self._count("reclaimed")
            # Charged even while a stolen copy runs the same attempt: else
            # each respawned worker steals a stalling attempt back.
            self._failed(task, attempt, f"FabricError: worker {conn.index} {reason}")
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
            self._count("respawned")
            self._spawn_worker()

    def _check_liveness(self) -> None:
        """Time out silent or stuck workers; fail fast when the fabric is empty.

        A worker whose current cell has run longer than the retry
        policy's ``timeout`` (``REPRO_CELL_TIMEOUT``) is handled like a
        silent one: reclaimed, one attempt charged, respawned. A worker is
        running a cell from a lease until it asks for work again, so one
        that has not yet been leased anything is never stuck.
        """
        now = time.monotonic()
        cell_timeout = self._retry.timeout
        with self._lock:
            conns = list(self._conns.values())
        for conn in conns:
            silent = now - conn.last_seen > self.heartbeat_timeout
            stuck = cell_timeout is not None and conn.busy_since is not None and (
                now - conn.busy_since > cell_timeout
            )
            if conn.alive and (silent or stuck):
                self._count("timeouts")
                self._on_worker_down(conn, (
                    f"heartbeat silent for {self.heartbeat_timeout:.1f}s"
                    if silent else f"cell running past {cell_timeout:.1f}s"
                ))
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

    ``FabricExecutor(coordinator)`` runs every call on that started
    coordinator, attached workers included. It mirrors
    :meth:`SimulationRunner.execute`: cached cells are served (and
    streamed through ``progress`` with ``cached=True``) without touching
    the fabric; only cold cells become lease tasks, baselines included.
    The traces they need are synthesised here first, once, into the
    shared trace store, which workers load instead of each synthesising
    its own. Content-addressed ids make re-dispatch, stealing, and resume
    all idempotent.

    ``FabricExecutor(workers=N)`` is ``runner.execute(cells, workers=N)``
    itself, whose calls each fork their own local workers once the
    traces exist; :meth:`stats` sums those calls' coordinator counters
    (None while no call has needed a coordinator).
    """

    def __init__(
        self, coordinator: Optional[FabricCoordinator] = None, *, workers: int = 0
    ):
        self.coordinator = coordinator
        self.workers = workers
        self._summed: Optional[Dict] = None

    def execute(
        self,
        runner: SimulationRunner,
        cells: Sequence[Cell],
        *,
        progress: Optional[ProgressCallback] = None,
        retry: Optional[RetryPolicy] = None,
        failures: Optional[List[dict]] = None,
    ) -> None:
        if self.coordinator is None:
            runner.execute(
                cells, workers=self.workers, progress=progress, retry=retry,
                failures=failures,
            )
            stats, total = runner.fabric_stats, self._summed
            if stats is not None:  # counters add up; the rest is the latest
                self._summed = stats if total is None else {
                    key: total[key] + value if key in COUNTERS else value
                    for key, value in stats.items()
                }
            return
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
        # Workers replay with the coordinator's runner (derived per miss
        # budget): synthesise with it, into the store they all read.
        source = self.coordinator.runner
        if source.misses != runner.misses:
            source = source.derive(misses_per_benchmark=runner.misses)
        for name in dict.fromkeys(task["bench"] for task in tasks):
            source.trace(name)
        if tasks:
            self.coordinator.execute(
                tasks, retry=retry, failures=failures, progress=progress
            )

    def stats(self) -> Optional[Dict[str, object]]:
        return self.coordinator.stats() if self.coordinator else self._summed
